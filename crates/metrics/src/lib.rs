//! Evaluation metrics for the FairMove reproduction.
//!
//! Implements the paper's Section IV-A measurement suite:
//!
//! * profit efficiency **PE** (Eq. 2) and profit fairness **PF** (Eq. 3) in
//!   [`fairness`];
//! * the four headline comparison metrics **PRCT / PRIT / PIPE / PIPF**
//!   (Eq. 12–15) plus their hourly decompositions (Figs. 11 and 13) in
//!   [`comparison`];
//! * general distribution statistics (CDFs, quantiles, histograms) in
//!   [`stats`];
//! * the Section II data-driven findings extractors (charge-time CDF,
//!   charging peaks, first-cruise-time, per-region revenue) in [`findings`].

pub mod bootstrap;
pub mod comparison;
pub mod fairness;
pub mod findings;
pub mod stats;

pub use bootstrap::bootstrap_mean_ci;
pub use comparison::{hourly_prct, hourly_prit, pipe, pipf, prct, prit, MethodReport};
pub use fairness::{gini, jain_index, profit_fairness};
pub use stats::Cdf;
