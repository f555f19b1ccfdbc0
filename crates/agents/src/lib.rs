//! Displacement policies for the FairMove reproduction.
//!
//! The paper evaluates six methods (Section IV-A):
//!
//! * [`gt::GroundTruthPolicy`] — "GT": the no-displacement replay. Real
//!   drivers' heuristics, inferred from data in the paper; here a calibrated
//!   behaviour model with per-driver heterogeneity (home-region bias, demand
//!   perception noise, tariff price-chasing) that reproduces the Section II
//!   marginals.
//! * [`sd2::Sd2Policy`] — "SD2": shortest-distance displacement. Myopic:
//!   serve the nearest waiting passenger, charge at the nearest station. Its
//!   station herding is what produces the paper's negative PRIT.
//! * [`tql::TqlPolicy`] — "TQL": tabular Q-learning over a discretized
//!   (hour, location, battery) state.
//! * [`dqn::DqnPolicy`] — "DQN": deep Q-network with experience replay and a
//!   target network, scoring state–action feature vectors.
//! * [`tba::TbaPolicy`] — "TBA": the SIGSPATIAL-Cup trip bandit. REINFORCE
//!   on purely local state; agents are competitive (no fairness term, no
//!   global view).
//! * [`cma2c::Cma2cPolicy`] — **the paper's contribution**: Centralized
//!   Multi-Agent Actor-Critic. One shared actor and one shared critic over
//!   all taxis, centralized value trained on TD targets (Eq. 6–7), policy
//!   trained on the TD-error advantage (Eq. 8–11), reward mixing profit
//!   efficiency and fairness with weight α (Eq. 4–5).
//!
//! All policies implement [`fairmove_sim::DisplacementPolicy`] and are
//! evaluated against identical demand realizations by the experiment runner
//! in `fairmove-core`.

pub mod cma2c;
mod dispatch;
pub mod dqn;
pub mod features;
pub mod gt;
pub mod oracle;
pub mod sd2;
pub mod shard;
pub mod tba;
pub mod tql;
pub mod transition;

pub use cma2c::{Cma2cConfig, Cma2cPolicy};
pub use dqn::{DqnConfig, DqnPolicy};
pub use gt::GroundTruthPolicy;
pub use oracle::OraclePolicy;
pub use sd2::Sd2Policy;
pub use shard::Cma2cShardPolicy;
pub use tba::{TbaConfig, TbaPolicy};
pub use tql::{TqlConfig, TqlPolicy};
