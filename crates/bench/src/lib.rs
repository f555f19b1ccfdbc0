//! Shared harness utilities for the experiment binaries.
//!
//! The binaries `figures` (Section II findings: Figs. 2–8, Table I) and
//! `evaluation` (Section IV results: Figs. 10–16, Tables II–IV, ablations)
//! both parse a `--scale` flag and print aligned text tables; that shared
//! machinery lives here.

pub mod report;
pub mod scale;
pub mod scale_bench;
pub mod scale_report;

pub use report::Table;
pub use scale::{parse_scale, Scale};
pub use scale_bench::{measure, measure_sharded, peak_rss_bytes, CountingPolicy, ShardBenchPolicy};
pub use scale_report::{ScaleReport, ScaleResult};
