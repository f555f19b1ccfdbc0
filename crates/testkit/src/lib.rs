//! The FairMove correctness substrate.
//!
//! An RL fleet simulator has no external source of truth: "the right
//! answer" is only defined relative to another run of the system itself.
//! This crate packages the three testing layers every other crate leans on:
//!
//! * **Invariant auditing** — [`fairmove_sim::InvariantAuditor`] lives in
//!   the simulator (it needs private state); this crate drives it from
//!   randomized scenarios and surfaces its violations as oracle failures.
//! * **Golden snapshots** ([`golden`], [`canon`]) — canonical text forms of
//!   fleet ledgers, comparison tables, and telemetry snapshots, compared
//!   against blessed files with first-divergence-slot diffing and a
//!   `FAIRMOVE_BLESS=1` re-bless workflow.
//! * **Shrinking property driver** ([`scenario`], [`oracle`], [`driver`]) —
//!   a seeded generator composes city size, fleet size, demand level, fault
//!   plans, α, and policy; differential/metamorphic oracles check every
//!   scenario; failures are greedily shrunk (halve slots, halve fleet, drop
//!   fault events, halve regions) to a minimal repro printed as a
//!   ready-to-paste regression test.
//! * **Allocation counting** ([`counting_alloc`]) — a [`std::alloc::System`]
//!   -delegating global allocator with thread-local and process-wide event
//!   counters and the [`allocs_in`] / [`allocs_in_process`] probes, so the
//!   hot path's zero-steady-state-allocation contract is an assertable
//!   test, not a code-review convention.
//!
//! Environment knobs (all optional):
//!
//! * `FAIRMOVE_BLESS=1` — rewrite golden files instead of failing.
//! * `FAIRMOVE_PROP_ITERS` — property-driver iterations (default 10).
//! * `FAIRMOVE_PROP_SEED` — base seed for scenario generation.
//! * `FAIRMOVE_REPRO_DIR` — directory to write minimized repro files into
//!   (what the scheduled CI job uploads as artifacts on failure).

pub mod canon;
pub mod counting_alloc;
pub mod differential;
pub mod driver;
pub mod golden;
pub mod oracle;
pub mod scenario;

pub use canon::{canon_comparison, canon_ledger, canon_snapshot};
pub use counting_alloc::{allocs_in, allocs_in_process, CountingAlloc};
pub use differential::{shard_differential_fidelity, FidelityReport};
pub use driver::{DriverConfig, DriverReport, Failure};
pub use golden::{assert_golden, GoldenMismatch};
pub use oracle::{check_all, OracleFailure};
pub use scenario::{PolicyKind, RunArtifacts, Scenario, ShardPolicyKind, TestRng};
