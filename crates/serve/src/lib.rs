//! Crash-safe online dispatch serving for the FairMove reproduction.
//!
//! The paper's displacement system is an *online service*: once per slot
//! the central dispatcher answers "where should each vacant taxi go" for a
//! whole fleet, under real-time constraints. This crate packages the
//! simulator and the frozen CMA2C policy behind a small TCP protocol with
//! the failure-domain engineering such a service needs:
//!
//! * **Deadlines** — requests carry a budget; the server rejects early when
//!   the EWMA cost model predicts a miss, and drops queued requests whose
//!   budget lapsed ([`deadline`]).
//! * **Backpressure** — a bounded admission queue sheds (`ERR 429`) instead
//!   of queueing unboundedly ([`server`]).
//! * **Degradation** — a hysteretic service-level ladder steps from full
//!   CMA2C inference down to stay-put and a stateless greedy oracle under
//!   sustained overload or policy ill-health ([`degrade`]).
//! * **Crash safety** — every mutation is journaled (write-ahead, CRC per
//!   record) before executing; checkpoints are atomic and footer-verified;
//!   warm restart replays the journal on top of the newest valid checkpoint
//!   and provably reproduces the uninterrupted run bit-for-bit
//!   ([`journal`], [`dispatch`]).
//! * **Chaos testability** — [`fairmove_faults::KillPoints`] sites in the
//!   checkpoint and journal paths let tests crash the worker at the worst
//!   possible moments ([`server`]).

pub mod deadline;
pub mod degrade;
pub mod dispatch;
pub mod journal;
pub mod proto;
pub mod server;

pub use deadline::{CostModel, Deadline};
pub use degrade::{Degrader, ServiceLevel};
pub use dispatch::DispatchCore;
/// FNV-1a 64-bit, the digest clients use to compare two servers' states.
pub use fairmove_sim::fnv64;
pub use journal::Journal;
pub use proto::{parse_request, Request};
pub use server::{Client, DispatchServer, RecoveryInfo, ServeConfig};
