//! Discrete-time e-taxi fleet simulator.
//!
//! The FairMove paper evaluates displacement policies by replaying one month
//! of Shenzhen fleet data; this crate is the executable equivalent. It steps
//! a fleet of e-taxis through 10-minute decision slots over a synthetic city
//! ([`fairmove_city`]) fed by a calibrated demand stream
//! ([`fairmove_data`]), and produces the working-cycle ledger (Section II-B
//! of the paper: cruise / serve / idle / charge time decomposition) that all
//! evaluation metrics are computed from.
//!
//! The mobility decomposition implemented here follows Fig. 1 of the paper:
//!
//! * **cruise** — vacant driving while seeking passengers (including
//!   policy-directed repositioning and driving to a matched passenger);
//! * **serve** — passenger on board, the only revenue-earning state;
//! * **idle** — seeking a charger and waiting in a station queue
//!   (`t4 − t3` in the paper);
//! * **charge** — plugged in (`t5 − t4`), costing `λ · T_charge`.
//!
//! Displacement decisions are delegated to a [`policy::DisplacementPolicy`]
//! once per slot for every *decision-ready* (vacant) taxi, mirroring the
//! paper's MDP: actions are stay / move to an adjacent region / charge at
//! one of the five nearest stations, with charging forced when the battery
//! falls below the threshold `η`.

pub mod action;
pub mod config;
pub mod env;
pub mod error;
pub mod ledger;
pub mod observation;
pub mod passenger;
pub mod policy;
pub mod resilient;
pub mod shard;
pub mod station;
pub mod taxi;
pub mod trace;

pub use action::{Action, ActionSet};
pub use config::SimConfig;
pub use env::audit::{AuditViolation, InvariantAuditor};
pub use env::state::{config_fingerprint, StateError};
pub use env::{Environment, FaultCounters, SlotFeedback};
pub use error::SimError;
pub use ledger::{ChargeEvent, FleetLedger, TaxiLedger, TripEvent};
pub use observation::{DecisionContext, ObservationView, SlotObservation, WorkingObservation};
pub use policy::{DisplacementPolicy, StayPolicy};
pub use resilient::{ResilienceStats, ResilientPolicy};
pub use shard::policy::{GreedyDeficitPolicy, ShardPolicy, ShardPolicyFactory, StayShardPolicy};
pub use shard::{
    fnv64, fnv64_continue, FleetTotals, ShardMap, ShardedEnv, FNV64_OFFSET, QUEUE_PATIENCE_MINUTES,
};
pub use taxi::{Taxi, TaxiId, TaxiState};
pub use trace::{TraceEvent, TraceLog};

// The fault-injection vocabulary is re-exported so downstream crates can
// build plans without a direct `fairmove-faults` dependency.
pub use fairmove_faults::{FaultPlan, FaultSet, FaultSpec, FleetShape, SlotWindow};

// Telemetry is part of the simulator's public vocabulary: environments and
// policies both accept a handle via `set_telemetry`.
pub use fairmove_telemetry::{Snapshot as TelemetrySnapshot, Telemetry};
