//! # fairmove-telemetry
//!
//! Structured observability for the FairMove stack: span timers, a typed
//! metrics registry, and exporters. The paper's pipeline is built on event
//! logs (2.48 B GPS records, 23.2 M transactions); this crate is the
//! reproduction's equivalent substrate — every layer (simulator, learners,
//! runner, bench binaries) records into one registry, and a run can be
//! summarized as a [`RunReport`] and diffed across commits.
//!
//! ## Design
//!
//! * **Handles, not lookups.** [`Telemetry::counter`]/[`Telemetry::gauge`]/
//!   [`Telemetry::histogram`] register a metric once (behind a mutex) and
//!   return a cloneable handle backed by an `Arc`'d atomic cell. The hot
//!   path — [`Counter::inc`], [`Gauge::set`], [`Histogram::observe`] — is a
//!   few atomic operations with **zero heap allocation** and no locking, so
//!   parallel training loops can record concurrently.
//! * **Disabled means free.** A [`Telemetry::disabled`] handle hands out
//!   no-op metric handles; recording through them is a branch on an
//!   always-`None` `Option`. Instrumented code needs no `if` guards.
//! * **Deterministically inert.** Nothing in this crate touches simulation
//!   RNG or control flow; enabling telemetry must never change what a run
//!   computes (the sim crate enforces this with a bit-identical-ledger
//!   test).
//! * **Deterministic export.** Registries are `BTreeMap`s, so snapshots and
//!   every exporter list metrics in sorted name order — two runs of the same
//!   build produce byte-identical reports modulo timing values.
//!
//! Implementation note: the registry mutex is `std::sync::Mutex`, taken only
//! on the (cold) registration path; the hot path is lock-free atomics, so a
//! fancier lock would buy nothing.
//!
//! ## Example
//!
//! ```
//! use fairmove_telemetry::{buckets, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! let trips = tel.counter("sim.trips");
//! trips.add(3);
//! let eps = tel.gauge("dqn.epsilon");
//! eps.set(0.05);
//! let lat = tel.histogram("sim.step_slot_seconds", buckets::LATENCY_SECONDS);
//! lat.observe(0.002);
//! {
//!     let _span = tel.span("sim.step_slot_seconds"); // records on drop
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("sim.trips"), Some(3));
//! println!("{}", fairmove_telemetry::export::render_text(&snap));
//! ```

pub mod export;
pub mod hdr;
pub mod metrics;
pub mod report;
pub mod server;
pub mod span;
pub mod trace;

pub use metrics::{buckets, Counter, Gauge, Histogram, HistogramSnapshot, Snapshot, Telemetry};
pub use report::RunReport;
pub use span::Span;

/// Opens a timing span on a [`Telemetry`] handle: `span!(tel, "name")` is
/// `tel.span("name")`. Bind the guard (`let _span = span!(…)`) — the elapsed
/// wall time is recorded into the histogram `name` when the guard drops.
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:expr) => {
        $telemetry.span($name)
    };
}

/// Opens a hierarchical trace span (see [`trace`]), returning
/// `Option<`[`trace::TraceSpan`]`>` — bind the guard:
/// `let _t = trace_span!("decide");` or `trace_span!("dispatch", n as u64)`
/// to attach a `u64` argument. The global enabled flag is checked *first*,
/// so when tracing is off the whole expression is a single relaxed atomic
/// load and a `None`; the span name is interned once per call site.
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {
        $crate::trace_span!($name, 0u64)
    };
    ($name:expr, $arg:expr) => {
        if $crate::trace::is_enabled() {
            static __FAIRMOVE_SPAN_NAME: ::std::sync::OnceLock<$crate::trace::SpanName> =
                ::std::sync::OnceLock::new();
            Some($crate::trace::TraceSpan::with_arg(
                *__FAIRMOVE_SPAN_NAME.get_or_init(|| $crate::trace::intern($name)),
                $arg,
            ))
        } else {
            None
        }
    };
}
