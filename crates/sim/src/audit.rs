//! The invariant auditor: a per-slot consistency sweep over the whole
//! simulation state.
//!
//! [`InvariantAuditor`] is installed into [`Environment::step_slot`] (on by
//! default in debug builds, opt-in in release via
//! [`Environment::set_auditor`]) and re-derives, from first principles,
//! every redundant piece of bookkeeping the simulator maintains for speed:
//! ledger money conservation against the event logs, battery bounds, charger
//! occupancy against the taxi state machine, the vacant-by-region matching
//! index, the pending-trip / charge-context lifecycles, the completion
//! schedule, and fault-counter consistency. The first violating slot is
//! captured with a minimal state dump ([`AuditViolation`]) so a property
//! driver can shrink around it; every violation also counts into the
//! environment's `invariant_violations` tally and the
//! `sim.invariant_violations` telemetry counter.
//!
//! The auditor is strictly observational: it never mutates simulation state
//! or touches the environment RNG, so an audited run is bit-identical to an
//! unaudited one.

use super::{bucket_of, Environment};
use crate::taxi::TaxiState;
use fairmove_city::SimTime;
use std::fmt;

/// One failed invariant check: where, what, and the minimal state needed to
/// understand it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Absolute slot index of the first violating slot.
    pub slot: u32,
    /// Simulation time at the end of that slot (when the audit ran).
    pub at: SimTime,
    /// Stable name of the check that failed (e.g. `money-conservation`).
    pub check: &'static str,
    /// Human-readable description with the relevant ids and values.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated at slot {} (t={}): {}",
            self.check,
            self.slot,
            self.at.minutes(),
            self.detail
        )
    }
}

/// Per-slot invariant checker over an [`Environment`].
///
/// Runs at the end of every stepped slot. The money-conservation check is
/// incremental — each event is folded into per-taxi expectations exactly
/// once — so a full audit is `O(fleet + stations + schedule + new events)`
/// per slot and safe to leave on for whole training runs.
#[derive(Debug, Clone)]
pub struct InvariantAuditor {
    /// Fail fast (panic with the violation) instead of recording. Defaults
    /// to the build profile's `debug_assertions`; the property driver turns
    /// it off so failures can be shrunk.
    panic_on_violation: bool,
    /// First violation seen, kept for reporting/shrinking.
    first_violation: Option<AuditViolation>,
    /// Total violations across the run (a slot can fail several checks).
    violations: u64,
    /// Slots audited.
    checked_slots: u64,
    /// Trip events already folded into `expected_revenue`.
    trips_seen: usize,
    /// Charge events already folded into `expected_cost`.
    charges_seen: usize,
    /// Per-taxi fare sums re-derived from the trip log.
    expected_revenue: Vec<f64>,
    /// Per-taxi trip counts re-derived from the trip log.
    expected_trips: Vec<u32>,
    /// Per-taxi cost sums re-derived from the charge log.
    expected_cost: Vec<f64>,
    /// Per-taxi charge counts re-derived from the charge log.
    expected_charges: Vec<u32>,
    /// Fault counters observed at the previous audit (for monotonicity).
    last_fault_counters: crate::env::FaultCounters,
    /// Reused per-slot tally of vacant-index appearances per taxi.
    scratch_listed: Vec<u32>,
    /// Reused per-slot tallies of charging/queued/inbound taxis per station.
    scratch_charging: Vec<u32>,
    scratch_queued: Vec<u32>,
    scratch_inbound: Vec<u32>,
}

/// Relative + absolute tolerance for comparing incrementally-summed CNY
/// totals. Both sides add the same f64s in the same order, so in practice
/// they agree bitwise; the slack only guards against future re-orderings.
const MONEY_EPS: f64 = 1e-6;

impl InvariantAuditor {
    /// An auditor that fails fast in debug builds and records in release —
    /// the configuration [`Environment`] installs by default in debug.
    pub fn new() -> Self {
        Self::with_panic(cfg!(debug_assertions))
    }

    /// A recording auditor that never panics — what the property driver
    /// installs so a violating scenario can be shrunk instead of aborting.
    pub fn recording() -> Self {
        Self::with_panic(false)
    }

    fn with_panic(panic_on_violation: bool) -> Self {
        InvariantAuditor {
            panic_on_violation,
            first_violation: None,
            violations: 0,
            checked_slots: 0,
            trips_seen: 0,
            charges_seen: 0,
            expected_revenue: Vec::new(),
            expected_trips: Vec::new(),
            expected_cost: Vec::new(),
            expected_charges: Vec::new(),
            last_fault_counters: crate::env::FaultCounters::default(),
            scratch_listed: Vec::new(),
            scratch_charging: Vec::new(),
            scratch_queued: Vec::new(),
            scratch_inbound: Vec::new(),
        }
    }

    /// The first violation recorded, if any.
    #[inline]
    pub fn first_violation(&self) -> Option<&AuditViolation> {
        self.first_violation.as_ref()
    }

    /// Total violations recorded (0 in a healthy run).
    #[inline]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Slots audited so far.
    #[inline]
    pub fn checked_slots(&self) -> u64 {
        self.checked_slots
    }

    fn report(&mut self, slot: u32, at: SimTime, check: &'static str, detail: String) {
        let violation = AuditViolation {
            slot,
            at,
            check,
            detail,
        };
        assert!(
            !self.panic_on_violation,
            "sim invariant audit failed: {violation}"
        );
        self.violations += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(violation);
        }
    }

    /// Audits the environment at the end of a slot. Returns the number of
    /// new violations (the environment folds this into its own tally and
    /// the telemetry counter).
    pub(crate) fn audit_slot(&mut self, env: &Environment) -> u64 {
        let before = self.violations;
        let at = env.now;
        let slot = at.minutes().saturating_sub(1) / fairmove_city::SLOT_MINUTES;
        self.checked_slots += 1;

        self.check_battery_and_lifecycles(env, slot, at);
        self.check_vacant_index(env, slot, at);
        self.check_stations(env, slot, at);
        self.check_schedule(env, slot, at);
        self.check_money_conservation(env, slot, at);
        self.check_fault_counters(env, slot, at);
        self.check_scratch_reset(env, slot, at);

        self.violations - before
    }

    /// The environment's reusable scratch arenas must be back in their
    /// between-slots reset state: every pooled arrival bucket returned,
    /// transient worklists empty, and (debug builds) the observation
    /// buffers poison-filled. Catches pooled-buffer reuse bugs that would
    /// silently leak one slot's state into the next.
    fn check_scratch_reset(&mut self, env: &Environment, slot: u32, at: SimTime) {
        let scratch = &env.scratch;
        if !scratch.arrival_pool.quiescent() || !scratch.arrivals.is_empty() {
            self.report(
                slot,
                at,
                "arena-reset",
                format!(
                    "arrival buckets not returned between slots: {} outstanding, {} held",
                    scratch.arrival_pool.outstanding(),
                    scratch.arrivals.len()
                ),
            );
        }
        if !scratch.dirty.is_empty() || !scratch.requests.is_empty() {
            self.report(
                slot,
                at,
                "arena-reset",
                format!(
                    "slot-transient scratch not cleared: {} dirty regions, {} requests",
                    scratch.dirty.len(),
                    scratch.requests.len()
                ),
            );
        }
        if cfg!(debug_assertions)
            && !(fairmove_arena::is_poisoned(&scratch.obs.predicted_demand)
                && fairmove_arena::is_poisoned(&scratch.obs.vacant_per_region)
                && fairmove_arena::is_poisoned(&scratch.obs.waiting_per_region))
        {
            self.report(
                slot,
                at,
                "arena-reset",
                "observation scratch not poison-filled between slots".to_string(),
            );
        }
    }

    /// Battery bounds plus the pending-trip / charge-context lifecycles:
    /// a trip context exists iff the taxi is picking up or serving, a
    /// charge context iff it is heading to, queued at, or plugged into a
    /// station; timed states must not point into the past.
    fn check_battery_and_lifecycles(&mut self, env: &Environment, slot: u32, at: SimTime) {
        for taxi in &env.taxis {
            if !(0.0..=1.0).contains(&taxi.soc) || !taxi.soc.is_finite() {
                self.report(
                    slot,
                    at,
                    "battery-bounds",
                    format!("{} soc {} outside [0, 1]", taxi.id, taxi.soc),
                );
            }
            let i = taxi.id.index();
            let wants_trip = matches!(
                taxi.state,
                TaxiState::DrivingToPassenger { .. } | TaxiState::Serving { .. }
            );
            if env.pending_trip[i].is_some() != wants_trip {
                self.report(
                    slot,
                    at,
                    "pending-trip-lifecycle",
                    format!(
                        "{} in {:?} but pending trip is {}",
                        taxi.id,
                        taxi.state,
                        if env.pending_trip[i].is_some() {
                            "present"
                        } else {
                            "absent"
                        }
                    ),
                );
            }
            let wants_charge = matches!(
                taxi.state,
                TaxiState::ToStation { .. } | TaxiState::Queued { .. } | TaxiState::Charging { .. }
            );
            if env.charge_ctx[i].is_some() != wants_charge {
                self.report(
                    slot,
                    at,
                    "charge-context-lifecycle",
                    format!(
                        "{} in {:?} but charge context is {}",
                        taxi.id,
                        taxi.state,
                        if env.charge_ctx[i].is_some() {
                            "present"
                        } else {
                            "absent"
                        }
                    ),
                );
            }
            let deadline = match taxi.state {
                TaxiState::Repositioning { arrive_at, .. }
                | TaxiState::ToStation { arrive_at, .. } => Some(arrive_at),
                TaxiState::DrivingToPassenger { pickup_at, .. } => Some(pickup_at),
                TaxiState::Serving { dropoff_at, .. } => Some(dropoff_at),
                TaxiState::Charging { finish_at, .. } => Some(finish_at),
                TaxiState::Vacant { .. } | TaxiState::Queued { .. } => None,
            };
            if let Some(t) = deadline {
                if t < at {
                    self.report(
                        slot,
                        at,
                        "state-deadline",
                        format!(
                            "{} in {:?} with completion time {} already past",
                            taxi.id,
                            taxi.state,
                            t.minutes()
                        ),
                    );
                }
            }
        }
    }

    /// The vacant-by-region matching index lists exactly the vacant taxis,
    /// each exactly once, under its current region.
    fn check_vacant_index(&mut self, env: &Environment, slot: u32, at: SimTime) {
        self.scratch_listed.clear();
        self.scratch_listed.resize(env.taxis.len(), 0);
        for (r, list) in env.vacant_by_region.iter().enumerate() {
            for &id in list {
                self.scratch_listed[id.index()] += 1;
                match env.taxis[id.index()].state {
                    TaxiState::Vacant { region } if region.index() == r => {}
                    ref state => self.report(
                        slot,
                        at,
                        "vacant-index",
                        format!("{id} listed vacant in region {r} but is in {state:?}"),
                    ),
                }
            }
        }
        for taxi in &env.taxis {
            let expect = u32::from(taxi.state.is_vacant());
            let seen = self.scratch_listed[taxi.id.index()];
            if seen != expect {
                self.report(
                    slot,
                    at,
                    "vacant-index",
                    format!(
                        "{} in {:?} appears {} times in the vacant index (expected {})",
                        taxi.id, taxi.state, seen, expect
                    ),
                );
            }
        }
    }

    /// Charger occupancy never exceeds capacity, and the occupancy, queue,
    /// and inbound tallies each agree with the taxi state machine.
    fn check_stations(&mut self, env: &Environment, slot: u32, at: SimTime) {
        let n = env.stations.len();
        self.scratch_charging.clear();
        self.scratch_charging.resize(n, 0);
        self.scratch_queued.clear();
        self.scratch_queued.resize(n, 0);
        self.scratch_inbound.clear();
        self.scratch_inbound.resize(n, 0);
        for taxi in &env.taxis {
            match taxi.state {
                TaxiState::Charging { station, .. } => self.scratch_charging[station.index()] += 1,
                TaxiState::Queued { station } => self.scratch_queued[station.index()] += 1,
                TaxiState::ToStation { station, .. } => self.scratch_inbound[station.index()] += 1,
                _ => {}
            }
        }
        for (i, st) in env.stations.iter().enumerate() {
            let charging = self.scratch_charging[i];
            let queued = self.scratch_queued[i];
            let inbound = self.scratch_inbound[i];
            if st.occupied > st.points {
                self.report(
                    slot,
                    at,
                    "charger-capacity",
                    format!(
                        "{} occupancy {} exceeds its {} points",
                        st.id, st.occupied, st.points
                    ),
                );
            }
            if st.occupied != charging {
                self.report(
                    slot,
                    at,
                    "charger-occupancy",
                    format!(
                        "{} books {} occupied points but {} taxis are charging there",
                        st.id, st.occupied, charging
                    ),
                );
            }
            if st.queue_len() as u32 != queued {
                self.report(
                    slot,
                    at,
                    "charger-queue",
                    format!(
                        "{} queue holds {} taxis but {} taxis are in Queued state there",
                        st.id,
                        st.queue_len(),
                        queued
                    ),
                );
            }
            for &q in st.queued_taxis() {
                if env.taxis[q.index()].state != (TaxiState::Queued { station: st.id }) {
                    self.report(
                        slot,
                        at,
                        "charger-queue",
                        format!(
                            "{} queue lists {q} but it is in {:?}",
                            st.id,
                            env.taxis[q.index()].state
                        ),
                    );
                }
            }
            if st.inbound != inbound {
                self.report(
                    slot,
                    at,
                    "charger-inbound",
                    format!(
                        "{} expects {} inbound taxis but {} are en route",
                        st.id, st.inbound, inbound
                    ),
                );
            }
        }
    }

    /// Every timed state has a live schedule entry at its completion time,
    /// and no entry points into the past (the minute loop drains those).
    fn check_schedule(&mut self, env: &Environment, slot: u32, at: SimTime) {
        for entry in env.schedule.iter() {
            let (minute, taxi) = entry.0;
            if minute < at.minutes() {
                self.report(
                    slot,
                    at,
                    "schedule-past-entry",
                    format!(
                        "schedule entry (minute {minute}, T{taxi}) is before now ({})",
                        at.minutes()
                    ),
                );
            }
        }
        for taxi in &env.taxis {
            let due = match taxi.state {
                TaxiState::Repositioning { arrive_at, .. }
                | TaxiState::ToStation { arrive_at, .. } => Some(arrive_at),
                TaxiState::DrivingToPassenger { pickup_at, .. } => Some(pickup_at),
                TaxiState::Serving { dropoff_at, .. } => Some(dropoff_at),
                TaxiState::Charging { finish_at, .. } => Some(finish_at),
                TaxiState::Vacant { .. } | TaxiState::Queued { .. } => None,
            };
            if let Some(t) = due {
                let has_entry = env.schedule.iter().any(|e| e.0 == (t.minutes(), taxi.id.0));
                if !has_entry {
                    self.report(
                        slot,
                        at,
                        "schedule-coverage",
                        format!(
                            "{} in {:?} has no schedule entry at minute {}",
                            taxi.id,
                            taxi.state,
                            t.minutes()
                        ),
                    );
                }
            }
        }
    }

    /// Money conservation: each taxi's ledger revenue/cost and trip/charge
    /// counts must equal the sums re-derived from the event logs. Events are
    /// folded in incrementally, so each is visited once per run.
    fn check_money_conservation(&mut self, env: &Environment, slot: u32, at: SimTime) {
        let fleet = env.taxis.len();
        self.expected_revenue.resize(fleet, 0.0);
        self.expected_trips.resize(fleet, 0);
        self.expected_cost.resize(fleet, 0.0);
        self.expected_charges.resize(fleet, 0);
        let trips = env.ledger.trips();
        for trip in &trips[self.trips_seen.min(trips.len())..] {
            self.expected_revenue[trip.taxi.index()] += trip.fare_cny;
            self.expected_trips[trip.taxi.index()] += 1;
        }
        self.trips_seen = trips.len();
        let charges = env.ledger.charges();
        for charge in &charges[self.charges_seen.min(charges.len())..] {
            self.expected_cost[charge.taxi.index()] += charge.cost_cny;
            self.expected_charges[charge.taxi.index()] += 1;
        }
        self.charges_seen = charges.len();

        for (i, taxi) in env.ledger.taxis().iter().enumerate() {
            let money_ok = |booked: f64, derived: f64| {
                (booked - derived).abs() <= MONEY_EPS + MONEY_EPS * derived.abs()
            };
            if !money_ok(taxi.revenue_cny, self.expected_revenue[i])
                || taxi.n_trips != self.expected_trips[i]
            {
                self.report(
                    slot,
                    at,
                    "money-conservation",
                    format!(
                        "T{i} books {:.6} CNY over {} trips but its trip log sums to {:.6} CNY over {} trips",
                        taxi.revenue_cny,
                        taxi.n_trips,
                        self.expected_revenue[i],
                        self.expected_trips[i]
                    ),
                );
            }
            if !money_ok(taxi.cost_cny, self.expected_cost[i])
                || taxi.n_charges != self.expected_charges[i]
            {
                self.report(
                    slot,
                    at,
                    "money-conservation",
                    format!(
                        "T{i} books {:.6} CNY cost over {} charges but its charge log sums to {:.6} CNY over {} charges",
                        taxi.cost_cny,
                        taxi.n_charges,
                        self.expected_cost[i],
                        self.expected_charges[i]
                    ),
                );
            }
        }
    }

    /// Fault counters are all zero without a plan, and never decrease.
    fn check_fault_counters(&mut self, env: &Environment, slot: u32, at: SimTime) {
        let c = env.fault_counters;
        if env.fault_plan.is_none() && c != crate::env::FaultCounters::default() {
            self.report(
                slot,
                at,
                "fault-counters",
                format!("fault counters nonzero without a fault plan: {c:?}"),
            );
        }
        let l = self.last_fault_counters;
        let monotonic = c.active_slots >= l.active_slots
            && c.station_outage_slots >= l.station_outage_slots
            && c.demand_scaled_regions >= l.demand_scaled_regions
            && c.taxi_out_slots >= l.taxi_out_slots
            && c.obs_stale_slots >= l.obs_stale_slots
            && c.obs_dropped_regions >= l.obs_dropped_regions
            && c.commands_lost >= l.commands_lost;
        if !monotonic {
            self.report(
                slot,
                at,
                "fault-counters",
                format!("fault counters went backwards: {l:?} -> {c:?}"),
            );
        }
        self.last_fault_counters = c;
    }

    /// Time-bucket accounting sanity used by tests: the bucket a state maps
    /// to is stable and total.
    pub fn bucket_name(state: &TaxiState) -> &'static str {
        match bucket_of(state) {
            crate::ledger::TimeBucket::Cruise => "cruise",
            crate::ledger::TimeBucket::Serve => "serve",
            crate::ledger::TimeBucket::Idle => "idle",
            crate::ledger::TimeBucket::Charge => "charge",
        }
    }
}

impl Default for InvariantAuditor {
    fn default() -> Self {
        Self::new()
    }
}
