//! The slot-stepped fleet environment.
//!
//! [`Environment::step_slot`] advances the world by one 10-minute decision
//! slot: it consults the policy for every vacant taxi, then plays out the
//! slot minute by minute — passenger arrivals, pickups, drop-offs, station
//! arrivals, queue handoffs, charge completions — and returns a
//! [`SlotFeedback`] with the realized per-taxi profits and fleet fairness,
//! from which learning policies assemble their reward signal (Eq. 4–5 of
//! the paper).
//!
//! Simplifications vs. the real fleet, all documented in DESIGN.md:
//! taxis never go off-duty; a taxi with an empty battery keeps crawling
//! (the must-charge threshold `η = 20 %` makes this unreachable in
//! practice); passenger pickup approach distance is sampled rather than
//! routed.

#[path = "audit.rs"]
pub mod audit;
#[path = "state.rs"]
pub mod state;

use crate::action::Action;
use crate::action::ActionSet;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::ledger::{ChargeEvent, FleetLedger, TimeBucket, TripEvent};
use crate::observation::{DecisionContext, SlotObservation};
use crate::passenger::PassengerPool;
use crate::policy::DisplacementPolicy;
use crate::station::StationState;
use crate::taxi::{Taxi, TaxiId, TaxiState};
use fairmove_arena::{poison_fill, VecPool};
use fairmove_city::{City, RegionId, SimTime, StationId, MINUTES_PER_DAY, SLOT_MINUTES};
use fairmove_data::{DemandModel, PassengerRequest, TripGenerator};
use fairmove_faults::{FaultPlan, FaultSet};
use fairmove_telemetry::{buckets, Counter, Gauge, Histogram, Span, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A trip in progress (matched, not yet completed).
#[derive(Debug, Clone)]
struct PendingTrip {
    request: PassengerRequest,
    approach_km: f64,
    pickup_at: SimTime,
    cruise_minutes: u32,
    first_after_charge: Option<StationId>,
}

/// A charging excursion in progress.
#[derive(Debug, Clone)]
struct ChargeContext {
    decided_at: SimTime,
    plugged_at: Option<SimTime>,
    plug_soc: f64,
    /// How many times the taxi has balked at a jammed station and driven on.
    redirects: u8,
}

/// Outcome of one slot, handed to [`DisplacementPolicy::observe`].
#[derive(Debug, Clone)]
pub struct SlotFeedback {
    /// Start time of the slot that just ran.
    pub slot_start: SimTime,
    /// Profit realized by each taxi during the slot (fares collected minus
    /// charging costs incurred), CNY, indexed by taxi id.
    pub slot_profit: Vec<f64>,
    /// Cumulative profit efficiency of each taxi so far, CNY/hour.
    pub cumulative_pe: Vec<f64>,
    /// Fleet mean of `cumulative_pe`.
    pub mean_pe: f64,
    /// Fleet profit fairness: variance of `cumulative_pe` (the paper's
    /// Eq. 3 — smaller is fairer).
    pub pf: f64,
}

impl SlotFeedback {
    /// The paper's Eq. 4 per-taxi reward:
    /// `α · PE(k, t) + (1 − α) · (−PF(t))`, with the slot profit expressed
    /// as an hourly rate and both terms scaled to comparable magnitude.
    ///
    /// The fairness component is made *actionable* per taxi with a
    /// progressive profit weight: a below-mean taxi's earnings count extra,
    /// an above-mean taxi's count less — equalizing the marginal incentive
    /// (an α-fair utility). The fleet-level variance enters as a small
    /// shared penalty, matching Eq. 4's `−PF(t)` term; it is clamped
    /// because early-run PE estimates have huge small-denominator noise.
    pub fn reward(&self, alpha: f64, taxi: TaxiId) -> f64 {
        let p = self.slot_profit[taxi.index()] * (60.0 / f64::from(SLOT_MINUTES)) / PE_SCALE;
        let deviation = self.cumulative_pe[taxi.index()] - self.mean_pe;
        let fairness = -(deviation.abs() / DEV_SCALE).min(2.0) - (self.pf / PF_SCALE).min(1.0);
        alpha * p + (1.0 - alpha) * fairness
    }
}

/// Scaling constants for the reward components (see [`SlotFeedback::reward`]).
const PE_SCALE: f64 = 6.0;
const PF_SCALE: f64 = 200.0;
const DEV_SCALE: f64 = 12.0;

/// Pre-registered telemetry handles for the per-slot metrics, built once
/// in [`Environment::set_telemetry`] so the hot loop records through plain
/// atomics and never touches the registry.
///
/// Everything here is *observational*: values are read off simulation state
/// that exists regardless of telemetry, so enabling it cannot perturb a run.
struct SimMetrics {
    /// Wall time of each [`Environment::step_slot`] call.
    slot_seconds: Histogram,
    /// Slots stepped.
    slots: Counter,
    /// Decision contexts handed to the policy.
    decisions: Counter,
    /// Passenger–taxi matches made.
    matches: Counter,
    /// Trips completed.
    trips: Counter,
    /// Charge events completed.
    charges: Counter,
    /// Requests that expired unserved.
    expired: Counter,
    /// Balk-and-redirect events at jammed stations.
    redirects: Counter,
    /// Total taxis queued at stations at the end of the latest slot.
    charge_queue_depth: Gauge,
    /// Distribution of the per-slot total charge-queue depth.
    charge_queue: Histogram,
    /// Vacant taxis at the end of the latest slot.
    vacant_taxis: Gauge,
    /// Internal invariant violations recovered from (release builds).
    invariants: Counter,
    /// Slots in which at least one fault was active.
    fault_active_slots: Counter,
    /// Station-slots spent in outage.
    fault_station_outage: Counter,
    /// Region-slots with scaled (surged or blacked-out) demand.
    fault_demand_regions: Counter,
    /// Taxi-slots spent out of service.
    fault_taxi_out: Counter,
    /// Slots in which the dispatcher saw a stale global view.
    fault_obs_stale: Counter,
    /// Region-slots with a dropped observation feed.
    fault_obs_dropped: Counter,
    /// Dispatch commands lost in transit.
    fault_commands_lost: Counter,
    /// Retained per-slot scratch capacity, bytes (arena high-water mark).
    arena_scratch_bytes: Gauge,
    /// The registry handle, kept for lazy per-method registration below.
    telemetry: Telemetry,
    /// Wall time of the policy `decide_into` call, one histogram per policy
    /// method seen: `decide.latency_seconds{method="cma2c"}`. Registered on
    /// first use (policies can be swapped mid-run); looked up by linear
    /// scan, allocation-free once registered.
    decide_latency: Vec<(String, Histogram)>,
    /// Wall time of `match_region`, labeled by region group (regions are
    /// binned into [`REGION_GROUPS`] contiguous groups so the label set
    /// stays bounded on city-scale runs):
    /// `sim.match_seconds{region_group="3"}`.
    match_seconds: Vec<Histogram>,
    /// Per-region group index into `match_seconds`.
    region_group: Vec<usize>,
}

/// Region-group label cardinality for `sim.match_seconds`.
const REGION_GROUPS: usize = 4;

impl SimMetrics {
    fn new(telemetry: &Telemetry, n_regions: usize) -> Option<SimMetrics> {
        telemetry.is_enabled().then(|| SimMetrics {
            slot_seconds: telemetry.histogram("sim.step_slot_seconds", buckets::LATENCY_SECONDS),
            slots: telemetry.counter("sim.slots"),
            decisions: telemetry.counter("sim.decisions"),
            matches: telemetry.counter("sim.matches"),
            trips: telemetry.counter("sim.trips"),
            charges: telemetry.counter("sim.charges"),
            expired: telemetry.counter("sim.expired_requests"),
            redirects: telemetry.counter("sim.station_redirects"),
            charge_queue_depth: telemetry.gauge("sim.charge_queue_depth"),
            charge_queue: telemetry.histogram("sim.charge_queue_depth_per_slot", buckets::COUNTS),
            vacant_taxis: telemetry.gauge("sim.vacant_taxis"),
            invariants: telemetry.counter("sim.invariant_violations"),
            fault_active_slots: telemetry.counter("faults.active_slots"),
            fault_station_outage: telemetry.counter("faults.station_outage_slots"),
            fault_demand_regions: telemetry.counter("faults.demand_scaled_regions"),
            fault_taxi_out: telemetry.counter("faults.taxi_out_slots"),
            fault_obs_stale: telemetry.counter("faults.obs_stale_slots"),
            fault_obs_dropped: telemetry.counter("faults.obs_dropped_regions"),
            fault_commands_lost: telemetry.counter("faults.commands_lost"),
            arena_scratch_bytes: telemetry.gauge("sim.arena_scratch_bytes"),
            telemetry: telemetry.clone(),
            decide_latency: Vec::new(),
            match_seconds: {
                let groups = REGION_GROUPS.min(n_regions.max(1));
                (0..groups)
                    .map(|g| {
                        let label = [b'0' + g as u8];
                        let label = std::str::from_utf8(&label).expect("single digit");
                        telemetry.histogram_labeled(
                            "sim.match_seconds",
                            &[("region_group", label)],
                            buckets::LATENCY_SECONDS,
                        )
                    })
                    .collect()
            },
            region_group: {
                let groups = REGION_GROUPS.min(n_regions.max(1));
                (0..n_regions)
                    .map(|r| r * groups / n_regions.max(1))
                    .collect()
            },
        })
    }

    /// The `decide.latency_seconds{method=…}` histogram for `method`,
    /// registering it on first sight. Steady-state calls are a linear scan
    /// over a handful of entries and an `Arc` clone — no allocation.
    fn decide_histogram(&mut self, method: &str) -> Histogram {
        if let Some(i) = self.decide_latency.iter().position(|(m, _)| m == method) {
            return self.decide_latency[i].1.clone();
        }
        let h = self.telemetry.histogram_labeled(
            "decide.latency_seconds",
            &[("method", method)],
            buckets::LATENCY_SECONDS,
        );
        self.decide_latency.push((method.to_string(), h.clone()));
        h
    }
}

/// Always-on plain counters of fault injections and recovered invariant
/// violations, mirrored into telemetry when it is enabled. Kept as plain
/// integers so tests and benches can read them without a registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Slots in which at least one fault was active.
    pub active_slots: u64,
    /// Station-slots spent in outage.
    pub station_outage_slots: u64,
    /// Region-slots with scaled demand.
    pub demand_scaled_regions: u64,
    /// Taxi-slots spent out of service.
    pub taxi_out_slots: u64,
    /// Slots with a stale global view.
    pub obs_stale_slots: u64,
    /// Region-slots with a dropped feed.
    pub obs_dropped_regions: u64,
    /// Dispatch commands lost in transit.
    pub commands_lost: u64,
}

/// Reusable per-slot scratch (see `fairmove-arena`): every transient buffer
/// [`Environment::step_slot`] needs, retained across slots so steady-state
/// stepping performs zero heap allocations after warmup.
///
/// Lifecycle: buffers are rebuilt in place during the slot and reset by
/// [`StepScratch::end_slot`] between slots (arrival buckets returned to the
/// pool, transients cleared, observation buffers poison-filled in debug
/// builds). The invariant auditor's `arena-reset` check asserts the
/// between-slots state every slot.
struct StepScratch {
    /// Policy-facing observation, fully rewritten in place each slot.
    obs: SlotObservation,
    /// Decision contexts, element-wise reused (action sets rebuilt in
    /// place, reusing their backing allocation).
    decisions: Vec<DecisionContext>,
    /// Contexts parked when a slot has fewer vacancies than the last —
    /// handed back out before anything fresh is allocated, so the pooled
    /// buffers survive vacancy-count fluctuations.
    spares: Vec<DecisionContext>,
    /// Actions returned by the policy via `decide_into`.
    actions: Vec<Action>,
    /// Sorted vacant taxi ids (context-build scratch).
    ids: Vec<TaxiId>,
    /// Requests generated for the slot, before bucketing by minute.
    requests: Vec<PassengerRequest>,
    /// Pool backing the per-minute arrival buckets.
    arrival_pool: VecPool<PassengerRequest>,
    /// Buckets taken from the pool for the current slot. Empty between
    /// slots: `end_slot` returns every bucket.
    arrivals: Vec<Vec<PassengerRequest>>,
    /// Regions touched in the current minute (match-making worklist).
    dirty: Vec<RegionId>,
    /// Test hook: when set, `end_slot` does nothing — simulates a dirty
    /// scratch-reuse bug so the auditor's catch can itself be tested.
    skip_reset: bool,
}

impl StepScratch {
    fn new() -> Self {
        StepScratch {
            obs: SlotObservation::default(),
            decisions: Vec::new(),
            spares: Vec::new(),
            actions: Vec::new(),
            ids: Vec::new(),
            requests: Vec::new(),
            arrival_pool: VecPool::new(),
            arrivals: Vec::new(),
            dirty: Vec::new(),
            skip_reset: false,
        }
    }

    /// Between-slots reset: arrival buckets go back to the pool, transient
    /// worklists are cleared, and (debug builds) the observation buffers are
    /// poison-filled so a stale read cannot masquerade as live data.
    fn end_slot(&mut self) {
        if self.skip_reset {
            return;
        }
        for buf in self.arrivals.drain(..) {
            self.arrival_pool.put(buf);
        }
        self.dirty.clear();
        self.requests.clear();
        if cfg!(debug_assertions) {
            poison_fill(&mut self.obs.predicted_demand);
            poison_fill(&mut self.obs.vacant_per_region);
            poison_fill(&mut self.obs.waiting_per_region);
        }
    }

    /// Bytes of retained scratch capacity (mirrored into the
    /// `sim.arena_scratch_bytes` telemetry gauge).
    fn high_water_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arrival_pool.stats().high_water_bytes
            + self.requests.capacity() * size_of::<PassengerRequest>()
            + self.dirty.capacity() * size_of::<RegionId>()
            + self.ids.capacity() * size_of::<TaxiId>()
            + self.actions.capacity() * size_of::<Action>()
            + self.obs.vacant_per_region.capacity() * size_of::<u32>()
            + self.obs.free_points_per_station.capacity() * size_of::<u32>()
            + self.obs.queue_per_station.capacity() * size_of::<u32>()
            + self.obs.inbound_per_station.capacity() * size_of::<u32>()
            + self.obs.waiting_per_region.capacity() * size_of::<u32>()
            + self.obs.predicted_demand.capacity() * size_of::<f64>()
    }
}

/// The simulated world.
pub struct Environment {
    city: City,
    config: SimConfig,
    demand: DemandModel,
    trip_gen: TripGenerator,
    taxis: Vec<Taxi>,
    stations: Vec<StationState>,
    pool: PassengerPool,
    ledger: FleetLedger,
    now: SimTime,
    /// Min-heap of (completion minute, taxi id).
    schedule: BinaryHeap<Reverse<(u32, u32)>>,
    vacant_by_region: Vec<Vec<TaxiId>>,
    bucket_since: Vec<SimTime>,
    pending_trip: Vec<Option<PendingTrip>>,
    charge_ctx: Vec<Option<ChargeContext>>,
    slot_profit: Vec<f64>,
    rng: StdRng,
    telemetry: Telemetry,
    metrics: Option<SimMetrics>,
    /// Matches made during the current slot (plain counter; folded into
    /// telemetry at slot end).
    slot_matches: u64,
    /// Station redirects during the current slot.
    slot_redirects: u64,
    /// Fault scenario to inject, if any.
    fault_plan: Option<FaultPlan>,
    /// Faults active during the slot currently being stepped (empty when no
    /// plan is attached or nothing is scheduled).
    active_faults: FaultSet,
    /// Recent true observations, kept only when the plan can introduce
    /// staleness; newest at the back.
    obs_history: VecDeque<SlotObservation>,
    /// Injection tallies (always on; mirrored to telemetry when enabled).
    fault_counters: FaultCounters,
    /// Invariant violations recovered from (see [`SimError`]).
    invariant_violations: u64,
    /// Per-slot invariant audit (see [`audit::InvariantAuditor`]): installed
    /// by default in debug builds, opt-in in release.
    auditor: Option<audit::InvariantAuditor>,
    /// Reusable per-slot scratch buffers (zero steady-state allocation).
    scratch: StepScratch,
    /// City-wide upper bound on one taxi's admissible-action count
    /// (`1 + max neighbors + max candidate stations`). Pooled action-set
    /// buffers are reserved to this up front so rebuilding one for a
    /// larger region never reallocates mid-run.
    max_actions: usize,
    /// The feedback for the most recent slot, rebuilt in place each slot
    /// and returned by reference from [`Self::step_slot`].
    feedback: SlotFeedback,
}

impl Environment {
    /// Builds a fresh environment. Taxis start vacant, placed in regions
    /// proportionally to demand, with 50–95 % charge.
    pub fn new(config: SimConfig) -> Self {
        let city = City::generate(config.city.clone());
        let demand = DemandModel::new(&city, config.daily_trips(), config.seed);
        let trip_gen = TripGenerator::new(&city, demand.clone(), config.fare.clone(), config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x454e_5649_524f); // "ENVIRO" salt

        let weights: Vec<f64> = (0..city.n_regions())
            .map(|r| {
                demand
                    .intensity(RegionId(r as u16), fairmove_city::TimeSlot(60))
                    .max(1e-9)
            })
            .collect();
        let mut vacant_by_region = vec![Vec::new(); city.n_regions()];
        let taxis: Vec<Taxi> = (0..config.fleet_size)
            .map(|i| {
                let region =
                    RegionId(fairmove_data::random::weighted_index(&mut rng, &weights) as u16);
                let soc = rng.gen_range(0.5..0.95);
                vacant_by_region[region.index()].push(TaxiId(i as u32));
                Taxi::new(TaxiId(i as u32), region, soc, SimTime::ZERO)
            })
            .collect();

        let stations = city
            .stations()
            .iter()
            .map(|s| StationState::new(s.id, s.charging_points))
            .collect();

        let fleet_size = config.fleet_size;
        let n_regions = city.n_regions();
        let max_actions = (0..n_regions)
            .map(|r| {
                let r = RegionId(r as u16);
                1 + city.region(r).neighbors.len() + city.nearest_stations().nearest(r).len()
            })
            .max()
            .unwrap_or(1);
        Environment {
            city,
            demand,
            trip_gen,
            taxis,
            stations,
            pool: PassengerPool::new(n_regions),
            ledger: FleetLedger::new(fleet_size),
            now: SimTime::ZERO,
            schedule: BinaryHeap::new(),
            vacant_by_region,
            bucket_since: vec![SimTime::ZERO; fleet_size],
            pending_trip: vec![None; fleet_size],
            charge_ctx: vec![None; fleet_size],
            slot_profit: vec![0.0; fleet_size],
            rng,
            telemetry: Telemetry::disabled(),
            metrics: None,
            slot_matches: 0,
            slot_redirects: 0,
            fault_plan: None,
            active_faults: FaultSet::default(),
            obs_history: VecDeque::new(),
            fault_counters: FaultCounters::default(),
            invariant_violations: 0,
            auditor: cfg!(debug_assertions).then(audit::InvariantAuditor::new),
            scratch: StepScratch::new(),
            max_actions,
            feedback: SlotFeedback {
                slot_start: SimTime::ZERO,
                slot_profit: Vec::new(),
                cumulative_pe: Vec::new(),
                mean_pe: 0.0,
                pf: 0.0,
            },
            config,
        }
    }

    /// Attaches a telemetry context; per-slot metric handles are registered
    /// once here so the stepping loop records lock-free. Passing a
    /// [`Telemetry::disabled`] context detaches instrumentation again.
    ///
    /// Telemetry is deterministically inert: it never touches the
    /// environment RNG or control flow, so runs with it enabled and
    /// disabled produce bit-identical ledgers (asserted by test).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = SimMetrics::new(telemetry, self.city.n_regions());
        self.telemetry = telemetry.clone();
    }

    /// The attached telemetry context (disabled by default).
    #[inline]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The city substrate.
    #[inline]
    pub fn city(&self) -> &City {
        &self.city
    }

    /// The simulation config.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The demand model driving the request stream.
    #[inline]
    pub fn demand(&self) -> &DemandModel {
        &self.demand
    }

    /// Current simulation time (start of the next slot).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The accumulated ledger. Call [`Self::flush_accounting`] first if the
    /// run ended mid-activity and exact bucket totals matter.
    #[inline]
    pub fn ledger(&self) -> &FleetLedger {
        &self.ledger
    }

    /// All taxis, id order.
    #[inline]
    pub fn taxis(&self) -> &[Taxi] {
        &self.taxis
    }

    /// All stations, id order.
    #[inline]
    pub fn stations(&self) -> &[StationState] {
        &self.stations
    }

    /// Attaches a fault plan to inject from the next slot on. Set before
    /// stepping: mid-run attachment works but the plan's slot windows are
    /// absolute, so slots already stepped are simply never injected.
    ///
    /// Determinism: the same config seed and the same plan produce
    /// bit-identical ledgers, and an empty (or never-active) plan is
    /// bit-identical to running with no plan at all — fault bookkeeping
    /// never touches the environment RNG.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The attached fault plan, if any.
    #[inline]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Injection tallies so far (all zero when no plan is attached).
    #[inline]
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.fault_counters
    }

    /// How many internal invariant violations were recovered from (always 0
    /// in a healthy run; debug builds assert instead).
    #[inline]
    pub fn invariant_violations(&self) -> u64 {
        self.invariant_violations
    }

    /// Installs (or replaces) the per-slot invariant auditor. Debug builds
    /// install a fail-fast [`audit::InvariantAuditor::new`] automatically;
    /// call this with [`audit::InvariantAuditor::recording`] to collect
    /// violations without panicking (what the property driver does), or in
    /// release builds to opt the audit in.
    pub fn set_auditor(&mut self, auditor: audit::InvariantAuditor) {
        self.auditor = Some(auditor);
    }

    /// Removes the invariant auditor (audits stop; already-counted
    /// violations remain in [`Self::invariant_violations`]).
    pub fn disable_audit(&mut self) {
        self.auditor = None;
    }

    /// The installed invariant auditor, if any.
    #[inline]
    pub fn auditor(&self) -> Option<&audit::InvariantAuditor> {
        self.auditor.as_ref()
    }

    /// Whether the configured horizon has been reached.
    pub fn done(&self) -> bool {
        self.now.minutes() >= self.config.days * MINUTES_PER_DAY
    }

    /// Runs the full configured horizon under `policy`.
    pub fn run(&mut self, policy: &mut dyn DisplacementPolicy) {
        while !self.done() {
            let feedback = self.step_slot(policy);
            policy.observe(feedback);
        }
        self.flush_accounting();
    }

    /// Pre-sizes growth-prone long-lived containers (append-only ledger
    /// event logs, the completion schedule, per-region worklists) for the
    /// remainder of the configured horizon, so a steady-state measurement
    /// window never hits a `Vec` doubling. Optional — skipping it only
    /// means the first slots after warmup may still grow buffers.
    pub fn prepare_steady_state(&mut self) {
        let days = self.config.days as usize;
        let trips = (self.config.daily_trips() * days as f64 * 1.25) as usize;
        let charges = self.config.fleet_size * days.max(1) * 6;
        self.ledger.reserve_events(trips, charges);
        self.schedule.reserve(self.config.fleet_size);
        self.pool.reserve(self.config.fleet_size);
        self.scratch.decisions.reserve(self.config.fleet_size);
        self.scratch.spares.reserve(self.config.fleet_size);
        for list in &mut self.vacant_by_region {
            list.reserve(self.config.fleet_size.saturating_sub(list.len()));
        }
        for station in &mut self.stations {
            station.reserve_queue(self.config.fleet_size);
        }
    }

    /// Test hook: disables the between-slots scratch reset, simulating a
    /// pooled-buffer reuse bug so the auditor's `arena-reset` check can be
    /// exercised. Never set outside tests.
    #[doc(hidden)]
    pub fn debug_skip_scratch_reset(&mut self, skip: bool) {
        self.scratch.skip_reset = skip;
    }

    /// Builds the current global-view observation.
    pub fn observation(&self) -> SlotObservation {
        let mut obs = SlotObservation::default();
        self.observation_into(&mut obs);
        obs
    }

    /// Rebuilds the global-view observation in place — the allocation-free
    /// variant of [`Self::observation`] the hot path uses with a reused
    /// buffer. Every field is fully rewritten; the fleet aggregates are
    /// computed by streaming over the ledger (same summation order as the
    /// materialized path, so the results are bit-identical).
    pub fn observation_into(&self, out: &mut SlotObservation) {
        let next_slot = (self.now + SLOT_MINUTES).slot_of_day();
        out.now = self.now;
        out.slot = self.now.slot_of_day();
        out.vacant_per_region.clear();
        out.vacant_per_region
            .extend(self.vacant_by_region.iter().map(|list| list.len() as u32));
        out.free_points_per_station.clear();
        out.free_points_per_station
            .extend(self.stations.iter().map(StationState::free_points));
        out.queue_per_station.clear();
        out.queue_per_station
            .extend(self.stations.iter().map(|s| s.queue_len() as u32));
        out.inbound_per_station.clear();
        out.inbound_per_station
            .extend(self.stations.iter().map(|s| s.inbound));
        self.demand
            .intensities_into(next_slot, &mut out.predicted_demand);
        self.pool
            .waiting_counts_into(self.now, &mut out.waiting_per_region);
        out.price_now = self.config.pricing.rate_at_time(self.now);
        out.price_next_hour = self.config.pricing.rate_at_time(self.now + 60);
        let n = self.ledger.profit_efficiencies_len().max(1) as f64;
        let mean_pe = self.ledger.profit_efficiency_sum() / n;
        let pf = self.ledger.profit_efficiency_sq_dev_sum(mean_pe) / n;
        out.mean_pe = mean_pe;
        out.pf = pf;
    }

    /// Builds the decision contexts for all currently vacant taxis
    /// (ascending taxi id). Taxis broken down under the active fault set
    /// are skipped — an out-of-service vehicle takes no dispatch — and
    /// stations in outage are dropped from charge candidates unless every
    /// nearby station is out (then drivers head for the nearest anyway and
    /// queue for power, as they would in reality).
    pub fn decision_contexts(&self) -> Vec<DecisionContext> {
        let mut ids = Vec::new();
        let mut out = Vec::new();
        let mut spares = Vec::new();
        let _ = self.build_decision_contexts(&mut ids, &mut out, &mut spares);
        out
    }

    /// In-place variant of [`Self::decision_contexts`]: contexts already in
    /// `out` are overwritten field by field (their action sets rebuilt in
    /// place), so with reused buffers the hot path builds all contexts
    /// without allocating. `ids` is the sorted-vacant-ids scratch; `spares`
    /// parks surplus contexts when the vacancy count shrinks and hands them
    /// back before anything fresh is allocated.
    ///
    /// Returns the number of indexed taxis that were *not* actually vacant
    /// (an index desync); callers on the `&mut self` step path feed that
    /// into the invariant counter.
    fn build_decision_contexts(
        &self,
        ids: &mut Vec<TaxiId>,
        out: &mut Vec<DecisionContext>,
        spares: &mut Vec<DecisionContext>,
    ) -> u64 {
        ids.clear();
        for list in &self.vacant_by_region {
            ids.extend_from_slice(list);
        }
        ids.sort_unstable();
        let mut desynced = 0u64;
        let mut n = 0usize;
        for &id in ids.iter() {
            if self.active_faults.taxi_out(id.0) {
                continue;
            }
            let taxi = &self.taxis[id.index()];
            // A vacant-index entry whose taxi has no region is a desync;
            // skipping it keeps the slot alive (recover-and-count, per the
            // invariant convention) instead of panicking mid-dispatch.
            let Some(region) = taxi.state.region() else {
                desynced += 1;
                continue;
            };
            let must_charge = self.config.energy.must_charge(taxi.soc);
            let all_stations = self.city.nearest_stations().nearest(region);
            let in_service: Vec<StationId>;
            let stations: &[StationId] = if self.active_faults.stations_out.is_empty() {
                all_stations
            } else {
                // Station-outage fault path: allocates a filtered list, and
                // is excluded from the zero-alloc envelope (faulted slots
                // are not steady state).
                in_service = all_stations
                    .iter()
                    .copied()
                    .filter(|s| !self.active_faults.station_out(s.0))
                    .collect();
                if in_service.is_empty() {
                    all_stations
                } else {
                    &in_service
                }
            };
            // The paper gates charging on the energy level ("the
            // charging action is decided by the energy level of each
            // e-taxi"): below η charging is forced; below the
            // opportunistic threshold the *station choice and timing*
            // are learnable; above it only movement actions exist.
            let neighbors: &[RegionId] = &self.city.region(region).neighbors;
            let pe_standing = self.ledger.taxi(id).profit_efficiency();
            let ctx = if n < out.len() {
                &mut out[n]
            } else {
                // Prefer a parked context over a fresh one — its action-set
                // buffer is already grown.
                out.push(spares.pop().unwrap_or_else(|| DecisionContext {
                    taxi: id,
                    region,
                    soc: taxi.soc,
                    must_charge,
                    pe_standing,
                    actions: ActionSet::full(&[], &[]),
                }));
                out.last_mut().expect("just pushed")
            };
            ctx.taxi = id;
            ctx.region = region;
            ctx.soc = taxi.soc;
            ctx.must_charge = must_charge;
            ctx.pe_standing = pe_standing;
            // Reserving to the city-wide bound up front means no later
            // rebuild for a better-connected region can reallocate.
            ctx.actions.reserve(self.max_actions);
            if must_charge {
                ctx.actions.rebuild_charge_only(stations);
            } else if taxi.soc < self.config.opportunistic_charge_soc {
                ctx.actions.rebuild_full(neighbors, stations);
            } else {
                ctx.actions.rebuild_full(neighbors, &[]);
            }
            n += 1;
        }
        // Surplus pooled contexts are parked, not dropped: a low-vacancy
        // slot must not forfeit buffers the fleet will need again.
        spares.extend(out.drain(n..));
        desynced
    }

    /// Advances one slot under `policy` and returns the realized feedback.
    ///
    /// The feedback is rebuilt in place each slot and returned by reference
    /// (clone it to keep it past the next step) — together with the
    /// `StepScratch` buffer reuse this makes steady-state stepping
    /// allocation-free, a property pinned by the counting-allocator tests
    /// in `fairmove-testkit`.
    pub fn step_slot(&mut self, policy: &mut dyn DisplacementPolicy) -> &SlotFeedback {
        let slot_start = self.now;
        self.slot_profit.iter_mut().for_each(|p| *p = 0.0);
        self.slot_matches = 0;
        self.slot_redirects = 0;
        // Pre-slot readings for the end-of-slot telemetry deltas (plain
        // integer reads; free when telemetry is disabled).
        let trips_before = self.ledger.trips().len() as u64;
        let charges_before = self.ledger.charges().len() as u64;
        let expired_before = self.pool.expired;
        let slot_span: Option<Span> = self
            .metrics
            .as_ref()
            .map(|m| Span::new(m.slot_seconds.clone()));
        let _trace_slot =
            fairmove_telemetry::trace_span!("step_slot", u64::from(slot_start.absolute_slot()));

        // 0. Refresh the fault set for this slot (no-op without a plan).
        self.refresh_faults(slot_start);

        // 1. Decisions for vacant taxis. The policy sees the (possibly
        // degraded) dispatcher view; the environment itself always works on
        // true state. Scratch buffers are moved out of `self` for the
        // phases that need `&mut self` (a `Vec` move is allocation-free)
        // and moved back when the phase ends.
        let trace_observe = fairmove_telemetry::trace_span!("observe");
        let mut obs = std::mem::take(&mut self.scratch.obs);
        self.policy_observation_into(&mut obs);
        let mut decisions = std::mem::take(&mut self.scratch.decisions);
        let mut ids = std::mem::take(&mut self.scratch.ids);
        let mut spares = std::mem::take(&mut self.scratch.spares);
        let desynced = self.build_decision_contexts(&mut ids, &mut decisions, &mut spares);
        if desynced > 0 {
            self.report_invariant(SimError::VacantIndexDesync { at: slot_start });
            self.invariant_violations += desynced - 1;
        }
        drop(trace_observe);
        let mut actions = std::mem::take(&mut self.scratch.actions);
        {
            let _trace_decide = fairmove_telemetry::trace_span!("decide", decisions.len() as u64);
            let decide_span: Option<Span> = self
                .metrics
                .as_mut()
                .map(|m| Span::new(m.decide_histogram(policy.name())));
            policy.decide_into(&obs, &decisions, &mut actions);
            if let Some(span) = decide_span {
                span.finish();
            }
        }
        debug_assert_eq!(actions.len(), decisions.len());
        let trace_commit = fairmove_telemetry::trace_span!("commit");
        let n_decisions = decisions.len() as u64;
        let slot_idx = slot_start.absolute_slot();
        let loss_prob = self.active_faults.command_loss_prob;
        for (ctx, &action) in decisions.iter().zip(actions.iter()) {
            let mut action = ctx.sanitize(action);
            // Dispatch-command loss: the displacement silently degrades to
            // the taxi's default behavior. Sampled by hashing
            // (seed, slot, taxi) so the draw never touches `self.rng`.
            if loss_prob > 0.0
                && self
                    .fault_plan
                    .as_ref()
                    .is_some_and(|p| p.command_lost(slot_idx, ctx.taxi.0, loss_prob))
            {
                action = ctx.default_action();
                self.fault_counters.commands_lost += 1;
                if let Some(m) = &self.metrics {
                    m.fault_commands_lost.inc();
                }
            }
            self.apply_action(ctx.taxi, action);
        }
        self.scratch.obs = obs;
        self.scratch.decisions = decisions;
        self.scratch.ids = ids;
        self.scratch.spares = spares;
        self.scratch.actions = actions;

        // 2. Demand for this slot, bucketed by arrival minute. Demand
        // faults scale per-region rates; with no demand faults active the
        // unscaled path is taken and the request stream is bit-identical.
        let mut requests = std::mem::take(&mut self.scratch.requests);
        if self.active_faults.demand_factors.is_empty() {
            self.trip_gen
                .generate_slot_scaled_into(slot_start, None, &mut requests);
        } else {
            // Demand-fault path: the scale table is built fresh (faulted
            // slots are excluded from the zero-alloc envelope).
            let mut scale = vec![1.0f64; self.city.n_regions()];
            for &(region, factor) in &self.active_faults.demand_factors {
                if let Some(s) = scale.get_mut(usize::from(region)) {
                    *s = factor;
                }
            }
            self.trip_gen
                .generate_slot_scaled_into(slot_start, Some(&scale), &mut requests);
        }
        let mut arrivals = std::mem::take(&mut self.scratch.arrivals);
        debug_assert!(arrivals.is_empty(), "arrival buckets leaked a slot");
        for _ in 0..SLOT_MINUTES {
            arrivals.push(self.scratch.arrival_pool.take());
        }
        for req in requests.drain(..) {
            let offset = (req.requested_at - slot_start).min(SLOT_MINUTES - 1);
            arrivals[offset as usize].push(req);
        }
        self.scratch.requests = requests;

        // 3. Minute loop.
        let mut dirty = std::mem::take(&mut self.scratch.dirty);
        for m in 0..SLOT_MINUTES {
            let now = slot_start + m;
            self.now = now;
            dirty.clear();

            for req in arrivals[m as usize].drain(..) {
                dirty.push(req.origin);
                self.pool.push(req);
            }

            while let Some(&Reverse((minute, taxi))) = self.schedule.peek() {
                if minute > now.minutes() {
                    break;
                }
                self.schedule.pop();
                if let Some(region) = self.complete_transition(TaxiId(taxi), now) {
                    dirty.push(region);
                }
            }

            dirty.sort_unstable();
            dirty.dedup();
            for &region in dirty.iter() {
                self.match_region(region, now);
            }
        }
        self.scratch.dirty = dirty;
        self.scratch.arrivals = arrivals;

        // 4. Slot wrap-up. The feedback is assembled into the reused
        // env-owned buffer (same summation order as the materialized path,
        // so mean/pf are bit-identical).
        self.now = slot_start + SLOT_MINUTES;
        self.pool.sweep_expired(self.now);
        self.ledger.expired_requests = self.pool.expired;
        self.drain_vacant_cruisers();

        self.feedback.slot_start = slot_start;
        self.feedback.slot_profit.clone_from(&self.slot_profit);
        self.ledger
            .profit_efficiencies_into(&mut self.feedback.cumulative_pe);
        let cumulative_pe = &self.feedback.cumulative_pe;
        let mean_pe = cumulative_pe.iter().sum::<f64>() / cumulative_pe.len().max(1) as f64;
        let pf = cumulative_pe
            .iter()
            .map(|pe| (pe - mean_pe).powi(2))
            .sum::<f64>()
            / cumulative_pe.len().max(1) as f64;
        self.feedback.mean_pe = mean_pe;
        self.feedback.pf = pf;
        drop(trace_commit);

        // Telemetry wrap-up: pure observation of state computed above.
        if let Some(m) = &self.metrics {
            m.slots.inc();
            m.decisions.add(n_decisions);
            m.matches.add(self.slot_matches);
            m.redirects.add(self.slot_redirects);
            m.trips.add(self.ledger.trips().len() as u64 - trips_before);
            m.charges
                .add(self.ledger.charges().len() as u64 - charges_before);
            m.expired.add(self.pool.expired - expired_before);
            let queued: usize = self.stations.iter().map(StationState::queue_len).sum();
            m.charge_queue_depth.set(queued as f64);
            m.charge_queue.observe(queued as f64);
            let vacant: usize = self.vacant_by_region.iter().map(Vec::len).sum();
            m.vacant_taxis.set(vacant as f64);
            m.arena_scratch_bytes
                .set(self.scratch.high_water_bytes() as f64);
        }
        if let Some(span) = slot_span {
            span.finish();
        }

        // Scratch reset between slots (arrival buckets back to the pool,
        // debug poison over the observation buffers) — must precede the
        // audit, whose `arena-reset` check asserts the reset state.
        self.scratch.end_slot();

        // 5. Invariant audit: re-derive the redundant bookkeeping from first
        // principles. Purely observational (no RNG, no state mutation), so
        // audited and unaudited runs are bit-identical.
        if let Some(mut auditor) = self.auditor.take() {
            let new_violations = auditor.audit_slot(self);
            self.auditor = Some(auditor);
            if new_violations > 0 {
                self.invariant_violations += new_violations;
                if let Some(m) = &self.metrics {
                    m.invariants.add(new_violations);
                }
            }
        }

        &self.feedback
    }

    /// Flushes in-progress time accounting into the ledger (call at end of
    /// a run so partially elapsed states are counted).
    pub fn flush_accounting(&mut self) {
        for i in 0..self.taxis.len() {
            let bucket = bucket_of(&self.taxis[i].state);
            let since = self.bucket_since[i];
            let minutes = self.now - since;
            if minutes > 0 {
                self.ledger
                    .taxi_mut(TaxiId(i as u32))
                    .add_time(bucket, minutes);
                self.bucket_since[i] = self.now;
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Compiles the fault set for the slot starting at `slot_start` and
    /// handles outage recovery. No-op (and allocation-free) without a plan.
    fn refresh_faults(&mut self, slot_start: SimTime) {
        let Some(plan) = &self.fault_plan else {
            return;
        };
        let previous = std::mem::take(&mut self.active_faults);
        self.active_faults = plan.faults_at(slot_start.absolute_slot());

        // Stations whose outage just ended regain power: queued taxis plug
        // into whatever points freed up during the blackout, FIFO.
        for &s in &previous.stations_out {
            if !self.active_faults.station_out(s) {
                self.recover_station(StationId(s), slot_start);
            }
        }

        let fs = &self.active_faults;
        if fs.is_empty() {
            return;
        }
        let c = &mut self.fault_counters;
        c.active_slots += 1;
        c.station_outage_slots += fs.stations_out.len() as u64;
        c.demand_scaled_regions += fs.demand_factors.len() as u64;
        c.taxi_out_slots += fs.taxis_out.len() as u64;
        c.obs_stale_slots += u64::from(fs.obs_lag_slots > 0);
        c.obs_dropped_regions += fs.obs_dropped_regions.len() as u64;
        if let Some(m) = &self.metrics {
            m.fault_active_slots.inc();
            m.fault_station_outage.add(fs.stations_out.len() as u64);
            m.fault_demand_regions.add(fs.demand_factors.len() as u64);
            m.fault_taxi_out.add(fs.taxis_out.len() as u64);
            if fs.obs_lag_slots > 0 {
                m.fault_obs_stale.inc();
            }
            m.fault_obs_dropped.add(fs.obs_dropped_regions.len() as u64);
        }
    }

    /// Plugs queued taxis into free points at a station that just regained
    /// power.
    fn recover_station(&mut self, station: StationId, now: SimTime) {
        // Fault specs carry raw ids; one injected against a different world
        // (or corrupted in a journal) must not index out of bounds and take
        // the whole dispatcher down with it.
        if station.index() >= self.stations.len() {
            self.report_invariant(SimError::UnknownStation { station, at: now });
            return;
        }
        while let Some(next) = self.stations[station.index()].plug_from_queue() {
            self.plug_in(next, station, now);
        }
    }

    /// The observation handed to the *policy*: the true global view, passed
    /// through the active observation faults (staleness, dropped regions,
    /// stations reporting no free points during an outage). Without a fault
    /// plan this is exactly [`Self::observation_into`] — and allocation-free
    /// with a warmed buffer; the fault paths (history ring, staleness
    /// copies) are excluded from the zero-alloc envelope.
    fn policy_observation_into(&mut self, out: &mut SlotObservation) {
        self.observation_into(out);
        let Some(plan) = &self.fault_plan else {
            return;
        };
        // Maintain the history ring only when staleness can occur at all.
        // The ring stores the *true* view, so the push happens before any
        // degradation of `out`.
        let max_lag = plan.max_staleness_lag() as usize;
        if max_lag > 0 {
            self.obs_history.push_back(out.clone());
            while self.obs_history.len() > max_lag + 1 {
                self.obs_history.pop_front();
            }
        }

        let lag = self.active_faults.obs_lag_slots as usize;
        if lag > 0 && self.obs_history.len() > 1 {
            // Newest is at the back; fall back to the oldest retained view
            // when the run is younger than the lag.
            let idx = self.obs_history.len().saturating_sub(1 + lag);
            let stale = &self.obs_history[idx];
            out.vacant_per_region.clone_from(&stale.vacant_per_region);
            out.free_points_per_station
                .clone_from(&stale.free_points_per_station);
            out.queue_per_station.clone_from(&stale.queue_per_station);
            out.inbound_per_station
                .clone_from(&stale.inbound_per_station);
            out.waiting_per_region.clone_from(&stale.waiting_per_region);
            out.mean_pe = stale.mean_pe;
            out.pf = stale.pf;
        }
        for &r in &self.active_faults.obs_dropped_regions {
            if let Some(v) = out.vacant_per_region.get_mut(usize::from(r)) {
                *v = 0;
            }
            if let Some(v) = out.waiting_per_region.get_mut(usize::from(r)) {
                *v = 0;
            }
        }
        for &s in &self.active_faults.stations_out {
            if let Some(v) = out.free_points_per_station.get_mut(usize::from(s)) {
                *v = 0;
            }
        }
    }

    /// Records an internal invariant violation: fail fast in debug builds,
    /// count and recover in release builds.
    fn report_invariant(&mut self, err: SimError) {
        debug_assert!(false, "sim invariant violated: {err}");
        self.invariant_violations += 1;
        if let Some(m) = &self.metrics {
            m.invariants.inc();
        }
    }

    fn apply_action(&mut self, id: TaxiId, action: Action) {
        let Some(region) = self.taxis[id.index()].state.region() else {
            self.report_invariant(SimError::NotVacant {
                taxi: id,
                at: self.now,
            });
            return;
        };
        match action {
            Action::Stay => {}
            Action::MoveTo(dest) => {
                let km = self.city.region_driving_distance(region, dest);
                let minutes = self.city.travel().minutes_for_distance(km, self.now).max(1);
                self.drain(id, km);
                self.set_state(
                    id,
                    TaxiState::Repositioning {
                        dest,
                        arrive_at: self.now + minutes,
                    },
                );
                self.schedule_at(id, self.now + minutes);
            }
            Action::Charge(station) => {
                let km = self.city.region_to_station_distance(region, station);
                let minutes = self.city.travel().minutes_for_distance(km, self.now).max(1);
                self.drain(id, km);
                self.charge_ctx[id.index()] = Some(ChargeContext {
                    decided_at: self.now,
                    plugged_at: None,
                    plug_soc: 0.0,
                    redirects: 0,
                });
                self.stations[station.index()].inbound += 1;
                self.set_state(
                    id,
                    TaxiState::ToStation {
                        station,
                        arrive_at: self.now + minutes,
                    },
                );
                self.schedule_at(id, self.now + minutes);
            }
        }
    }

    /// Handles a scheduled completion for `id` at `now`. Returns a region
    /// whose matching state changed (a taxi became available there).
    fn complete_transition(&mut self, id: TaxiId, now: SimTime) -> Option<RegionId> {
        match self.taxis[id.index()].state {
            TaxiState::Repositioning { dest, .. } => {
                self.set_state(id, TaxiState::Vacant { region: dest });
                Some(dest)
            }
            TaxiState::DrivingToPassenger { region, .. } => {
                self.begin_service(id, region, now);
                None
            }
            TaxiState::Serving { dest, .. } => {
                self.finish_service(id, dest, now);
                Some(dest)
            }
            TaxiState::ToStation { station, .. } => {
                self.arrive_at_station(id, station, now);
                None
            }
            TaxiState::Charging { station, .. } => {
                let region = self.finish_charge(id, station, now);
                Some(region)
            }
            TaxiState::Vacant { .. } | TaxiState::Queued { .. } => {
                // Stale schedule entry; queued taxis are woken by release().
                None
            }
        }
    }

    fn begin_service(&mut self, id: TaxiId, region: RegionId, now: SimTime) {
        if self.pending_trip[id.index()].is_none() {
            self.report_invariant(SimError::MissingPendingTrip {
                taxi: id,
                at: now,
                phase: "pickup",
            });
            // Recover: the taxi goes back to seeking where it stands.
            self.taxis[id.index()].free_since = now;
            self.set_state(id, TaxiState::Vacant { region });
            return;
        }
        let pending = self.pending_trip[id.index()]
            .as_ref()
            .expect("checked above");
        let trip_minutes = self
            .city
            .travel()
            .minutes_for_distance(pending.request.distance_km, now)
            + 2; // boarding + payment overhead
        let dest = pending.request.destination;
        self.set_state(
            id,
            TaxiState::Serving {
                dest,
                dropoff_at: now + trip_minutes,
            },
        );
        self.schedule_at(id, now + trip_minutes);
    }

    fn finish_service(&mut self, id: TaxiId, dest: RegionId, now: SimTime) {
        let Some(pending) = self.pending_trip[id.index()].take() else {
            self.report_invariant(SimError::MissingPendingTrip {
                taxi: id,
                at: now,
                phase: "dropoff",
            });
            // Recover: no trip to account; the taxi frees where it stands.
            self.taxis[id.index()].free_since = now;
            self.set_state(id, TaxiState::Vacant { region: dest });
            return;
        };
        let total_km = pending.approach_km + pending.request.distance_km;
        self.drain(id, total_km);
        self.slot_profit[id.index()] += pending.request.fare_cny;
        self.ledger.record_trip(TripEvent {
            taxi: id,
            pickup_at: pending.pickup_at,
            dropoff_at: now,
            origin: pending.request.origin,
            destination: dest,
            distance_km: pending.request.distance_km,
            fare_cny: pending.request.fare_cny,
            cruise_minutes: pending.cruise_minutes,
            first_after_charge: pending.first_after_charge,
        });
        let taxi = &mut self.taxis[id.index()];
        taxi.free_since = now;
        self.set_state(id, TaxiState::Vacant { region: dest });
    }

    /// Queue length (in multiples of capacity) beyond which an arriving
    /// taxi balks and drives to another station instead of queueing.
    const BALK_QUEUE_FACTOR: f64 = 1.5;
    /// Maximum station-to-station redirects per charging excursion.
    const MAX_REDIRECTS: u8 = 2;

    fn arrive_at_station(&mut self, id: TaxiId, station: StationId, now: SimTime) {
        self.stations[station.index()].inbound =
            self.stations[station.index()].inbound.saturating_sub(1);

        // Balking: a driver facing a visibly hopeless queue drives on to a
        // nearby alternative instead (bounded times per excursion). This is
        // what keeps real idle-time tails at tens of minutes rather than
        // hours even when a policy herds. A station in outage is hopeless
        // by definition — drivers try elsewhere if anywhere nearby has
        // power, otherwise they queue and wait for it to come back.
        let out = self.active_faults.station_out(station.0);
        let st = &self.stations[station.index()];
        let hopeless =
            out || st.queue_len() as f64 >= Self::BALK_QUEUE_FACTOR * f64::from(st.points).max(1.0);
        let redirects = self.charge_ctx[id.index()]
            .as_ref()
            .map(|c| c.redirects)
            .unwrap_or(0);
        if hopeless && redirects < Self::MAX_REDIRECTS {
            if let Some(alt) = self.pick_alternative_station(station) {
                if let Some(ctx) = self.charge_ctx[id.index()].as_mut() {
                    ctx.redirects += 1;
                }
                self.slot_redirects += 1;
                let km = self.city.travel().driving_distance(
                    self.city.station(station).position,
                    self.city.station(alt).position,
                );
                let minutes = self.city.travel().minutes_for_distance(km, now).max(1);
                self.drain(id, km);
                self.stations[alt.index()].inbound += 1;
                self.set_state(
                    id,
                    TaxiState::ToStation {
                        station: alt,
                        arrive_at: now + minutes,
                    },
                );
                self.schedule_at(id, now + minutes);
                return;
            }
        }

        if out {
            // No power: join the queue without taking a point; recovery
            // plugs the backlog in FIFO order.
            self.stations[station.index()].join_queue(id);
            self.set_state(id, TaxiState::Queued { station });
            return;
        }
        let plugged = self.stations[station.index()].arrive(id);
        if plugged {
            self.plug_in(id, station, now);
        } else {
            self.set_state(id, TaxiState::Queued { station });
        }
    }

    /// The least-backlogged station near `station` (other than itself and
    /// any station currently in outage), judged from the host region's
    /// nearest-station list.
    fn pick_alternative_station(&self, station: StationId) -> Option<StationId> {
        let region = self.city.station(station).region;
        self.city
            .nearest_stations()
            .nearest(region)
            .iter()
            .copied()
            .filter(|&s| s != station && !self.active_faults.station_out(s.0))
            .min_by(|&a, &b| {
                let load = |s: StationId| {
                    let st = &self.stations[s.index()];
                    (f64::from(st.occupied + st.inbound) + st.queue_len() as f64)
                        / f64::from(st.points).max(1.0)
                };
                // Exact load ties break to the lowest station id: a bare
                // `min_by` returns the *last* minimal element, which would
                // pick whichever equally-loaded station happens to sort
                // later in the nearest-station list.
                load(a).total_cmp(&load(b)).then(a.0.cmp(&b.0))
            })
    }

    fn plug_in(&mut self, id: TaxiId, station: StationId, now: SimTime) {
        let soc = self.taxis[id.index()].soc;
        // Drivers unplug at varying levels (a top-up before a long fare, a
        // full charge overnight); the spread below reproduces the paper's
        // Fig. 3 charge-duration distribution (73.5% in 45–120 min, with
        // tails on both sides).
        let max_target = self.config.energy.charge_target;
        let target = (0.62 + self.rng.gen::<f64>() * (max_target - 0.58))
            .clamp((soc + 0.1).min(max_target), max_target);
        let minutes = self.config.energy.charge_minutes(soc, target).max(1);
        if self.charge_ctx[id.index()].is_none() {
            self.report_invariant(SimError::MissingChargeContext { taxi: id, at: now });
        }
        // Recovery synthesizes a context decided right now, so the charge
        // event still books with sane (zero-idle) timings.
        let ctx = self.charge_ctx[id.index()].get_or_insert(ChargeContext {
            decided_at: now,
            plugged_at: None,
            plug_soc: soc,
            redirects: 0,
        });
        ctx.plugged_at = Some(now);
        ctx.plug_soc = soc;
        self.set_state(
            id,
            TaxiState::Charging {
                station,
                finish_at: now + minutes,
            },
        );
        self.schedule_at(id, now + minutes);
    }

    fn finish_charge(&mut self, id: TaxiId, station: StationId, now: SimTime) -> RegionId {
        let ctx = match self.charge_ctx[id.index()].take() {
            Some(ctx) => ctx,
            None => {
                self.report_invariant(SimError::MissingChargeContext { taxi: id, at: now });
                // Recover with a zero-duration excursion: no energy, no cost.
                ChargeContext {
                    decided_at: now,
                    plugged_at: Some(now),
                    plug_soc: self.taxis[id.index()].soc,
                    redirects: 0,
                }
            }
        };
        let plugged_at = match ctx.plugged_at {
            Some(at) => at,
            None => {
                self.report_invariant(SimError::NeverPlugged { taxi: id, at: now });
                now
            }
        };
        let minutes = now - plugged_at;
        let energy = self.config.energy.energy_for_minutes(ctx.plug_soc, minutes);
        let cost =
            self.config
                .pricing
                .charging_cost(plugged_at, now, self.config.energy.charge_power_kw);
        {
            let taxi = &mut self.taxis[id.index()];
            taxi.recharge(energy, self.config.energy.battery_kwh);
            taxi.free_since = now;
            taxi.after_charge = Some(station);
        }
        self.slot_profit[id.index()] -= cost;
        self.ledger.record_charge(ChargeEvent {
            taxi: id,
            station,
            decided_at: ctx.decided_at,
            plugged_at,
            finished_at: now,
            energy_kwh: energy,
            cost_cny: cost,
        });

        let region = self.city.station(station).region;
        self.set_state(id, TaxiState::Vacant { region });

        // Hand the freed point to the next queued taxi, if any. During an
        // outage nobody may plug in: the point frees silently and the queue
        // keeps waiting for power (recovery drains it).
        if self.active_faults.station_out(station.0) {
            self.stations[station.index()].release_no_handoff();
        } else if let Some(next) = self.stations[station.index()].release() {
            self.plug_in(next, station, now);
        }
        region
    }

    fn match_region(&mut self, region: RegionId, now: SimTime) {
        let _match_span: Option<Span> = self
            .metrics
            .as_ref()
            .map(|m| Span::new(m.match_seconds[m.region_group[region.index()]].clone()));
        loop {
            // FIFO by vacancy: the longest-waiting taxi gets the fare, as
            // at a real taxi rank. (LIFO would systematically starve taxis
            // at the bottom of big vacant pools — an artificial unfairness.)
            // Broken-down taxis are passed over — they cannot take fares —
            // but keep their place in the rank for when they recover.
            let Some(taxi) = self.vacant_by_region[region.index()]
                .iter()
                .copied()
                .find(|t| !self.active_faults.taxi_out(t.0))
            else {
                return;
            };
            let Some(request) = self.pool.pop(region, now) else {
                return;
            };
            // Approach: a short intra-region hop to the passenger.
            let intra = (self.city.region(region).area_km2.sqrt() * 0.6).max(0.3);
            let approach_km = self.rng.gen_range(0.2..(intra + 0.2));
            let minutes = self
                .city
                .travel()
                .minutes_for_distance(approach_km, now)
                .max(1);
            let free_since = self.taxis[taxi.index()].free_since;
            let pickup_at = now + minutes;
            self.slot_matches += 1;
            self.pending_trip[taxi.index()] = Some(PendingTrip {
                approach_km,
                pickup_at,
                cruise_minutes: pickup_at - free_since,
                first_after_charge: self.taxis[taxi.index()].after_charge.take(),
                request,
            });
            self.set_state(taxi, TaxiState::DrivingToPassenger { region, pickup_at });
            self.schedule_at(taxi, pickup_at);
        }
    }

    /// Changes a taxi's state, maintaining bucket accounting and the
    /// vacant-by-region index.
    fn set_state(&mut self, id: TaxiId, new_state: TaxiState) {
        let i = id.index();
        let old_state = self.taxis[i].state;
        let old_bucket = bucket_of(&old_state);
        let new_bucket = bucket_of(&new_state);
        if old_bucket != new_bucket {
            let minutes = self.now - self.bucket_since[i];
            if minutes > 0 {
                self.ledger.taxi_mut(id).add_time(old_bucket, minutes);
            }
            self.bucket_since[i] = self.now;
        }

        if let TaxiState::Vacant { region } = old_state {
            let list = &mut self.vacant_by_region[region.index()];
            if let Some(pos) = list.iter().position(|&t| t == id) {
                // Order-preserving removal: the list is a FIFO rank.
                list.remove(pos);
            }
        }
        if let TaxiState::Vacant { region } = new_state {
            self.vacant_by_region[region.index()].push(id);
        }

        self.taxis[i].state = new_state;
        self.taxis[i].state_since = self.now;
    }

    fn schedule_at(&mut self, id: TaxiId, at: SimTime) {
        self.schedule.push(Reverse((at.minutes(), id.0)));
    }

    fn drain(&mut self, id: TaxiId, km: f64) {
        let kwh = self.config.energy.consumption(km);
        self.taxis[id.index()].drain(kwh, self.config.energy.battery_kwh);
    }

    /// Low-speed cruising consumption for taxis that spent the slot vacant.
    fn drain_vacant_cruisers(&mut self) {
        let kwh = self.config.vacant_cruise_kwh_per_minute * f64::from(SLOT_MINUTES);
        let battery = self.config.energy.battery_kwh;
        for list in &self.vacant_by_region {
            for &id in list {
                self.taxis[id.index()].drain(kwh, battery);
            }
        }
    }
}

/// Maps a state to its accounting bucket (the Fig. 1 decomposition).
fn bucket_of(state: &TaxiState) -> TimeBucket {
    match state {
        TaxiState::Vacant { .. }
        | TaxiState::Repositioning { .. }
        | TaxiState::DrivingToPassenger { .. } => TimeBucket::Cruise,
        TaxiState::Serving { .. } => TimeBucket::Serve,
        TaxiState::ToStation { .. } | TaxiState::Queued { .. } => TimeBucket::Idle,
        TaxiState::Charging { .. } => TimeBucket::Charge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StayPolicy;

    fn small_env() -> Environment {
        Environment::new(SimConfig::test_scale())
    }

    #[test]
    fn construction_places_whole_fleet() {
        let env = small_env();
        assert_eq!(env.taxis().len(), 60);
        let vacant: usize = env.vacant_by_region.iter().map(Vec::len).sum();
        assert_eq!(vacant, 60);
        assert!(env.taxis().iter().all(|t| t.state.is_vacant()));
        assert!(env.taxis().iter().all(|t| (0.5..0.95).contains(&t.soc)));
    }

    #[test]
    fn one_slot_advances_time() {
        let mut env = small_env();
        let mut p = StayPolicy;
        let (slot_start, n_taxis) = {
            let fb = env.step_slot(&mut p);
            (fb.slot_start, fb.slot_profit.len())
        };
        assert_eq!(slot_start, SimTime::ZERO);
        assert_eq!(env.now(), SimTime(SLOT_MINUTES));
        assert_eq!(n_taxis, 60);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "sim invariant violated"))]
    fn invariant_reports_fail_fast_in_debug_and_count_in_release() {
        let mut env = small_env();
        env.report_invariant(SimError::NeverPlugged {
            taxi: TaxiId(0),
            at: SimTime::ZERO,
        });
        // Release builds reach here: the violation is counted, not fatal.
        assert_eq!(env.invariant_violations(), 1);
    }

    #[test]
    fn alternative_station_ties_break_to_lowest_id() {
        // A fresh fleet has every station at load 0, so every candidate in
        // the host region's nearest-station list ties exactly. The redirect
        // target must then be the lowest station id — not whichever
        // equally-loaded station sorts last in the proximity list.
        let env = small_env();
        for st in env.city().stations() {
            let expected = env
                .city
                .nearest_stations()
                .nearest(env.city.station(st.id).region)
                .iter()
                .copied()
                .filter(|&s| s != st.id)
                .min_by_key(|s| s.0);
            assert_eq!(
                env.pick_alternative_station(st.id),
                expected,
                "redirect from {} is not the lowest-id tied alternative",
                st.id
            );
        }
    }

    #[test]
    fn one_day_run_serves_passengers() {
        let mut env = small_env();
        let mut p = StayPolicy;
        env.run(&mut p);
        assert!(env.done());
        let trips = env.ledger().trips().len();
        // 60 taxis * 35 trips/day expected demand; even a stay-only policy
        // should serve a sizable share.
        assert!(trips > 300, "only {trips} trips served");
        let (rev, _) = env.ledger().totals();
        assert!(rev > 0.0);
    }

    #[test]
    fn taxis_eventually_charge() {
        let mut env = small_env();
        let mut p = StayPolicy;
        env.run(&mut p);
        let charges = env.ledger().charges().len();
        assert!(charges > 0, "no charge events in a full day");
        for c in env.ledger().charges() {
            assert!(c.energy_kwh > 0.0);
            assert!(c.cost_cny > 0.0);
            assert!(c.finished_at > c.plugged_at);
            assert!(c.plugged_at >= c.decided_at);
        }
    }

    #[test]
    fn time_buckets_account_every_minute() {
        let mut env = small_env();
        let mut p = StayPolicy;
        env.run(&mut p);
        let horizon = u64::from(env.config().days * MINUTES_PER_DAY);
        for (i, l) in env.ledger().taxis().iter().enumerate() {
            assert_eq!(
                l.on_duty_minutes(),
                horizon,
                "taxi {i} accounted {} of {horizon} minutes",
                l.on_duty_minutes()
            );
        }
    }

    #[test]
    fn soc_stays_in_range() {
        let mut env = small_env();
        let mut p = StayPolicy;
        env.run(&mut p);
        for t in env.taxis() {
            assert!((0.0..=1.0).contains(&t.soc), "taxi soc {}", t.soc);
        }
    }

    #[test]
    fn trip_cruise_minutes_are_recorded() {
        let mut env = small_env();
        let mut p = StayPolicy;
        env.run(&mut p);
        for trip in env.ledger().trips() {
            assert!(trip.dropoff_at > trip.pickup_at);
            assert!(trip.fare_cny >= env.config().fare.flagfall_cny - 1e-9);
        }
        // At least some trips should record nonzero cruise time.
        assert!(env.ledger().trips().iter().any(|t| t.cruise_minutes > 0));
    }

    #[test]
    fn telemetry_counters_track_the_ledger() {
        let tel = Telemetry::enabled();
        let mut env = small_env();
        env.set_telemetry(&tel);
        assert!(env.telemetry().is_enabled());
        let mut p = StayPolicy;
        env.run(&mut p);
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter("sim.trips"),
            Some(env.ledger().trips().len() as u64)
        );
        assert_eq!(
            snap.counter("sim.charges"),
            Some(env.ledger().charges().len() as u64)
        );
        assert_eq!(
            snap.counter("sim.expired_requests"),
            Some(env.ledger().expired_requests)
        );
        let slots = snap.counter("sim.slots").unwrap();
        let expected_slots = u64::from(env.config().days * MINUTES_PER_DAY / SLOT_MINUTES);
        assert_eq!(slots, expected_slots);
        // One slot-latency observation per slot, and matches cover trips.
        let h = snap.histogram("sim.step_slot_seconds").unwrap();
        assert_eq!(h.count, slots);
        assert!(snap.counter("sim.matches").unwrap() >= snap.counter("sim.trips").unwrap());
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = || {
            let mut env = Environment::new(SimConfig::test_scale());
            let mut p = StayPolicy;
            env.run(&mut p);
            (
                env.ledger().trips().len(),
                env.ledger().charges().len(),
                env.ledger().totals(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observation_shapes_match_city() {
        let env = small_env();
        let obs = env.observation();
        assert_eq!(obs.vacant_per_region.len(), env.city().n_regions());
        assert_eq!(obs.free_points_per_station.len(), env.city().n_stations());
        assert_eq!(obs.predicted_demand.len(), env.city().n_regions());
        let vacant_total: u32 = obs.vacant_per_region.iter().sum();
        assert_eq!(vacant_total as usize, env.config().fleet_size);
    }

    #[test]
    fn decision_contexts_cover_vacant_taxis() {
        let env = small_env();
        let ctxs = env.decision_contexts();
        assert_eq!(ctxs.len(), 60);
        for ctx in &ctxs {
            assert!(!ctx.actions.is_empty());
            if ctx.must_charge {
                assert!(ctx.actions.charge_forced());
            }
        }
    }

    #[test]
    fn auditor_catches_dirty_scratch_reuse() {
        // Simulate a pooled-buffer reuse bug (the between-slots reset is
        // skipped); the auditor's arena-reset check must flag it.
        let mut env = small_env();
        env.set_auditor(audit::InvariantAuditor::recording());
        env.debug_skip_scratch_reset(true);
        let mut p = StayPolicy;
        env.step_slot(&mut p);
        let auditor = env.auditor().expect("auditor installed");
        assert!(auditor.violations() > 0, "dirty scratch reuse not caught");
        assert_eq!(auditor.first_violation().unwrap().check, "arena-reset");
    }

    #[test]
    fn scratch_reset_state_is_clean_after_healthy_slots() {
        let mut env = small_env();
        env.set_auditor(audit::InvariantAuditor::recording());
        let mut p = StayPolicy;
        for _ in 0..5 {
            env.step_slot(&mut p);
        }
        assert_eq!(env.auditor().unwrap().violations(), 0);
        assert!(env.scratch.arrival_pool.quiescent());
        assert!(env.scratch.arrivals.is_empty());
    }

    #[test]
    fn observation_into_reuse_matches_fresh() {
        let mut env = small_env();
        let mut p = StayPolicy;
        for _ in 0..8 {
            env.step_slot(&mut p);
        }
        let fresh = env.observation();
        // A dirty, differently-shaped buffer must come out identical.
        let mut reused = SlotObservation {
            vacant_per_region: vec![99; 3],
            predicted_demand: vec![f64::NAN; 1],
            mean_pe: -1.0,
            ..SlotObservation::default()
        };
        env.observation_into(&mut reused);
        assert_eq!(reused.vacant_per_region, fresh.vacant_per_region);
        assert_eq!(
            reused.free_points_per_station,
            fresh.free_points_per_station
        );
        assert_eq!(reused.queue_per_station, fresh.queue_per_station);
        assert_eq!(reused.inbound_per_station, fresh.inbound_per_station);
        assert_eq!(reused.predicted_demand, fresh.predicted_demand);
        assert_eq!(reused.waiting_per_region, fresh.waiting_per_region);
        assert_eq!(reused.mean_pe.to_bits(), fresh.mean_pe.to_bits());
        assert_eq!(reused.pf.to_bits(), fresh.pf.to_bits());
        assert_eq!(reused.price_now, fresh.price_now);
        assert_eq!(reused.price_next_hour, fresh.price_next_hour);
    }

    #[test]
    fn prepare_steady_state_changes_nothing_observable() {
        let run = |prepare: bool| {
            let mut env = Environment::new(SimConfig::test_scale());
            if prepare {
                env.prepare_steady_state();
            }
            let mut p = StayPolicy;
            env.run(&mut p);
            (env.ledger().trips().len(), env.ledger().totals())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn first_trip_after_charge_is_tagged() {
        let mut env = small_env();
        let mut p = StayPolicy;
        env.run(&mut p);
        if env.ledger().charges().is_empty() {
            return; // nothing to check at this scale
        }
        let tagged = env
            .ledger()
            .trips()
            .iter()
            .filter(|t| t.first_after_charge.is_some())
            .count();
        assert!(
            tagged > 0,
            "charges happened but no first-after-charge trips recorded"
        );
    }

    #[test]
    fn charging_costs_use_time_of_use_tariff() {
        let mut env = small_env();
        let mut p = StayPolicy;
        env.run(&mut p);
        for c in env.ledger().charges() {
            let expected = env.config().pricing.charging_cost(
                c.plugged_at,
                c.finished_at,
                env.config().energy.charge_power_kw,
            );
            assert!((c.cost_cny - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn feedback_pf_is_variance_of_pe() {
        let mut env = small_env();
        let mut p = StayPolicy;
        for _ in 0..50 {
            env.step_slot(&mut p);
        }
        let fb = env.step_slot(&mut p);
        let mean = fb.cumulative_pe.iter().sum::<f64>() / fb.cumulative_pe.len() as f64;
        let var = fb
            .cumulative_pe
            .iter()
            .map(|x| (x - mean).powi(2))
            .sum::<f64>()
            / fb.cumulative_pe.len() as f64;
        assert!((fb.mean_pe - mean).abs() < 1e-9);
        assert!((fb.pf - var).abs() < 1e-9);
    }

    #[test]
    fn reward_alpha_extremes() {
        let fb = SlotFeedback {
            slot_start: SimTime::ZERO,
            slot_profit: vec![10.0, 0.0],
            cumulative_pe: vec![50.0, 40.0],
            mean_pe: 45.0,
            pf: 25.0,
        };
        // α = 1: pure efficiency; taxi 0 earns more.
        assert!(fb.reward(1.0, TaxiId(0)) > fb.reward(1.0, TaxiId(1)));
        // α = 0: pure fairness. Both taxis deviate equally (±5) from the
        // mean, so their fairness penalties are identical and negative.
        let r0 = fb.reward(0.0, TaxiId(0));
        let r1 = fb.reward(0.0, TaxiId(1));
        assert!((r0 - r1).abs() < 1e-9, "{r0} vs {r1}");
        assert!(r0 < 0.0);
    }
}
