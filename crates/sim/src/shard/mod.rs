//! Region-sharded slot-granularity fleet engine for paper-scale runs.
//!
//! The minute-stepped [`Environment`](crate::Environment) is the reference
//! simulator, but its single global RNG stream and whole-fleet minute loop
//! make it both unshardable (any regrouping of work reorders draws) and too
//! slow for the paper's full deployment (491 regions, 123 stations, 20,130
//! taxis, Section IV-A). This module is the scale path: fleet state is
//! sharded by contiguous region groups, every shard steps one *slot* at a
//! time in parallel, and taxis crossing region groups are handed off through
//! a central [`DeliverySchedule`] committed serially at slot boundaries.
//!
//! Displacement is pluggable through [`ShardPolicy`] (see [`policy`]): each
//! region's vacant taxis get reference-environment decision contexts (forced
//! charging below η, opportunistic charging below the configured threshold,
//! movement above it) and the policy answers against the previous slot's
//! frozen [`SlotObservation`]. Queue abandonment, balk-and-redirect at
//! hopeless stations, and the plug-in target/pricing rule are ported from
//! the minute engine — see DESIGN.md "Fidelity contract" for what is exact
//! versus bounded.
//!
//! # Determinism contract
//!
//! `ShardedEnv` output is **bit-identical for every `(shard count, thread
//! count)` pair**. The single-shard serial run is the oracle; the testkit
//! property compares shards × threads ∈ {1,2,4}² against it. Three design
//! rules carry the contract:
//!
//! 1. **Per-region RNG streams** ([`rng::region_stream`]): every random draw
//!    belongs to exactly one region's stream, derived from the master seed
//!    and the region id alone, so regrouping regions into shards cannot
//!    reorder or reassign draws. Policies draw only from the stream of the
//!    region they are deciding, at commit time.
//! 2. **Region-local steps**: within a slot, a shard reads only (a) its own
//!    state, (b) immutable world models, and (c) the previous slot's global
//!    observation — never another shard's current-slot state.
//! 3. **Canonical handoff order**: departures are committed to the schedule
//!    serially in shard-id order; each arrival slot's batch is a
//!    layout-invariant *multiset*, and deliveries are applied sorted by
//!    `(arrival kind, taxi id)`, so application order never depends on the
//!    layout (see [`handoff`]).
//!
//! Thread-count invariance is inherited from
//! [`fairmove_parallel::ordered_map_threads`], which
//! returns results in submission order regardless of which worker ran what.

pub mod handoff;
pub mod policy;
pub mod rng;
pub mod store;

use fairmove_city::{City, RegionId, SimTime, StationId, TimeSlot, SLOTS_PER_DAY, SLOT_MINUTES};
use fairmove_data::{ChargingPricing, DemandModel, EnergyModel, FareModel};
use fairmove_parallel::ordered_map_threads;
use rand::rngs::StdRng;
use rand::Rng;

use crate::action::{Action, ActionSet};
use crate::config::SimConfig;
use crate::observation::{DecisionContext, SlotObservation};
use crate::taxi::TaxiId;
use handoff::{ArrivalKind, DeliverySchedule, InFlight};
use policy::{GreedyDeficitPolicy, ShardPolicy, ShardPolicyFactory};
use store::{ChargeSession, StationStore, TaxiRow, TaxiStore};

/// Base of the charge-target draw (reference `plug_in`: most sessions end
/// between 62 % and the configured ceiling, reproducing the paper's Fig. 3
/// charge-duration spread).
const CHARGE_TARGET_BASE: f64 = 0.62;
/// Reference point subtracted from the ceiling to scale the draw's spread
/// (same 0.58 constant as the minute engine's `plug_in`).
const CHARGE_TARGET_REF: f64 = 0.58;
/// Fixed pickup overhead folded into every served trip, minutes.
const PICKUP_MINUTES: u32 = 5;
/// Queue length (in multiples of capacity) beyond which an arriving taxi
/// balks and drives to another station instead of queueing (reference
/// `Environment::BALK_QUEUE_FACTOR`).
const BALK_QUEUE_FACTOR: f64 = 1.5;
/// Maximum station-to-station redirects per charging excursion (reference
/// `Environment::MAX_REDIRECTS`).
const MAX_REDIRECTS: u8 = 2;
/// Minutes a queued driver waits before giving up and returning to vacant
/// service in the station's host region. The differential oracle bounds
/// every observed queue wait by this constant plus one slot.
pub const QUEUE_PATIENCE_MINUTES: u32 = 60;
/// Knuth Poisson sampling degenerates (exp underflow) for large λ; draw in
/// chunks of this mean instead. Expected uniforms ≈ λ + λ/CHUNK.
const POISSON_CHUNK: f64 = 30.0;

/// Assignment of regions (and, through host regions, stations and taxis) to
/// shards: contiguous ascending region-id ranges, balanced to within one.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// `starts[s]..starts[s+1]` is shard `s`'s region range; `len + 1` entries.
    starts: Vec<u16>,
}

impl ShardMap {
    /// Splits `n_regions` into `n_shards` contiguous ranges. The shard count
    /// is clamped to `1..=n_regions`.
    pub fn contiguous(n_regions: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.clamp(1, n_regions.max(1));
        let base = n_regions / n_shards;
        let rem = n_regions % n_shards;
        let mut starts = Vec::with_capacity(n_shards + 1);
        let mut at = 0usize;
        starts.push(0);
        for s in 0..n_shards {
            at += base + usize::from(s < rem);
            starts.push(at as u16);
        }
        ShardMap { starts }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Always false — a map covers at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Shard owning global region `region`.
    pub fn shard_of_region(&self, region: u16) -> usize {
        // partition_point: first start strictly greater than `region`, minus
        // the leading 0 entry.
        self.starts.partition_point(|&s| s <= region) - 1
    }

    /// Owned region range of shard `s` as `(lo, hi)` (half-open).
    pub fn range(&self, s: usize) -> (u16, u16) {
        (self.starts[s], self.starts[s + 1])
    }
}

/// Immutable world context shared by every shard during one slot step.
struct StepCtx<'a> {
    city: &'a City,
    demand: &'a DemandModel,
    energy: &'a EnergyModel,
    fare: &'a FareModel,
    pricing: &'a ChargingPricing,
    /// The previous slot's frozen global observation — the only cross-shard
    /// state a shard may read during the step.
    obs: &'a SlotObservation,
    /// Absolute slot being stepped.
    slot: u32,
    /// Slot start time.
    now: SimTime,
    /// Slot-of-day for demand lookups.
    slot_of_day: TimeSlot,
    /// Battery fraction drained by one slot of vacant cruising.
    idle_soc_drop: f64,
    /// SoC below which charge actions become admissible (reference
    /// `opportunistic_charge_soc`).
    opportunistic_soc: f64,
}

/// Everything a shard hands back from one parallel slot step.
#[derive(Debug, Default)]
struct StepOutput {
    /// `(arrival slot, flight)` in this shard's emission order (phase-A balk
    /// redirects first, then phase-C departures region by region). The batch
    /// *content* per arrival slot is layout-invariant; the order is
    /// canonicalized by the delivery inbox sort.
    departures: Vec<(u32, InFlight)>,
    decisions: u64,
    trips_served: u64,
    trips_unserved: u64,
}

/// One shard: the taxis and stations of a contiguous region range, the
/// range's RNG streams, and this shard's policy instance plus its pooled
/// decision scratch.
struct Shard {
    id: u32,
    region_lo: u16,
    region_hi: u16,
    taxis: TaxiStore,
    stations: StationStore,
    /// Vacant taxi ids per owned region (local index `region - region_lo`);
    /// sorted ascending at the start of each region's decision pass.
    vacant: Vec<Vec<u32>>,
    /// Per-region RNG streams (same local indexing).
    streams: Vec<StdRng>,
    /// Unserved-request scratch per owned region, refreshed each slot.
    waiting: Vec<u32>,
    /// This shard's displacement policy (behaviourally identical across
    /// shards — see [`ShardPolicyFactory`]).
    policy: Box<dyn ShardPolicy>,
    /// Pooled decision contexts, reused across regions and slots.
    ctx_pool: Vec<DecisionContext>,
    /// Per-region action answers from the policy.
    action_buf: Vec<Action>,
    /// Abandoning-taxi scratch for the patience sweep.
    abandon_buf: Vec<u32>,
}

impl Shard {
    fn local(&self, region: u16) -> usize {
        debug_assert!(region >= self.region_lo && region < self.region_hi);
        usize::from(region - self.region_lo)
    }

    /// Plugs `taxi` into local station slot `st`, drawing the unplug target
    /// from the host region's stream and pricing the session at plug time.
    ///
    /// Target rule is reference-environment parity (`plug_in`): a uniform
    /// draw over the Fig. 3 spread, clamped to at least a +0.10 top-up and
    /// at most the configured ceiling.
    fn plug(&mut self, ctx: &StepCtx<'_>, st: usize, taxi: u32) {
        let host = ctx
            .city
            .station(StationId(self.stations.station_ids[st]))
            .region;
        let soc = self.taxis.soc(taxi);
        let stream = self.local(host.0);
        let u: f64 = self.streams[stream].gen();
        let max_target = ctx.energy.charge_target;
        let target = (CHARGE_TARGET_BASE + u * (max_target - CHARGE_TARGET_REF))
            .clamp((soc + 0.1).min(max_target), max_target);
        let minutes = ctx.energy.charge_minutes(soc, target).max(1);
        let end = SimTime(ctx.now.0 + minutes);
        let cost = ctx
            .pricing
            .charging_cost(ctx.now, end, ctx.energy.charge_power_kw);
        self.stations.charging[st].push(ChargeSession {
            taxi,
            finish_minute: end.0,
            target_soc: target,
            cost,
        });
    }

    /// Applies one slot: deliveries, station maintenance, then per-region
    /// decisions. Reads only `ctx` (immutable, previous-slot observation)
    /// and its own state, so the result depends solely on
    /// `(shard state, ctx)`.
    fn step(&mut self, ctx: &StepCtx<'_>, inbox: Vec<InFlight>) -> StepOutput {
        let mut out = StepOutput::default();
        self.waiting.iter_mut().for_each(|w| *w = 0);

        // Phase A — deliveries, pre-sorted by (arrival kind, taxi id).
        for flight in inbox {
            match flight.arrival {
                ArrivalKind::BecomeVacant { region } => {
                    let id = flight.row.id;
                    self.taxis.insert(flight.row);
                    let l = self.local(region);
                    self.vacant[l].push(id);
                }
                ArrivalKind::JoinStation { station } => {
                    let st = self
                        .stations
                        .slot_of(station)
                        .expect("delivery routed to non-owning shard");
                    // Balking (reference parity): a driver facing a visibly
                    // hopeless queue diverts to the least-loaded nearby
                    // alternative instead, bounded per excursion. The local
                    // queue length is layout-invariant (all arrivals to one
                    // station land in one inbox, canonically sorted); the
                    // alternative is judged from the frozen observation.
                    let hopeless = self.stations.queue[st].len() as f64
                        >= BALK_QUEUE_FACTOR * f64::from(self.stations.points[st]).max(1.0);
                    if hopeless && flight.redirects < MAX_REDIRECTS {
                        if let Some(alt) = pick_alternative_station(ctx, StationId(station)) {
                            self.redirect(ctx, flight, StationId(station), alt, &mut out);
                            continue;
                        }
                    }
                    let id = flight.row.id;
                    self.taxis.insert(flight.row);
                    if self.stations.free_points(st) > 0 {
                        self.plug(ctx, st, id);
                    } else {
                        self.stations.join_queue(st, id, ctx.now.0);
                    }
                }
            }
        }

        // Phase B — station maintenance in station-id order: finish
        // sessions, admit queued taxis to freed points, then sweep the
        // queue for drivers whose patience ran out.
        for st in 0..self.stations.len() {
            let host = ctx
                .city
                .station(StationId(self.stations.station_ids[st]))
                .region;
            let l = self.local(host.0);
            // `<=` makes a session ending exactly on the slot boundary
            // complete in this slot, freeing its point for this slot's
            // admissions.
            let mut finished = Vec::new();
            self.stations.charging[st].retain(|s| {
                if s.finish_minute <= ctx.now.0 {
                    finished.push(*s);
                    false
                } else {
                    true
                }
            });
            for s in finished {
                self.taxis.set_soc(s.taxi, s.target_soc);
                self.taxis.credit_charge(s.taxi, s.cost);
                self.vacant[l].push(s.taxi);
            }
            while self.stations.free_points(st) > 0 {
                let Some(entry) = self.stations.queue[st].pop_front() else {
                    break;
                };
                self.plug(ctx, st, entry.taxi);
            }
            // Patience abandonment: expired waiters return to vacant
            // service in the host region (exact prefix pop — join minutes
            // are non-decreasing along the FIFO queue).
            self.abandon_buf.clear();
            self.stations.abandon_expired(
                st,
                ctx.now.0,
                QUEUE_PATIENCE_MINUTES,
                &mut self.abandon_buf,
            );
            for i in 0..self.abandon_buf.len() {
                let taxi = self.abandon_buf[i];
                #[cfg(feature = "seeded-bug-shard")]
                {
                    // Planted bug for the mutation-smoke test: abandonment
                    // events are dropped on the floor — the taxi leaves the
                    // queue but never returns to service, which the
                    // differential oracle's fleet-conservation check must
                    // catch and shrink to the earliest starved queue.
                    let _ = self.taxis.remove(taxi);
                }
                #[cfg(not(feature = "seeded-bug-shard"))]
                self.vacant[l].push(taxi);
            }
        }

        // Phase C — owned regions in ascending region-id order.
        for l in 0..self.vacant.len() {
            let region = self.region_lo + l as u16;
            self.step_region(ctx, region, l, &mut out);
        }
        out
    }

    /// Re-aims an arriving charge excursion at `alt` without entering the
    /// store: the taxi pays the station-to-station drive and arrives at
    /// least one slot later with its redirect budget decremented.
    fn redirect(
        &mut self,
        ctx: &StepCtx<'_>,
        mut flight: InFlight,
        from: StationId,
        alt: StationId,
        out: &mut StepOutput,
    ) {
        let km = ctx.city.travel().driving_distance(
            ctx.city.station(from).position,
            ctx.city.station(alt).position,
        );
        flight.row.soc = (flight.row.soc - ctx.energy.soc_drop(km)).max(0.0);
        let minutes = ctx.city.travel().minutes_for_distance(km, ctx.now).max(1);
        let arrival_slot = ctx.slot + minutes.div_ceil(SLOT_MINUTES).max(1);
        out.departures.push((
            arrival_slot,
            InFlight {
                row: flight.row,
                arrival: ArrivalKind::JoinStation { station: alt.0 },
                from_shard: self.id,
                redirects: flight.redirects + 1,
            },
        ));
    }

    /// One region's slot: idle drain, policy decisions over reference-parity
    /// contexts (reading the previous slot's observation), then demand draw
    /// + matching.
    fn step_region(&mut self, ctx: &StepCtx<'_>, region: u16, l: usize, out: &mut StepOutput) {
        let mut vac = std::mem::take(&mut self.vacant[l]);
        vac.sort_unstable();

        // Idle cruising drains every vacant taxi one slot's worth of energy.
        for &id in &vac {
            self.taxis.drain_soc(id, ctx.idle_soc_drop);
        }

        // Decision contexts in ascending taxi-id order, with the reference
        // environment's admissibility gating: below η only charge actions
        // are admissible; below the opportunistic threshold movement and
        // charging both are; above it movement only.
        let rid = RegionId(region);
        let stations = ctx.city.nearest_stations().nearest(rid);
        let neighbors: &[RegionId] = &ctx.city.region(rid).neighbors;
        let hours = f64::from(ctx.now.0) / 60.0;
        let n = vac.len();
        while self.ctx_pool.len() < n {
            self.ctx_pool.push(DecisionContext {
                taxi: TaxiId(0),
                region: rid,
                soc: 0.0,
                must_charge: false,
                pe_standing: 0.0,
                actions: ActionSet::full(&[], &[]),
            });
        }
        for (i, &id) in vac.iter().enumerate() {
            let row = self.taxis.get(id).expect("vacant taxi present");
            let must_charge = ctx.energy.must_charge(row.soc);
            let c = &mut self.ctx_pool[i];
            c.taxi = TaxiId(id);
            c.region = rid;
            c.soc = row.soc;
            c.must_charge = must_charge;
            c.pe_standing = if hours > 0.0 {
                (row.revenue - row.cost) / hours
            } else {
                0.0
            };
            if must_charge {
                c.actions.rebuild_charge_only(stations);
            } else if row.soc < ctx.opportunistic_soc {
                c.actions.rebuild_full(neighbors, stations);
            } else {
                c.actions.rebuild_full(neighbors, &[]);
            }
        }

        // One policy call per region; every context is one decision. The
        // region's own RNG stream is handed over so draws stay owned by the
        // region regardless of layout.
        self.action_buf.clear();
        self.policy.decide_region(
            ctx.city,
            ctx.obs,
            rid,
            &self.ctx_pool[..n],
            &mut self.streams[l],
            &mut self.action_buf,
        );
        debug_assert_eq!(self.action_buf.len(), n, "policy must answer every context");
        out.decisions += n as u64;

        let mut keep = Vec::with_capacity(n);
        for (i, &id) in vac.iter().enumerate() {
            let action = self.action_buf.get(i).copied().unwrap_or(Action::Stay);
            match self.ctx_pool[i].sanitize(action) {
                Action::Stay => keep.push(id),
                Action::MoveTo(dest) => {
                    let km = ctx.city.region_driving_distance(rid, dest);
                    self.depart(
                        ctx,
                        id,
                        km,
                        ArrivalKind::BecomeVacant { region: dest.0 },
                        true,
                        out,
                    );
                }
                Action::Charge(station) => {
                    let km = ctx.city.region_to_station_distance(rid, station);
                    self.depart(
                        ctx,
                        id,
                        km,
                        ArrivalKind::JoinStation { station: station.0 },
                        false,
                        out,
                    );
                }
            }
        }
        let mut vac = keep;

        // Demand: Poisson(λ) requests, each sampling a gravity destination
        // from this region's stream, matched FIFO to the lowest vacant id.
        let lambda = ctx.demand.intensity(rid, ctx.slot_of_day);
        let requests = poisson(&mut self.streams[l], lambda);
        let mut cursor = 0usize;
        for _ in 0..requests {
            let dest = sample_destination(&mut self.streams[l], ctx, region);
            if cursor < vac.len() {
                let id = vac[cursor];
                cursor += 1;
                out.decisions += 1;
                out.trips_served += 1;
                let km = trip_distance(ctx, region, dest);
                let fare = ctx.fare.fare(km, ctx.now.hour_of_day());
                self.serve(ctx, id, km, fare, dest, out);
            } else {
                out.trips_unserved += 1;
                self.waiting[l] += 1;
            }
        }
        self.vacant[l] = vac.split_off(cursor);
    }

    /// Removes `id` from the store and emits a fare-free departure covering
    /// `km` of driving: charge excursions and displacement moves
    /// (`is_move`). Revenue-earning passenger trips go through
    /// [`Self::serve`] instead.
    fn depart(
        &mut self,
        ctx: &StepCtx<'_>,
        id: u32,
        km: f64,
        arrival: ArrivalKind,
        is_move: bool,
        out: &mut StepOutput,
    ) {
        let mut row = self.taxis.remove(id).expect("departing taxi present");
        row.soc = (row.soc - ctx.energy.soc_drop(km)).max(0.0);
        if is_move {
            row.moves += 1;
        }
        let minutes = ctx.city.travel().minutes_for_distance(km, ctx.now).max(1);
        let arrival_slot = ctx.slot + minutes.div_ceil(SLOT_MINUTES).max(1);
        out.departures.push((
            arrival_slot,
            InFlight {
                row,
                arrival,
                from_shard: self.id,
                redirects: 0,
            },
        ));
    }

    /// Serves one passenger trip from `region` to `dest`.
    fn serve(
        &mut self,
        ctx: &StepCtx<'_>,
        id: u32,
        km: f64,
        fare: f64,
        dest: u16,
        out: &mut StepOutput,
    ) {
        let mut row = self.taxis.remove(id).expect("matched taxi present");
        row.soc = (row.soc - ctx.energy.soc_drop(km)).max(0.0);
        row.revenue += fare;
        row.trips += 1;
        let minutes = ctx.city.travel().minutes_for_distance(km, ctx.now).max(1) + PICKUP_MINUTES;
        let arrival_slot = ctx.slot + minutes.div_ceil(SLOT_MINUTES).max(1);
        out.departures.push((
            arrival_slot,
            InFlight {
                row,
                arrival: ArrivalKind::BecomeVacant { region: dest },
                from_shard: self.id,
                redirects: 0,
            },
        ));
    }
}

/// The least-backlogged station near `station` (other than itself), judged
/// from the host region's nearest-station list against the previous slot's
/// observation. Mirrors the reference environment's balk target rule
/// (`pick_alternative_station`), with occupancy reconstructed as
/// `points − free`.
fn pick_alternative_station(ctx: &StepCtx<'_>, station: StationId) -> Option<StationId> {
    let region = ctx.city.station(station).region;
    ctx.city
        .nearest_stations()
        .nearest(region)
        .iter()
        .copied()
        .filter(|&s| s != station)
        .min_by(|&a, &b| {
            let load = |s: StationId| {
                let i = s.index();
                let points = f64::from(ctx.city.station(s).charging_points);
                let occupied = points - f64::from(ctx.obs.free_points_per_station[i]);
                (occupied
                    + f64::from(ctx.obs.inbound_per_station[i])
                    + f64::from(ctx.obs.queue_per_station[i]))
                    / points.max(1.0)
            };
            // Exact load ties break to the lowest station id.
            load(a).total_cmp(&load(b)).then(a.0.cmp(&b.0))
        })
}

/// Chunked Knuth Poisson sampler over a region stream. Deterministic given
/// the stream state; chunking keeps `exp(-λ)` away from underflow.
fn poisson(rng: &mut StdRng, mut lambda: f64) -> u32 {
    let mut k = 0u32;
    while lambda > POISSON_CHUNK {
        k += poisson_knuth(rng, POISSON_CHUNK);
        lambda -= POISSON_CHUNK;
    }
    k + poisson_knuth(rng, lambda)
}

fn poisson_knuth(rng: &mut StdRng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let floor = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= floor {
            return k;
        }
        k += 1;
    }
}

/// Gravity destination sampling over `{region} ∪ neighbors(region)`,
/// weighted by the demand model's archetype destination weights.
fn sample_destination(rng: &mut StdRng, ctx: &StepCtx<'_>, region: u16) -> u16 {
    let own = ctx.demand.destination_weight(RegionId(region));
    let neighbors = &ctx.city.region(RegionId(region)).neighbors;
    let total: f64 = own
        + neighbors
            .iter()
            .map(|&n| ctx.demand.destination_weight(n))
            .sum::<f64>();
    let mut u = rng.gen::<f64>() * total;
    if u < own {
        return region;
    }
    u -= own;
    for &n in neighbors {
        let w = ctx.demand.destination_weight(n);
        if u < w {
            return n.0;
        }
        u -= w;
    }
    neighbors.last().map_or(region, |n| n.0)
}

/// Driving distance of a trip: centroid distance between regions, or half
/// the region's side length for an intra-region hop.
fn trip_distance(ctx: &StepCtx<'_>, origin: u16, dest: u16) -> f64 {
    if origin == dest {
        ctx.city.region(RegionId(origin)).area_km2.sqrt() * 0.5
    } else {
        ctx.city
            .region_driving_distance(RegionId(origin), RegionId(dest))
    }
}

/// End-of-run aggregate over every taxi payload, wherever it currently is.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetTotals {
    /// Fare revenue, yuan.
    pub revenue: f64,
    /// Charging cost, yuan.
    pub cost: f64,
    /// Completed passenger trips.
    pub trips: u64,
    /// Completed displacement moves.
    pub moves: u64,
    /// Completed charge sessions.
    pub charges: u64,
}

/// The sharded paper-scale engine. See the module docs for the determinism
/// contract; [`Self::digest`] is the canonical state fingerprint the testkit
/// property compares across `(shards, threads)` grids.
pub struct ShardedEnv {
    config: SimConfig,
    city: City,
    demand: DemandModel,
    map: ShardMap,
    shards: Vec<Shard>,
    schedule: DeliverySchedule,
    /// The frozen global observation decisions in the *next* slot will read;
    /// rebuilt serially after every commit.
    obs: SlotObservation,
    /// Fleet-indexed profit-efficiency scratch for the Eq. 3 aggregates.
    pe_buf: Vec<f64>,
    slot: u32,
    decisions: u64,
    cross_shard_handoffs: u64,
    trips_served: u64,
    trips_unserved: u64,
}

impl ShardedEnv {
    /// Builds the world with the default greedy-deficit displacement policy.
    /// See [`Self::with_policy`].
    pub fn new(config: SimConfig, n_shards: usize) -> Self {
        Self::with_policy(config, n_shards, &|_| {
            Box::new(GreedyDeficitPolicy::default())
        })
    }

    /// Builds the world and distributes the fleet over `n_shards` contiguous
    /// region groups, constructing one policy instance per shard via
    /// `factory`. Taxi `i` starts vacant in region `i mod n_regions` with a
    /// deterministic hash-spread state of charge — no RNG draws at
    /// construction, so streams start aligned under every layout.
    pub fn with_policy(config: SimConfig, n_shards: usize, factory: &ShardPolicyFactory) -> Self {
        let city = City::generate(config.city.clone());
        let demand = DemandModel::new(&city, config.daily_trips(), config.seed);
        let n_regions = city.n_regions();
        let map = ShardMap::contiguous(n_regions, n_shards);

        let mut shards: Vec<Shard> = (0..map.len())
            .map(|s| {
                let (lo, hi) = map.range(s);
                let owned = usize::from(hi - lo);
                Shard {
                    id: s as u32,
                    region_lo: lo,
                    region_hi: hi,
                    taxis: TaxiStore::default(),
                    stations: StationStore::default(),
                    vacant: vec![Vec::new(); owned],
                    streams: (lo..hi)
                        .map(|r| rng::region_stream(config.seed, RegionId(r)))
                        .collect(),
                    waiting: vec![0; owned],
                    policy: factory(&city),
                    ctx_pool: Vec::new(),
                    action_buf: Vec::new(),
                    abandon_buf: Vec::new(),
                }
            })
            .collect();

        for st in city.stations() {
            let s = map.shard_of_region(st.region.0);
            shards[s].stations.push_station(st.id.0, st.charging_points);
        }

        for i in 0..config.fleet_size as u32 {
            let region = (i as usize % n_regions) as u16;
            let s = map.shard_of_region(region);
            // Golden-ratio spread over [0.50, 0.95): deterministic, seedless.
            let frac = (f64::from(i) * 0.618_033_988_749_895).fract();
            let row = TaxiRow {
                id: i,
                soc: 0.5 + 0.45 * frac,
                revenue: 0.0,
                cost: 0.0,
                trips: 0,
                moves: 0,
                charges: 0,
            };
            let shard = &mut shards[s];
            let l = usize::from(region - shard.region_lo);
            shard.taxis.insert(row);
            shard.vacant[l].push(i);
        }

        let mut env = ShardedEnv {
            config,
            city,
            demand,
            map,
            shards,
            schedule: DeliverySchedule::default(),
            obs: SlotObservation::default(),
            pe_buf: Vec::new(),
            slot: 0,
            decisions: 0,
            cross_shard_handoffs: 0,
            trips_served: 0,
            trips_unserved: 0,
        };
        env.rebuild_observation();
        env
    }

    /// Rebuilds the frozen global observation from the committed end-of-slot
    /// state, field-for-field following the reference environment's
    /// `observation_into`: demand prediction for the *next* slot, tariffs at
    /// `now` and `now + 60`, and the Eq. 3 fleet aggregates (mean and
    /// population variance of per-taxi profit efficiency) summed in
    /// canonical taxi-id order.
    fn rebuild_observation(&mut self) {
        let now = SimTime(self.slot * SLOT_MINUTES);
        let n_regions = self.city.n_regions();
        let n_stations = self.city.n_stations();
        let obs = &mut self.obs;
        obs.now = now;
        obs.slot = now.slot_of_day();
        obs.vacant_per_region.clear();
        obs.vacant_per_region.resize(n_regions, 0);
        obs.waiting_per_region.clear();
        obs.waiting_per_region.resize(n_regions, 0);
        obs.free_points_per_station.clear();
        obs.free_points_per_station.resize(n_stations, 0);
        obs.queue_per_station.clear();
        obs.queue_per_station.resize(n_stations, 0);
        obs.inbound_per_station.clear();
        obs.inbound_per_station.resize(n_stations, 0);
        for shard in &self.shards {
            for l in 0..shard.vacant.len() {
                let r = usize::from(shard.region_lo) + l;
                obs.vacant_per_region[r] = shard.vacant[l].len() as u32;
                obs.waiting_per_region[r] = shard.waiting[l];
            }
            for st in 0..shard.stations.len() {
                let sid = usize::from(shard.stations.station_ids[st]);
                obs.free_points_per_station[sid] = shard.stations.free_points(st);
                obs.queue_per_station[sid] = shard.stations.queue[st].len() as u32;
            }
        }
        self.schedule.for_each(|_, flight| {
            if let ArrivalKind::JoinStation { station } = flight.arrival {
                obs.inbound_per_station[usize::from(station)] += 1;
            }
        });
        self.demand.intensities_into(
            (now + SLOT_MINUTES).slot_of_day(),
            &mut obs.predicted_demand,
        );
        obs.price_now = self.config.pricing.rate_at_time(now);
        obs.price_next_hour = self.config.pricing.rate_at_time(now + 60);

        // Eq. 3 aggregates over the whole fleet. The id-indexed buffer makes
        // the fill order irrelevant; the sums below run in taxi-id order, so
        // the floats are bit-identical under every layout.
        let hours = f64::from(now.0) / 60.0;
        if hours > 0.0 {
            let fleet = self.config.fleet_size;
            self.pe_buf.clear();
            self.pe_buf.resize(fleet, 0.0);
            for shard in &self.shards {
                shard
                    .taxis
                    .profit_efficiencies_into(hours, &mut self.pe_buf);
            }
            let pe_buf = &mut self.pe_buf;
            self.schedule.for_each(|_, flight| {
                pe_buf[flight.row.id as usize] = (flight.row.revenue - flight.row.cost) / hours;
            });
            let n = (fleet.max(1)) as f64;
            let mean = self.pe_buf.iter().sum::<f64>() / n;
            let pf = self
                .pe_buf
                .iter()
                .map(|pe| (pe - mean) * (pe - mean))
                .sum::<f64>()
                / n;
            obs.mean_pe = mean;
            obs.pf = pf;
        } else {
            obs.mean_pe = 0.0;
            obs.pf = 0.0;
        }
    }

    /// Steps one slot with up to `threads` worker threads. Output is
    /// bit-identical for every `(shard count, thread count)` pair.
    pub fn step_slot(&mut self, threads: usize) {
        let slot = self.slot;
        let n_shards = self.map.len();

        // Route due arrivals to owning shards and sort each inbox into the
        // canonical application order.
        let mut inboxes: Vec<Vec<InFlight>> = vec![Vec::new(); n_shards];
        for flight in self.schedule.drain_due(slot) {
            let s = match flight.arrival {
                ArrivalKind::BecomeVacant { region } => self.map.shard_of_region(region),
                ArrivalKind::JoinStation { station } => self
                    .map
                    .shard_of_region(self.city.station(StationId(station)).region.0),
            };
            if flight.from_shard as usize != s {
                self.cross_shard_handoffs += 1;
            }
            inboxes[s].push(flight);
        }
        for inbox in &mut inboxes {
            inbox.sort_unstable_by_key(|f| (f.arrival, f.row.id));
        }

        let shards = std::mem::take(&mut self.shards);
        let work: Vec<(Shard, Vec<InFlight>)> = shards.into_iter().zip(inboxes).collect();
        let now = SimTime(slot * SLOT_MINUTES);
        let ctx = StepCtx {
            city: &self.city,
            demand: &self.demand,
            energy: &self.config.energy,
            fare: &self.config.fare,
            pricing: &self.config.pricing,
            obs: &self.obs,
            slot,
            now,
            slot_of_day: TimeSlot((slot % SLOTS_PER_DAY) as u16),
            idle_soc_drop: self.config.vacant_cruise_kwh_per_minute * f64::from(SLOT_MINUTES)
                / self.config.energy.battery_kwh,
            opportunistic_soc: self.config.opportunistic_charge_soc,
        };
        let results = ordered_map_threads(threads, work, |(mut shard, inbox)| {
            let out = shard.step(&ctx, inbox);
            (shard, out)
        });

        // Serial commit in shard-id order: each arrival slot's schedule
        // batch is a layout-invariant multiset (see `handoff`), and the
        // counters are plain sums.
        let mut shards = Vec::with_capacity(n_shards);
        for (shard, out) in results {
            for (arrival_slot, flight) in out.departures {
                self.schedule.push(arrival_slot, flight);
            }
            self.decisions += out.decisions;
            self.trips_served += out.trips_served;
            self.trips_unserved += out.trips_unserved;
            shards.push(shard);
        }
        self.shards = shards;

        self.slot += 1;
        self.rebuild_observation();
    }

    /// Runs `slots` consecutive slots.
    pub fn run(&mut self, slots: u32, threads: usize) {
        for _ in 0..slots {
            self.step_slot(threads);
        }
    }

    /// Absolute slot the engine will step next.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Number of shards in the active layout.
    pub fn n_shards(&self) -> usize {
        self.map.len()
    }

    /// Name of the active displacement policy (same for every shard).
    pub fn policy_name(&self) -> &'static str {
        self.shards[0].policy.name()
    }

    /// The frozen global observation the next slot's decisions will read.
    pub fn observation(&self) -> &SlotObservation {
        &self.obs
    }

    /// Displacement + charge + match decisions taken so far (layout-
    /// invariant, gated exactly by the throughput baseline).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Deliveries that crossed a shard boundary. Layout-*dependent* by
    /// definition (always 0 with one shard) — excluded from [`Self::digest`].
    pub fn cross_shard_handoffs(&self) -> u64 {
        self.cross_shard_handoffs
    }

    /// Passenger trips dispatched so far.
    pub fn trips_served(&self) -> u64 {
        self.trips_served
    }

    /// Requests that found no vacant taxi in their origin region.
    pub fn trips_unserved(&self) -> u64 {
        self.trips_unserved
    }

    /// Taxis currently travelling between slot boundaries.
    pub fn in_flight(&self) -> usize {
        self.schedule.in_flight()
    }

    /// Taxis currently waiting in a station queue.
    pub fn queued_taxis(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.stations.queue.iter().map(|q| q.len()).sum::<usize>())
            .sum()
    }

    /// Longest wait of any currently queued taxi, minutes. The patience
    /// sweep bounds this by [`QUEUE_PATIENCE_MINUTES`] at every slot
    /// boundary — the differential oracle asserts exactly that.
    pub fn max_queue_wait_minutes(&self) -> u32 {
        let now = self.slot * SLOT_MINUTES;
        let mut max = 0u32;
        for shard in &self.shards {
            for q in &shard.stations.queue {
                for e in q {
                    max = max.max(now.saturating_sub(e.joined_minute));
                }
            }
        }
        max
    }

    /// Every taxi's payload in ascending taxi-id order, wherever the taxi
    /// currently is (shard store or in flight). This is the "ledger" the
    /// testkit equality property compares across layouts.
    pub fn taxi_rows(&self) -> Vec<TaxiRow> {
        let mut rows: Vec<TaxiRow> = Vec::with_capacity(self.config.fleet_size);
        for shard in &self.shards {
            shard.taxis.rows_into(&mut rows);
        }
        self.schedule.for_each(|_, flight| rows.push(flight.row));
        rows.sort_unstable_by_key(|r| r.id);
        rows
    }

    /// Fleet-wide ledger totals.
    pub fn totals(&self) -> FleetTotals {
        let mut t = FleetTotals::default();
        for row in self.taxi_rows() {
            t.revenue += row.revenue;
            t.cost += row.cost;
            t.trips += u64::from(row.trips);
            t.moves += u64::from(row.moves);
            t.charges += u64::from(row.charges);
        }
        t
    }

    /// Canonical state fingerprint: every taxi's location and payload in
    /// taxi-id order, plus slot and layout-invariant counters, FNV-1a
    /// hashed. Two runs with equal digests at equal slots have bit-identical
    /// fleet state regardless of shard or thread count.
    pub fn digest(&self) -> u64 {
        // Location tag + two location words per taxi, filled from stores
        // (vacant lists, queues, sessions) and the delivery schedule.
        const VACANT: u8 = 1;
        const QUEUED: u8 = 2;
        const CHARGING: u8 = 3;
        const FLYING: u8 = 4;
        let fleet = self.config.fleet_size;
        let mut locs: Vec<(u8, u32, u32, u64)> = vec![(0, 0, 0, 0); fleet];
        for shard in &self.shards {
            for l in 0..shard.vacant.len() {
                let region = u32::from(shard.region_lo) + l as u32;
                for &id in &shard.vacant[l] {
                    locs[id as usize] = (VACANT, region, 0, 0);
                }
            }
            for st in 0..shard.stations.len() {
                let sid = u32::from(shard.stations.station_ids[st]);
                for (pos, e) in shard.stations.queue[st].iter().enumerate() {
                    locs[e.taxi as usize] = (QUEUED, sid, pos as u32, u64::from(e.joined_minute));
                }
                for s in &shard.stations.charging[st] {
                    locs[s.taxi as usize] =
                        (CHARGING, sid, s.finish_minute, s.target_soc.to_bits());
                }
            }
        }
        self.schedule.for_each(|slot, flight| {
            let (kind, at) = match flight.arrival {
                ArrivalKind::BecomeVacant { region } => (0u32, u32::from(region)),
                ArrivalKind::JoinStation { station } => (1u32, u32::from(station)),
            };
            locs[flight.row.id as usize] = (FLYING, slot, (kind << 16) | at, 0);
        });

        let rows = self.taxi_rows();
        let mut bytes = Vec::with_capacity(fleet * 64 + 32);
        bytes.extend_from_slice(&self.slot.to_le_bytes());
        bytes.extend_from_slice(&self.decisions.to_le_bytes());
        bytes.extend_from_slice(&self.trips_served.to_le_bytes());
        bytes.extend_from_slice(&self.trips_unserved.to_le_bytes());
        for row in rows {
            let (tag, a, b, extra) = locs[row.id as usize];
            debug_assert!(tag != 0, "taxi {} not located anywhere", row.id);
            bytes.push(tag);
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(&b.to_le_bytes());
            bytes.extend_from_slice(&extra.to_le_bytes());
            bytes.extend_from_slice(&row.id.to_le_bytes());
            bytes.extend_from_slice(&row.soc.to_bits().to_le_bytes());
            bytes.extend_from_slice(&row.revenue.to_bits().to_le_bytes());
            bytes.extend_from_slice(&row.cost.to_bits().to_le_bytes());
            bytes.extend_from_slice(&row.trips.to_le_bytes());
            bytes.extend_from_slice(&row.moves.to_le_bytes());
            bytes.extend_from_slice(&row.charges.to_le_bytes());
        }
        fnv64(&bytes)
    }
}

/// FNV-1a 64-bit over `bytes`: the dependency-free digest behind
/// [`ShardedEnv::digest`], the dispatch server's state digest and the
/// testkit's per-slot event summaries.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_continue(FNV64_OFFSET, bytes)
}

/// The FNV-1a 64-bit offset basis: [`fnv64`] of no bytes.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit hash `h` over `bytes`, so a byte stream can
/// be hashed piece by piece without being collected:
/// `fnv64_continue(fnv64(a), b) == fnv64(a ‖ b)`.
#[inline]
pub fn fnv64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::StayShardPolicy;
    use rand::SeedableRng;

    #[test]
    fn shard_map_partitions_contiguously_and_balanced() {
        let map = ShardMap::contiguous(491, 4);
        assert_eq!(map.len(), 4);
        let sizes: Vec<usize> = (0..4)
            .map(|s| {
                let (lo, hi) = map.range(s);
                usize::from(hi - lo)
            })
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 491);
        assert!(sizes.iter().all(|&s| s == 122 || s == 123));
        for r in 0..491u16 {
            let s = map.shard_of_region(r);
            let (lo, hi) = map.range(s);
            assert!(r >= lo && r < hi, "region {r} outside shard {s} range");
        }
    }

    #[test]
    fn shard_map_clamps_excess_shards() {
        let map = ShardMap::contiguous(3, 16);
        assert_eq!(map.len(), 3);
        let map = ShardMap::contiguous(40, 0);
        assert_eq!(map.len(), 1);
        assert_eq!(map.range(0), (0, 40));
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = StdRng::seed_from_u64(7);
        for &lambda in &[0.5f64, 4.0, 25.0, 90.0] {
            let n = 3000;
            let total: u64 = (0..n).map(|_| u64::from(poisson(&mut rng, lambda))).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn single_shard_serial_run_conserves_the_fleet() {
        let config = SimConfig::test_scale();
        let fleet = config.fleet_size;
        let mut env = ShardedEnv::new(config, 1);
        env.run(24, 1);
        let rows = env.taxi_rows();
        assert_eq!(rows.len(), fleet, "taxis lost or duplicated");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.id, i as u32);
            assert!(row.soc >= 0.0 && row.soc <= 1.0, "taxi {i} soc {}", row.soc);
        }
        assert!(env.trips_served() > 0, "no trips served in a day quarter");
        assert!(env.decisions() > 0);
        assert_eq!(env.cross_shard_handoffs(), 0, "one shard cannot hand off");
    }

    #[test]
    fn sharded_run_matches_the_serial_oracle() {
        let config = SimConfig::test_scale();
        let mut oracle = ShardedEnv::new(config.clone(), 1);
        oracle.run(36, 1);
        let want = oracle.digest();
        for shards in [2usize, 4] {
            let mut env = ShardedEnv::new(config.clone(), shards);
            env.run(36, 2);
            assert_eq!(env.digest(), want, "{shards} shards diverged from oracle");
            assert!(
                env.cross_shard_handoffs() > 0,
                "{shards} shards: no boundary-straddling trips exercised"
            );
        }
    }

    #[test]
    fn stay_policy_runs_are_layout_invariant_too() {
        let config = SimConfig::test_scale();
        let factory: &ShardPolicyFactory = &|_| Box::new(StayShardPolicy);
        let mut oracle = ShardedEnv::with_policy(config.clone(), 1, factory);
        oracle.run(24, 1);
        assert_eq!(oracle.policy_name(), "stay");
        let want = oracle.digest();
        let mut env = ShardedEnv::with_policy(config, 3, factory);
        env.run(24, 2);
        assert_eq!(env.digest(), want, "stay policy diverged across layouts");
        // Stay keeps everyone home: no displacement moves at all.
        assert_eq!(oracle.totals().moves, 0);
    }

    #[test]
    fn fnv64_matches_known_answers() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64_continue(fnv64(b"fair"), b"move"), fnv64(b"fairmove"));
    }

    #[test]
    fn digest_is_sensitive_to_state() {
        let config = SimConfig::test_scale();
        let mut a = ShardedEnv::new(config.clone(), 2);
        let d0 = a.digest();
        a.run(6, 1);
        assert_ne!(a.digest(), d0, "digest ignored six slots of evolution");
        let mut other_seed = config;
        other_seed.seed ^= 1;
        let b = ShardedEnv::new(other_seed, 2);
        // Construction is seed-independent (no draws), but one slot diverges.
        let mut a2 = ShardedEnv::new(SimConfig::test_scale(), 2);
        let mut b2 = b;
        a2.run(12, 1);
        b2.run(12, 1);
        assert_ne!(a2.digest(), b2.digest(), "seed change did not reach digest");
    }

    /// Pops taxi `id` out of whichever vacant list holds it, returning its
    /// (shard, local region) location.
    fn pop_vacant(env: &mut ShardedEnv, id: u32) -> (usize, usize) {
        for s in 0..env.shards.len() {
            for l in 0..env.shards[s].vacant.len() {
                if let Some(pos) = env.shards[s].vacant[l].iter().position(|&v| v == id) {
                    env.shards[s].vacant[l].swap_remove(pos);
                    return (s, l);
                }
            }
        }
        panic!("taxi {id} not vacant anywhere");
    }

    #[test]
    fn charge_session_completing_on_the_handoff_boundary_frees_the_point() {
        let config = SimConfig::test_scale();
        let mut env = ShardedEnv::new(config, 1);
        let sid = env.shards[0].stations.station_ids[0];
        let host = env.city.station(StationId(sid)).region;
        // Park taxi 0 in a session that ends exactly on the next boundary.
        pop_vacant(&mut env, 0);
        env.shards[0].stations.charging[0].push(ChargeSession {
            taxi: 0,
            finish_minute: SLOT_MINUTES,
            target_soc: 0.9,
            cost: 2.5,
        });
        // Slot 0 (now = 0): finish_minute > now, the session must persist.
        env.step_slot(1);
        assert!(
            env.shards[0].stations.charging[0]
                .iter()
                .any(|s| s.taxi == 0),
            "session finished a slot early"
        );
        // Slot 1 (now = SLOT_MINUTES): `finish <= now` completes on the
        // boundary, credits the payload, and frees the point.
        env.step_slot(1);
        assert!(
            !env.shards[0].stations.charging[0]
                .iter()
                .any(|s| s.taxi == 0),
            "boundary-ending session still occupies its point"
        );
        let row = env.taxi_rows()[0];
        assert_eq!(row.charges, 1);
        assert!((row.cost - 2.5).abs() < 1e-12);
        // The taxi rejoined service in the host region (it may already have
        // departed again within the same slot, in which case it is in
        // flight — either way it is accounted exactly once).
        let rows = env.taxi_rows();
        assert_eq!(rows.len(), env.config.fleet_size);
        let _ = host;
    }

    #[test]
    fn queued_past_patience_abandons_to_the_host_region() {
        let config = SimConfig::test_scale();
        let mut env = ShardedEnv::new(config, 1);
        let sid = env.shards[0].stations.station_ids[0];
        let host = env.city.station(StationId(sid)).region;
        let points = env.shards[0].stations.points[0];
        // Fill every point so the queued taxi cannot simply be admitted.
        let blockers: Vec<u32> = (1..=points).collect();
        for &b in &blockers {
            pop_vacant(&mut env, b);
            env.shards[0].stations.charging[0].push(ChargeSession {
                taxi: b,
                finish_minute: 10_000,
                target_soc: 0.9,
                cost: 0.0,
            });
        }
        // Taxi 0 joined the queue at minute 0.
        pop_vacant(&mut env, 0);
        env.shards[0].stations.join_queue(0, 0, 0);
        // The sweep fires during the step whose start time reaches the
        // patience bound: stepping slot `patience_slots` runs phase B at
        // `now == QUEUE_PATIENCE_MINUTES`.
        let patience_slots = QUEUE_PATIENCE_MINUTES / SLOT_MINUTES;
        env.run(patience_slots + 1, 1);
        assert_eq!(env.queued_taxis(), 0, "patience sweep left the taxi queued");
        assert!(env.max_queue_wait_minutes() == 0);
        // Still conserved, and taxi 0 is back in circulation (vacant in the
        // host region or already dispatched from it).
        assert_eq!(env.taxi_rows().len(), env.config.fleet_size);
        let _ = host;
    }

    #[test]
    fn hopeless_queue_balks_to_an_alternative_station() {
        let config = SimConfig::test_scale();
        let mut env = ShardedEnv::new(config, 1);
        let sid = env.shards[0].stations.station_ids[0];
        let points = env.shards[0].stations.points[0];
        let hopeless_len = (BALK_QUEUE_FACTOR * f64::from(points)).ceil() as u32 + 1;
        // Occupy every point so phase B cannot drain the queue (or plug the
        // arriving taxis) and the queue stays visibly hopeless.
        let fleet = env.config.fleet_size as u32;
        for b in 1..=points {
            let blocker = fleet - b; // top-of-fleet ids, clear of the queue's
            pop_vacant(&mut env, blocker);
            env.shards[0].stations.charging[0].push(ChargeSession {
                taxi: blocker,
                finish_minute: 10_000,
                target_soc: 0.9,
                cost: 0.0,
            });
        }
        // Build a hopeless queue out of real taxis (ids 1..).
        for b in 1..=hopeless_len {
            pop_vacant(&mut env, b);
            env.shards[0].stations.join_queue(0, b, 0);
        }
        // Taxi 0 arrives at the hopeless station this slot with a fresh
        // redirect budget; a maxed-out excursion (taxi id hopeless_len + 1)
        // must queue instead.
        let capped = hopeless_len + 1;
        for (taxi, redirects) in [(0u32, 0u8), (capped, MAX_REDIRECTS)] {
            pop_vacant(&mut env, taxi);
            let row = env.shards[0].taxis.remove(taxi).expect("taxi present");
            env.schedule.push(
                env.slot,
                InFlight {
                    row,
                    arrival: ArrivalKind::JoinStation { station: sid },
                    from_shard: 0,
                    redirects,
                },
            );
        }
        env.step_slot(1);
        // Taxi 0 balked: it is in flight toward a *different* station with
        // one redirect consumed.
        let mut redirected = None;
        env.schedule.for_each(|_, f| {
            if f.row.id == 0 {
                redirected = Some((f.arrival, f.redirects));
            }
        });
        let (arrival, redirects) = redirected.expect("balked taxi not in flight");
        match arrival {
            ArrivalKind::JoinStation { station } => {
                assert_ne!(station, sid, "balked back to the same station")
            }
            other => panic!("balked taxi has wrong arrival {other:?}"),
        }
        assert_eq!(redirects, 1);
        // The redirect-capped taxi stayed and queued at the hopeless station.
        assert!(
            env.shards[0].stations.queue[0]
                .iter()
                .any(|e| e.taxi == capped),
            "redirect-capped taxi did not queue"
        );
        assert_eq!(env.taxi_rows().len(), env.config.fleet_size);
    }

    #[test]
    fn observation_mirrors_committed_state() {
        let config = SimConfig::test_scale();
        let mut env = ShardedEnv::new(config, 2);
        env.run(12, 1);
        let obs = env.observation().clone();
        assert_eq!(obs.now.0, 12 * SLOT_MINUTES);
        // Vacant counts must match the stores exactly.
        for s in &env.shards {
            for l in 0..s.vacant.len() {
                let r = usize::from(s.region_lo) + l;
                assert_eq!(obs.vacant_per_region[r], s.vacant[l].len() as u32);
            }
        }
        // Inbound must equal the number of station-bound flights.
        let mut inbound = 0u32;
        env.schedule.for_each(|_, f| {
            if matches!(f.arrival, ArrivalKind::JoinStation { .. }) {
                inbound += 1;
            }
        });
        assert_eq!(obs.inbound_per_station.iter().sum::<u32>(), inbound);
        // Eq. 3 aggregates are finite and the variance is non-negative.
        assert!(obs.mean_pe.is_finite());
        assert!(obs.pf >= 0.0);
        assert!(obs.price_now > 0.0);
    }
}
