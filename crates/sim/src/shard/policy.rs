//! Pluggable displacement policies for the sharded engine.
//!
//! The minute-stepped [`Environment`](crate::Environment) drives policies
//! through [`DisplacementPolicy`](crate::DisplacementPolicy), whose
//! `decide`/`observe` cycle assumes one global dispatcher. Inside a shard
//! step there is no global dispatcher: each region decides against the
//! *previous slot's* frozen global observation, and randomness must come
//! from the region's own stream so the result is layout-invariant. This
//! module defines the narrower contract that makes displacement pluggable
//! under those rules.
//!
//! # Determinism rules for implementations
//!
//! 1. `decide_region` must be a pure function of
//!    `(city, obs, region, ctxs, rng)` and the policy's own construction
//!    parameters — no mutable cross-region or cross-slot state that could
//!    observe shard grouping. (Per-slot caches keyed on `obs.now` are fine:
//!    every shard instance rebuilds the same cache from the same frozen
//!    observation.)
//! 2. RNG draws must come only from the passed region stream, and their
//!    *count* must depend only on the inputs above — never on which shard
//!    hosts the region or how many threads are stepping.
//! 3. Exactly one action must be pushed per context, in context order. The
//!    engine sanitizes inadmissible actions with
//!    [`DecisionContext::sanitize`], as the reference environment does, so
//!    a policy bug degrades to the safe default instead of corrupting
//!    state.

use fairmove_city::{City, RegionId};
use rand::rngs::StdRng;

use crate::action::Action;
use crate::observation::{DecisionContext, SlotObservation};

/// Ceiling on displacement departures per region per slot; bounds empty-
/// cruise mileage the way the paper's per-slot dispatch quota does.
pub const MAX_MOVES_PER_REGION_SLOT: usize = 4;

/// A displacement policy callable from inside a shard step.
///
/// See the module docs for the determinism rules. Policies are constructed
/// per shard (via [`ShardedEnv::with_policy`](super::ShardedEnv::with_policy)),
/// so `&mut self` scratch is private to one shard and never shared across
/// threads.
pub trait ShardPolicy: Send {
    /// Stable policy name (reported by benches and baselines).
    fn name(&self) -> &'static str;

    /// Decides one owned region's vacant taxis for the current slot.
    ///
    /// `ctxs` is in ascending taxi-id order; push exactly one [`Action`]
    /// per context onto `out` (cleared by the engine before the call).
    /// `obs` is the previous slot's frozen global observation and `rng` is
    /// the deciding region's dedicated stream.
    fn decide_region(
        &mut self,
        city: &City,
        obs: &SlotObservation,
        region: RegionId,
        ctxs: &[DecisionContext],
        rng: &mut StdRng,
        out: &mut Vec<Action>,
    );
}

/// Constructor for one shard's policy instance. Called once per shard at
/// engine construction; every instance must be behaviourally identical (same
/// weights, same constants), since which instance serves a region is a
/// layout detail.
pub type ShardPolicyFactory<'a> = dyn Fn(&City) -> Box<dyn ShardPolicy> + 'a;

/// Charge-when-forced, otherwise hold position. The do-nothing baseline the
/// paper compares against ("NP" — no displacement).
#[derive(Debug, Default, Clone, Copy)]
pub struct StayShardPolicy;

impl ShardPolicy for StayShardPolicy {
    fn name(&self) -> &'static str {
        "stay"
    }

    fn decide_region(
        &mut self,
        _city: &City,
        _obs: &SlotObservation,
        _region: RegionId,
        ctxs: &[DecisionContext],
        _rng: &mut StdRng,
        out: &mut Vec<Action>,
    ) {
        out.extend(ctxs.iter().map(DecisionContext::default_action));
    }
}

/// Greedy deficit-chasing displacement: keep cover for the region's own
/// predicted demand, send the surplus (highest taxi ids first) toward the
/// neighbouring region with the largest unmet demand in the previous slot's
/// observation, ties to the lowest region id. Taxis below the opportunistic
/// threshold top up when their nearest station shows headroom.
///
/// This reproduces the displacement rule previously hard-wired into the
/// shard step, extended with opportunistic charging; it consumes no RNG.
#[derive(Debug, Default)]
pub struct GreedyDeficitPolicy {
    /// `(neighbour region id, remaining deficit)` scratch, reused per call.
    deficits: Vec<(u16, u32)>,
    /// Indices into `ctxs` of movement-capable taxis, ascending.
    movable: Vec<usize>,
}

/// SoC below which the greedy policy takes an offered opportunistic charge.
/// Stricter than the engine's admissibility gate (`opportunistic_charge_soc`)
/// so a whole region does not herd to its host station at once.
const GREEDY_TOPUP_SOC: f64 = 0.35;

impl ShardPolicy for GreedyDeficitPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn decide_region(
        &mut self,
        city: &City,
        obs: &SlotObservation,
        region: RegionId,
        ctxs: &[DecisionContext],
        _rng: &mut StdRng,
        out: &mut Vec<Action>,
    ) {
        self.movable.clear();
        for (i, ctx) in ctxs.iter().enumerate() {
            if ctx.must_charge || (ctx.soc < GREEDY_TOPUP_SOC && station_has_headroom(obs, ctx)) {
                out.push(first_charge(ctx));
            } else {
                out.push(Action::Stay);
                self.movable.push(i);
            }
        }

        // Keep cover for this slot's expected local demand; everything else
        // (capped) is surplus.
        let cover = obs.predicted_demand[region.index()].ceil() as usize;
        let surplus = self
            .movable
            .len()
            .saturating_sub(cover)
            .min(MAX_MOVES_PER_REGION_SLOT);
        if surplus == 0 {
            return;
        }
        let neighbors = &city.region(region).neighbors;
        self.deficits.clear();
        self.deficits.extend(neighbors.iter().map(|&n| {
            let idx = n.index();
            let d = obs.waiting_per_region[idx].saturating_sub(obs.vacant_per_region[idx]);
            (n.0, d)
        }));
        for k in 0..surplus {
            // Lowest-id neighbour among those tied for max deficit.
            let Some(best) = self
                .deficits
                .iter_mut()
                .filter(|(_, d)| *d > 0)
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                break;
            };
            best.1 -= 1;
            let dest = RegionId(best.0);
            // Highest-id movers depart first: `movable` ascends with taxi
            // id, so walk it from the tail.
            let i = self.movable[self.movable.len() - 1 - k];
            out[i] = Action::MoveTo(dest);
        }
    }
}

/// The context's nearest admissible charge action, or `Stay` when the world
/// has no stations at all.
fn first_charge(ctx: &DecisionContext) -> Action {
    ctx.actions
        .charge_actions()
        .first()
        .copied()
        .unwrap_or(Action::Stay)
}

/// Whether the context's nearest station showed spare capacity in the
/// previous slot's observation: free points exceeding the taxis already
/// driving there plus the queue.
fn station_has_headroom(obs: &SlotObservation, ctx: &DecisionContext) -> bool {
    match ctx.actions.charge_actions().first() {
        Some(&Action::Charge(s)) => {
            let i = s.index();
            obs.free_points_per_station[i] > obs.inbound_per_station[i] + obs.queue_per_station[i]
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSet;
    use crate::taxi::TaxiId;
    use fairmove_city::{SimTime, StationId, TimeSlot};

    fn small_city() -> City {
        City::generate(fairmove_city::CityConfig {
            n_regions: 12,
            n_stations: 3,
            total_charging_points: 9,
            ..fairmove_city::CityConfig::default()
        })
    }

    fn obs(n_regions: usize, n_stations: usize) -> SlotObservation {
        SlotObservation {
            now: SimTime::ZERO,
            slot: TimeSlot(0),
            vacant_per_region: vec![0; n_regions],
            free_points_per_station: vec![0; n_stations],
            queue_per_station: vec![0; n_stations],
            inbound_per_station: vec![0; n_stations],
            predicted_demand: vec![0.0; n_regions],
            waiting_per_region: vec![0; n_regions],
            price_now: 1.0,
            price_next_hour: 1.0,
            mean_pe: 0.0,
            pf: 0.0,
        }
    }

    fn ctx(
        id: u32,
        region: u16,
        soc: f64,
        must_charge: bool,
        stations: &[StationId],
    ) -> DecisionContext {
        let neighbors = [RegionId(1)];
        DecisionContext {
            taxi: TaxiId(id),
            region: RegionId(region),
            soc,
            must_charge,
            pe_standing: 0.0,
            actions: if must_charge {
                ActionSet::full(&[], stations)
            } else {
                ActionSet::full(&neighbors, stations)
            },
        }
    }

    #[test]
    fn stay_policy_only_charges_when_forced() {
        let city = small_city();
        let o = obs(city.n_regions(), city.n_stations());
        let stations = [StationId(0)];
        let ctxs = vec![ctx(0, 0, 0.9, false, &[]), ctx(1, 0, 0.1, true, &stations)];
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut out = Vec::new();
        StayShardPolicy.decide_region(&city, &o, RegionId(0), &ctxs, &mut rng, &mut out);
        assert_eq!(out, vec![Action::Stay, Action::Charge(StationId(0))]);
    }

    #[test]
    fn greedy_sends_surplus_to_the_deepest_deficit_highest_ids_first() {
        let city = small_city();
        let region = RegionId(0);
        let n1 = city.region(region).neighbors[0];
        let mut o = obs(city.n_regions(), city.n_stations());
        o.waiting_per_region[n1.index()] = 3;
        let ctxs: Vec<DecisionContext> =
            (0..3).map(|i| ctx(i, region.0, 0.9, false, &[])).collect();
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut out = Vec::new();
        let mut pol = GreedyDeficitPolicy::default();
        pol.decide_region(&city, &o, region, &ctxs, &mut rng, &mut out);
        // Zero predicted local demand: all three are surplus; the highest
        // ids move first and everyone targets the deficit neighbour.
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|&a| a == Action::MoveTo(n1)));
    }

    #[test]
    fn greedy_keeps_cover_for_local_demand() {
        let city = small_city();
        let region = RegionId(0);
        let n1 = city.region(region).neighbors[0];
        let mut o = obs(city.n_regions(), city.n_stations());
        o.predicted_demand[region.index()] = 2.0;
        o.waiting_per_region[n1.index()] = 9;
        let ctxs: Vec<DecisionContext> =
            (0..3).map(|i| ctx(i, region.0, 0.9, false, &[])).collect();
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut out = Vec::new();
        let mut pol = GreedyDeficitPolicy::default();
        pol.decide_region(&city, &o, region, &ctxs, &mut rng, &mut out);
        // Cover 2 of 3: exactly one move, taken from the highest id.
        assert_eq!(out[2], Action::MoveTo(n1));
        assert_eq!(out[0], Action::Stay);
        assert_eq!(out[1], Action::Stay);
    }

    #[test]
    fn greedy_tops_up_only_with_station_headroom() {
        let city = small_city();
        let stations = [StationId(0)];
        let mut o = obs(city.n_regions(), city.n_stations());
        let ctxs = vec![ctx(0, 0, 0.30, false, &stations)];
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut pol = GreedyDeficitPolicy::default();

        let mut out = Vec::new();
        o.free_points_per_station[0] = 2;
        pol.decide_region(&city, &o, RegionId(0), &ctxs, &mut rng, &mut out);
        assert_eq!(out, vec![Action::Charge(StationId(0))]);

        let mut out = Vec::new();
        o.inbound_per_station[0] = 2; // headroom gone
        pol.decide_region(&city, &o, RegionId(0), &ctxs, &mut rng, &mut out);
        assert_eq!(out, vec![Action::Stay]);
    }
}
