//! Frozen CMA2C inference inside sharded slot steps.
//!
//! [`Cma2cShardPolicy`] adapts the paper's actor to the sharded engine's
//! [`ShardPolicy`] contract. Each `decide_region` call hands one region's
//! contexts to the same dispatcher the minute engine's
//! [`Cma2cPolicy`](crate::cma2c::Cma2cPolicy) runs (`crate::dispatch`): each
//! context scored when the commit loop reaches it, against the *previous
//! slot's* frozen global observation plus the region's earlier commits
//! (a feature cache updated per commit), one sample from π per context
//! drawn from the region's own RNG stream, and a naive serial reference
//! in the testkit oracle. Only the context slice differs from the minute
//! engine:
//!
//! * the minute engine's centralized dispatcher threads one working view
//!   through *every* region's decisions in a slot, so a commit in region 3
//!   is visible to a later taxi in region 40;
//! * a shard can only see its own state plus the frozen observation, so the
//!   working view here is **region-local**: taxis see the commits of
//!   earlier taxis in their own region (the anti-herding feedback that
//!   matters — co-located taxis share candidate stations), while
//!   cross-region commits land in the next slot's observation instead.
//!
//! That scoping is exactly what keeps the policy layout-invariant: every
//! input to a decision is either the frozen observation (identical under
//! every layout) or the same region's earlier commits this slot (computed
//! from the region's own context list and RNG stream, also identical).
//! DESIGN.md's "Fidelity contract" bounds the behavioural delta this
//! introduces versus the centralized dispatcher.
//!
//! Training stays on the minute engine; this type is inference-only and
//! deliberately has no learning path. Weights arrive either from
//! construction (same seed ⇒ same init as an untrained [`Cma2cPolicy`]) or
//! via [`Cma2cShardPolicy::load_actor`].
//!
//! [`Cma2cPolicy`]: crate::cma2c::Cma2cPolicy

use crate::cma2c::{new_actor, Cma2cConfig};
use crate::dispatch::Dispatcher;
use fairmove_city::{City, RegionId};
use fairmove_rl::Mlp;
use fairmove_sim::{Action, DecisionContext, ShardPolicy, SlotObservation};
use rand::rngs::StdRng;

/// Frozen CMA2C actor callable from sharded slot steps.
pub struct Cma2cShardPolicy {
    actor: Mlp,
    dispatcher: Dispatcher,
}

impl Cma2cShardPolicy {
    /// A shard-callable actor over `city`. With the same `config` (seed,
    /// hidden widths) this builds bit-identical initial weights to
    /// [`Cma2cPolicy::new`](crate::cma2c::Cma2cPolicy::new), so an untrained
    /// sharded run is comparable to an untrained minute-engine run.
    pub fn new(city: &City, config: &Cma2cConfig) -> Self {
        Cma2cShardPolicy {
            actor: new_actor(config),
            dispatcher: Dispatcher::new(city, config),
        }
    }

    /// The frozen actor.
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// Replaces the actor with one saved by
    /// [`Cma2cPolicy::save`](crate::cma2c::Cma2cPolicy::save) (the critic
    /// that follows it in the stream, if any, is left unread — inference
    /// needs only the actor).
    pub fn load_actor(
        &mut self,
        r: &mut impl std::io::BufRead,
    ) -> Result<(), fairmove_rl::LoadError> {
        let actor = fairmove_rl::load_mlp(r)?;
        if actor.layer_shapes() != self.actor.layer_shapes() {
            return Err(fairmove_rl::LoadError::Format(
                "actor architecture mismatch with configured shard policy".into(),
            ));
        }
        self.actor = actor;
        Ok(())
    }
}

impl ShardPolicy for Cma2cShardPolicy {
    fn name(&self) -> &'static str {
        "cma2c"
    }

    fn decide_region(
        &mut self,
        _city: &City,
        obs: &SlotObservation,
        _region: RegionId,
        ctxs: &[DecisionContext],
        rng: &mut StdRng,
        out: &mut Vec<Action>,
    ) {
        self.dispatcher
            .dispatch(&self.actor, obs, ctxs, rng, out, |_, _, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmove_city::CityConfig;
    use fairmove_sim::{ShardPolicyFactory, ShardedEnv, SimConfig};
    use rand::SeedableRng;

    fn small_city() -> City {
        City::generate(CityConfig {
            n_regions: 20,
            n_stations: 4,
            total_charging_points: 40,
            ..CityConfig::default()
        })
    }

    fn obs(city: &City) -> SlotObservation {
        SlotObservation {
            now: fairmove_city::SimTime::from_dhm(0, 9, 0),
            slot: fairmove_city::TimeSlot(54),
            vacant_per_region: vec![1; city.n_regions()],
            free_points_per_station: vec![5; city.n_stations()],
            queue_per_station: vec![0; city.n_stations()],
            inbound_per_station: vec![0; city.n_stations()],
            predicted_demand: vec![1.0; city.n_regions()],
            waiting_per_region: vec![0; city.n_regions()],
            price_now: 1.2,
            price_next_hour: 1.2,
            mean_pe: 40.0,
            pf: 0.0,
        }
    }

    fn ctx(city: &City, taxi: u32) -> DecisionContext {
        let region = RegionId(0);
        DecisionContext {
            taxi: fairmove_sim::TaxiId(taxi),
            region,
            soc: 0.7,
            must_charge: false,
            pe_standing: 40.0,
            actions: fairmove_sim::ActionSet::full(
                &city.region(region).neighbors,
                city.nearest_stations().nearest(region),
            ),
        }
    }

    #[test]
    fn decisions_are_admissible_and_cover_every_context() {
        let city = small_city();
        let mut p = Cma2cShardPolicy::new(&city, &Cma2cConfig::default());
        let o = obs(&city);
        let cs: Vec<DecisionContext> = (0..9).map(|i| ctx(&city, i)).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = Vec::new();
        p.decide_region(&city, &o, RegionId(0), &cs, &mut rng, &mut out);
        assert_eq!(out.len(), cs.len());
        for (a, c) in out.iter().zip(&cs) {
            assert!(c.actions.contains(*a), "inadmissible action {a:?}");
        }
    }

    #[test]
    fn same_stream_state_reproduces_the_same_decisions() {
        let city = small_city();
        let config = Cma2cConfig::default();
        let o = obs(&city);
        let cs: Vec<DecisionContext> = (0..12).map(|i| ctx(&city, i)).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        // Two independently constructed policies with the same seed and the
        // same stream state must agree action for action.
        let mut p = Cma2cShardPolicy::new(&city, &config);
        let mut rng = StdRng::seed_from_u64(77);
        p.decide_region(&city, &o, RegionId(0), &cs, &mut rng, &mut a);
        let mut q = Cma2cShardPolicy::new(&city, &config);
        let mut rng = StdRng::seed_from_u64(77);
        q.decide_region(&city, &o, RegionId(0), &cs, &mut rng, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_cma2c_runs_are_layout_invariant() {
        // The end-to-end determinism claim for the CMA2C shard path: same
        // digest for 1 shard × 1 thread and 4 shards × 2 threads.
        let sim = SimConfig::test_scale();
        let factory: &ShardPolicyFactory =
            &|city: &City| Box::new(Cma2cShardPolicy::new(city, &Cma2cConfig::default()));
        let mut oracle = ShardedEnv::with_policy(sim.clone(), 1, factory);
        oracle.run(18, 1);
        assert_eq!(oracle.policy_name(), "cma2c");
        let mut env = ShardedEnv::with_policy(sim, 4, factory);
        env.run(18, 2);
        assert_eq!(
            env.digest(),
            oracle.digest(),
            "cma2c diverged across layouts"
        );
        assert_eq!(env.taxi_rows().len(), oracle.taxi_rows().len());
    }

    #[test]
    fn load_actor_round_trips_through_the_minute_policy() {
        let city = small_city();
        let mut trained = crate::cma2c::Cma2cPolicy::new(&city, Cma2cConfig::default());
        trained.freeze();
        let mut buf = Vec::new();
        trained.save(&mut buf).unwrap();
        let mut p = Cma2cShardPolicy::new(
            &city,
            &Cma2cConfig {
                seed: 12345, // different init — must be overwritten
                ..Cma2cConfig::default()
            },
        );
        p.load_actor(&mut buf.as_slice()).unwrap();
        // Same weights + same stream state ⇒ same decisions as a policy
        // built directly from the saving config.
        let q_cfg = Cma2cConfig::default();
        let mut q = Cma2cShardPolicy::new(&city, &q_cfg);
        let o = obs(&city);
        let cs: Vec<DecisionContext> = (0..6).map(|i| ctx(&city, i)).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(5);
        p.decide_region(&city, &o, RegionId(0), &cs, &mut rng, &mut a);
        let mut rng = StdRng::seed_from_u64(5);
        q.decide_region(&city, &o, RegionId(0), &cs, &mut rng, &mut b);
        assert_eq!(a, b);
    }
}
