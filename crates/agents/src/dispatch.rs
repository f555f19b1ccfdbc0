//! The CMA2C dispatcher: the one decide loop both engines run.
//!
//! The paper's actor is a single shared network that scores every vacant
//! taxi's candidate actions each slot, and each later taxi sees the
//! assignments made before it. [`Dispatcher::dispatch`] is the only place
//! that loop lives — the minute engine's
//! [`Cma2cPolicy`](crate::cma2c::Cma2cPolicy) calls it with the whole
//! city's decision list, the sharded engine's
//! [`Cma2cShardPolicy`](crate::shard::Cma2cShardPolicy) with one region's.
//! The callers differ only in what they pass:
//!
//! * **scope** — the working view always starts from the frozen
//!   observation; the context slice decides whose commits later taxis see
//!   (the whole city's, or one region's);
//! * **RNG** — the policy's exploration stream, or the region's stream;
//! * **training** — a per-commit hook that receives the committed context's
//!   feature rows (the learning minute policy records a transition, every
//!   frozen caller passes a no-op).
//!
//! Each context is scored when the commit loop reaches it: featurize its
//! candidates against a feature cache that is always current, run one actor
//! forward over them, sample one action from the caller's stream, commit
//! it, and update only the cache entries the commit touched
//! ([`RegionFeatureCache::update`]). The cache is refreshed once per call.
//! An updated cache equals a refreshed one, so every context's rows are the
//! ones a fully serial dispatcher would build, and the forward shares the
//! candidates' state prefix ([`Mlp::forward_prefixed`]) without changing a
//! bit of their logits. No row is scored that is not committed.
//!
//! All working storage lives in a [`DecideScratch`] resized in place, so a
//! frozen caller's decide loop performs no heap allocation once the buffers
//! have warmed up to the largest context seen.

use crate::cma2c::Cma2cConfig;
use crate::features::{FeatureExtractor, RegionFeatureCache, SA_DIM, STATE_DIM};
use fairmove_city::{City, SimTime, TimeSlot};
use fairmove_rl::{Matrix, Mlp, MlpWorkspace};
use fairmove_sim::{Action, DecisionContext, ObservationView, SlotObservation};
use rand::rngs::StdRng;
use rand::Rng;

/// The counts-only form of an assignment: commits only ever touch regional
/// vacancy and station inbound, so the working view reduces to those two
/// owned vectors.
fn apply_assignment_counts(
    vacant: &mut [u32],
    inbound: &mut [u32],
    ctx: &DecisionContext,
    action: Action,
) {
    match action {
        Action::Stay => {}
        Action::MoveTo(dest) => {
            let o = ctx.region.index();
            vacant[o] = vacant[o].saturating_sub(1);
            vacant[dest.index()] += 1;
        }
        Action::Charge(station) => {
            let o = ctx.region.index();
            vacant[o] = vacant[o].saturating_sub(1);
            inbound[station.index()] += 1;
        }
    }
}

/// Samples an action index from softmax(`logits`) without allocating once
/// `exps` has grown to the widest candidate set.
///
/// Bitwise-replicates `softmax(logits)` + cumulative-scan sampling: the same
/// max-subtraction, one `exp(l − max)` per candidate summed left to right,
/// one `rng.gen::<f64>()`, and the same `x < acc` comparison per index — so
/// it consumes the RNG identically to the Vec-allocating original it
/// replaced.
fn sample_from_logits(rng: &mut StdRng, logits: &[f64], exps: &mut Vec<f64>) -> usize {
    assert!(!logits.is_empty(), "sampling from empty logits");
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    exps.clear();
    exps.extend(logits.iter().map(|&l| (l - max).exp()));
    let sum: f64 = exps.iter().sum();
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &e) in exps.iter().enumerate() {
        acc += e / sum;
        if x < acc {
            return i;
        }
    }
    logits.len() - 1
}

/// Reusable buffers for [`Dispatcher::dispatch`]: the owned working-view
/// counts, the feature cache, the current context's row matrix fed to the
/// actor forward, and the inference workspace.
#[derive(Default)]
struct DecideScratch {
    /// Working vacancy counts (base observation + committed assignments).
    vacant: Vec<u32>,
    /// Working station-inbound counts.
    inbound: Vec<u32>,
    cache: RegionFeatureCache,
    /// One row per candidate action of the current context, `SA_DIM` wide.
    rows: Matrix,
    /// Prior-adjusted logits of the current context.
    logits: Vec<f64>,
    /// `exp(l − max)` per logit, for the sampler.
    exps: Vec<f64>,
    ws: MlpWorkspace,
}

/// [`ObservationView`] over the base observation with the dispatcher's
/// scratch-owned vacancy/inbound counts overlaid.
struct ScratchView<'a> {
    base: &'a SlotObservation,
    vacant: &'a [u32],
    inbound: &'a [u32],
}

impl ObservationView for ScratchView<'_> {
    fn now(&self) -> SimTime {
        self.base.now
    }
    fn slot(&self) -> TimeSlot {
        self.base.slot
    }
    fn vacant_per_region(&self) -> &[u32] {
        self.vacant
    }
    fn free_points_per_station(&self) -> &[u32] {
        &self.base.free_points_per_station
    }
    fn queue_per_station(&self) -> &[u32] {
        &self.base.queue_per_station
    }
    fn inbound_per_station(&self) -> &[u32] {
        self.inbound
    }
    fn predicted_demand(&self) -> &[f64] {
        &self.base.predicted_demand
    }
    fn waiting_per_region(&self) -> &[u32] {
        &self.base.waiting_per_region
    }
    fn price_now(&self) -> f64 {
        self.base.price_now
    }
    fn price_next_hour(&self) -> f64 {
        self.base.price_next_hour
    }
    fn mean_pe(&self) -> f64 {
        self.base.mean_pe
    }
    fn pf(&self) -> f64 {
        self.base.pf
    }
}

/// Featurizes, scores, samples and commits CMA2C decisions one context at a
/// time (see the module docs). Owns everything the loop needs except the
/// actor weights, which the caller passes per call so a learning policy can
/// keep training them between slots.
pub(crate) struct Dispatcher {
    fx: FeatureExtractor,
    charge_logit_prior: f64,
    ablate_global_view: bool,
    ablate_fairness_features: bool,
    scratch: DecideScratch,
}

impl Dispatcher {
    /// A dispatcher over `city` with `config`'s charge prior and ablations.
    pub(crate) fn new(city: &City, config: &Cma2cConfig) -> Self {
        Dispatcher {
            fx: FeatureExtractor::new(city),
            charge_logit_prior: config.charge_logit_prior,
            ablate_global_view: config.ablate_global_view,
            ablate_fairness_features: config.ablate_fairness_features,
            scratch: DecideScratch::default(),
        }
    }

    /// The feature extractor the dispatcher scores with.
    #[cfg(test)]
    pub(crate) fn fx(&self) -> &FeatureExtractor {
        &self.fx
    }

    /// Zeroes the ablated feature groups of one state prefix in place.
    pub(crate) fn apply_state_ablations(&self, state: &mut [f64]) {
        // Global-view state features: indices 4..=7 (region supply/demand)
        // and 10 (fleet pressure). Fairness features: 11 and 12.
        if self.ablate_global_view {
            for &i in &[4usize, 5, 6, 7, 10] {
                state[i] = 0.0;
            }
        }
        if self.ablate_fairness_features {
            for &i in &[11usize, 12] {
                state[i] = 0.0;
            }
        }
    }

    /// Decides every context in `ctxs` against `obs`, in order, pushing one
    /// action per context onto `out` (cleared first). Each context is scored
    /// through `actor` against the view its predecessors' commits left, and
    /// sampled with one draw from `rng`. `on_commit` runs once per commit
    /// with the context, the sampled candidate index, and the context's
    /// feature rows (`candidates × SA_DIM`, flat, candidate order).
    pub(crate) fn dispatch(
        &mut self,
        actor: &Mlp,
        obs: &SlotObservation,
        ctxs: &[DecisionContext],
        rng: &mut StdRng,
        out: &mut Vec<Action>,
        mut on_commit: impl FnMut(&DecisionContext, usize, &[f64]),
    ) {
        out.clear();
        if ctxs.is_empty() {
            return;
        }
        let _trace = fairmove_telemetry::trace_span!("dispatch", ctxs.len() as u64);
        let mut s = std::mem::take(&mut self.scratch);
        s.vacant.clear();
        s.vacant.extend_from_slice(&obs.vacant_per_region);
        s.inbound.clear();
        s.inbound.extend_from_slice(&obs.inbound_per_station);
        let city = self.fx.city();
        s.cache.refresh(
            city,
            &ScratchView {
                base: obs,
                vacant: &s.vacant,
                inbound: &s.inbound,
            },
        );
        for ctx in ctxs {
            let n_candidates = ctx.actions.len();
            self.featurize(&mut s, ctx);
            let logits = actor.forward_prefixed(&s.rows, STATE_DIM, &mut s.ws);
            let n_movement = n_candidates - ctx.actions.charge_actions().len();
            s.logits.clear();
            s.logits.extend((0..n_candidates).map(|j| {
                // "Charging is the exception" prior, fully overridable by
                // the learned logits, dropped when charging is forced.
                let prior = if j >= n_movement && !ctx.actions.charge_forced() {
                    self.charge_logit_prior
                } else {
                    0.0
                };
                logits.get(j, 0) - prior
            }));
            // Algorithm 1 samples from π both in training and execution — a
            // stochastic policy is what spreads co-located taxis across
            // stations instead of herding them (deterministic argmax would
            // send every taxi in a region to the same charger).
            let idx = sample_from_logits(rng, &s.logits, &mut s.exps);
            on_commit(ctx, idx, s.rows.data());
            let action = ctx.actions.action(idx);
            apply_assignment_counts(&mut s.vacant, &mut s.inbound, ctx, action);
            let view = ScratchView {
                base: obs,
                vacant: &s.vacant,
                inbound: &s.inbound,
            };
            s.cache.update(city, &view, ctx.region, action);
            out.push(action);
        }
        self.scratch = s;
    }

    /// Writes one row per candidate of `ctx` into `s.rows` from the current
    /// cache: the (ablated) state prefix, repeated, then the candidate's
    /// action features.
    fn featurize(&self, s: &mut DecideScratch, ctx: &DecisionContext) {
        let mut state = [0.0f64; STATE_DIM];
        self.fx.write_state_cached(&s.cache, ctx, &mut state);
        self.apply_state_ablations(&mut state);
        s.rows.resize_in_place(ctx.actions.len(), SA_DIM);
        for (j, &a) in ctx.actions.actions().iter().enumerate() {
            let row = s.rows.row_mut(j);
            row[..STATE_DIM].copy_from_slice(&state);
            self.fx
                .write_action_cached(&s.cache, ctx, a, &mut row[STATE_DIM..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cma2c::{apply_assignment, new_actor, stack};
    use fairmove_city::{CityConfig, RegionId};
    use fairmove_rl::loss::softmax;
    use fairmove_sim::{ActionSet, TaxiId, WorkingObservation};
    use rand::SeedableRng;

    /// `softmax` plus a cumulative scan: the sampler's definition.
    fn reference_sample(rng: &mut StdRng, logits: &[f64]) -> usize {
        let x: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, p) in softmax(logits).into_iter().enumerate() {
            acc += p;
            if x < acc {
                return i;
            }
        }
        logits.len() - 1
    }

    #[test]
    fn sampler_matches_softmax_and_a_cumulative_scan() {
        let cases: [&[f64]; 4] = [
            &[0.25; 7],
            &[-700.0, 3.5, 0.0, 650.0, -1e-9, 1e-9, 649.9],
            &[-2.0, -1.0, 0.0, 1.0, 2.0, 40.0, -40.0],
            &[1.7],
        ];
        let mut exps = Vec::new();
        for logits in cases {
            let mut a = StdRng::seed_from_u64(3);
            let mut b = StdRng::seed_from_u64(3);
            for draw in 0..500 {
                assert_eq!(
                    sample_from_logits(&mut a, logits, &mut exps),
                    reference_sample(&mut b, logits),
                    "{logits:?} draw {draw}"
                );
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "one draw per sample");
        }
    }

    fn city() -> City {
        City::generate(CityConfig {
            n_regions: 20,
            n_stations: 4,
            total_charging_points: 40,
            ..CityConfig::default()
        })
    }

    fn obs(city: &City) -> SlotObservation {
        let n = city.n_regions();
        SlotObservation {
            now: SimTime::from_dhm(0, 9, 0),
            slot: TimeSlot(54),
            vacant_per_region: (0..n).map(|r| (r % 3) as u32).collect(),
            free_points_per_station: vec![3; city.n_stations()],
            queue_per_station: (0..city.n_stations()).map(|s| s as u32).collect(),
            inbound_per_station: vec![1; city.n_stations()],
            predicted_demand: (0..n).map(|r| 0.4 * r as f64).collect(),
            waiting_per_region: (0..n).map(|r| (r % 4) as u32).collect(),
            price_now: 1.2,
            price_next_hour: 0.9,
            mean_pe: 40.0,
            pf: 12.5,
        }
    }

    /// Herded contexts: most taxis share a few regions (and so their
    /// candidate destinations and stations); every fifth must charge.
    fn herded_contexts(city: &City, n: u32) -> Vec<DecisionContext> {
        (0..n)
            .map(|i| {
                let region = RegionId(((i % 3) * 2) as u16);
                let stations = city.nearest_stations().nearest(region);
                let must_charge = i % 5 == 4;
                DecisionContext {
                    taxi: TaxiId(i),
                    region,
                    soc: if must_charge {
                        0.1
                    } else {
                        0.3 + 0.05 * f64::from(i % 9)
                    },
                    must_charge,
                    pe_standing: 30.0 + f64::from(i % 7) * 4.0,
                    actions: if must_charge {
                        ActionSet::charge_only(stations)
                    } else {
                        ActionSet::full(&city.region(region).neighbors, stations)
                    },
                }
            })
            .collect()
    }

    /// The fully serial dispatcher written naively: per context, every
    /// candidate row from the uncached featurizer over a working view of
    /// all earlier commits, the state ablations, one plain forward, the
    /// charge prior, and softmax sampling from the same stream. Returns the
    /// actions and, per commit, the sampled index and the rows.
    fn reference_dispatch(
        d: &Dispatcher,
        actor: &Mlp,
        obs: &SlotObservation,
        ctxs: &[DecisionContext],
        rng: &mut StdRng,
    ) -> (Vec<Action>, Vec<(usize, Vec<f64>)>) {
        let mut view = WorkingObservation::new(obs);
        let (mut actions, mut commits) = (Vec::new(), Vec::new());
        for ctx in ctxs {
            let mut rows = d.fx.all_state_actions(&view, ctx);
            for row in &mut rows {
                d.apply_state_ablations(&mut row[..STATE_DIM]);
            }
            let raw = actor.forward(&stack(&rows));
            let logits: Vec<f64> = ctx
                .actions
                .actions()
                .iter()
                .enumerate()
                .map(|(j, a)| {
                    let charge = matches!(a, Action::Charge(_));
                    let prior = if charge && !ctx.actions.charge_forced() {
                        d.charge_logit_prior
                    } else {
                        0.0
                    };
                    raw.get(j, 0) - prior
                })
                .collect();
            let idx = reference_sample(rng, &logits);
            let action = ctx.actions.action(idx);
            apply_assignment(&mut view, ctx, action);
            actions.push(action);
            commits.push((idx, rows.concat()));
        }
        (actions, commits)
    }

    #[test]
    fn dispatch_matches_the_naive_serial_reference_bitwise() {
        let city = city();
        let ctxs = herded_contexts(&city, 40);
        let mut kinds = [false; 3];
        for ablate in [false, true] {
            let config = Cma2cConfig {
                charge_logit_prior: 0.5,
                ablate_global_view: ablate,
                ablate_fairness_features: ablate,
                ..Cma2cConfig::default()
            };
            let actor = new_actor(&config);
            let mut d = Dispatcher::new(&city, &config);
            let mut o = obs(&city);
            for call in 0..6u64 {
                o.price_now = 0.8 + 0.1 * call as f64;
                let mut rng = StdRng::seed_from_u64(call);
                let (want, want_commits) = reference_dispatch(&d, &actor, &o, &ctxs, &mut rng);
                let mut rng = StdRng::seed_from_u64(call);
                let (mut got, mut got_commits) = (Vec::new(), Vec::new());
                d.dispatch(&actor, &o, &ctxs, &mut rng, &mut got, |_, idx, rows| {
                    got_commits.push((idx, rows.to_vec()));
                });
                assert_eq!(got, want, "actions, call {call}, ablate {ablate}");
                for (i, (g, w)) in got_commits.iter().zip(&want_commits).enumerate() {
                    assert_eq!(g.0, w.0, "context {i} index, call {call}");
                    let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&g.1), bits(&w.1), "context {i} rows, call {call}");
                }
                assert_eq!(got_commits.len(), ctxs.len());
                for a in &got {
                    kinds[match a {
                        Action::Stay => 0,
                        Action::MoveTo(_) => 1,
                        Action::Charge(_) => 2,
                    }] = true;
                }
            }
        }
        assert_eq!(
            kinds, [true; 3],
            "the contexts must mix Stay, Move and Charge"
        );
    }
}
