//! The wave dispatcher: the one CMA2C decide loop both engines run.
//!
//! The paper's actor is a single shared network that scores every vacant
//! taxi's candidate actions each slot. [`WaveDispatcher::dispatch`] is the
//! only place that loop lives — the minute engine's
//! [`Cma2cPolicy`](crate::cma2c::Cma2cPolicy) calls it with the whole
//! city's decision list, the sharded engine's
//! [`Cma2cShardPolicy`](crate::shard::Cma2cShardPolicy) with one region's.
//! The callers differ only in what they pass:
//!
//! * **scope** — the working view always starts from the frozen
//!   observation; the context slice decides whose commits later taxis see
//!   (the whole city's, or one region's);
//! * **RNG** — the policy's exploration stream, or the region's stream;
//! * **training** — a per-commit hook that receives the committed entry's
//!   feature rows (the learning minute policy records a transition, every
//!   frozen caller passes a no-op).
//!
//! Each wave takes the next queued decisions, up to a cap that adapts to
//! the last commit run ([`INITIAL_WAVE`], [`MIN_WAVE`], `max_wave`). The
//! feature cache is refreshed once against the current working view, then
//! the commit loop walks the wave, featurizing and forwarding lazily in
//! doubling chunks ([`LAZY_CHUNK_INIT`] → [`LAZY_CHUNK_MAX`]) as it
//! reaches entries. The cap ends a chunk at the wave's end, so a long
//! wave that breaks late wastes fewer rows (a refresh is much cheaper than
//! the rows a doubled chunk scores past a break). Commits apply sequentially, and the wave breaks at the
//! first entry whose features an earlier commit touched (its region's
//! vacancy changed, a move dirtied one of its candidate destinations, or a
//! charge shifted the global supply/inbound counts). Uncommitted entries
//! are re-featurized in the next wave, so every sampled action sees exactly
//! the view a serial dispatcher would have shown it, and the RNG is drawn
//! once per context in context order. Every per-row actor output depends
//! only on its own input row, so the result is bit-identical to
//! `max_wave: 1` however the rows are grouped — for the learning path too.
//!
//! All working storage lives in a [`DecideScratch`] resized in place, so a
//! frozen caller's decide loop performs no heap allocation once the buffers
//! have warmed up to the largest chunk seen.

use crate::cma2c::Cma2cConfig;
use crate::features::{FeatureExtractor, RegionFeatureCache, SA_DIM, STATE_DIM};
use fairmove_city::{City, SimTime, TimeSlot};
use fairmove_rl::{Matrix, Mlp, MlpWorkspace, QuantWorkspace, QuantizedMlp};
use fairmove_sim::{Action, DecisionContext, ObservationView, SlotObservation};
use rand::rngs::StdRng;
use rand::Rng;

/// First-wave size: big enough to amortize the stacked forward, small
/// enough that a herding-heavy first slot wastes little featurization work.
const INITIAL_WAVE: usize = 16;
/// Floor for the adaptive wave size — below this the stacked forward no
/// longer pays for its setup.
const MIN_WAVE: usize = 8;
/// First lazily scored chunk of a wave, in queued decisions. The commit
/// loop frequently breaks a wave after a handful of commits (a charge
/// commit dirties the global view), so rows are featurized and forwarded
/// only as the commit loop reaches them: a small first chunk, doubling up
/// to [`LAZY_CHUNK_MAX`] while commits keep landing. Rows past the break
/// point are never built or scored.
const LAZY_CHUNK_INIT: usize = 4;
/// Largest lazily scored chunk — big enough to amortize the stacked
/// forward's setup, small enough to bound wasted rows at a late wave break.
const LAZY_CHUNK_MAX: usize = 64;

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

/// Samples an action index from softmax(`logits`) without allocating.
///
/// Bitwise-replicates `softmax(logits)` + cumulative-scan sampling: the same
/// max-subtraction, the same left-to-right summation of `exp(l − max)`, one
/// `rng.gen::<f64>()`, and the same `x < acc` comparison per index — so it
/// consumes the RNG identically to the Vec-allocating original it replaced.
fn sample_from_logits(rng: &mut StdRng, logits: &[f64]) -> usize {
    assert!(!logits.is_empty(), "sampling from empty logits");
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = logits.iter().map(|&l| (l - max).exp()).sum();
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &l) in logits.iter().enumerate() {
        acc += (l - max).exp() / sum;
        if x < acc {
            return i;
        }
    }
    logits.len() - 1
}

/// Reusable buffers for [`WaveDispatcher::dispatch`]: the owned working-view
/// counts, the per-wave feature cache, the current chunk's row matrix fed
/// to the stacked actor forward, and the inference workspaces.
#[derive(Default)]
struct DecideScratch {
    /// Working vacancy counts (base observation + committed assignments).
    vacant: Vec<u32>,
    /// Working station-inbound counts.
    inbound: Vec<u32>,
    dirty_region: Vec<bool>,
    cache: RegionFeatureCache,
    /// One row per candidate action of the current chunk, `SA_DIM` wide.
    rows: Matrix,
    /// Per chunk entry: `(first row, candidate count)` into `rows`.
    spans: Vec<(usize, usize)>,
    /// Raw actor logits of the current chunk, one per row of `rows`.
    chunk_logits: Vec<f64>,
    /// Prior-adjusted logits of the decision currently being committed.
    logits: Vec<f64>,
    ws: MlpWorkspace,
    /// f32 ping-pong buffers for the int8 serving path (empty unless a
    /// quantized actor is passed).
    qws: QuantWorkspace,
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

/// Featurizes, scores, samples and commits CMA2C decisions in waves (see
/// the module docs). Owns everything the loop needs except the actor
/// weights, which the caller passes per call so a learning policy can keep
/// training them between slots.
pub(crate) struct WaveDispatcher {
    fx: FeatureExtractor,
    charge_logit_prior: f64,
    ablate_global_view: bool,
    ablate_fairness_features: bool,
    max_wave: usize,
    scratch: DecideScratch,
}

impl WaveDispatcher {
    /// A dispatcher over `city` with `config`'s charge prior, ablations and
    /// wave cap.
    pub(crate) fn new(city: &City, config: &Cma2cConfig) -> Self {
        WaveDispatcher {
            fx: FeatureExtractor::new(city),
            charge_logit_prior: config.charge_logit_prior,
            ablate_global_view: config.ablate_global_view,
            ablate_fairness_features: config.ablate_fairness_features,
            max_wave: config.max_wave.max(1),
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

    /// Decides every context in `ctxs` against `obs`, pushing one action per
    /// context onto `out` (cleared first). Wave entries are scored through
    /// `quant` when given, else through `actor`; the one sample per context
    /// is drawn from `rng` at commit time. `on_commit` runs once per commit
    /// with the context, the sampled candidate index, and the entry's
    /// feature rows (`candidates × SA_DIM`, flat, candidate order).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dispatch(
        &mut self,
        actor: &Mlp,
        quant: Option<&QuantizedMlp>,
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
        let mut s = std::mem::take(&mut self.scratch);
        s.vacant.clear();
        s.vacant.extend_from_slice(&obs.vacant_per_region);
        s.inbound.clear();
        s.inbound.extend_from_slice(&obs.inbound_per_station);
        s.dirty_region.resize(obs.vacant_per_region.len(), false);
        let mut wave_cap = INITIAL_WAVE.min(self.max_wave);
        let mut i = 0;
        let mut wave_index = 0u64;
        while i < ctxs.len() {
            let _trace_wave = fairmove_telemetry::trace_span!("wave", wave_index);
            wave_index += 1;
            let wave = &ctxs[i..(i + wave_cap).min(ctxs.len())];
            {
                let view = ScratchView {
                    base: obs,
                    vacant: &s.vacant,
                    inbound: &s.inbound,
                };
                s.cache.refresh(self.fx.city(), &view);
            }
            s.dirty_region.fill(false);
            // Charge commits change total vacancy and station inbound
            // counts, which feed every remaining entry's features; a move
            // out of an emptied region (clamped decrement) changes total
            // vacancy too. Either ends the wave at the next entry.
            let mut global_dirty = false;
            // Wave entries `[chunk_start, chunk_end)` are the scored chunk.
            let (mut chunk_start, mut chunk_end) = (0, 0);
            let mut chunk = LAZY_CHUNK_INIT;
            let mut committed = 0;
            for (w, ctx) in wave.iter().enumerate() {
                if w > 0 {
                    let stale =
                        global_dirty
                            || s.dirty_region[ctx.region.index()]
                            || ctx.actions.actions().iter().any(
                                |a| matches!(a, Action::MoveTo(d) if s.dirty_region[d.index()]),
                            );
                    if stale {
                        break;
                    }
                }
                if w == chunk_end {
                    // The commit run has outlived the scored chunk — score
                    // the next one, doubling so long runs converge on big
                    // stacked forwards while early breaks waste at most a
                    // small chunk.
                    chunk_start = w;
                    chunk_end = (w + chunk).min(wave.len());
                    self.score_chunk(&mut s, actor, quant, &wave[chunk_start..chunk_end]);
                    chunk = (chunk * 2).min(LAZY_CHUNK_MAX);
                }
                let (row0, n_candidates) = s.spans[w - chunk_start];
                let n_movement = n_candidates - ctx.actions.charge_actions().len();
                s.logits.clear();
                s.logits.extend((0..n_candidates).map(|j| {
                    // "Charging is the exception" prior, fully overridable
                    // by the learned logits, dropped when charging is forced.
                    let prior = if j >= n_movement && !ctx.actions.charge_forced() {
                        self.charge_logit_prior
                    } else {
                        0.0
                    };
                    s.chunk_logits[row0 + j] - prior
                }));
                // Algorithm 1 samples from π both in training and execution
                // — a stochastic policy is what spreads co-located taxis
                // across stations instead of herding them (deterministic
                // argmax would send every taxi in a region to the same
                // charger).
                let idx = sample_from_logits(rng, &s.logits);
                on_commit(
                    ctx,
                    idx,
                    &s.rows.data()[row0 * SA_DIM..(row0 + n_candidates) * SA_DIM],
                );
                let action = ctx.actions.action(idx);
                match action {
                    Action::Stay => {}
                    Action::MoveTo(dest) => {
                        if s.vacant[ctx.region.index()] == 0 {
                            global_dirty = true;
                        }
                        s.dirty_region[ctx.region.index()] = true;
                        s.dirty_region[dest.index()] = true;
                    }
                    Action::Charge(_) => global_dirty = true,
                }
                apply_assignment_counts(&mut s.vacant, &mut s.inbound, ctx, action);
                out.push(action);
                committed += 1;
            }
            i += committed;
            // Adapt the wave to the observed commit run length: herding
            // pressure (many same-region taxis) shrinks waves toward
            // MIN_WAVE, quiet runs grow them toward max_wave.
            wave_cap = (committed * 2).clamp(MIN_WAVE.min(self.max_wave), self.max_wave);
        }
        self.scratch = s;
    }

    /// Featurizes `entries` against the wave's feature cache into
    /// `s.rows` and scores them into `s.chunk_logits`, recording each
    /// entry's row span in `s.spans`. The cache is frozen for the whole
    /// wave and each actor output row depends only on its own input row, so
    /// the logits are bitwise independent of how the wave is chunked.
    fn score_chunk(
        &self,
        s: &mut DecideScratch,
        actor: &Mlp,
        quant: Option<&QuantizedMlp>,
        entries: &[DecisionContext],
    ) {
        s.spans.clear();
        let mut chunk_rows = 0;
        for ctx in entries {
            s.spans.push((chunk_rows, ctx.actions.len()));
            chunk_rows += ctx.actions.len();
        }
        s.rows.resize_in_place(chunk_rows, SA_DIM);
        for (ctx, &(row0, _)) in entries.iter().zip(&s.spans) {
            let mut state = [0.0f64; STATE_DIM];
            self.fx.write_state_cached(&s.cache, ctx, &mut state);
            self.apply_state_ablations(&mut state);
            for (j, &a) in ctx.actions.actions().iter().enumerate() {
                let row = s.rows.row_mut(row0 + j);
                row[..STATE_DIM].copy_from_slice(&state);
                self.fx
                    .write_action_cached(&s.cache, ctx, a, &mut row[STATE_DIM..]);
            }
        }
        let _trace_matmul = fairmove_telemetry::trace_span!("matmul", chunk_rows as u64);
        match quant {
            // The actor head is one logit wide, so the quantized forward's
            // flat `rows × 1` output is exactly this chunk's logits.
            Some(q) => q.forward_into(&s.rows, &mut s.qws, &mut s.chunk_logits),
            None => {
                let logits_m = actor.forward_scratch(&s.rows, &mut s.ws);
                s.chunk_logits.clear();
                s.chunk_logits
                    .extend((0..chunk_rows).map(|r| logits_m.get(r, 0)));
            }
        }
    }
}
