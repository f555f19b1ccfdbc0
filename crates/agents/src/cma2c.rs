//! CMA2C — Centralized Multi-Agent Actor-Critic (the FairMove contribution).
//!
//! Faithful to Section III-D / Algorithm 1 of the paper:
//!
//! * **centralized, shared networks** — one actor and one critic whose
//!   parameters are shared by every e-taxi (the paper's answer to the
//!   varying agent count and the cost of per-agent networks);
//! * **critic** `V(s)` trained by minimizing the Bellman residual
//!   `(V(s) − (r + β V̂(s')))²` against a target value network (Eq. 6–7);
//! * **actor** trained by the policy gradient with the TD error as the
//!   advantage estimate (Eq. 8–11): `∇ log π(a|s) · A`,
//!   `A = r + β V̂(s') − V(s)`;
//! * **fairness-aware reward** — each taxi's reward mixes its own profit
//!   efficiency with the fleet's profit fairness via the weight α
//!   (Eq. 4–5, swept in Table IV);
//! * **variable action spaces** — the actor scores state–action feature
//!   vectors, so regions with different neighbour counts and station lists
//!   are handled by one network ("iterates its policy to adapt to the
//!   dynamically evolving action space").
//!
//! Training is centralized, execution decentralized: at run time each taxi
//! only needs its own context and the shared broadcast observation.

use crate::features::{SA_DIM, STATE_DIM};
use crate::transition::TransitionTracker;
use crate::wave::WaveDispatcher;
use fairmove_rl::loss::{policy_gradient_logits, softmax};
use fairmove_rl::{Activation, Adam, Matrix, Mlp, Optimizer, ReplayBuffer};
use fairmove_sim::{
    Action, DecisionContext, DisplacementPolicy, SlotFeedback, SlotObservation, WorkingObservation,
};
use fairmove_telemetry::{Counter, Gauge, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training-diagnostic handles, registered once in
/// [`DisplacementPolicy::set_telemetry`]. Recording is read-only with respect
/// to the learner: it never touches the RNG or the gradients themselves.
#[derive(Debug)]
struct Cma2cMetrics {
    critic_loss: Gauge,
    critic_grad_norm: Gauge,
    actor_grad_norm: Gauge,
    train_steps: Counter,
}

impl Cma2cMetrics {
    fn new(telemetry: &Telemetry, config: &Cma2cConfig) -> Option<Self> {
        telemetry.is_enabled().then(|| {
            // Learning rates are static hyper-parameters; export them once so
            // run reports are self-describing.
            telemetry.gauge("cma2c.actor_lr").set(config.actor_lr);
            telemetry.gauge("cma2c.critic_lr").set(config.critic_lr);
            telemetry.gauge("cma2c.alpha").set(config.alpha);
            Cma2cMetrics {
                critic_loss: telemetry.gauge("cma2c.critic_loss"),
                critic_grad_norm: telemetry.gauge("cma2c.critic_grad_norm"),
                actor_grad_norm: telemetry.gauge("cma2c.actor_grad_norm"),
                train_steps: telemetry.counter("cma2c.train_steps"),
            }
        })
    }
}

/// CMA2C hyper-parameters.
#[derive(Debug, Clone)]
pub struct Cma2cConfig {
    /// Efficiency/fairness tradeoff α ∈ [0, 1] (paper default 0.6; Table IV
    /// sweeps it).
    pub alpha: f64,
    /// Actor Adam learning rate.
    pub actor_lr: f64,
    /// Critic Adam learning rate (paper: 0.001).
    pub critic_lr: f64,
    /// Discount factor (paper: β = 0.9).
    pub gamma: f64,
    /// Actor hidden widths.
    pub actor_hidden: Vec<usize>,
    /// Critic hidden widths.
    pub critic_hidden: Vec<usize>,
    /// Minibatch size per training step (paper trains with batch 3500 on a
    /// GPU; scaled for CPU).
    pub batch_size: usize,
    /// Transition buffer capacity (Algorithm 1 line 7: "store the
    /// transitions of all active e-taxis").
    pub buffer_capacity: usize,
    /// Minimum stored transitions before training starts.
    pub min_buffer: usize,
    /// Target-critic soft-update rate τ.
    pub target_tau: f64,
    /// Entropy-bonus coefficient (exploration regularizer).
    pub entropy_coef: f64,
    /// Inner training iterations per slot (Algorithm 1's `M`).
    pub train_iters: u32,
    /// Fixed prior subtracted from charge-action logits. An untrained
    /// softmax would otherwise put ~40 % of its mass on charging whenever
    /// charge actions are admissible; the prior encodes "charging is the
    /// exception" while remaining fully overridable by the learned logits.
    pub charge_logit_prior: f64,
    /// Maximum number of queued decisions in one dispatch wave (one
    /// feature-cache refresh, scored lazily in stacked chunks). Commits
    /// still apply sequentially, and any decision whose features were
    /// touched by an earlier commit in the same wave is re-scored in the
    /// next wave, so results are bit-identical to `max_wave: 1` (the fully
    /// serial dispatcher, kept as the tests' reference).
    pub max_wave: usize,
    /// RNG seed.
    pub seed: u64,
    /// Ablation: zero out the global-view state features (the taxi sees
    /// only its local context). DESIGN.md ablation 4.
    pub ablate_global_view: bool,
    /// Ablation: zero out the fairness-standing features.
    pub ablate_fairness_features: bool,
}

impl Default for Cma2cConfig {
    fn default() -> Self {
        Cma2cConfig {
            alpha: 0.6,
            actor_lr: 5e-4,
            critic_lr: 1e-3,
            gamma: 0.9,
            actor_hidden: vec![64, 64],
            critic_hidden: vec![64, 64],
            batch_size: 128,
            // Near-on-policy: the actor gradient is only valid for samples
            // from (approximately) the current policy, so the buffer holds
            // just the last few slots of transitions (Algorithm 1 stores
            // and samples within the iteration).
            buffer_capacity: 4_096,
            min_buffer: 512,
            target_tau: 0.01,
            entropy_coef: 0.01,
            train_iters: 6,
            charge_logit_prior: 2.5,
            max_wave: 1_024,
            seed: 31,
            ablate_global_view: false,
            ablate_fairness_features: false,
        }
    }
}

#[derive(Debug, Clone)]
struct Payload {
    state: Vec<f64>,
    candidates: Vec<Vec<f64>>,
    action: usize,
}

#[derive(Debug, Clone)]
struct Transition {
    state: Vec<f64>,
    candidates: Vec<Vec<f64>>,
    action: usize,
    reward: f64,
    next_state: Vec<f64>,
    /// Slots elapsed between the two decisions (semi-MDP bootstrap uses
    /// `γ^slots`).
    slots: u32,
}

/// The FairMove CMA2C policy.
pub struct Cma2cPolicy {
    config: Cma2cConfig,
    dispatcher: WaveDispatcher,
    actor: Mlp,
    critic: Mlp,
    target_critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    buffer: ReplayBuffer<Transition>,
    tracker: TransitionTracker<Payload>,
    rng: StdRng,
    train_steps: u64,
    metrics: Option<Cma2cMetrics>,
    /// Whether learning (and stochastic exploration) is active.
    pub learning: bool,
}

/// The shared actor network: one logit per `SA_DIM` state–action row.
/// Both engines' CMA2C policies build it here, so one config seeds
/// bit-identical initial weights in either.
pub(crate) fn new_actor(config: &Cma2cConfig) -> Mlp {
    let mut sizes = vec![SA_DIM];
    sizes.extend(&config.actor_hidden);
    sizes.push(1);
    Mlp::new(&sizes, Activation::Relu, Activation::Linear, config.seed)
}

/// Reflects an assignment in the working observation so subsequent
/// decisions in the same slot see it. Only the vacancy and inbound vectors
/// are touched, so a [`WorkingObservation`] copies at most those two.
pub(crate) fn apply_assignment(
    obs: &mut WorkingObservation<'_>,
    ctx: &DecisionContext,
    action: Action,
) {
    match action {
        Action::Stay => {}
        Action::MoveTo(dest) => {
            let o = ctx.region.index();
            let vacant = obs.vacant_per_region_mut();
            vacant[o] = vacant[o].saturating_sub(1);
            vacant[dest.index()] += 1;
        }
        Action::Charge(station) => {
            let o = ctx.region.index();
            let vacant = obs.vacant_per_region_mut();
            vacant[o] = vacant[o].saturating_sub(1);
            obs.inbound_per_station_mut()[station.index()] += 1;
        }
    }
}

pub(crate) fn stack<R: AsRef<[f64]>>(rows: &[R]) -> Matrix {
    let cols = rows.first().map(|r| r.as_ref().len()).unwrap_or(0);
    let data: Vec<f64> = rows
        .iter()
        .flat_map(|r| r.as_ref().iter().copied())
        .collect();
    Matrix::from_vec(rows.len(), cols, data)
}

impl Cma2cPolicy {
    /// A fresh CMA2C policy over `city`.
    pub fn new(city: &fairmove_city::City, config: Cma2cConfig) -> Self {
        let mut critic_sizes = vec![STATE_DIM];
        critic_sizes.extend(&config.critic_hidden);
        critic_sizes.push(1);
        let actor = new_actor(&config);
        let critic = Mlp::new(
            &critic_sizes,
            Activation::Relu,
            Activation::Linear,
            config.seed + 1,
        );
        let mut target_critic = Mlp::new(
            &critic_sizes,
            Activation::Relu,
            Activation::Linear,
            config.seed + 2,
        );
        target_critic.copy_params_from(&critic);
        Cma2cPolicy {
            dispatcher: WaveDispatcher::new(city, &config),
            actor,
            critic,
            target_critic,
            actor_opt: Adam::new(config.actor_lr),
            critic_opt: Adam::new(config.critic_lr),
            buffer: ReplayBuffer::new(config.buffer_capacity),
            tracker: TransitionTracker::new(),
            rng: StdRng::seed_from_u64(config.seed ^ 0x43_4d41_3243), // "CMA2C"
            train_steps: 0,
            metrics: None,
            learning: true,
            config,
        }
    }

    /// The α this policy was configured with.
    pub fn alpha(&self) -> f64 {
        self.config.alpha
    }

    /// Freezes learning for evaluation runs. The policy stays stochastic —
    /// Algorithm 1 samples from π at execution time too. Pending
    /// half-transitions are discarded: the frozen dispatcher no longer feeds
    /// the tracker, so they could never complete consistently.
    pub fn freeze(&mut self) {
        self.learning = false;
        self.tracker.clear();
    }

    /// The exploration RNG's restorable state. A frozen policy still
    /// *samples* from π, so bit-identical warm restart of a dispatch server
    /// needs this alongside [`Self::save`]'s parameters.
    pub fn rng_state(&self) -> ([u32; 8], u64, u32) {
        self.rng.state()
    }

    /// Restores the exploration RNG captured by [`Self::rng_state`]; the
    /// action stream continues exactly where the capture left off.
    pub fn restore_rng_state(&mut self, key: [u32; 8], counter: u64, index: u32) {
        self.rng = StdRng::from_state(key, counter, index);
    }

    /// Training steps taken so far.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Stored transitions.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// The critic's value estimate for a raw state vector (exposed for
    /// inspection and tests).
    pub fn value(&self, state: &[f64]) -> f64 {
        self.critic.forward_one(state)[0]
    }

    /// Persists the trained actor and critic (text format, see
    /// [`fairmove_rl::serialize`]).
    pub fn save(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        fairmove_rl::save_mlp(
            &self.actor,
            fairmove_rl::Activation::Relu,
            fairmove_rl::Activation::Linear,
            w,
        )?;
        fairmove_rl::save_mlp(
            &self.critic,
            fairmove_rl::Activation::Relu,
            fairmove_rl::Activation::Linear,
            w,
        )
    }

    /// Restores actor and critic saved by [`Self::save`]. The architecture
    /// must match this policy's configuration.
    pub fn load(&mut self, r: &mut impl std::io::BufRead) -> Result<(), fairmove_rl::LoadError> {
        let actor = fairmove_rl::load_mlp(r)?;
        let critic = fairmove_rl::load_mlp(r)?;
        if actor.layer_shapes() != self.actor.layer_shapes()
            || critic.layer_shapes() != self.critic.layer_shapes()
        {
            return Err(fairmove_rl::LoadError::Format(
                "architecture mismatch with configured policy".into(),
            ));
        }
        self.actor = actor;
        self.target_critic.copy_params_from(&critic);
        self.critic = critic;
        Ok(())
    }

    fn train(&mut self) {
        if self.buffer.len() < self.config.min_buffer {
            return;
        }
        for _ in 0..self.config.train_iters {
            self.train_once();
        }
    }

    fn train_once(&mut self) {
        // The sampled references borrow `self.buffer` for the rest of the
        // step — every stack below reads the stored vectors in place
        // instead of cloning the whole minibatch out of the buffer.
        let batch = self.buffer.sample(&mut self.rng, self.config.batch_size);
        if batch.is_empty() {
            // min_buffer == 0 with an empty buffer: nothing to learn from,
            // and the n-normalized gradients below would divide by zero.
            return;
        }
        let n = batch.len();
        let gamma = self.config.gamma;

        // --- Critic: minimize (V(s) − (r + β V̂(s')))² (Eq. 6–7). ---
        let next_states = stack(
            &batch
                .iter()
                .map(|t| t.next_state.as_slice())
                .collect::<Vec<_>>(),
        );
        let v_next = self.target_critic.forward(&next_states);
        let targets: Vec<f64> = batch
            .iter()
            .enumerate()
            .map(|(i, t)| t.reward + gamma.powi(t.slots as i32) * v_next.get(i, 0))
            .collect();
        let states = stack(&batch.iter().map(|t| t.state.as_slice()).collect::<Vec<_>>());
        let v_pred = self.critic.forward_train(&states);
        let mut d = Matrix::zeros(n, 1);
        for (i, &target) in targets.iter().enumerate() {
            d.set(i, 0, 2.0 * (v_pred.get(i, 0) - target) / n as f64);
        }
        let mut critic_grads = self.critic.backward(&d);
        if let Some(m) = &self.metrics {
            let loss = (0..n)
                .map(|i| (v_pred.get(i, 0) - targets[i]).powi(2))
                .sum::<f64>()
                / n as f64;
            m.critic_loss.set(loss);
            m.critic_grad_norm.set(critic_grads.global_norm());
        }
        critic_grads.clip_global_norm(5.0);
        self.critic_opt.step(&mut self.critic, &critic_grads);

        // --- Advantage: TD error (Eq. 11), normalized per batch to unit
        // scale — the standard variance-reduction the paper motivates in
        // Eq. 9 ("the value function has high variability"). ---
        let raw: Vec<f64> = (0..n).map(|i| targets[i] - v_pred.get(i, 0)).collect();
        let mean_a = raw.iter().sum::<f64>() / n as f64;
        let std_a = (raw.iter().map(|a| (a - mean_a).powi(2)).sum::<f64>() / n as f64)
            .sqrt()
            .max(1e-6);
        let advantages: Vec<f64> = raw.iter().map(|a| (a - mean_a) / std_a).collect();

        // --- Actor: policy gradient on the shared scoring network (Eq. 8).
        // All candidate sets are flattened into one forward/backward pass.
        let mut flat: Vec<&[f64]> = Vec::new();
        let mut segments = Vec::with_capacity(n);
        for t in &batch {
            segments.push((flat.len(), t.candidates.len()));
            flat.extend(t.candidates.iter().map(Vec::as_slice));
        }
        let logits = self.actor.forward_train(&stack(&flat));
        let mut d_logits = Matrix::zeros(flat.len(), 1);
        for (i, t) in batch.iter().enumerate() {
            let (start, len) = segments[i];
            let seg: Vec<f64> = (start..start + len).map(|j| logits.get(j, 0)).collect();
            let pg = policy_gradient_logits(&seg, len, t.action, advantages[i]);
            // Entropy bonus: loss −c·H(π); ∂/∂z_j = c · p_j (ln p_j + H).
            let probs = softmax(&seg);
            let h: f64 = probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| -p * p.ln())
                .sum();
            for (j, (&g, &p)) in pg.iter().zip(&probs).enumerate() {
                let ent = self.config.entropy_coef * p * (p.max(1e-12).ln() + h);
                d_logits.set(start + j, 0, (g + ent) / n as f64);
            }
        }
        let mut actor_grads = self.actor.backward(&d_logits);
        if let Some(m) = &self.metrics {
            m.actor_grad_norm.set(actor_grads.global_norm());
        }
        actor_grads.clip_global_norm(5.0);
        self.actor_opt.step(&mut self.actor, &actor_grads);

        // --- Target critic soft update. ---
        self.target_critic
            .soft_update_from(&self.critic, self.config.target_tau);
        self.train_steps += 1;
        if let Some(m) = &self.metrics {
            m.train_steps.inc();
        }
    }
}

impl DisplacementPolicy for Cma2cPolicy {
    fn name(&self) -> &str {
        "FairMove"
    }

    fn decide(&mut self, obs: &SlotObservation, decisions: &[DecisionContext]) -> Vec<Action> {
        let mut out = Vec::with_capacity(decisions.len());
        self.decide_into(obs, decisions, &mut out);
        out
    }

    fn decide_into(
        &mut self,
        obs: &SlotObservation,
        decisions: &[DecisionContext],
        out: &mut Vec<Action>,
    ) {
        // The dispatcher is centralized: it knows the assignments it has
        // already made this slot, so later taxis see station inbound counts
        // and regional supply updated by earlier assignments. Without this,
        // every co-located taxi would see the same stale snapshot and herd.
        // The wave dispatcher keeps that sequential semantics while scoring
        // in stacked forwards (see [`crate::wave`]).
        let learning = self.learning;
        let (tracker, buffer) = (&mut self.tracker, &mut self.buffer);
        self.dispatcher.dispatch(
            &self.actor,
            obs,
            decisions,
            &mut self.rng,
            out,
            |ctx, action, rows| {
                if !learning {
                    return;
                }
                // The training path owns its feature vectors (they live in
                // the replay buffer across slots), so it clones the rows.
                let state = rows[..STATE_DIM].to_vec();
                let candidates = rows.chunks_exact(SA_DIM).map(<[f64]>::to_vec).collect();
                let payload = Payload {
                    state: state.clone(),
                    candidates,
                    action,
                };
                if let Some(done) = tracker.begin(ctx.taxi, payload) {
                    buffer.push(Transition {
                        state: done.payload.state,
                        candidates: done.payload.candidates,
                        action: done.payload.action,
                        reward: done.reward,
                        next_state: state,
                        slots: done.slots,
                    });
                }
            },
        );
        if self.learning {
            self.train();
        }
    }

    fn observe(&mut self, feedback: &SlotFeedback) {
        let alpha = self.config.alpha;
        let gamma = self.config.gamma;
        self.tracker
            .accrue_all_discounted(gamma, |id| feedback.reward(alpha, id));
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = Cma2cMetrics::new(telemetry, &self.config);
    }

    fn is_healthy(&self) -> bool {
        // Target critic mirrors the critic, so checking it separately would
        // only re-detect the same divergence one soft-update later.
        self.actor.params_finite() && self.critic.params_finite()
    }

    fn reseed_exploration(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed ^ 0x43_4d41_3243); // "CMA2C"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmove_city::{City, CityConfig, RegionId, SimTime, TimeSlot};
    use fairmove_sim::{ActionSet, TaxiId};

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
            now: SimTime::from_dhm(0, 9, 0),
            slot: TimeSlot(54),
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
            taxi: TaxiId(taxi),
            region,
            soc: 0.7,
            must_charge: false,
            pe_standing: 40.0,
            actions: ActionSet::full(
                &city.region(region).neighbors,
                city.nearest_stations().nearest(region),
            ),
        }
    }

    fn feedback(n: usize, profit: f64) -> SlotFeedback {
        SlotFeedback {
            slot_start: SimTime::ZERO,
            slot_profit: vec![profit; n],
            cumulative_pe: vec![40.0; n],
            mean_pe: 40.0,
            pf: 0.0,
        }
    }

    #[test]
    fn decisions_are_admissible() {
        let city = small_city();
        let mut p = Cma2cPolicy::new(&city, Cma2cConfig::default());
        let o = obs(&city);
        let cs: Vec<DecisionContext> = (0..6).map(|i| ctx(&city, i)).collect();
        for _ in 0..5 {
            for (a, c) in p.decide(&o, &cs).iter().zip(&cs) {
                assert!(c.actions.contains(*a));
            }
            p.observe(&feedback(6, 1.0));
        }
    }

    #[test]
    fn buffer_fills_and_training_starts() {
        let city = small_city();
        let config = Cma2cConfig {
            min_buffer: 10,
            batch_size: 10,
            ..Cma2cConfig::default()
        };
        let mut p = Cma2cPolicy::new(&city, config);
        let o = obs(&city);
        let cs: Vec<DecisionContext> = (0..5).map(|i| ctx(&city, i)).collect();
        for _ in 0..5 {
            let _ = p.decide(&o, &cs);
            p.observe(&feedback(5, 2.0));
        }
        assert!(p.buffer_len() >= 10);
        assert!(p.train_steps() > 0);
    }

    #[test]
    fn frozen_policy_does_not_learn_but_stays_stochastic() {
        let city = small_city();
        let mut p = Cma2cPolicy::new(&city, Cma2cConfig::default());
        p.freeze();
        let o = obs(&city);
        let cs = vec![ctx(&city, 0)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            seen.insert(p.decide(&o, &cs)[0]);
        }
        // No learning artifacts...
        assert_eq!(p.buffer_len(), 0);
        assert_eq!(p.train_steps(), 0);
        // ...but the policy still samples (spreads over >1 action).
        assert!(seen.len() > 1, "frozen policy collapsed to one action");
    }

    #[test]
    fn critic_learns_state_values() {
        // Constant reward 1 per decision with γ = 0.9 ⇒ V ≈ 10 everywhere.
        let city = small_city();
        let config = Cma2cConfig {
            min_buffer: 20,
            batch_size: 32,
            critic_lr: 5e-3,
            train_iters: 6,
            ..Cma2cConfig::default()
        };
        let mut p = Cma2cPolicy::new(&city, config);
        let o = obs(&city);
        let cs: Vec<DecisionContext> = (0..8).map(|i| ctx(&city, i)).collect();
        // reward() maps slot_profit=1 CNY/slot to 1*6/6 = 1.0 at α=1… use
        // α from config (0.6): reward = 0.6*1.0 = 0.6 ⇒ V* = 6.
        for _ in 0..300 {
            let _ = p.decide(&o, &cs);
            p.observe(&feedback(8, 1.0));
        }
        let state = p.dispatcher.fx().state(&o, &cs[0]);
        let v = p.value(&state);
        assert!(
            (v - 6.0).abs() < 2.0,
            "critic value {v}, expected ≈ 6 (γ-geometric of 0.6/step)"
        );
    }

    #[test]
    fn actor_learns_rewarded_action() {
        // Bandit: Stay earns, everything else costs.
        let city = small_city();
        let config = Cma2cConfig {
            min_buffer: 32,
            batch_size: 32,
            actor_lr: 5e-3,
            train_iters: 2,
            alpha: 1.0,
            ..Cma2cConfig::default()
        };
        let mut p = Cma2cPolicy::new(&city, config);
        let o = obs(&city);
        let c = ctx(&city, 0);
        for _ in 0..500 {
            let a = p.decide(&o, std::slice::from_ref(&c))[0];
            let profit = if a == Action::Stay { 10.0 } else { -5.0 };
            p.observe(&feedback(1, profit));
        }
        p.freeze();
        let a = p.decide(&o, std::slice::from_ref(&c))[0];
        assert_eq!(a, Action::Stay, "actor failed to learn the bandit optimum");
    }

    #[test]
    fn save_load_round_trips_decisions() {
        let city = small_city();
        let mut p = Cma2cPolicy::new(&city, Cma2cConfig::default());
        p.freeze();
        let mut buf = Vec::new();
        p.save(&mut buf).unwrap();
        let mut q = Cma2cPolicy::new(
            &city,
            Cma2cConfig {
                seed: 999, // different init
                ..Cma2cConfig::default()
            },
        );
        q.freeze();
        q.load(&mut buf.as_slice()).unwrap();
        // Same networks + same rng seeds differ, but the *value function*
        // must now be identical.
        let o = obs(&city);
        let c = ctx(&city, 0);
        let state = p.dispatcher.fx().state(&o, &c);
        assert_eq!(p.value(&state), q.value(&state));
    }

    #[test]
    fn ablations_zero_the_right_features() {
        let city = small_city();
        let config = Cma2cConfig {
            ablate_global_view: true,
            ablate_fairness_features: true,
            ..Cma2cConfig::default()
        };
        let p = Cma2cPolicy::new(&city, config);
        let o = obs(&city);
        let c = ctx(&city, 0);
        let mut state = p.dispatcher.fx().state(&o, &c);
        let mut cands = p.dispatcher.fx().all_state_actions(&o, &c);
        p.dispatcher.apply_state_ablations(&mut state);
        for cand in &mut cands {
            p.dispatcher.apply_state_ablations(&mut cand[..STATE_DIM]);
        }
        for &i in &[4usize, 5, 6, 7, 10, 11, 12] {
            assert_eq!(state[i], 0.0, "state[{i}] not ablated");
            for cand in &cands {
                assert_eq!(cand[i], 0.0, "candidate[{i}] not ablated");
            }
        }
        // Time features survive.
        assert_ne!(state[1], 0.0);
    }

    fn ctx_in(city: &City, taxi: u32, region: usize) -> DecisionContext {
        let region = RegionId(region as u16);
        DecisionContext {
            taxi: TaxiId(taxi),
            region,
            soc: 0.7,
            must_charge: false,
            pe_standing: 40.0,
            actions: ActionSet::full(
                &city.region(region).neighbors,
                city.nearest_stations().nearest(region),
            ),
        }
    }

    #[test]
    fn batched_dispatch_matches_serial_dispatch() {
        // `max_wave: 1` is the pre-batching dispatcher (featurize, score,
        // commit one taxi at a time). The default wave-batched dispatcher
        // must be indistinguishable from it: same actions, same RNG
        // consumption, and — because identical transitions enter the buffer
        // in identical order — identical learned parameters.
        let city = small_city();
        let train_cfg = Cma2cConfig {
            min_buffer: 16,
            batch_size: 16,
            train_iters: 2,
            ..Cma2cConfig::default()
        };
        let mut serial = Cma2cPolicy::new(
            &city,
            Cma2cConfig {
                max_wave: 1,
                ..train_cfg.clone()
            },
        );
        let mut batched = Cma2cPolicy::new(&city, train_cfg);
        let n_regions = city.n_regions();
        let mut o = obs(&city);
        for step in 0..40 {
            // Mix herding (several taxis sharing a region) with spread-out
            // taxis, and vary the observation so waves break mid-stream.
            o.waiting_per_region[step % n_regions] = (step % 3) as u32;
            o.price_now = if step % 4 == 0 { 0.9 } else { 1.2 };
            let cs: Vec<DecisionContext> = (0..12)
                .map(|i| ctx_in(&city, i, (i as usize % 4) * 3 % n_regions))
                .collect();
            let a = serial.decide(&o, &cs);
            let b = batched.decide(&o, &cs);
            assert_eq!(a, b, "actions diverged at step {step}");
            serial.observe(&feedback(12, 1.5));
            batched.observe(&feedback(12, 1.5));
        }
        assert!(serial.train_steps() > 0, "training never started");
        assert_eq!(serial.train_steps(), batched.train_steps());
        let c = ctx(&city, 0);
        let state = serial.dispatcher.fx().state(&obs(&city), &c);
        assert_eq!(
            serial.value(&state),
            batched.value(&state),
            "learned critics diverged"
        );
    }

    #[test]
    fn alpha_is_exposed() {
        let city = small_city();
        let p = Cma2cPolicy::new(
            &city,
            Cma2cConfig {
                alpha: 0.8,
                ..Cma2cConfig::default()
            },
        );
        assert_eq!(p.alpha(), 0.8);
    }
}
