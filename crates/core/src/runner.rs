//! Episode runner: trains and evaluates a policy on fresh environments.
//!
//! Evaluation protocol (mirrors the paper's): every method is evaluated
//! **frozen** on an environment built from the *same* seed, so all methods
//! face the identical demand realization; learning methods are first trained
//! on environments with different (training) seeds.

use crate::method::Method;
use crate::watchdog::{GuardedTrainee, WatchdogConfig, WatchdogReport};
use fairmove_sim::{DisplacementPolicy, Environment, FaultPlan, SimConfig};
use fairmove_telemetry::{RunReport, Telemetry};
use serde::{Deserialize, Serialize};

/// Outcome of one environment run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The full fleet ledger of the run.
    pub ledger: fairmove_sim::FleetLedger,
    /// Mean per-taxi α-weighted reward per slot, at the given α (the
    /// quantity the paper's Table IV reports). Computed with the paper's
    /// Eq. 4 via [`fairmove_sim::SlotFeedback::reward`].
    pub average_reward: f64,
    /// Final fleet mean profit efficiency, CNY/h.
    pub mean_pe: f64,
    /// Final profit fairness (PE variance; smaller is fairer).
    pub pf: f64,
}

/// Trains and evaluates methods under a fixed protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Runner {
    /// Base simulation configuration; the seed herein is the *evaluation*
    /// seed.
    pub sim: SimConfig,
    /// Training episodes for learning methods.
    pub train_episodes: u32,
    /// Efficiency/fairness reward weight α ∈ [0, 1] used when scoring runs
    /// (the mixing weight of the paper's Eq. 4; Table IV sweeps it).
    pub alpha: f64,
    /// Telemetry context attached to every environment and policy this
    /// runner drives. Disabled by default; not part of the persisted
    /// configuration (instrumentation is deterministically inert, so a
    /// reloaded runner reproduces the same results either way).
    #[serde(skip, default)]
    pub telemetry: Telemetry,
}

/// Offset separating training seeds from the evaluation seed: training
/// episode `i` runs on `sim.seed + TRAIN_SEED_BASE + i`. This keeps every
/// training demand realization disjoint from the shared evaluation
/// realization (the paper's protocol: all methods are evaluated frozen on
/// identical demand) while remaining fully deterministic.
const TRAIN_SEED_BASE: u64 = 1_000_003;

/// Salt for watchdog exploration re-seeds, so a restored policy explores a
/// different trajectory than the one that diverged.
const WATCHDOG_SEED_SALT: u64 = 0x5741_5443_4844_4f47; // "WATCHDOG"

impl Runner {
    /// A runner over `sim` with `train_episodes` of training per learning
    /// method and reward weight `alpha`.
    pub fn new(sim: SimConfig, train_episodes: u32, alpha: f64) -> Self {
        Runner {
            sim,
            train_episodes,
            alpha,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry context; environments and policies driven by
    /// this runner will record into it.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Runs `policy` once on a fresh environment with `seed`, returning the
    /// outcome. Rewards are evaluated at `alpha`.
    pub fn run_once(&self, policy: &mut dyn DisplacementPolicy, seed: u64) -> RunOutcome {
        self.run_once_with_faults(policy, seed, None)
    }

    /// Like [`Self::run_once`] but with a fault plan injected into the
    /// environment (resilience scenarios). `None` is bit-identical to
    /// [`Self::run_once`].
    pub fn run_once_with_faults(
        &self,
        policy: &mut dyn DisplacementPolicy,
        seed: u64,
        faults: Option<&FaultPlan>,
    ) -> RunOutcome {
        let config = SimConfig {
            seed,
            ..self.sim.clone()
        };
        let mut env = Environment::new(config);
        if let Some(plan) = faults {
            env.set_fault_plan(plan.clone());
        }
        env.set_telemetry(&self.telemetry);
        policy.set_telemetry(&self.telemetry);
        let _episode_span = self.telemetry.span("runner.episode_seconds");
        let mut reward_sum = 0.0;
        let mut reward_count = 0u64;
        let mut last_mean_pe = 0.0;
        let mut last_pf = 0.0;
        while !env.done() {
            let feedback = env.step_slot(policy);
            for i in 0..feedback.slot_profit.len() {
                reward_sum += feedback.reward(self.alpha, fairmove_sim::TaxiId(i as u32));
                reward_count += 1;
            }
            last_mean_pe = feedback.mean_pe;
            last_pf = feedback.pf;
            policy.observe(feedback);
        }
        env.flush_accounting();
        RunOutcome {
            ledger: env.ledger().clone(),
            average_reward: reward_sum / reward_count.max(1) as f64,
            mean_pe: last_mean_pe,
            pf: last_pf,
        }
    }

    /// Trains a learning method for the configured number of episodes.
    /// Returns the average reward of each training episode (the learning
    /// curve). No-op for non-learning methods.
    pub fn train(&self, method: &mut Method) -> Vec<f64> {
        if !method.kind().is_learning() {
            return Vec::new();
        }
        let episodes = self.telemetry.counter("runner.train_episodes");
        let episode_reward = self.telemetry.gauge("runner.episode_reward");
        (0..self.train_episodes)
            .map(|episode| {
                let seed = self.sim.seed + TRAIN_SEED_BASE + u64::from(episode);
                let reward = self.run_once(method.as_policy(), seed).average_reward;
                episodes.inc();
                episode_reward.set(reward);
                reward
            })
            .collect()
    }

    /// Trains a learning method under a watchdog: each episode is vetted
    /// (finite, bounded reward; healthy policy), healthy episodes are
    /// checkpointed, and diverged episodes are rolled back to the last good
    /// checkpoint with exploration re-seeded. Returns the learning curve of
    /// *accepted* episodes and the watchdog's report.
    ///
    /// Fully deterministic: the same trainee, seeds, and thresholds produce
    /// the same checkpoints, restores, and curve.
    pub fn train_guarded(
        &self,
        trainee: &mut dyn GuardedTrainee,
        watchdog: &WatchdogConfig,
    ) -> (Vec<f64>, WatchdogReport) {
        let mut report = WatchdogReport::default();
        let mut curve = Vec::with_capacity(self.train_episodes as usize);
        let mut last_good: Option<Vec<u8>> = None;
        let episodes = self.telemetry.counter("runner.train_episodes");
        let episode_reward = self.telemetry.gauge("runner.episode_reward");
        let checkpoints = self.telemetry.counter("runner.watchdog_checkpoints");
        let restores = self.telemetry.counter("runner.watchdog_restores");
        let unrecovered = self.telemetry.counter("runner.watchdog_unrecovered");
        for episode in 0..self.train_episodes {
            let seed = self.sim.seed + TRAIN_SEED_BASE + u64::from(episode);
            let reward = self.run_once(trainee.policy(), seed).average_reward;
            episodes.inc();
            let healthy = reward.is_finite()
                && reward.abs() <= watchdog.max_abs_reward
                && trainee.policy().is_healthy();
            if healthy {
                episode_reward.set(reward);
                curve.push(reward);
                if let Some(bytes) = trainee.checkpoint() {
                    last_good = Some(bytes);
                    report.checkpoints += 1;
                    checkpoints.inc();
                }
            } else if last_good.as_ref().is_some_and(|bytes| {
                // Roll back to the last known-good parameters...
                trainee.restore(bytes)
            }) {
                report.restores += 1;
                restores.inc();
                // ...and explore differently this time.
                trainee
                    .policy()
                    .reseed_exploration(self.sim.seed ^ WATCHDOG_SEED_SALT ^ u64::from(episode));
            } else {
                report.unrecovered += 1;
                unrecovered.inc();
                trainee
                    .policy()
                    .reseed_exploration(self.sim.seed ^ WATCHDOG_SEED_SALT ^ u64::from(episode));
            }
        }
        (curve, report)
    }

    /// Trains (if applicable), freezes, and evaluates a method on the
    /// shared evaluation seed.
    pub fn train_and_evaluate(&self, method: &mut Method) -> (Vec<f64>, RunOutcome) {
        let curve = self.train(method);
        method.freeze();
        let outcome = self.run_once(method.as_policy(), self.sim.seed);
        (curve, outcome)
    }

    /// Packages an outcome, its learning curve, and the current telemetry
    /// snapshot into a serializable [`RunReport`] (one JSONL line per report
    /// in the bench binaries).
    pub fn run_report(
        &self,
        name: &str,
        context: &str,
        curve: &[f64],
        outcome: &RunOutcome,
    ) -> RunReport {
        RunReport {
            name: name.to_string(),
            context: context.to_string(),
            training_curve: curve.to_vec(),
            average_reward: outcome.average_reward,
            mean_pe: outcome.mean_pe,
            pf: outcome.pf,
            trips: outcome.ledger.trips().len() as u64,
            charges: outcome.ledger.charges().len() as u64,
            expired_requests: outcome.ledger.expired_requests,
            snapshot: self.telemetry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodKind;
    use fairmove_city::City;

    fn runner() -> Runner {
        Runner::new(SimConfig::test_scale(), 1, 0.6)
    }

    #[test]
    fn gt_run_produces_activity() {
        let r = runner();
        let city = City::generate(r.sim.city.clone());
        let mut m = Method::build(MethodKind::Gt, &city, &r.sim, 0.6);
        let (curve, out) = r.train_and_evaluate(&mut m);
        assert!(curve.is_empty(), "GT must not train");
        assert!(!out.ledger.trips().is_empty());
        assert!(out.mean_pe.is_finite());
        assert!(out.pf >= 0.0);
    }

    #[test]
    fn identical_eval_seeds_for_static_methods() {
        let r = runner();
        let city = City::generate(r.sim.city.clone());
        let mut a = Method::build(MethodKind::Sd2, &city, &r.sim, 0.6);
        let mut b = Method::build(MethodKind::Sd2, &city, &r.sim, 0.6);
        let (_, oa) = r.train_and_evaluate(&mut a);
        let (_, ob) = r.train_and_evaluate(&mut b);
        assert_eq!(oa.ledger.trips().len(), ob.ledger.trips().len());
        assert!((oa.average_reward - ob.average_reward).abs() < 1e-12);
    }

    #[test]
    fn learning_method_trains_then_freezes() {
        let r = runner();
        let city = City::generate(r.sim.city.clone());
        let mut m = Method::build(MethodKind::Tql, &city, &r.sim, 0.6);
        let (curve, out) = r.train_and_evaluate(&mut m);
        assert_eq!(curve.len(), 1);
        assert!(out.average_reward.is_finite());
    }

    #[test]
    fn instrumented_runner_produces_a_complete_run_report() {
        let tel = Telemetry::enabled();
        let r = runner().with_telemetry(&tel);
        let city = City::generate(r.sim.city.clone());
        let mut m = Method::build(MethodKind::Tql, &city, &r.sim, 0.6);
        let (curve, out) = r.train_and_evaluate(&mut m);
        let report = r.run_report("TQL", "eval seed 42", &curve, &out);
        assert_eq!(report.training_curve.len(), 1);
        assert!(report.trips > 0);
        // The snapshot carries both sim- and runner-level instrumentation.
        assert!(report.snapshot.histogram("sim.step_slot_seconds").is_some());
        let episodes = report
            .snapshot
            .histogram("runner.episode_seconds")
            .expect("episode span missing");
        assert_eq!(episodes.count, 2); // one training + one evaluation run
        fairmove_telemetry::export::validate_json(&report.to_json())
            .expect("run report must serialize to valid JSON");
    }

    /// Behaves like StayPolicy, but "diverges" (reports unhealthy, as a
    /// NaN-poisoned network would) at the start of a chosen episode.
    /// Checkpoint/restore model parameter save/load: a restore heals it.
    struct FlakyPolicy {
        episodes_seen: u32,
        diverge_on: u32,
        poisoned: bool,
        reseeds: Vec<u64>,
    }

    impl DisplacementPolicy for FlakyPolicy {
        fn name(&self) -> &str {
            "Flaky"
        }

        fn decide(
            &mut self,
            obs: &fairmove_sim::SlotObservation,
            decisions: &[fairmove_sim::DecisionContext],
        ) -> Vec<fairmove_sim::Action> {
            if obs.now.minutes() == 0 {
                self.episodes_seen += 1;
                if self.episodes_seen == self.diverge_on {
                    self.poisoned = true;
                }
            }
            decisions
                .iter()
                .map(|d| {
                    if d.must_charge {
                        d.actions.charge_actions()[0]
                    } else {
                        fairmove_sim::Action::Stay
                    }
                })
                .collect()
        }

        fn is_healthy(&self) -> bool {
            !self.poisoned
        }

        fn reseed_exploration(&mut self, seed: u64) {
            self.reseeds.push(seed);
        }
    }

    struct FlakyTrainee {
        policy: FlakyPolicy,
    }

    impl GuardedTrainee for FlakyTrainee {
        fn policy(&mut self) -> &mut dyn DisplacementPolicy {
            &mut self.policy
        }

        fn checkpoint(&self) -> Option<Vec<u8>> {
            Some(vec![0x01])
        }

        fn restore(&mut self, _bytes: &[u8]) -> bool {
            self.policy.poisoned = false;
            true
        }
    }

    #[test]
    fn watchdog_restores_mid_training_divergence_and_completes() {
        let r = Runner::new(SimConfig::test_scale(), 4, 0.6);
        let mut trainee = FlakyTrainee {
            policy: FlakyPolicy {
                episodes_seen: 0,
                diverge_on: 2,
                poisoned: false,
                reseeds: Vec::new(),
            },
        };
        let (curve, report) = r.train_guarded(&mut trainee, &WatchdogConfig::default());
        // Episode 2 diverged; 1, 3, 4 were healthy and checkpointed.
        assert_eq!(report.checkpoints, 3);
        assert_eq!(report.restores, 1);
        assert_eq!(report.unrecovered, 0);
        assert_eq!(curve.len(), 3);
        assert!(curve.iter().all(|r| r.is_finite()));
        // The restore re-seeded exploration exactly once.
        assert_eq!(trainee.policy.reseeds.len(), 1);
        // Training completed with a healed policy; evaluation is finite.
        assert!(trainee.policy.is_healthy());
        let out = r.run_once(trainee.policy(), r.sim.seed);
        assert!(out.mean_pe.is_finite());
        assert!(out.pf.is_finite());
        assert!(!out.ledger.trips().is_empty());
    }

    #[test]
    fn watchdog_counts_unrecoverable_divergence_before_first_checkpoint() {
        let r = Runner::new(SimConfig::test_scale(), 2, 0.6);
        struct NoCheckpoint {
            policy: FlakyPolicy,
        }
        impl GuardedTrainee for NoCheckpoint {
            fn policy(&mut self) -> &mut dyn DisplacementPolicy {
                &mut self.policy
            }
            fn checkpoint(&self) -> Option<Vec<u8>> {
                None
            }
            fn restore(&mut self, _bytes: &[u8]) -> bool {
                false
            }
        }
        let mut trainee = NoCheckpoint {
            policy: FlakyPolicy {
                episodes_seen: 0,
                diverge_on: 1,
                poisoned: false,
                reseeds: Vec::new(),
            },
        };
        let (curve, report) = r.train_guarded(&mut trainee, &WatchdogConfig::default());
        // Every episode after the divergence stays unhealthy — nothing to
        // restore from, but the watchdog keeps re-seeding and counting.
        assert_eq!(report.checkpoints, 0);
        assert_eq!(report.restores, 0);
        assert_eq!(report.unrecovered, 2);
        assert!(curve.is_empty());
        assert_eq!(trainee.policy.reseeds.len(), 2);
    }

    #[test]
    fn watchdog_telemetry_matches_report() {
        let tel = Telemetry::enabled();
        let r = Runner::new(SimConfig::test_scale(), 3, 0.6).with_telemetry(&tel);
        let mut trainee = FlakyTrainee {
            policy: FlakyPolicy {
                episodes_seen: 0,
                diverge_on: 2,
                poisoned: false,
                reseeds: Vec::new(),
            },
        };
        let (_, report) = r.train_guarded(&mut trainee, &WatchdogConfig::default());
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter("runner.watchdog_checkpoints"),
            Some(report.checkpoints)
        );
        assert_eq!(
            snap.counter("runner.watchdog_restores"),
            Some(report.restores)
        );
        assert_eq!(snap.counter("runner.train_episodes"), Some(3));
    }

    #[test]
    fn fault_injection_at_the_runner_layer_is_deterministic() {
        use fairmove_sim::{FaultSpec, SlotWindow};
        let r = runner();
        let city = City::generate(r.sim.city.clone());
        let plan = FaultPlan::new(3).with(FaultSpec::StationOutage {
            station: 0,
            window: SlotWindow::new(10, 50),
        });
        let run = |plan: Option<&FaultPlan>| {
            let mut m = Method::build(MethodKind::Sd2, &city, &r.sim, 0.6);
            r.run_once_with_faults(m.as_policy(), r.sim.seed, plan)
        };
        // Same seed + same plan reproduces the ledger bit for bit.
        assert_eq!(run(Some(&plan)).ledger, run(Some(&plan)).ledger);
        // A zero-fault plan is indistinguishable from no plan.
        let empty = FaultPlan::new(9);
        assert_eq!(run(Some(&empty)).ledger, run(None).ledger);
        // And the outage plan actually changed the world vs. fault-free.
        assert_ne!(run(Some(&plan)).ledger, run(None).ledger);
    }

    #[test]
    fn training_and_eval_use_different_demand() {
        // The training seed must differ from the evaluation seed; we check
        // indirectly: two consecutive training episodes see different seeds,
        // so their ledgers differ from the eval ledger's trip count with
        // overwhelming probability.
        let r = runner();
        let city = City::generate(r.sim.city.clone());
        let mut m = Method::build(MethodKind::Sd2, &city, &r.sim, 0.6);
        let train_out = r.run_once(m.as_policy(), r.sim.seed + TRAIN_SEED_BASE);
        let eval_out = r.run_once(m.as_policy(), r.sim.seed);
        assert_ne!(
            train_out.ledger.trips().len(),
            eval_out.ledger.trips().len()
        );
    }
}
