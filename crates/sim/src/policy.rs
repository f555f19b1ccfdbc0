//! The displacement-policy interface.
//!
//! A policy is consulted once per slot with the shared global view and one
//! [`DecisionContext`] per vacant taxi, and must return one action per
//! context. After the environment advances the slot it calls
//! [`DisplacementPolicy::observe`] with the realized per-taxi rewards so
//! learning policies can build transitions; static baselines ignore it.

use crate::action::Action;
use crate::env::SlotFeedback;
use crate::observation::{DecisionContext, SlotObservation};
use fairmove_telemetry::Telemetry;

/// A displacement policy: the paper's six methods (GT, SD2, TQL, DQN, TBA,
/// CMA2C) all implement this.
pub trait DisplacementPolicy {
    /// Human-readable policy name (used in result tables).
    fn name(&self) -> &str;

    /// Chooses an action for every decision context, in order. Each returned
    /// action must be admissible per the context's [`crate::ActionSet`];
    /// the environment replaces inadmissible actions with a safe default
    /// (stay, or nearest-station charge when charging is forced).
    fn decide(&mut self, obs: &SlotObservation, decisions: &[DecisionContext]) -> Vec<Action>;

    /// Allocation-aware variant of [`decide`](Self::decide): writes the
    /// chosen actions into `out` (cleared first) instead of returning a
    /// fresh `Vec`. The environment's hot path calls this with a reused
    /// buffer so steady-state stepping performs no per-slot allocation.
    ///
    /// The default delegates to `decide`, so existing policies keep working
    /// unchanged; policies on the hot path (Stay, frozen CMA2C) override it
    /// to fill `out` without allocating.
    fn decide_into(
        &mut self,
        obs: &SlotObservation,
        decisions: &[DecisionContext],
        out: &mut Vec<Action>,
    ) {
        *out = self.decide(obs, decisions);
    }

    /// Receives the realized outcome of the previous slot. Default: ignore.
    fn observe(&mut self, feedback: &SlotFeedback) {
        let _ = feedback;
    }

    /// Hands the policy a telemetry context to record training diagnostics
    /// into (losses, gradient norms, exploration rates). Default: ignore.
    ///
    /// Implementations must be *deterministically inert*: recording metrics
    /// may never touch the policy's RNG or change any decision it makes.
    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let _ = telemetry;
    }

    /// Whether the policy is in a usable state. Learned policies report
    /// `false` once their parameters go non-finite (a diverged update);
    /// the resilience layer then stops consulting them and the training
    /// watchdog restores a checkpoint. Default: always healthy.
    fn is_healthy(&self) -> bool {
        true
    }

    /// Re-seeds the policy's exploration randomness. Called by the training
    /// watchdog after restoring a checkpoint so the restored policy does
    /// not replay the exact exploration trajectory that diverged. Default:
    /// no-op (static policies carry no RNG).
    fn reseed_exploration(&mut self, seed: u64) {
        let _ = seed;
    }
}

/// Forwarding impl so wrappers like [`crate::ResilientPolicy`] can hold a
/// borrowed policy without taking ownership.
impl<P: DisplacementPolicy + ?Sized> DisplacementPolicy for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, obs: &SlotObservation, decisions: &[DecisionContext]) -> Vec<Action> {
        (**self).decide(obs, decisions)
    }

    fn decide_into(
        &mut self,
        obs: &SlotObservation,
        decisions: &[DecisionContext],
        out: &mut Vec<Action>,
    ) {
        (**self).decide_into(obs, decisions, out)
    }

    fn observe(&mut self, feedback: &SlotFeedback) {
        (**self).observe(feedback)
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        (**self).set_telemetry(telemetry)
    }

    fn is_healthy(&self) -> bool {
        (**self).is_healthy()
    }

    fn reseed_exploration(&mut self, seed: u64) {
        (**self).reseed_exploration(seed)
    }
}

/// Forwarding impl for boxed policies.
impl<P: DisplacementPolicy + ?Sized> DisplacementPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, obs: &SlotObservation, decisions: &[DecisionContext]) -> Vec<Action> {
        (**self).decide(obs, decisions)
    }

    fn decide_into(
        &mut self,
        obs: &SlotObservation,
        decisions: &[DecisionContext],
        out: &mut Vec<Action>,
    ) {
        (**self).decide_into(obs, decisions, out)
    }

    fn observe(&mut self, feedback: &SlotFeedback) {
        (**self).observe(feedback)
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        (**self).set_telemetry(telemetry)
    }

    fn is_healthy(&self) -> bool {
        (**self).is_healthy()
    }

    fn reseed_exploration(&mut self, seed: u64) {
        (**self).reseed_exploration(seed)
    }
}

/// The trivial policy: every taxi stays put. Useful as a floor baseline and
/// in tests.
#[derive(Debug, Default, Clone)]
pub struct StayPolicy;

impl DisplacementPolicy for StayPolicy {
    fn name(&self) -> &str {
        "Stay"
    }

    fn decide(&mut self, obs: &SlotObservation, decisions: &[DecisionContext]) -> Vec<Action> {
        let mut out = Vec::with_capacity(decisions.len());
        self.decide_into(obs, decisions, &mut out);
        out
    }

    fn decide_into(
        &mut self,
        _obs: &SlotObservation,
        decisions: &[DecisionContext],
        out: &mut Vec<Action>,
    ) {
        out.clear();
        out.extend(decisions.iter().map(DecisionContext::default_action));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSet;
    use crate::taxi::TaxiId;
    use fairmove_city::{RegionId, SimTime, StationId, TimeSlot};

    fn obs() -> SlotObservation {
        SlotObservation {
            now: SimTime::ZERO,
            slot: TimeSlot(0),
            vacant_per_region: vec![],
            free_points_per_station: vec![],
            queue_per_station: vec![],
            inbound_per_station: vec![],
            predicted_demand: vec![],
            waiting_per_region: vec![],
            price_now: 0.9,
            price_next_hour: 0.9,
            mean_pe: 40.0,
            pf: 0.0,
        }
    }

    #[test]
    fn stay_policy_stays_when_free() {
        let mut p = StayPolicy;
        let d = DecisionContext {
            taxi: TaxiId(0),
            region: RegionId(0),
            soc: 0.8,
            must_charge: false,
            pe_standing: 40.0,
            actions: ActionSet::full(&[RegionId(1)], &[StationId(0)]),
        };
        assert_eq!(p.decide(&obs(), &[d]), vec![Action::Stay]);
    }

    #[test]
    fn stay_policy_charges_when_forced() {
        let mut p = StayPolicy;
        let d = DecisionContext {
            taxi: TaxiId(0),
            region: RegionId(0),
            soc: 0.1,
            must_charge: true,
            pe_standing: 40.0,
            actions: ActionSet::charge_only(&[StationId(3), StationId(1)]),
        };
        assert_eq!(p.decide(&obs(), &[d]), vec![Action::Charge(StationId(3))]);
    }
}
