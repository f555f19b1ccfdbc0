//! Graceful policy degradation.
//!
//! [`ResilientPolicy`] wraps any [`DisplacementPolicy`] and validates its
//! output every slot: a wrong-length action vector falls back wholesale, an
//! inadmissible action is replaced individually, and a policy reporting
//! unhealthy (non-finite parameters after a diverged update) trips a
//! circuit breaker — from then on the fallback policy drives every slot.
//! All interventions are counted in [`ResilienceStats`] and mirrored to the
//! `resilient.*` telemetry counters, so a bench run can report exactly how
//! often a learned policy needed rescuing under faults.
//!
//! The default fallback is [`StayPolicy`] — the same safe default
//! ([`DecisionContext::default_action`]) that replaces an individual
//! inadmissible action — but any policy works (e.g. TBA as a smarter
//! heuristic floor).

use crate::action::Action;
use crate::env::SlotFeedback;
use crate::observation::{DecisionContext, SlotObservation};
use crate::policy::{DisplacementPolicy, StayPolicy};
use fairmove_telemetry::{Counter, Telemetry};

/// Plain intervention tallies (always on; telemetry mirrors them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Slots answered entirely by the fallback policy (wrong-length output
    /// or tripped circuit breaker).
    pub fallback_slots: u64,
    /// Individual actions replaced because they were inadmissible.
    pub fallback_actions: u64,
    /// Times the circuit breaker tripped on an unhealthy inner policy
    /// (at most 1 per wrapper lifetime — the trip is permanent).
    pub health_trips: u64,
}

struct ResilientMetrics {
    fallback_slots: Counter,
    fallback_actions: Counter,
    health_trips: Counter,
}

/// Wraps `inner`, degrading gracefully to `fallback` on malformed output or
/// ill health. See the module docs.
pub struct ResilientPolicy<P, F = StayPolicy> {
    inner: P,
    fallback: F,
    name: String,
    /// Permanently latched once the inner policy reports unhealthy.
    tripped: bool,
    stats: ResilienceStats,
    metrics: Option<ResilientMetrics>,
}

impl<P: DisplacementPolicy> ResilientPolicy<P, StayPolicy> {
    /// Wraps `inner` with the [`StayPolicy`] fallback.
    pub fn new(inner: P) -> Self {
        Self::with_fallback(inner, StayPolicy)
    }
}

impl<P: DisplacementPolicy, F: DisplacementPolicy> ResilientPolicy<P, F> {
    /// Wraps `inner` with an explicit fallback policy.
    pub fn with_fallback(inner: P, fallback: F) -> Self {
        let name = format!("resilient({})", inner.name());
        ResilientPolicy {
            inner,
            fallback,
            name,
            tripped: false,
            stats: ResilienceStats::default(),
            metrics: None,
        }
    }

    /// Intervention tallies so far.
    #[inline]
    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    /// Whether the circuit breaker has tripped (fallback now drives).
    #[inline]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// The wrapped policy.
    #[inline]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner policy.
    pub fn into_inner(self) -> P {
        self.inner
    }

    fn count_fallback_slot(&mut self) {
        self.stats.fallback_slots += 1;
        if let Some(m) = &self.metrics {
            m.fallback_slots.inc();
        }
    }
}

impl<P: DisplacementPolicy, F: DisplacementPolicy> DisplacementPolicy for ResilientPolicy<P, F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, obs: &SlotObservation, decisions: &[DecisionContext]) -> Vec<Action> {
        if self.tripped {
            self.count_fallback_slot();
            return self.fallback.decide(obs, decisions);
        }
        let mut actions = self.inner.decide(obs, decisions);
        if actions.len() != decisions.len() {
            // A policy that can't even size its answer gets no per-action
            // benefit of the doubt this slot.
            self.count_fallback_slot();
            actions = self.fallback.decide(obs, decisions);
        } else {
            for (ctx, action) in decisions.iter().zip(actions.iter_mut()) {
                if !ctx.actions.contains(*action) {
                    *action = ctx.default_action();
                    self.stats.fallback_actions += 1;
                    if let Some(m) = &self.metrics {
                        m.fallback_actions.inc();
                    }
                }
            }
        }
        // Health is latched *after* deciding: NaN-poisoned networks still
        // emit index-valid actions, so this slot's output is usable, but
        // nothing after it should trust the inner policy again.
        if !self.inner.is_healthy() {
            self.tripped = true;
            self.stats.health_trips += 1;
            if let Some(m) = &self.metrics {
                m.health_trips.inc();
            }
        }
        actions
    }

    fn observe(&mut self, feedback: &SlotFeedback) {
        self.inner.observe(feedback);
        self.fallback.observe(feedback);
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = telemetry.is_enabled().then(|| ResilientMetrics {
            fallback_slots: telemetry.counter("resilient.fallback_slots"),
            fallback_actions: telemetry.counter("resilient.fallback_actions"),
            health_trips: telemetry.counter("resilient.health_trips"),
        });
        self.inner.set_telemetry(telemetry);
        self.fallback.set_telemetry(telemetry);
    }

    fn is_healthy(&self) -> bool {
        // The wrapper is always able to produce admissible actions; the
        // inner policy's health is reported via `tripped()` and stats.
        true
    }

    fn reseed_exploration(&mut self, seed: u64) {
        self.inner.reseed_exploration(seed);
        self.fallback
            .reseed_exploration(seed ^ 0x4641_4c4c_4241_434b); // "FALLBACK"
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

    fn ctx(must_charge: bool) -> DecisionContext {
        DecisionContext {
            taxi: TaxiId(0),
            region: RegionId(0),
            soc: if must_charge { 0.1 } else { 0.8 },
            must_charge,
            pe_standing: 40.0,
            actions: if must_charge {
                ActionSet::charge_only(&[StationId(2)])
            } else {
                ActionSet::full(&[RegionId(1)], &[StationId(0)])
            },
        }
    }

    /// A configurable misbehaving policy.
    struct Mock {
        actions: Vec<Action>,
        healthy: bool,
    }

    impl DisplacementPolicy for Mock {
        fn name(&self) -> &str {
            "mock"
        }
        fn decide(&mut self, _: &SlotObservation, _: &[DecisionContext]) -> Vec<Action> {
            self.actions.clone()
        }
        fn is_healthy(&self) -> bool {
            self.healthy
        }
    }

    #[test]
    fn well_behaved_policies_pass_through_untouched() {
        let inner = Mock {
            actions: vec![Action::MoveTo(RegionId(1))],
            healthy: true,
        };
        let mut p = ResilientPolicy::new(inner);
        let got = p.decide(&obs(), &[ctx(false)]);
        assert_eq!(got, vec![Action::MoveTo(RegionId(1))]);
        assert_eq!(*p.stats(), ResilienceStats::default());
        assert!(!p.tripped());
        assert_eq!(p.name(), "resilient(mock)");
    }

    #[test]
    fn wrong_length_output_falls_back_wholesale() {
        let inner = Mock {
            actions: vec![], // one short
            healthy: true,
        };
        let mut p = ResilientPolicy::new(inner);
        let got = p.decide(&obs(), &[ctx(false)]);
        assert_eq!(got, vec![Action::Stay], "StayPolicy fallback");
        assert_eq!(p.stats().fallback_slots, 1);
        assert_eq!(p.stats().fallback_actions, 0);
    }

    #[test]
    fn inadmissible_actions_are_replaced_individually() {
        let inner = Mock {
            // MoveTo(9) is not in the action set; must-charge context gets
            // a Stay, also inadmissible.
            actions: vec![Action::MoveTo(RegionId(9)), Action::Stay],
            healthy: true,
        };
        let mut p = ResilientPolicy::new(inner);
        let got = p.decide(&obs(), &[ctx(false), ctx(true)]);
        assert_eq!(got[0], Action::Stay);
        assert_eq!(got[1], Action::Charge(StationId(2)), "forced charge");
        assert_eq!(p.stats().fallback_actions, 2);
        assert_eq!(p.stats().fallback_slots, 0);
    }

    #[test]
    fn unhealthy_policy_trips_the_breaker_permanently() {
        let inner = Mock {
            actions: vec![Action::MoveTo(RegionId(1))],
            healthy: false,
        };
        let mut p = ResilientPolicy::new(inner);
        // First slot: output still used (it is admissible), then latch.
        let first = p.decide(&obs(), &[ctx(false)]);
        assert_eq!(first, vec![Action::MoveTo(RegionId(1))]);
        assert!(p.tripped());
        assert_eq!(p.stats().health_trips, 1);
        // Every later slot is the fallback's.
        let later = p.decide(&obs(), &[ctx(false)]);
        assert_eq!(later, vec![Action::Stay]);
        assert_eq!(p.stats().fallback_slots, 1);
        assert_eq!(p.stats().health_trips, 1, "trip counted once");
        assert!(p.is_healthy(), "the wrapper itself stays usable");
    }

    #[test]
    fn telemetry_counts_interventions() {
        let tel = fairmove_telemetry::Telemetry::enabled();
        let inner = Mock {
            actions: vec![],
            healthy: true,
        };
        let mut p = ResilientPolicy::new(inner);
        p.set_telemetry(&tel);
        let _ = p.decide(&obs(), &[ctx(false)]);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("resilient.fallback_slots"), Some(1));
    }

    #[test]
    fn wrapper_works_over_borrowed_policies() {
        let mut inner = Mock {
            actions: vec![Action::Stay],
            healthy: true,
        };
        // The blanket `&mut P` impl lets the wrapper borrow without owning.
        let mut p = ResilientPolicy::new(&mut inner);
        let got = p.decide(&obs(), &[ctx(false)]);
        assert_eq!(got, vec![Action::Stay]);
    }
}
