//! What policies see each slot.
//!
//! The paper's state (Section III-C) splits into a **local view** per taxi —
//! `[time slot, location]` — and a **global view** shared by all taxis in
//! the slot: (i) available e-taxis per region, (ii) unoccupied charging
//! points per station, (iii) expected passengers per region next slot.
//! [`SlotObservation`] is the global view plus tariff context;
//! [`DecisionContext`] is the per-taxi local view plus its admissible
//! action set.

use crate::action::{Action, ActionSet};
use crate::taxi::TaxiId;
use fairmove_city::{RegionId, SimTime, TimeSlot};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Global-view state shared by every decision in a slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotObservation {
    /// Slot start time.
    pub now: SimTime,
    /// Slot-of-day index (`0..144`).
    pub slot: TimeSlot,
    /// Vacant (decision-ready) taxis per region.
    pub vacant_per_region: Vec<u32>,
    /// Unoccupied charging points per station.
    pub free_points_per_station: Vec<u32>,
    /// Queue length per station.
    pub queue_per_station: Vec<u32>,
    /// Taxis currently driving toward each station.
    pub inbound_per_station: Vec<u32>,
    /// Expected passenger arrivals per region next slot (the demand
    /// predictor feature; we use the generating model's intensity, i.e. the
    /// ideal predictor).
    pub predicted_demand: Vec<f64>,
    /// Unserved passengers currently waiting per region.
    pub waiting_per_region: Vec<u32>,
    /// Charging price now, CNY/kWh.
    pub price_now: f64,
    /// Charging price one hour from now, CNY/kWh (lets policies anticipate
    /// band changes).
    pub price_next_hour: f64,
    /// Fleet mean cumulative profit efficiency so far, CNY/h.
    pub mean_pe: f64,
    /// Fleet profit fairness so far (PE variance, Eq. 3).
    pub pf: f64,
}

impl Default for SlotObservation {
    /// An empty observation shell for buffer reuse: every vector is empty
    /// (no allocation) and scalars are zero. [`crate::Environment`] fills it
    /// in place each slot via `observation_into`.
    fn default() -> Self {
        SlotObservation {
            now: SimTime::ZERO,
            slot: TimeSlot(0),
            vacant_per_region: Vec::new(),
            free_points_per_station: Vec::new(),
            queue_per_station: Vec::new(),
            inbound_per_station: Vec::new(),
            predicted_demand: Vec::new(),
            waiting_per_region: Vec::new(),
            price_now: 0.0,
            price_next_hour: 0.0,
            mean_pe: 0.0,
            pf: 0.0,
        }
    }
}

impl SlotObservation {
    /// Demand minus committed supply for `region`: expected passengers next
    /// slot minus vacant taxis already there. Positive means undersupplied.
    pub fn supply_gap(&self, region: RegionId) -> f64 {
        self.predicted_demand[region.index()] + f64::from(self.waiting_per_region[region.index()])
            - f64::from(self.vacant_per_region[region.index()])
    }
}

/// Read access to a slot's global view, satisfied both by the broadcast
/// [`SlotObservation`] and by a dispatcher's [`WorkingObservation`] overlay.
///
/// Featurizers and centralized policies are written against this trait so
/// that folding committed assignments into the view no longer requires
/// cloning the whole observation each slot.
pub trait ObservationView {
    /// Slot start time.
    fn now(&self) -> SimTime;
    /// Slot-of-day index (`0..144`).
    fn slot(&self) -> TimeSlot;
    /// Vacant (decision-ready) taxis per region.
    fn vacant_per_region(&self) -> &[u32];
    /// Unoccupied charging points per station.
    fn free_points_per_station(&self) -> &[u32];
    /// Queue length per station.
    fn queue_per_station(&self) -> &[u32];
    /// Taxis currently driving toward each station.
    fn inbound_per_station(&self) -> &[u32];
    /// Expected passenger arrivals per region next slot.
    fn predicted_demand(&self) -> &[f64];
    /// Unserved passengers currently waiting per region.
    fn waiting_per_region(&self) -> &[u32];
    /// Charging price now, CNY/kWh.
    fn price_now(&self) -> f64;
    /// Charging price one hour from now, CNY/kWh.
    fn price_next_hour(&self) -> f64;
    /// Fleet mean cumulative profit efficiency so far, CNY/h.
    fn mean_pe(&self) -> f64;
    /// Fleet profit fairness so far (PE variance, Eq. 3).
    fn pf(&self) -> f64;

    /// Demand minus committed supply for `region` (see
    /// [`SlotObservation::supply_gap`]).
    fn supply_gap(&self, region: RegionId) -> f64 {
        self.predicted_demand()[region.index()]
            + f64::from(self.waiting_per_region()[region.index()])
            - f64::from(self.vacant_per_region()[region.index()])
    }
}

impl ObservationView for SlotObservation {
    fn now(&self) -> SimTime {
        self.now
    }
    fn slot(&self) -> TimeSlot {
        self.slot
    }
    fn vacant_per_region(&self) -> &[u32] {
        &self.vacant_per_region
    }
    fn free_points_per_station(&self) -> &[u32] {
        &self.free_points_per_station
    }
    fn queue_per_station(&self) -> &[u32] {
        &self.queue_per_station
    }
    fn inbound_per_station(&self) -> &[u32] {
        &self.inbound_per_station
    }
    fn predicted_demand(&self) -> &[f64] {
        &self.predicted_demand
    }
    fn waiting_per_region(&self) -> &[u32] {
        &self.waiting_per_region
    }
    fn price_now(&self) -> f64 {
        self.price_now
    }
    fn price_next_hour(&self) -> f64 {
        self.price_next_hour
    }
    fn mean_pe(&self) -> f64 {
        self.mean_pe
    }
    fn pf(&self) -> f64 {
        self.pf
    }
}

/// A centralized dispatcher's working view of the slot: the broadcast
/// observation plus the assignments it has already committed this slot.
///
/// Only the two count vectors a commit changes (vacant taxis per region,
/// taxis inbound per station) are copy-on-write; everything else, station
/// free points and queues included, is read straight from the base
/// observation. The copy itself only happens for vectors a slot actually
/// touches.
#[derive(Debug, Clone)]
pub struct WorkingObservation<'a> {
    base: &'a SlotObservation,
    vacant_per_region: Cow<'a, [u32]>,
    inbound_per_station: Cow<'a, [u32]>,
}

impl<'a> WorkingObservation<'a> {
    /// A working view over `base` with no commitments yet (no copies made).
    pub fn new(base: &'a SlotObservation) -> Self {
        WorkingObservation {
            base,
            vacant_per_region: Cow::Borrowed(&base.vacant_per_region),
            inbound_per_station: Cow::Borrowed(&base.inbound_per_station),
        }
    }

    /// Mutable vacant counts (first call copies the vector).
    pub fn vacant_per_region_mut(&mut self) -> &mut Vec<u32> {
        self.vacant_per_region.to_mut()
    }

    /// Mutable inbound counts (first call copies the vector).
    pub fn inbound_per_station_mut(&mut self) -> &mut Vec<u32> {
        self.inbound_per_station.to_mut()
    }

    /// Materializes the working view as a standalone observation
    /// (equivalence tests compare this against a mutated clone).
    pub fn to_observation(&self) -> SlotObservation {
        SlotObservation {
            vacant_per_region: self.vacant_per_region.to_vec(),
            inbound_per_station: self.inbound_per_station.to_vec(),
            ..self.base.clone()
        }
    }
}

impl ObservationView for WorkingObservation<'_> {
    fn now(&self) -> SimTime {
        self.base.now
    }
    fn slot(&self) -> TimeSlot {
        self.base.slot
    }
    fn vacant_per_region(&self) -> &[u32] {
        &self.vacant_per_region
    }
    fn free_points_per_station(&self) -> &[u32] {
        &self.base.free_points_per_station
    }
    fn queue_per_station(&self) -> &[u32] {
        &self.base.queue_per_station
    }
    fn inbound_per_station(&self) -> &[u32] {
        &self.inbound_per_station
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

/// Per-taxi local view for one displacement decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionContext {
    /// The deciding taxi.
    pub taxi: TaxiId,
    /// Its current region.
    pub region: RegionId,
    /// Its state of charge, `[0, 1]`.
    pub soc: f64,
    /// Whether the battery is below the threshold `η` (only charge actions
    /// are admissible).
    pub must_charge: bool,
    /// This taxi's cumulative profit efficiency so far, CNY/h — the input
    /// that lets a *shared* fairness-aware policy treat an under-earning
    /// taxi differently from an over-earning one.
    pub pe_standing: f64,
    /// The admissible actions, canonical order.
    pub actions: ActionSet,
}

impl DecisionContext {
    /// The safe default action: the nearest charge action when charging is
    /// forced, otherwise `Stay`. A must-charge context carries charge
    /// actions unless the world has no stations at all; there the default
    /// degrades to `Stay` rather than indexing out of bounds.
    pub fn default_action(&self) -> Action {
        if self.must_charge {
            self.actions
                .charge_actions()
                .first()
                .copied()
                .unwrap_or(Action::Stay)
        } else {
            Action::Stay
        }
    }

    /// `action` if it is admissible here, otherwise
    /// [`Self::default_action`].
    pub fn sanitize(&self, action: Action) -> Action {
        if self.actions.contains(action) {
            action
        } else {
            self.default_action()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmove_city::StationId;

    #[test]
    fn supply_gap_combines_demand_and_supply() {
        let obs = SlotObservation {
            now: SimTime::ZERO,
            slot: TimeSlot(0),
            vacant_per_region: vec![3, 0],
            free_points_per_station: vec![],
            queue_per_station: vec![],
            inbound_per_station: vec![],
            predicted_demand: vec![5.0, 1.0],
            waiting_per_region: vec![2, 0],
            price_now: 0.9,
            price_next_hour: 1.2,
            mean_pe: 40.0,
            pf: 0.0,
        };
        // Region 0: 5 predicted + 2 waiting - 3 vacant = 4.
        assert!((obs.supply_gap(RegionId(0)) - 4.0).abs() < 1e-12);
        // Region 1: 1 + 0 - 0 = 1.
        assert!((obs.supply_gap(RegionId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn working_observation_starts_borrowed_and_copies_on_write() {
        let base = SlotObservation {
            now: SimTime::ZERO,
            slot: TimeSlot(0),
            vacant_per_region: vec![3, 1],
            free_points_per_station: vec![2],
            queue_per_station: vec![0],
            inbound_per_station: vec![0],
            predicted_demand: vec![5.0, 1.0],
            waiting_per_region: vec![2, 0],
            price_now: 0.9,
            price_next_hour: 1.2,
            mean_pe: 40.0,
            pf: 0.0,
        };
        let mut work = WorkingObservation::new(&base);
        // Untouched: reads mirror the base exactly.
        assert_eq!(work.vacant_per_region(), base.vacant_per_region.as_slice());
        assert_eq!(
            ObservationView::supply_gap(&work, RegionId(0)),
            base.supply_gap(RegionId(0))
        );
        // Mutate one vector; the base stays untouched and the others stay
        // borrowed views of it.
        work.vacant_per_region_mut()[0] -= 1;
        work.inbound_per_station_mut()[0] += 1;
        assert_eq!(work.vacant_per_region(), &[2, 1]);
        assert_eq!(base.vacant_per_region, vec![3, 1]);
        assert_eq!(work.inbound_per_station(), &[1]);
        assert_eq!(base.inbound_per_station, vec![0]);
        assert_eq!(work.queue_per_station(), base.queue_per_station.as_slice());
    }

    #[test]
    fn working_observation_materializes_like_a_mutated_clone() {
        let base = SlotObservation {
            now: SimTime::from_dhm(0, 8, 0),
            slot: TimeSlot(48),
            vacant_per_region: vec![4, 2, 0],
            free_points_per_station: vec![2, 1],
            queue_per_station: vec![1, 0],
            inbound_per_station: vec![0, 3],
            predicted_demand: vec![1.0, 2.0, 3.0],
            waiting_per_region: vec![0, 1, 2],
            price_now: 1.2,
            price_next_hour: 0.9,
            mean_pe: 38.5,
            pf: 12.0,
        };
        // Reference path: clone and mutate the whole observation.
        let mut clone = base.clone();
        clone.vacant_per_region[1] += 1;
        clone.inbound_per_station[0] += 1;
        // COW path: same mutations through the working view.
        let mut work = WorkingObservation::new(&base);
        work.vacant_per_region_mut()[1] += 1;
        work.inbound_per_station_mut()[0] += 1;
        let materialized = work.to_observation();
        assert_eq!(materialized.vacant_per_region, clone.vacant_per_region);
        assert_eq!(materialized.queue_per_station, clone.queue_per_station);
        assert_eq!(materialized.inbound_per_station, clone.inbound_per_station);
        assert_eq!(materialized.predicted_demand, clone.predicted_demand);
        assert_eq!(
            ObservationView::supply_gap(&work, RegionId(1)),
            clone.supply_gap(RegionId(1))
        );
    }

    #[test]
    fn sanitize_passes_admissible_actions_and_defaults_the_rest() {
        let (near, far) = (StationId(3), StationId(7));
        let ctx = |must_charge: bool, actions: ActionSet| DecisionContext {
            taxi: TaxiId(0),
            region: RegionId(0),
            soc: if must_charge { 0.05 } else { 0.6 },
            must_charge,
            pe_standing: 40.0,
            actions,
        };
        let free = ctx(false, ActionSet::full(&[RegionId(1)], &[near, far]));
        let forced = ctx(true, ActionSet::charge_only(&[near, far]));
        let to_neighbor = Action::MoveTo(RegionId(1));
        // (context, proposed action, sanitized action)
        let table = [
            (&free, to_neighbor, to_neighbor),
            (&free, Action::Charge(far), Action::Charge(far)),
            (&forced, Action::Charge(far), Action::Charge(far)),
            (&forced, Action::Stay, Action::Charge(near)),
            (&forced, to_neighbor, Action::Charge(near)),
            (&free, Action::MoveTo(RegionId(9)), Action::Stay),
            (&free, Action::Charge(StationId(9)), Action::Stay),
        ];
        for (ctx, proposed, expected) in table {
            assert_eq!(ctx.sanitize(proposed), expected, "{proposed:?}");
        }
        assert_eq!(free.default_action(), Action::Stay);
        assert_eq!(forced.default_action(), Action::Charge(near));
    }

    #[test]
    fn decision_context_carries_action_set() {
        let ctx = DecisionContext {
            taxi: TaxiId(0),
            region: RegionId(2),
            soc: 0.5,
            must_charge: false,
            pe_standing: 40.0,
            actions: ActionSet::full(&[RegionId(1)], &[]),
        };
        assert!(ctx.actions.contains(Action::Stay));
        assert!(ctx.actions.contains(Action::MoveTo(RegionId(1))));
    }
}
