//! Displacement actions (the paper's action space, Section III-C).
//!
//! Three action types: (i) stay in the current region, (ii) move to an
//! adjacent region, (iii) charge at one of the five nearest stations. The
//! per-taxi action set varies with the taxi's region (different neighbour
//! counts) and battery state (below the threshold `η` only charging actions
//! remain).

use fairmove_city::{RegionId, StationId};
use serde::{Deserialize, Serialize};

/// One displacement decision for one vacant taxi.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Remain in the current region and keep cruising for passengers.
    Stay,
    /// Cruise to an adjacent region.
    MoveTo(RegionId),
    /// Drive to a charging station and charge.
    Charge(StationId),
}

/// The admissible actions for one taxi in one slot, in canonical order:
/// `Stay`, then `MoveTo` per neighbour (ascending region id), then `Charge`
/// per candidate station (nearest first). RL agents index actions by
/// position in this list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionSet {
    actions: Vec<Action>,
    /// Number of leading non-charge actions (`Stay` + `MoveTo`s); 0 when
    /// charging is forced.
    n_movement: usize,
}

impl ActionSet {
    /// Builds the full action set for a taxi free to move or charge.
    pub fn full(neighbors: &[RegionId], stations: &[StationId]) -> Self {
        let mut actions = Vec::with_capacity(1 + neighbors.len() + stations.len());
        actions.push(Action::Stay);
        actions.extend(neighbors.iter().map(|&r| Action::MoveTo(r)));
        let n_movement = actions.len();
        actions.extend(stations.iter().map(|&s| Action::Charge(s)));
        ActionSet {
            actions,
            n_movement,
        }
    }

    /// The stay-only set `[Stay]`, with room for `n` actions: the seed of a
    /// pooled set that is rebuilt in place and must never reallocate.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut actions = Vec::with_capacity(n.max(1));
        actions.push(Action::Stay);
        ActionSet {
            actions,
            n_movement: 1,
        }
    }

    /// Builds the restricted set for a taxi that must charge (`soc < η`).
    pub fn charge_only(stations: &[StationId]) -> Self {
        assert!(!stations.is_empty(), "must-charge taxi needs stations");
        ActionSet {
            actions: stations.iter().map(|&s| Action::Charge(s)).collect(),
            n_movement: 0,
        }
    }

    /// Ensures the backing buffer can hold at least `n` actions without
    /// growing. The simulator reserves every pooled set to the city-wide
    /// maximum action count up front, so rebuilding a set for a
    /// better-connected region never reallocates mid-run.
    pub fn reserve(&mut self, n: usize) {
        self.actions.reserve(n.saturating_sub(self.actions.len()));
    }

    /// Rebuilds `self` in place as the full action set, reusing the backing
    /// allocation. Equivalent to `*self = ActionSet::full(..)` but
    /// allocation-free once the buffer has grown to its steady-state size
    /// (the hot path reuses pooled [`crate::observation::DecisionContext`]s
    /// across slots).
    pub fn rebuild_full(&mut self, neighbors: &[RegionId], stations: &[StationId]) {
        self.actions.clear();
        self.actions.push(Action::Stay);
        self.actions
            .extend(neighbors.iter().map(|&r| Action::MoveTo(r)));
        self.n_movement = self.actions.len();
        self.actions
            .extend(stations.iter().map(|&s| Action::Charge(s)));
    }

    /// Rebuilds `self` in place as the must-charge set, reusing the backing
    /// allocation. Equivalent to `*self = ActionSet::charge_only(..)`.
    pub fn rebuild_charge_only(&mut self, stations: &[StationId]) {
        assert!(!stations.is_empty(), "must-charge taxi needs stations");
        self.actions.clear();
        self.actions
            .extend(stations.iter().map(|&s| Action::Charge(s)));
        self.n_movement = 0;
    }

    /// All admissible actions in canonical order.
    #[inline]
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of admissible actions.
    #[inline]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the set is empty (never true for well-formed sets).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Whether charging is the only option.
    #[inline]
    pub fn charge_forced(&self) -> bool {
        self.n_movement == 0
    }

    /// The action at canonical index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn action(&self, i: usize) -> Action {
        self.actions[i]
    }

    /// The canonical index of `a`, if admissible.
    pub fn index_of(&self, a: Action) -> Option<usize> {
        self.actions.iter().position(|&x| x == a)
    }

    /// Whether `a` is admissible.
    #[inline]
    pub fn contains(&self, a: Action) -> bool {
        self.index_of(a).is_some()
    }

    /// The charge actions (tail of the canonical order).
    #[inline]
    pub fn charge_actions(&self) -> &[Action] {
        &self.actions[self.n_movement..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neighbors() -> Vec<RegionId> {
        vec![RegionId(1), RegionId(4), RegionId(9)]
    }

    fn stations() -> Vec<StationId> {
        vec![StationId(2), StationId(0)]
    }

    #[test]
    fn full_set_canonical_order() {
        let s = ActionSet::full(&neighbors(), &stations());
        assert_eq!(s.len(), 6);
        assert_eq!(s.action(0), Action::Stay);
        assert_eq!(s.action(1), Action::MoveTo(RegionId(1)));
        assert_eq!(s.action(3), Action::MoveTo(RegionId(9)));
        assert_eq!(s.action(4), Action::Charge(StationId(2)));
        assert_eq!(s.action(5), Action::Charge(StationId(0)));
        assert!(!s.charge_forced());
    }

    #[test]
    fn charge_only_forces() {
        let s = ActionSet::charge_only(&stations());
        assert_eq!(s.len(), 2);
        assert!(s.charge_forced());
        assert!(s.actions().iter().all(|a| matches!(a, Action::Charge(_))));
    }

    #[test]
    #[should_panic(expected = "must-charge taxi needs stations")]
    fn charge_only_requires_stations() {
        let _ = ActionSet::charge_only(&[]);
    }

    #[test]
    fn index_round_trips() {
        let s = ActionSet::full(&neighbors(), &stations());
        for i in 0..s.len() {
            assert_eq!(s.index_of(s.action(i)), Some(i));
        }
        assert_eq!(s.index_of(Action::MoveTo(RegionId(99))), None);
    }

    #[test]
    fn contains_checks_membership() {
        let s = ActionSet::full(&neighbors(), &stations());
        assert!(s.contains(Action::Stay));
        assert!(s.contains(Action::Charge(StationId(0))));
        assert!(!s.contains(Action::Charge(StationId(7))));
    }

    #[test]
    fn charge_actions_are_the_tail() {
        let s = ActionSet::full(&neighbors(), &stations());
        assert_eq!(
            s.charge_actions(),
            &[Action::Charge(StationId(2)), Action::Charge(StationId(0))]
        );
        let c = ActionSet::charge_only(&stations());
        assert_eq!(c.charge_actions().len(), 2);
    }

    #[test]
    fn rebuild_matches_constructors() {
        // Start from the "wrong" shape each time to prove rebuild fully
        // overwrites prior state.
        let mut s = ActionSet::charge_only(&stations());
        s.rebuild_full(&neighbors(), &stations());
        assert_eq!(s, ActionSet::full(&neighbors(), &stations()));

        s.rebuild_charge_only(&stations());
        assert_eq!(s, ActionSet::charge_only(&stations()));

        s.rebuild_full(&[], &[]);
        assert_eq!(s, ActionSet::full(&[], &[]));
    }

    #[test]
    #[should_panic(expected = "must-charge taxi needs stations")]
    fn rebuild_charge_only_requires_stations() {
        let mut s = ActionSet::full(&neighbors(), &stations());
        s.rebuild_charge_only(&[]);
    }

    #[test]
    fn stay_only_set_is_valid() {
        let s = ActionSet::full(&[], &[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.action(0), Action::Stay);
        assert!(!s.charge_forced());
    }

    #[test]
    fn with_capacity_is_the_stay_only_set_with_room() {
        let mut s = ActionSet::with_capacity(8);
        assert_eq!(s, ActionSet::full(&[], &[]));
        let buf = s.actions().as_ptr();
        s.rebuild_full(&neighbors(), &stations());
        assert_eq!(s, ActionSet::full(&neighbors(), &stations()));
        assert_eq!(s.actions().as_ptr(), buf, "rebuild within capacity moved");
    }
}
