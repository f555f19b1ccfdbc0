//! Deterministic cross-shard handoff of travelling taxis.
//!
//! A taxi that departs on a trip, a displacement move, or a charge excursion
//! leaves its shard's store entirely and becomes an [`InFlight`] record
//! carrying the taxi's full payload. Records wait in the central
//! [`DeliverySchedule`], keyed by arrival slot, and are delivered to the
//! destination's owning shard at that slot's boundary.
//!
//! Determinism contract: each arrival slot's batch is independent of the
//! shard layout **as a multiset**, and every consumer is insensitive to the
//! batch's insertion order:
//!
//! 1. departures are committed serially by concatenating shard outboxes in
//!    shard-id order, so the *content* of each batch — which flights exist,
//!    with which payloads — depends only on region- and station-local state
//!    that is itself layout-invariant. The insertion order *within* a batch
//!    may differ across layouts (a shard's outbox interleaves phase-A balk
//!    redirects with phase-C departures for all its regions), which is fine
//!    because
//! 2. deliveries are handed to each shard sorted by `(arrival kind, taxi
//!    id)` — the canonical application order — and the digest/ledger paths
//!    index flights by taxi id, never by batch position.

use super::store::TaxiRow;

/// What the taxi does on arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArrivalKind {
    /// Drop off / finish the move and go vacant in `region` (global id).
    BecomeVacant { region: u16 },
    /// Join `station` (global id): plug in if a point is free, else queue.
    JoinStation { station: u16 },
}

/// A taxi in transit between slot boundaries, carrying its full payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlight {
    /// The taxi's complete ledger payload.
    pub row: TaxiRow,
    /// What happens at the destination.
    pub arrival: ArrivalKind,
    /// Shard that emitted the departure (for the handoff counter only —
    /// never consulted for ordering, which must stay layout-independent).
    pub from_shard: u32,
    /// Station-to-station balk redirects already taken on this excursion
    /// (bounded by the engine's `MAX_REDIRECTS`; always 0 for non-charging
    /// flights). Not part of the inbox sort key.
    pub redirects: u8,
}

/// Central calendar of in-flight taxis, keyed by absolute arrival slot.
///
/// The schedule is engine-global (not per shard): commit appends to it
/// serially in canonical order, and slot start delivers one key. A taxi is
/// therefore owned by exactly one place at any time — a shard store or this
/// schedule — and rebalancing the shard map between runs cannot reorder it.
///
/// Records live in one slab: each pending arrival slot is a linked list of
/// slab indices in insertion order, and a delivered record's index goes on
/// a free list for the next push. The slab holds at most one record per
/// taxi, so [`Self::with_capacity`] for the fleet size means pushing and
/// delivering never allocate, and memory tracks the taxis actually in
/// flight rather than per-slot buffers.
#[derive(Debug, Clone)]
pub struct DeliverySchedule {
    /// Record storage, by index.
    slab: Vec<InFlight>,
    /// Per slab index: the next index of the same list (an arrival slot's,
    /// or the free list), [`NIL`] at the end.
    next: Vec<u32>,
    /// First index of the free list.
    free: u32,
    /// Pending arrival slots, descending, so the due ones sit at the tail.
    by_slot: Vec<SlotList>,
    in_flight: usize,
}

/// End of a slab list.
const NIL: u32 = u32::MAX;

/// One arrival slot's records: a slab list in insertion order.
#[derive(Debug, Clone, Copy)]
struct SlotList {
    slot: u32,
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for DeliverySchedule {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl DeliverySchedule {
    /// An empty schedule with room for `taxis` records before it grows.
    pub fn with_capacity(taxis: usize) -> Self {
        DeliverySchedule {
            slab: Vec::with_capacity(taxis),
            next: Vec::with_capacity(taxis),
            free: NIL,
            by_slot: Vec::new(),
            in_flight: 0,
        }
    }

    /// Schedules `flight` to arrive at absolute slot `arrival_slot`.
    pub fn push(&mut self, arrival_slot: u32, flight: InFlight) {
        let idx = if self.free == NIL {
            self.slab.push(flight);
            self.next.push(NIL);
            (self.slab.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.next[idx as usize];
            self.slab[idx as usize] = flight;
            self.next[idx as usize] = NIL;
            idx
        };
        // Slots descend along `by_slot`: find the list, or where it goes.
        match self
            .by_slot
            .binary_search_by(|list| arrival_slot.cmp(&list.slot))
        {
            Ok(at) => {
                let list = &mut self.by_slot[at];
                self.next[list.tail as usize] = idx;
                list.tail = idx;
                list.len += 1;
            }
            Err(at) => self.by_slot.insert(
                at,
                SlotList {
                    slot: arrival_slot,
                    head: idx,
                    tail: idx,
                    len: 1,
                },
            ),
        }
        self.in_flight += 1;
    }

    /// Removes every record due at `slot` and hands each to `f`, in
    /// ascending slot then insertion order (arrivals scheduled for earlier
    /// slots are due too, defensively — with slot-by-slot stepping the
    /// earliest key always equals `slot`). Their slab indices are freed.
    pub fn drain_due(&mut self, slot: u32, mut f: impl FnMut(InFlight)) {
        while self.by_slot.last().is_some_and(|l| l.slot <= slot) {
            let list = self.by_slot.pop().expect("list just observed");
            self.visit(&list, |flight| f(*flight));
            self.next[list.tail as usize] = self.free;
            self.free = list.head;
            self.in_flight -= list.len;
        }
    }

    /// Number of taxis currently in transit.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Visits every in-flight record (ascending slot, then insertion order).
    /// Insertion order within a slot is *not* layout-canonical — callers
    /// must key whatever they accumulate by taxi id (as the engine digest
    /// and ledger do), never by visit position.
    pub fn for_each(&self, mut f: impl FnMut(u32, &InFlight)) {
        for list in self.by_slot.iter().rev() {
            self.visit(list, |flight| f(list.slot, flight));
        }
    }

    /// Walks `list` in insertion order.
    fn visit(&self, list: &SlotList, mut f: impl FnMut(&InFlight)) {
        let mut idx = list.head;
        for _ in 0..list.len {
            f(&self.slab[idx as usize]);
            idx = self.next[idx as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight(id: u32) -> InFlight {
        InFlight {
            row: TaxiRow {
                id,
                soc: 0.7,
                revenue: 0.0,
                cost: 0.0,
                trips: 0,
                moves: 0,
                charges: 0,
            },
            arrival: ArrivalKind::BecomeVacant { region: 0 },
            from_shard: 0,
            redirects: 0,
        }
    }

    fn drain(sched: &mut DeliverySchedule, slot: u32) -> Vec<u32> {
        let mut ids = Vec::new();
        sched.drain_due(slot, |f| ids.push(f.row.id));
        ids
    }

    #[test]
    fn drain_returns_only_due_slots_in_order() {
        let mut sched = DeliverySchedule::default();
        sched.push(5, flight(1));
        sched.push(3, flight(2));
        sched.push(3, flight(3));
        sched.push(9, flight(4));
        assert_eq!(sched.in_flight(), 4);

        assert_eq!(drain(&mut sched, 4), [2, 3]);
        assert_eq!(sched.in_flight(), 2);

        assert_eq!(drain(&mut sched, 5), [1]);
        assert!(drain(&mut sched, 8).is_empty());
        assert_eq!(drain(&mut sched, 9), [4]);
        assert_eq!(sched.in_flight(), 0);
    }

    #[test]
    fn for_each_visits_ascending_slots_then_insertion_order() {
        let mut sched = DeliverySchedule::default();
        for (slot, id) in [(7, 1), (2, 2), (7, 3), (4, 4), (2, 5), (9, 6), (4, 7)] {
            sched.push(slot, flight(id));
        }
        let mut seen = Vec::new();
        sched.for_each(|slot, f| seen.push((slot, f.row.id)));
        assert_eq!(
            seen,
            [(2, 2), (2, 5), (4, 4), (4, 7), (7, 1), (7, 3), (9, 6)]
        );
    }

    #[test]
    fn delivered_indices_are_reused_within_capacity() {
        let mut sched = DeliverySchedule::with_capacity(8);
        for round in 0..50u32 {
            for id in 0..8 {
                sched.push(round + 1 + id % 3, flight(id));
            }
            let mut due = drain(&mut sched, round + 1);
            due.extend(drain(&mut sched, round + 2));
            due.extend(drain(&mut sched, round + 3));
            due.sort_unstable();
            assert_eq!(due, (0..8).collect::<Vec<_>>(), "round {round}");
            assert_eq!(sched.in_flight(), 0);
        }
        // At most eight records were ever in flight at once.
        assert_eq!(sched.slab.capacity(), 8);
        assert_eq!(sched.slab.len(), 8);
    }

    #[test]
    fn arrival_kind_orders_vacant_before_station() {
        // The per-shard inbox sort key relies on this ordering being stable.
        assert!(ArrivalKind::BecomeVacant { region: 9 } < ArrivalKind::JoinStation { station: 0 });
    }
}
