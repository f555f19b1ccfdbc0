//! Struct-of-arrays taxi and station stores for one shard.
//!
//! A shard's [`TaxiStore`] holds only the taxis *present* in the shard —
//! vacant in an owned region, queued at an owned station, or plugged into
//! one. Taxis travelling between regions live in the central
//! [`DeliverySchedule`](super::handoff::DeliverySchedule) as payload-carrying
//! [`InFlight`](super::handoff::InFlight) records, so a taxi is never aliased
//! by two shards.
//!
//! Layout is struct-of-arrays: each logical column (`soc`, `revenue`, …) is
//! its own `Vec`, indexed by a dense row number. Rows are removed by
//! swap-remove across every column; `row_of` maps taxi id → row through a
//! dense id-indexed `Vec` (no hashing; one `u32` per fleet id, ~80 KB per
//! shard at paper scale). Columns stay cache-friendly for the hot per-slot
//! scans (idle drain, digesting) without paying per-taxi pointer chasing.

use std::collections::VecDeque;

/// `row_of` entry of a taxi that is not present in the store.
const ABSENT: u32 = u32::MAX;

/// One taxi's portable payload: everything that must travel with the vehicle
/// when it crosses a shard boundary. Field order here is the canonical
/// serialization order used by the engine digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaxiRow {
    /// Fleet-wide taxi id (dense, `0..fleet_size`).
    pub id: u32,
    /// State of charge, fraction of battery capacity.
    pub soc: f64,
    /// Cumulative fare revenue, yuan.
    pub revenue: f64,
    /// Cumulative charging cost, yuan.
    pub cost: f64,
    /// Completed passenger trips.
    pub trips: u32,
    /// Completed displacement moves.
    pub moves: u32,
    /// Completed charge sessions.
    pub charges: u32,
}

/// Struct-of-arrays store over the taxis currently present in one shard.
#[derive(Debug, Default, Clone)]
pub struct TaxiStore {
    ids: Vec<u32>,
    soc: Vec<f64>,
    revenue: Vec<f64>,
    cost: Vec<f64>,
    trips: Vec<u32>,
    moves: Vec<u32>,
    charges: Vec<u32>,
    /// Row of each taxi by global id, [`ABSENT`] when the taxi is elsewhere.
    /// Grows on insert, so an empty store needs no fleet size.
    row_of: Vec<u32>,
}

impl TaxiStore {
    /// Number of taxis present.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no taxis are present.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Inserts a taxi's payload, returning its row.
    ///
    /// # Panics
    /// Panics (via `debug_assert`) if the taxi is already present; in release
    /// builds the old row is left in place and a fresh row is appended, which
    /// the engine's invariant auditor will flag through the digest.
    pub fn insert(&mut self, row: TaxiRow) -> usize {
        debug_assert!(self.row(row.id).is_none(), "taxi {} inserted twice", row.id);
        let slot = row.id as usize;
        if slot >= self.row_of.len() {
            self.row_of.resize(slot + 1, ABSENT);
        }
        let idx = self.ids.len();
        self.ids.push(row.id);
        self.soc.push(row.soc);
        self.revenue.push(row.revenue);
        self.cost.push(row.cost);
        self.trips.push(row.trips);
        self.moves.push(row.moves);
        self.charges.push(row.charges);
        self.row_of[slot] = idx as u32;
        idx
    }

    /// Row of taxi `id`, if present.
    #[inline]
    fn row(&self, id: u32) -> Option<usize> {
        match self.row_of.get(id as usize) {
            Some(&idx) if idx != ABSENT => Some(idx as usize),
            _ => None,
        }
    }

    /// Row of taxi `id`.
    ///
    /// # Panics
    /// Panics if the taxi is not present (engine-internal misuse).
    #[inline]
    fn row_present(&self, id: u32) -> usize {
        self.row(id)
            .unwrap_or_else(|| panic!("taxi {id} not present in this store"))
    }

    /// Removes a taxi by id, returning its payload (swap-remove on every
    /// column). Returns `None` if the taxi is not present.
    pub fn remove(&mut self, id: u32) -> Option<TaxiRow> {
        let idx = self.row(id)?;
        self.row_of[id as usize] = ABSENT;
        let row = TaxiRow {
            id: self.ids.swap_remove(idx),
            soc: self.soc.swap_remove(idx),
            revenue: self.revenue.swap_remove(idx),
            cost: self.cost.swap_remove(idx),
            trips: self.trips.swap_remove(idx),
            moves: self.moves.swap_remove(idx),
            charges: self.charges.swap_remove(idx),
        };
        if idx < self.ids.len() {
            // The former last row moved into `idx`; repoint its id.
            self.row_of[self.ids[idx] as usize] = idx as u32;
        }
        Some(row)
    }

    /// Copies out a taxi's payload without removing it.
    pub fn get(&self, id: u32) -> Option<TaxiRow> {
        let idx = self.row(id)?;
        Some(TaxiRow {
            id: self.ids[idx],
            soc: self.soc[idx],
            revenue: self.revenue[idx],
            cost: self.cost[idx],
            trips: self.trips[idx],
            moves: self.moves[idx],
            charges: self.charges[idx],
        })
    }

    /// State of charge of taxi `id`.
    ///
    /// # Panics
    /// Panics if the taxi is not present (engine-internal misuse).
    pub fn soc(&self, id: u32) -> f64 {
        self.soc[self.row_present(id)]
    }

    /// Drains `kwh_fraction` (already normalized by battery capacity) from
    /// taxi `id`'s charge, clamping at zero.
    pub fn drain_soc(&mut self, id: u32, soc_drop: f64) {
        let idx = self.row_present(id);
        self.soc[idx] = (self.soc[idx] - soc_drop).max(0.0);
    }

    /// Sets taxi `id`'s state of charge (after a charge session completes).
    pub fn set_soc(&mut self, id: u32, soc: f64) {
        let idx = self.row_present(id);
        self.soc[idx] = soc;
    }

    /// Credits a completed charge session: charging cost plus session count.
    pub fn credit_charge(&mut self, id: u32, session_cost: f64) {
        let idx = self.row_present(id);
        self.cost[idx] += session_cost;
        self.charges[idx] += 1;
    }

    /// Per-taxi ids in row order (unsorted; used for whole-store sweeps).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Writes each resident taxi's profit efficiency — `(revenue − cost) /
    /// hours`, the paper's per-driver Eq. 3 term — into the fleet-indexed
    /// buffer `out[id]`. Indexing by id makes the fill order irrelevant, so
    /// the caller's canonical-order reduction is layout-invariant.
    pub fn profit_efficiencies_into(&self, hours: f64, out: &mut [f64]) {
        for idx in 0..self.ids.len() {
            out[self.ids[idx] as usize] = (self.revenue[idx] - self.cost[idx]) / hours;
        }
    }

    /// Copies every resident payload into `out` (row order, unsorted).
    pub fn rows_into(&self, out: &mut Vec<TaxiRow>) {
        out.reserve(self.ids.len());
        for idx in 0..self.ids.len() {
            out.push(TaxiRow {
                id: self.ids[idx],
                soc: self.soc[idx],
                revenue: self.revenue[idx],
                cost: self.cost[idx],
                trips: self.trips[idx],
                moves: self.moves[idx],
                charges: self.charges[idx],
            });
        }
    }
}

/// Struct-of-arrays store over the charging stations owned by one shard.
///
/// Columns are indexed by a shard-local station slot; `station_ids` maps the
/// slot back to the global [`StationId`](fairmove_city::StationId) index.
#[derive(Debug, Default, Clone)]
pub struct StationStore {
    /// Global station index per local slot, ascending.
    pub station_ids: Vec<u16>,
    /// Fast-charging points per station.
    pub points: Vec<u32>,
    /// FIFO queue of taxis waiting for a free point, with join minutes.
    pub queue: Vec<VecDeque<QueueEntry>>,
    /// Active sessions: `(taxi id, finish minute, target soc, session cost)`,
    /// in plug-in order.
    pub charging: Vec<Vec<ChargeSession>>,
}

/// One queued taxi: the id plus the absolute minute it joined, so the
/// patience sweep can age the queue without a side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueEntry {
    /// Queued taxi id.
    pub taxi: u32,
    /// Absolute minute the taxi joined the queue.
    pub joined_minute: u32,
}

/// One active charge session at a station point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeSession {
    /// Taxi occupying the point.
    pub taxi: u32,
    /// Absolute minute at which the session completes.
    pub finish_minute: u32,
    /// State of charge when the session completes.
    pub target_soc: f64,
    /// Total session cost (time-of-use priced at plug-in time), yuan.
    pub cost: f64,
}

impl StationStore {
    /// Registers an owned station, keeping `station_ids` ascending.
    ///
    /// # Panics
    /// Panics if stations are pushed out of ascending global order — the
    /// shard map builds stores in station-id order, and slot order doubles as
    /// the canonical maintenance order.
    pub fn push_station(&mut self, station_id: u16, points: u32) {
        if let Some(&last) = self.station_ids.last() {
            assert!(last < station_id, "stations must be added in id order");
        }
        self.station_ids.push(station_id);
        self.points.push(points);
        self.queue.push(VecDeque::new());
        // A station never charges more taxis than it has points.
        self.charging.push(Vec::with_capacity(points as usize));
    }

    /// Shard-local slot of global station `station_id`, if owned here.
    pub fn slot_of(&self, station_id: u16) -> Option<usize> {
        self.station_ids.binary_search(&station_id).ok()
    }

    /// Number of stations owned.
    pub fn len(&self) -> usize {
        self.station_ids.len()
    }

    /// True when the shard owns no stations.
    pub fn is_empty(&self) -> bool {
        self.station_ids.is_empty()
    }

    /// Free charging points at local slot `slot`.
    pub fn free_points(&self, slot: usize) -> u32 {
        self.points[slot].saturating_sub(self.charging[slot].len() as u32)
    }

    /// Appends `taxi` to local station `slot`'s FIFO queue at `minute`.
    ///
    /// Join minutes are non-decreasing along the queue because the engine
    /// only enqueues at the current slot's time — the patience sweep relies
    /// on this to stop at the first fresh entry.
    pub fn join_queue(&mut self, slot: usize, taxi: u32, minute: u32) {
        debug_assert!(
            self.queue[slot]
                .back()
                .is_none_or(|e| e.joined_minute <= minute),
            "queue join minutes must be non-decreasing"
        );
        self.queue[slot].push_back(QueueEntry {
            taxi,
            joined_minute: minute,
        });
    }

    /// Pops every queue entry at local station `slot` that has waited at
    /// least `patience` minutes as of `now_minute`, appending the abandoning
    /// taxi ids to `out` in FIFO order.
    ///
    /// Because join minutes are non-decreasing, expired entries form a
    /// prefix: the sweep is exact, not heuristic, and an empty (or freshly
    /// drained) queue is a no-op.
    pub fn abandon_expired(
        &mut self,
        slot: usize,
        now_minute: u32,
        patience: u32,
        out: &mut Vec<u32>,
    ) {
        while let Some(front) = self.queue[slot].front() {
            if now_minute.saturating_sub(front.joined_minute) < patience {
                break;
            }
            let e = self.queue[slot].pop_front().expect("front just observed");
            out.push(e.taxi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u32) -> TaxiRow {
        TaxiRow {
            id,
            soc: 0.5 + id as f64 * 0.01,
            revenue: 0.0,
            cost: 0.0,
            trips: 0,
            moves: 0,
            charges: 0,
        }
    }

    #[test]
    fn insert_remove_roundtrips_through_swap_remove() {
        let mut store = TaxiStore::default();
        for id in 0..10 {
            store.insert(row(id));
        }
        // Remove from the middle: row 3 is backfilled by row 9.
        let r = store.remove(3).unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(store.len(), 9);
        // Every remaining taxi is still addressable with its own payload.
        for id in (0..10).filter(|&i| i != 3) {
            assert_eq!(store.get(id).unwrap().id, id);
            assert!((store.soc(id) - (0.5 + id as f64 * 0.01)).abs() < 1e-12);
        }
        assert!(store.remove(3).is_none());
    }

    #[test]
    fn soc_updates_land_on_the_right_row_after_churn() {
        let mut store = TaxiStore::default();
        for id in 0..6 {
            store.insert(row(id));
        }
        store.remove(0);
        store.remove(2);
        store.drain_soc(5, 0.1);
        store.set_soc(4, 0.9);
        store.credit_charge(4, 12.5);
        assert!((store.soc(5) - 0.45).abs() < 1e-12);
        let r4 = store.get(4).unwrap();
        assert_eq!(r4.soc, 0.9);
        assert_eq!(r4.cost, 12.5);
        assert_eq!(r4.charges, 1);
    }

    #[test]
    fn dense_index_grows_on_insert_and_reports_absent_ids() {
        let mut store = TaxiStore::default();
        // Ids past the index, and ids never inserted, are simply absent.
        assert!(store.get(20_000).is_none());
        assert!(store.remove(5).is_none());
        store.insert(row(7));
        assert!(store.get(3).is_none());
        assert!(store.get(8).is_none());
        assert_eq!(store.get(7).unwrap().id, 7);
        // A removed taxi leaves its index entry absent, not stale.
        store.remove(7);
        assert!(store.get(7).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn drain_clamps_at_zero() {
        let mut store = TaxiStore::default();
        store.insert(row(0));
        store.drain_soc(0, 2.0);
        assert_eq!(store.soc(0), 0.0);
    }

    #[test]
    fn abandonment_pops_exactly_the_expired_prefix() {
        let mut st = StationStore::default();
        st.push_station(0, 1);
        st.join_queue(0, 7, 100);
        st.join_queue(0, 8, 110);
        st.join_queue(0, 9, 150);
        let mut gone = Vec::new();
        // At minute 160 with patience 50: entries joined at 100 and 110 have
        // waited 60 and 50 minutes; the one from 150 has waited only 10.
        st.abandon_expired(0, 160, 50, &mut gone);
        assert_eq!(gone, vec![7, 8]);
        assert_eq!(st.queue[0].len(), 1);
        assert_eq!(st.queue[0].front().unwrap().taxi, 9);
    }

    #[test]
    fn abandonment_from_a_queue_emptied_mid_slot_is_a_noop() {
        let mut st = StationStore::default();
        st.push_station(0, 1);
        st.join_queue(0, 3, 0);
        // Mid-slot the engine admits the whole queue to freed points …
        let admitted = st.queue[0].pop_front().unwrap();
        assert_eq!(admitted.taxi, 3);
        // … so the patience sweep later in the same slot must not underflow
        // or invent abandonments.
        let mut gone = Vec::new();
        st.abandon_expired(0, 10_000, 1, &mut gone);
        assert!(gone.is_empty());
        assert!(st.queue[0].is_empty());
    }

    #[test]
    fn abandonment_with_clock_before_join_never_fires() {
        // A taxi that joined "in the future" relative to the probe minute
        // (only possible through saturating arithmetic at minute 0) must not
        // be evicted.
        let mut st = StationStore::default();
        st.push_station(0, 1);
        st.join_queue(0, 1, 30);
        let mut gone = Vec::new();
        st.abandon_expired(0, 0, 10, &mut gone);
        assert!(gone.is_empty());
        assert_eq!(st.queue[0].len(), 1);
    }

    #[test]
    fn swap_remove_keeps_a_same_slot_delivery_target_addressable() {
        // Phase A delivers taxi 42 into the store; later in the same slot a
        // departure swap-removes an unrelated taxi and 42's row is the one
        // that backfills the hole. Every subsequent mutation must still land
        // on 42's payload.
        let mut store = TaxiStore::default();
        for id in 0..4 {
            store.insert(row(id));
        }
        store.insert(row(42)); // delivery target, last row
        store.remove(1); // swap-remove: row 42 backfills index 1
        assert_eq!(store.get(42).unwrap().id, 42);
        store.set_soc(42, 0.33);
        store.credit_charge(42, 5.0);
        let r = store.get(42).unwrap();
        assert!((r.soc - 0.33).abs() < 1e-12);
        assert_eq!(r.charges, 1);
        assert_eq!(r.cost, 5.0);
        // And removing the delivery target itself round-trips its payload.
        let gone = store.remove(42).unwrap();
        assert_eq!(gone.id, 42);
        assert!((gone.soc - 0.33).abs() < 1e-12);
        assert!(store.get(42).is_none());
    }

    #[test]
    fn station_slots_resolve_by_global_id() {
        let mut st = StationStore::default();
        st.push_station(3, 4);
        st.push_station(17, 2);
        assert_eq!(st.slot_of(3), Some(0));
        assert_eq!(st.slot_of(17), Some(1));
        assert_eq!(st.slot_of(5), None);
        assert_eq!(st.free_points(1), 2);
        st.charging[1].push(ChargeSession {
            taxi: 9,
            finish_minute: 60,
            target_soc: 0.9,
            cost: 1.0,
        });
        assert_eq!(st.free_points(1), 1);
    }
}
