//! Working-cycle accounting (the paper's Section II-B decomposition).
//!
//! Every minute a taxi spends is attributed to exactly one of four buckets —
//! cruise, serve, idle, charge — and every trip and charging event is
//! recorded with the fields the evaluation figures need (per-trip cruise
//! time for Fig. 10/11, per-charge idle time for Fig. 12/13, first cruise
//! after charging for Figs. 5/6, revenue and cost for profit efficiency).

use crate::taxi::TaxiId;
use fairmove_city::{RegionId, SimTime, StationId};
use serde::{Deserialize, Serialize};

/// The four time buckets of a working cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimeBucket {
    /// Vacant driving: seeking passengers, repositioning, driving to pickup.
    Cruise,
    /// Passenger on board.
    Serve,
    /// Seeking a charger + queueing (the paper's `t4 − t3`).
    Idle,
    /// Plugged in.
    Charge,
}

/// One completed passenger trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripEvent {
    /// Serving taxi.
    pub taxi: TaxiId,
    /// Pickup time.
    pub pickup_at: SimTime,
    /// Drop-off time.
    pub dropoff_at: SimTime,
    /// Pickup region.
    pub origin: RegionId,
    /// Drop-off region.
    pub destination: RegionId,
    /// Trip distance, km.
    pub distance_km: f64,
    /// Fare earned, CNY.
    pub fare_cny: f64,
    /// Minutes the taxi cruised between becoming free and this pickup
    /// (the paper's per-trip cruise time, Fig. 10).
    pub cruise_minutes: u32,
    /// If this was the first trip after a charge, the station charged at
    /// (the paper's first-cruise-time statistic, Figs. 5–6).
    pub first_after_charge: Option<StationId>,
}

/// One completed charging event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChargeEvent {
    /// Charging taxi.
    pub taxi: TaxiId,
    /// Station charged at.
    pub station: StationId,
    /// `t3`: when the taxi set off to charge.
    pub decided_at: SimTime,
    /// `t4`: when it plugged in.
    pub plugged_at: SimTime,
    /// `t5`: when it unplugged.
    pub finished_at: SimTime,
    /// Energy delivered, kWh.
    pub energy_kwh: f64,
    /// Charging cost at the time-of-use tariff, CNY.
    pub cost_cny: f64,
}

impl ChargeEvent {
    /// Idle minutes (`t4 − t3`): travel to the station plus queueing.
    #[inline]
    pub fn idle_minutes(&self) -> u32 {
        self.plugged_at - self.decided_at
    }

    /// Charge minutes (`t5 − t4`).
    #[inline]
    pub fn charge_minutes(&self) -> u32 {
        self.finished_at - self.plugged_at
    }
}

/// Cumulative accounting for one taxi.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaxiLedger {
    /// Vacant-driving minutes.
    pub cruise_minutes: u64,
    /// Passenger-on-board minutes.
    pub serve_minutes: u64,
    /// Charger-seeking + queueing minutes.
    pub idle_minutes: u64,
    /// Plugged-in minutes.
    pub charge_minutes: u64,
    /// Fare revenue, CNY.
    pub revenue_cny: f64,
    /// Charging costs, CNY.
    pub cost_cny: f64,
    /// Completed trips.
    pub n_trips: u32,
    /// Completed charging events.
    pub n_charges: u32,
}

impl TaxiLedger {
    /// Adds `minutes` to `bucket`.
    pub fn add_time(&mut self, bucket: TimeBucket, minutes: u32) {
        let m = u64::from(minutes);
        match bucket {
            TimeBucket::Cruise => self.cruise_minutes += m,
            TimeBucket::Serve => self.serve_minutes += m,
            TimeBucket::Idle => self.idle_minutes += m,
            TimeBucket::Charge => self.charge_minutes += m,
        }
    }

    /// Total on-duty minutes (all four buckets; the paper's `Σ T_cycle`).
    #[inline]
    pub fn on_duty_minutes(&self) -> u64 {
        self.cruise_minutes + self.serve_minutes + self.idle_minutes + self.charge_minutes
    }

    /// Net profit, CNY.
    #[inline]
    pub fn profit_cny(&self) -> f64 {
        self.revenue_cny - self.cost_cny
    }

    /// Profit efficiency in CNY per on-duty *hour* (the paper's Eq. 2,
    /// expressed hourly like Figs. 8 and 14). Zero when no time has accrued.
    pub fn profit_efficiency(&self) -> f64 {
        let minutes = self.on_duty_minutes();
        if minutes == 0 {
            0.0
        } else {
            self.profit_cny() / (minutes as f64 / 60.0)
        }
    }
}

/// Accounting for the whole fleet plus the event logs.
///
/// `PartialEq` compares every event and every per-taxi total exactly — the
/// telemetry determinism test relies on this to assert that instrumented
/// and uninstrumented runs are bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetLedger {
    pub(crate) taxis: Vec<TaxiLedger>,
    pub(crate) trips: Vec<TripEvent>,
    pub(crate) charges: Vec<ChargeEvent>,
    /// Requests that expired unserved.
    pub expired_requests: u64,
}

impl FleetLedger {
    /// A fresh ledger for `fleet_size` taxis.
    pub fn new(fleet_size: usize) -> Self {
        FleetLedger {
            taxis: vec![TaxiLedger::default(); fleet_size],
            trips: Vec::new(),
            charges: Vec::new(),
            expired_requests: 0,
        }
    }

    /// The per-taxi ledger.
    ///
    /// # Panics
    /// Panics if `taxi` is out of range.
    #[inline]
    pub fn taxi(&self, taxi: TaxiId) -> &TaxiLedger {
        &self.taxis[taxi.index()]
    }

    /// Mutable per-taxi ledger.
    #[inline]
    pub fn taxi_mut(&mut self, taxi: TaxiId) -> &mut TaxiLedger {
        &mut self.taxis[taxi.index()]
    }

    /// All per-taxi ledgers in id order.
    #[inline]
    pub fn taxis(&self) -> &[TaxiLedger] {
        &self.taxis
    }

    /// Records a completed trip (also updates the taxi's revenue/counters).
    pub fn record_trip(&mut self, event: TripEvent) {
        let ledger = &mut self.taxis[event.taxi.index()];
        // Deliberately seeded bug for the testkit's mutation smoke check:
        // the very first trip's fare is never credited, breaking money
        // conservation. Only compiled under the `seeded-bug` feature, which
        // nothing enables by default.
        #[cfg(feature = "seeded-bug")]
        if self.trips.is_empty() {
            ledger.n_trips += 1;
            self.trips.push(event);
            return;
        }
        ledger.revenue_cny += event.fare_cny;
        ledger.n_trips += 1;
        self.trips.push(event);
    }

    /// Records a completed charge (also updates the taxi's cost/counters).
    pub fn record_charge(&mut self, event: ChargeEvent) {
        let ledger = &mut self.taxis[event.taxi.index()];
        ledger.cost_cny += event.cost_cny;
        ledger.n_charges += 1;
        self.charges.push(event);
    }

    /// All recorded trips in completion order.
    #[inline]
    pub fn trips(&self) -> &[TripEvent] {
        &self.trips
    }

    /// All recorded charging events in completion order.
    #[inline]
    pub fn charges(&self) -> &[ChargeEvent] {
        &self.charges
    }

    /// Per-taxi profit efficiency (CNY/hour), in taxi-id order.
    pub fn profit_efficiencies(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.taxis.len());
        self.profit_efficiencies_into(&mut out);
        out
    }

    /// Writes per-taxi profit efficiencies into a caller-owned buffer
    /// (cleared first) — the allocation-free variant of
    /// [`profit_efficiencies`](Self::profit_efficiencies).
    pub fn profit_efficiencies_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.taxis.iter().map(TaxiLedger::profit_efficiency));
    }

    /// Number of per-taxi ledger entries (the fleet size).
    #[inline]
    pub fn profit_efficiencies_len(&self) -> usize {
        self.taxis.len()
    }

    /// Sum of per-taxi profit efficiencies in taxi-id order — the same
    /// summation order as `profit_efficiencies().iter().sum()`, so the hot
    /// path gets a bit-identical mean without materializing the vector.
    pub fn profit_efficiency_sum(&self) -> f64 {
        self.taxis.iter().map(TaxiLedger::profit_efficiency).sum()
    }

    /// Sum of squared deviations of per-taxi profit efficiency from `mean`
    /// (the fairness-variance numerator, Eq. 3), in taxi-id order.
    pub fn profit_efficiency_sq_dev_sum(&self, mean: f64) -> f64 {
        self.taxis
            .iter()
            .map(|t| (t.profit_efficiency() - mean).powi(2))
            .sum()
    }

    /// Pre-reserves capacity in the append-only event logs so a measured
    /// steady-state window never hits a `Vec` doubling. Called by
    /// [`crate::Environment::prepare_steady_state`] with an estimate of the
    /// remaining trip/charge volume.
    pub fn reserve_events(&mut self, trips: usize, charges: usize) {
        self.trips.reserve(trips);
        self.charges.reserve(charges);
    }

    /// Fleet totals: (revenue, cost) in CNY.
    pub fn totals(&self) -> (f64, f64) {
        let revenue = self.taxis.iter().map(|t| t.revenue_cny).sum();
        let cost = self.taxis.iter().map(|t| t.cost_cny).sum();
        (revenue, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(taxi: u32, fare: f64) -> TripEvent {
        TripEvent {
            taxi: TaxiId(taxi),
            pickup_at: SimTime(10),
            dropoff_at: SimTime(30),
            origin: RegionId(0),
            destination: RegionId(1),
            distance_km: 5.0,
            fare_cny: fare,
            cruise_minutes: 4,
            first_after_charge: None,
        }
    }

    fn charge(taxi: u32, cost: f64) -> ChargeEvent {
        ChargeEvent {
            taxi: TaxiId(taxi),
            station: StationId(0),
            decided_at: SimTime(100),
            plugged_at: SimTime(115),
            finished_at: SimTime(200),
            energy_kwh: 50.0,
            cost_cny: cost,
        }
    }

    #[test]
    fn time_buckets_accumulate_independently() {
        let mut l = TaxiLedger::default();
        l.add_time(TimeBucket::Cruise, 10);
        l.add_time(TimeBucket::Serve, 20);
        l.add_time(TimeBucket::Idle, 5);
        l.add_time(TimeBucket::Charge, 60);
        l.add_time(TimeBucket::Cruise, 3);
        assert_eq!(l.cruise_minutes, 13);
        assert_eq!(l.serve_minutes, 20);
        assert_eq!(l.idle_minutes, 5);
        assert_eq!(l.charge_minutes, 60);
        assert_eq!(l.on_duty_minutes(), 98);
    }

    #[test]
    fn profit_efficiency_is_hourly() {
        let mut l = TaxiLedger {
            revenue_cny: 100.0,
            cost_cny: 10.0,
            ..TaxiLedger::default()
        };
        l.add_time(TimeBucket::Serve, 120);
        // 90 CNY over 2 hours = 45 CNY/h.
        assert!((l.profit_efficiency() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn profit_efficiency_zero_without_time() {
        let l = TaxiLedger::default();
        assert_eq!(l.profit_efficiency(), 0.0);
    }

    #[test]
    fn record_trip_updates_taxi() {
        let mut f = FleetLedger::new(3);
        f.record_trip(trip(1, 25.0));
        f.record_trip(trip(1, 35.0));
        assert_eq!(f.taxi(TaxiId(1)).n_trips, 2);
        assert!((f.taxi(TaxiId(1)).revenue_cny - 60.0).abs() < 1e-9);
        assert_eq!(f.taxi(TaxiId(0)).n_trips, 0);
        assert_eq!(f.trips().len(), 2);
    }

    #[test]
    fn record_charge_updates_taxi() {
        let mut f = FleetLedger::new(2);
        f.record_charge(charge(0, 45.0));
        assert_eq!(f.taxi(TaxiId(0)).n_charges, 1);
        assert!((f.taxi(TaxiId(0)).cost_cny - 45.0).abs() < 1e-9);
        assert_eq!(f.charges().len(), 1);
    }

    #[test]
    fn charge_event_durations() {
        let c = charge(0, 45.0);
        assert_eq!(c.idle_minutes(), 15);
        assert_eq!(c.charge_minutes(), 85);
    }

    #[test]
    fn totals_sum_over_fleet() {
        let mut f = FleetLedger::new(2);
        f.record_trip(trip(0, 20.0));
        f.record_trip(trip(1, 30.0));
        f.record_charge(charge(0, 5.0));
        let (rev, cost) = f.totals();
        assert!((rev - 50.0).abs() < 1e-9);
        assert!((cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn profit_efficiencies_vector_matches() {
        let mut f = FleetLedger::new(2);
        f.record_trip(trip(0, 60.0));
        f.taxi_mut(TaxiId(0)).add_time(TimeBucket::Serve, 60);
        let pes = f.profit_efficiencies();
        assert_eq!(pes.len(), 2);
        assert!((pes[0] - 60.0).abs() < 1e-9);
        assert_eq!(pes[1], 0.0);
    }
}
