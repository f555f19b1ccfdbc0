//! Exact environment checkpointing: the full mutable simulation state as a
//! versioned little-endian byte image.
//!
//! [`Environment::save_state`] serializes everything that evolves during a
//! run — taxis, stations (including queue order), passenger pools, the
//! ledger, the completion schedule, in-flight trips and charge excursions,
//! both RNG streams, active faults, observation history, and fault
//! counters — while everything derivable from the [`SimConfig`] (the city,
//! the demand model, the trip generator's tables) is *rebuilt* on restore.
//! The contract, pinned by test: `restore_state` followed by stepping N
//! slots produces a ledger bitwise-equal to the uninterrupted run.
//!
//! The image carries a config fingerprint so a snapshot can never be
//! restored under a different world, and a version byte so future layout
//! changes fail loud instead of misparsing. Integrity (CRC, atomic writes)
//! is deliberately left to the storage layer: this module defines *what*
//! the state is, not how it survives a crash.
//!
//! Deliberately excluded: per-slot transients (`slot_profit`, the feedback
//! buffer, scratch arenas) are zeroed or fully rewritten at the top of every
//! `step_slot`, telemetry/auditor attachments are the caller's to re-attach,
//! and the fault *plan* is an input (replayed by the caller), while the
//! currently *active* faults are state (station recovery diffs against
//! them).

use super::{ChargeContext, Environment, FaultCounters, PendingTrip};
use crate::config::SimConfig;
use crate::ledger::{ChargeEvent, TaxiLedger, TripEvent};
use crate::observation::SlotObservation;
use crate::shard::{fnv64, fnv64_continue};
use crate::taxi::{Taxi, TaxiId, TaxiState};
use fairmove_city::{RegionId, SimTime, StationId, TimeSlot};
use fairmove_data::PassengerRequest;
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::VecDeque;

const MAGIC: &[u8; 8] = b"FMENVST1";
const VERSION: u32 = 1;

/// Why a state image was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The image ends before the declared content does.
    Truncated,
    /// The image does not start with the state magic.
    BadMagic,
    /// The image uses a layout version this build does not speak.
    BadVersion(u32),
    /// The image was captured under a different [`SimConfig`].
    ConfigMismatch,
    /// An internal length or tag is inconsistent.
    Malformed(&'static str),
    /// Well-formed content followed by unexpected extra bytes.
    TrailingBytes,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated => write!(f, "state image truncated"),
            StateError::BadMagic => write!(f, "not a fairmove state image"),
            StateError::BadVersion(v) => write!(f, "unsupported state version {v}"),
            StateError::ConfigMismatch => {
                write!(f, "state image was captured under a different config")
            }
            StateError::Malformed(what) => write!(f, "malformed state image: {what}"),
            StateError::TrailingBytes => write!(f, "trailing bytes after state image"),
        }
    }
}

impl std::error::Error for StateError {}

/// FNV-1a over the canonical `Debug` rendering of the config: a cheap,
/// stable fingerprint that changes whenever any field that shapes the world
/// does.
pub fn config_fingerprint(config: &SimConfig) -> u64 {
    fnv64(format!("{config:?}").as_bytes())
}

// ---------------------------------------------------------------------------
// Little-endian encoder / decoder
// ---------------------------------------------------------------------------

/// The little-endian encoder. Its bytes go wherever `put` sends them: into
/// a buffer, or straight into a hash.
trait Enc {
    fn put(&mut self, bytes: &[u8]);
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
    fn opt_u16(&mut self, v: Option<u16>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u16(x);
            }
        }
    }
}

impl Enc for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The byte count of everything put so far.
struct Len(usize);

impl Enc for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A running FNV-1a hash of everything put so far.
struct Fnv(u64);

impl Enc for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        self.0 = fnv64_continue(self.0, bytes);
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self.pos.checked_add(n).ok_or(StateError::Truncated)?;
        if end > self.bytes.len() {
            return Err(StateError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, StateError> {
        let b = self.take(2)?;
        let arr: [u8; 2] = b.try_into().map_err(|_| StateError::Truncated)?;
        Ok(u16::from_le_bytes(arr))
    }
    fn u32(&mut self) -> Result<u32, StateError> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| StateError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }
    fn u64(&mut self) -> Result<u64, StateError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| StateError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }
    fn f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Reads a sequence length, bounding it by the bytes actually left
    /// (`min_elem_bytes` per element) so a corrupt or hostile length field
    /// fails cleanly instead of attempting a multi-GB allocation. The bound
    /// is checked in `u64` space *before* the narrowing cast, so a length
    /// that only overflows `usize` (32-bit targets) is also rejected.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, StateError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n.saturating_mul(min_elem_bytes.max(1) as u64) > remaining {
            return Err(StateError::Truncated);
        }
        usize::try_from(n).map_err(|_| StateError::Truncated)
    }
    fn opt_u16(&mut self) -> Result<Option<u16>, StateError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u16()?)),
            _ => Err(StateError::Malformed("option tag")),
        }
    }
    fn done(&self) -> Result<(), StateError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(StateError::TrailingBytes)
        }
    }
}

// ---------------------------------------------------------------------------
// Per-type helpers
// ---------------------------------------------------------------------------

fn put_rng(e: &mut impl Enc, state: ([u32; 8], u64, u32)) {
    for w in state.0 {
        e.u32(w);
    }
    e.u64(state.1);
    e.u32(state.2);
}

fn get_rng(d: &mut Dec) -> Result<([u32; 8], u64, u32), StateError> {
    let mut key = [0u32; 8];
    for w in &mut key {
        *w = d.u32()?;
    }
    Ok((key, d.u64()?, d.u32()?))
}

fn put_taxi(e: &mut impl Enc, t: &Taxi) {
    e.u32(t.id.0);
    match t.state {
        TaxiState::Vacant { region } => {
            e.u8(0);
            e.u16(region.0);
        }
        TaxiState::Repositioning { dest, arrive_at } => {
            e.u8(1);
            e.u16(dest.0);
            e.u32(arrive_at.0);
        }
        TaxiState::DrivingToPassenger { region, pickup_at } => {
            e.u8(2);
            e.u16(region.0);
            e.u32(pickup_at.0);
        }
        TaxiState::Serving { dest, dropoff_at } => {
            e.u8(3);
            e.u16(dest.0);
            e.u32(dropoff_at.0);
        }
        TaxiState::ToStation { station, arrive_at } => {
            e.u8(4);
            e.u16(station.0);
            e.u32(arrive_at.0);
        }
        TaxiState::Queued { station } => {
            e.u8(5);
            e.u16(station.0);
        }
        TaxiState::Charging { station, finish_at } => {
            e.u8(6);
            e.u16(station.0);
            e.u32(finish_at.0);
        }
    }
    e.f64(t.soc);
    e.u32(t.state_since.0);
    e.u32(t.free_since.0);
    e.opt_u16(t.after_charge.map(|s| s.0));
}

fn get_taxi(d: &mut Dec) -> Result<Taxi, StateError> {
    let id = TaxiId(d.u32()?);
    let state = match d.u8()? {
        0 => TaxiState::Vacant {
            region: RegionId(d.u16()?),
        },
        1 => TaxiState::Repositioning {
            dest: RegionId(d.u16()?),
            arrive_at: SimTime(d.u32()?),
        },
        2 => TaxiState::DrivingToPassenger {
            region: RegionId(d.u16()?),
            pickup_at: SimTime(d.u32()?),
        },
        3 => TaxiState::Serving {
            dest: RegionId(d.u16()?),
            dropoff_at: SimTime(d.u32()?),
        },
        4 => TaxiState::ToStation {
            station: StationId(d.u16()?),
            arrive_at: SimTime(d.u32()?),
        },
        5 => TaxiState::Queued {
            station: StationId(d.u16()?),
        },
        6 => TaxiState::Charging {
            station: StationId(d.u16()?),
            finish_at: SimTime(d.u32()?),
        },
        _ => return Err(StateError::Malformed("taxi state tag")),
    };
    let soc = d.f64()?;
    let state_since = SimTime(d.u32()?);
    let free_since = SimTime(d.u32()?);
    let after_charge = d.opt_u16()?.map(StationId);
    Ok(Taxi {
        id,
        state,
        soc,
        state_since,
        free_since,
        after_charge,
    })
}

fn put_request(e: &mut impl Enc, r: &PassengerRequest) {
    e.u64(r.id);
    e.u16(r.origin.0);
    e.u16(r.destination.0);
    e.f64(r.distance_km);
    e.f64(r.fare_cny);
    e.u32(r.requested_at.0);
    e.u32(r.max_wait_minutes);
}

fn get_request(d: &mut Dec) -> Result<PassengerRequest, StateError> {
    Ok(PassengerRequest {
        id: d.u64()?,
        origin: RegionId(d.u16()?),
        destination: RegionId(d.u16()?),
        distance_km: d.f64()?,
        fare_cny: d.f64()?,
        requested_at: SimTime(d.u32()?),
        max_wait_minutes: d.u32()?,
    })
}

fn put_trip_event(e: &mut impl Enc, t: &TripEvent) {
    e.u32(t.taxi.0);
    e.u32(t.pickup_at.0);
    e.u32(t.dropoff_at.0);
    e.u16(t.origin.0);
    e.u16(t.destination.0);
    e.f64(t.distance_km);
    e.f64(t.fare_cny);
    e.u32(t.cruise_minutes);
    e.opt_u16(t.first_after_charge.map(|s| s.0));
}

fn get_trip_event(d: &mut Dec) -> Result<TripEvent, StateError> {
    Ok(TripEvent {
        taxi: TaxiId(d.u32()?),
        pickup_at: SimTime(d.u32()?),
        dropoff_at: SimTime(d.u32()?),
        origin: RegionId(d.u16()?),
        destination: RegionId(d.u16()?),
        distance_km: d.f64()?,
        fare_cny: d.f64()?,
        cruise_minutes: d.u32()?,
        first_after_charge: d.opt_u16()?.map(StationId),
    })
}

fn put_charge_event(e: &mut impl Enc, c: &ChargeEvent) {
    e.u32(c.taxi.0);
    e.u16(c.station.0);
    e.u32(c.decided_at.0);
    e.u32(c.plugged_at.0);
    e.u32(c.finished_at.0);
    e.f64(c.energy_kwh);
    e.f64(c.cost_cny);
}

fn get_charge_event(d: &mut Dec) -> Result<ChargeEvent, StateError> {
    Ok(ChargeEvent {
        taxi: TaxiId(d.u32()?),
        station: StationId(d.u16()?),
        decided_at: SimTime(d.u32()?),
        plugged_at: SimTime(d.u32()?),
        finished_at: SimTime(d.u32()?),
        energy_kwh: d.f64()?,
        cost_cny: d.f64()?,
    })
}

fn put_observation(e: &mut impl Enc, o: &SlotObservation) {
    e.u32(o.now.0);
    e.u16(o.slot.0);
    for v in [
        &o.vacant_per_region,
        &o.waiting_per_region,
        &o.free_points_per_station,
        &o.queue_per_station,
        &o.inbound_per_station,
    ] {
        e.len(v.len());
        for &x in v {
            e.u32(x);
        }
    }
    e.len(o.predicted_demand.len());
    for &x in &o.predicted_demand {
        e.f64(x);
    }
    e.f64(o.price_now);
    e.f64(o.price_next_hour);
    e.f64(o.mean_pe);
    e.f64(o.pf);
}

fn get_observation(d: &mut Dec) -> Result<SlotObservation, StateError> {
    let now = SimTime(d.u32()?);
    let slot = TimeSlot(d.u16()?);
    let mut u32_vecs: [Vec<u32>; 5] = Default::default();
    for v in &mut u32_vecs {
        let n = d.len(4)?;
        v.reserve_exact(n);
        for _ in 0..n {
            v.push(d.u32()?);
        }
    }
    let [vacant_per_region, waiting_per_region, free_points_per_station, queue_per_station, inbound_per_station] =
        u32_vecs;
    let n = d.len(8)?;
    let mut predicted_demand = Vec::with_capacity(n);
    for _ in 0..n {
        predicted_demand.push(d.f64()?);
    }
    Ok(SlotObservation {
        now,
        slot,
        vacant_per_region,
        free_points_per_station,
        queue_per_station,
        inbound_per_station,
        predicted_demand,
        waiting_per_region,
        price_now: d.f64()?,
        price_next_hour: d.f64()?,
        mean_pe: d.f64()?,
        pf: d.f64()?,
    })
}

// ---------------------------------------------------------------------------
// Environment save / restore
// ---------------------------------------------------------------------------

impl Environment {
    /// Serializes the full mutable simulation state (see module docs). Call
    /// between slots — mid-slot transients are not part of the image.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_state_into(&mut out);
        out
    }

    /// Appends the [`Environment::save_state`] image to `out`.
    pub fn save_state_into(&self, out: &mut Vec<u8>) {
        self.encode_state(out);
    }

    /// Byte length of the [`Environment::save_state`] image, counted by the
    /// same encoder without building it, so a caller can size a buffer
    /// once before [`Environment::save_state_into`].
    pub fn state_len(&self) -> usize {
        let mut len = Len(0);
        self.encode_state(&mut len);
        len.0
    }

    /// Continues the FNV-1a hash `h` over the [`Environment::save_state`]
    /// image without building it:
    /// `env.hash_state(h) == fnv64_continue(h, &env.save_state())`.
    pub fn hash_state(&self, h: u64) -> u64 {
        let mut fnv = Fnv(h);
        self.encode_state(&mut fnv);
        fnv.0
    }

    fn encode_state(&self, e: &mut impl Enc) {
        e.put(MAGIC);
        e.u32(VERSION);
        e.u64(config_fingerprint(&self.config));
        e.u32(self.now.0);

        // Taxis.
        e.len(self.taxis.len());
        for t in &self.taxis {
            put_taxi(e, t);
        }

        // Stations, including exact queue order.
        e.len(self.stations.len());
        for s in &self.stations {
            e.u16(s.id.0);
            e.u32(s.points);
            e.u32(s.occupied);
            e.u32(s.inbound);
            e.len(s.queue.len());
            for t in &s.queue {
                e.u32(t.0);
            }
        }

        // Passenger pool: per-region FIFO queues + expiry tally.
        e.len(self.pool.queues.len());
        for q in &self.pool.queues {
            e.len(q.len());
            for r in q {
                put_request(e, r);
            }
        }
        e.u64(self.pool.expired);

        // Ledger.
        e.len(self.ledger.taxis.len());
        for t in &self.ledger.taxis {
            e.u64(t.cruise_minutes);
            e.u64(t.serve_minutes);
            e.u64(t.idle_minutes);
            e.u64(t.charge_minutes);
            e.f64(t.revenue_cny);
            e.f64(t.cost_cny);
            e.u32(t.n_trips);
            e.u32(t.n_charges);
        }
        e.len(self.ledger.trips.len());
        for t in &self.ledger.trips {
            put_trip_event(e, t);
        }
        e.len(self.ledger.charges.len());
        for c in &self.ledger.charges {
            put_charge_event(e, c);
        }
        e.u64(self.ledger.expired_requests);

        // Completion schedule, serialized sorted: equal (minute, taxi)
        // entries are interchangeable, so heap layout is not state.
        let mut schedule: Vec<(u32, u32)> = self.schedule.iter().map(|r| r.0).collect();
        schedule.sort_unstable();
        e.len(schedule.len());
        for (minute, taxi) in schedule {
            e.u32(minute);
            e.u32(taxi);
        }

        // Vacant lists are FIFO worklists: order matters.
        e.len(self.vacant_by_region.len());
        for list in &self.vacant_by_region {
            e.len(list.len());
            for t in list {
                e.u32(t.0);
            }
        }

        e.len(self.bucket_since.len());
        for t in &self.bucket_since {
            e.u32(t.0);
        }

        e.len(self.pending_trip.len());
        for p in &self.pending_trip {
            match p {
                None => e.u8(0),
                Some(p) => {
                    e.u8(1);
                    put_request(e, &p.request);
                    e.f64(p.approach_km);
                    e.u32(p.pickup_at.0);
                    e.u32(p.cruise_minutes);
                    e.opt_u16(p.first_after_charge.map(|s| s.0));
                }
            }
        }

        e.len(self.charge_ctx.len());
        for c in &self.charge_ctx {
            match c {
                None => e.u8(0),
                Some(c) => {
                    e.u8(1);
                    e.u32(c.decided_at.0);
                    match c.plugged_at {
                        None => e.u8(0),
                        Some(t) => {
                            e.u8(1);
                            e.u32(t.0);
                        }
                    }
                    e.f64(c.plug_soc);
                    e.u8(c.redirects);
                }
            }
        }

        // Both RNG streams.
        put_rng(e, self.rng.state());
        let (tg_rng, tg_next_id) = self.trip_gen.state();
        put_rng(e, tg_rng);
        e.u64(tg_next_id);

        // Active faults: station-outage recovery diffs against these.
        e.len(self.active_faults.stations_out.len());
        for &s in &self.active_faults.stations_out {
            e.u16(s);
        }
        e.len(self.active_faults.demand_factors.len());
        for &(r, f) in &self.active_faults.demand_factors {
            e.u16(r);
            e.f64(f);
        }
        e.len(self.active_faults.taxis_out.len());
        for &t in &self.active_faults.taxis_out {
            e.u32(t);
        }
        e.u32(self.active_faults.obs_lag_slots);
        e.len(self.active_faults.obs_dropped_regions.len());
        for &r in &self.active_faults.obs_dropped_regions {
            e.u16(r);
        }
        e.f64(self.active_faults.command_loss_prob);

        // Observation history (staleness-window backlog), oldest first.
        e.len(self.obs_history.len());
        for o in &self.obs_history {
            put_observation(e, o);
        }

        // Tallies.
        e.u64(self.fault_counters.active_slots);
        e.u64(self.fault_counters.station_outage_slots);
        e.u64(self.fault_counters.demand_scaled_regions);
        e.u64(self.fault_counters.taxi_out_slots);
        e.u64(self.fault_counters.obs_stale_slots);
        e.u64(self.fault_counters.obs_dropped_regions);
        e.u64(self.fault_counters.commands_lost);
        e.u64(self.invariant_violations);
    }

    /// Rebuilds an environment from a [`Environment::save_state`] image.
    ///
    /// The immutable world (city, demand model, generator tables) is
    /// regenerated from `config`, which must fingerprint-match the config
    /// the image was captured under. Telemetry, auditor, and fault plan are
    /// *not* part of the image — re-attach them afterwards. Stepping the
    /// returned environment produces a ledger bitwise-equal to continuing
    /// the original.
    pub fn restore_state(config: SimConfig, bytes: &[u8]) -> Result<Environment, StateError> {
        let mut d = Dec::new(bytes);
        if d.take(8)? != MAGIC {
            return Err(StateError::BadMagic);
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(StateError::BadVersion(version));
        }
        if d.u64()? != config_fingerprint(&config) {
            return Err(StateError::ConfigMismatch);
        }

        let mut env = Environment::new(config);
        env.now = SimTime(d.u32()?);

        let n_taxis = d.len(1)?;
        if n_taxis != env.taxis.len() {
            return Err(StateError::Malformed("fleet size"));
        }
        for i in 0..n_taxis {
            let t = get_taxi(&mut d)?;
            if t.id.index() != i {
                return Err(StateError::Malformed("taxi id order"));
            }
            env.taxis[i] = t;
        }

        let n_stations = d.len(1)?;
        if n_stations != env.stations.len() {
            return Err(StateError::Malformed("station count"));
        }
        for s in &mut env.stations {
            let id = StationId(d.u16()?);
            let points = d.u32()?;
            if id != s.id || points != s.points {
                return Err(StateError::Malformed("station identity"));
            }
            s.occupied = d.u32()?;
            s.inbound = d.u32()?;
            let qn = d.len(4)?;
            s.queue = (0..qn)
                .map(|_| d.u32().map(TaxiId))
                .collect::<Result<VecDeque<_>, _>>()?;
        }

        let n_pools = d.len(1)?;
        if n_pools != env.pool.queues.len() {
            return Err(StateError::Malformed("region count"));
        }
        for q in &mut env.pool.queues {
            let n = d.len(8)?;
            q.clear();
            for _ in 0..n {
                q.push_back(get_request(&mut d)?);
            }
        }
        env.pool.expired = d.u64()?;

        let n_ledgers = d.len(8)?;
        if n_ledgers != env.ledger.taxis.len() {
            return Err(StateError::Malformed("ledger size"));
        }
        for t in &mut env.ledger.taxis {
            *t = TaxiLedger {
                cruise_minutes: d.u64()?,
                serve_minutes: d.u64()?,
                idle_minutes: d.u64()?,
                charge_minutes: d.u64()?,
                revenue_cny: d.f64()?,
                cost_cny: d.f64()?,
                n_trips: d.u32()?,
                n_charges: d.u32()?,
            };
        }
        let n_trips = d.len(8)?;
        env.ledger.trips = (0..n_trips)
            .map(|_| get_trip_event(&mut d))
            .collect::<Result<Vec<_>, _>>()?;
        let n_charges = d.len(8)?;
        env.ledger.charges = (0..n_charges)
            .map(|_| get_charge_event(&mut d))
            .collect::<Result<Vec<_>, _>>()?;
        env.ledger.expired_requests = d.u64()?;

        let n_sched = d.len(8)?;
        let mut schedule = std::collections::BinaryHeap::with_capacity(n_sched);
        for _ in 0..n_sched {
            let minute = d.u32()?;
            let taxi = d.u32()?;
            schedule.push(Reverse((minute, taxi)));
        }
        env.schedule = schedule;

        let n_regions = d.len(8)?;
        if n_regions != env.vacant_by_region.len() {
            return Err(StateError::Malformed("vacant-list count"));
        }
        for list in &mut env.vacant_by_region {
            let n = d.len(4)?;
            list.clear();
            for _ in 0..n {
                list.push(TaxiId(d.u32()?));
            }
        }

        let n_buckets = d.len(4)?;
        if n_buckets != env.bucket_since.len() {
            return Err(StateError::Malformed("bucket-since size"));
        }
        for t in &mut env.bucket_since {
            *t = SimTime(d.u32()?);
        }

        let n_pending = d.len(1)?;
        if n_pending != env.pending_trip.len() {
            return Err(StateError::Malformed("pending-trip size"));
        }
        for p in &mut env.pending_trip {
            *p = match d.u8()? {
                0 => None,
                1 => Some(PendingTrip {
                    request: get_request(&mut d)?,
                    approach_km: d.f64()?,
                    pickup_at: SimTime(d.u32()?),
                    cruise_minutes: d.u32()?,
                    first_after_charge: d.opt_u16()?.map(StationId),
                }),
                _ => return Err(StateError::Malformed("pending-trip tag")),
            };
        }

        let n_ctx = d.len(1)?;
        if n_ctx != env.charge_ctx.len() {
            return Err(StateError::Malformed("charge-ctx size"));
        }
        for c in &mut env.charge_ctx {
            *c = match d.u8()? {
                0 => None,
                1 => Some(ChargeContext {
                    decided_at: SimTime(d.u32()?),
                    plugged_at: match d.u8()? {
                        0 => None,
                        1 => Some(SimTime(d.u32()?)),
                        _ => return Err(StateError::Malformed("plugged-at tag")),
                    },
                    plug_soc: d.f64()?,
                    redirects: d.u8()?,
                }),
                _ => return Err(StateError::Malformed("charge-ctx tag")),
            };
        }

        let (key, counter, index) = get_rng(&mut d)?;
        env.rng = StdRng::from_state(key, counter, index);
        let (key, counter, index) = get_rng(&mut d)?;
        let next_id = d.u64()?;
        env.trip_gen.restore_state((key, counter, index), next_id);

        let n = d.len(2)?;
        env.active_faults.stations_out = (0..n).map(|_| d.u16()).collect::<Result<Vec<_>, _>>()?;
        let n = d.len(10)?;
        env.active_faults.demand_factors.clear();
        for _ in 0..n {
            let r = d.u16()?;
            let f = d.f64()?;
            env.active_faults.demand_factors.push((r, f));
        }
        let n = d.len(4)?;
        env.active_faults.taxis_out = (0..n).map(|_| d.u32()).collect::<Result<Vec<_>, _>>()?;
        env.active_faults.obs_lag_slots = d.u32()?;
        let n = d.len(2)?;
        env.active_faults.obs_dropped_regions =
            (0..n).map(|_| d.u16()).collect::<Result<Vec<_>, _>>()?;
        env.active_faults.command_loss_prob = d.f64()?;

        let n = d.len(8)?;
        env.obs_history.clear();
        for _ in 0..n {
            env.obs_history.push_back(get_observation(&mut d)?);
        }

        env.fault_counters = FaultCounters {
            active_slots: d.u64()?,
            station_outage_slots: d.u64()?,
            demand_scaled_regions: d.u64()?,
            taxi_out_slots: d.u64()?,
            obs_stale_slots: d.u64()?,
            obs_dropped_regions: d.u64()?,
            commands_lost: d.u64()?,
        };
        env.invariant_violations = d.u64()?;

        d.done()?;
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StayPolicy;
    use fairmove_faults::{FaultPlan, FaultSpec, SlotWindow};

    fn config() -> SimConfig {
        SimConfig::test_scale()
    }

    fn step_n(env: &mut Environment, policy: &mut StayPolicy, n: usize) {
        for _ in 0..n {
            let fb = env.step_slot(policy);
            let _ = fb;
        }
    }

    #[test]
    fn save_restore_continues_bit_identically() {
        let mut uninterrupted = Environment::new(config());
        let mut first_half = Environment::new(config());
        let mut policy = StayPolicy;
        step_n(&mut uninterrupted, &mut policy, 30);

        step_n(&mut first_half, &mut policy, 12);
        let image = first_half.save_state();
        let mut restored = Environment::restore_state(config(), &image).unwrap();
        step_n(&mut restored, &mut policy, 18);

        assert_eq!(
            uninterrupted.ledger(),
            restored.ledger(),
            "restored run diverged from the uninterrupted run"
        );
        assert_eq!(uninterrupted.now(), restored.now());
    }

    #[test]
    fn save_restore_is_exact_under_faults() {
        let plan = FaultPlan::new(11)
            .with(FaultSpec::StationOutage {
                station: 1,
                window: SlotWindow::new(4, 20),
            })
            .with(FaultSpec::DemandSurge {
                region: 2,
                factor: 2.5,
                window: SlotWindow::new(6, 18),
            });

        let mut uninterrupted = Environment::new(config());
        uninterrupted.set_fault_plan(plan.clone());
        let mut policy = StayPolicy;
        step_n(&mut uninterrupted, &mut policy, 28);

        let mut first_half = Environment::new(config());
        first_half.set_fault_plan(plan.clone());
        // Save mid-outage so active-fault state (station recovery diffs
        // against it) is genuinely exercised.
        step_n(&mut first_half, &mut policy, 10);
        let image = first_half.save_state();
        let mut restored = Environment::restore_state(config(), &image).unwrap();
        restored.set_fault_plan(plan);
        step_n(&mut restored, &mut policy, 18);

        assert_eq!(uninterrupted.ledger(), restored.ledger());
        assert_eq!(
            uninterrupted.fault_counters(),
            restored.fault_counters(),
            "fault tallies diverged"
        );
    }

    #[test]
    fn truncation_at_any_point_is_rejected_cleanly() {
        let mut env = Environment::new(config());
        let mut policy = StayPolicy;
        step_n(&mut env, &mut policy, 6);
        let image = env.save_state();
        // Every 97th boundary keeps the test fast while still sweeping the
        // whole image; the serve-layer torn-write test covers every byte of
        // its (smaller) checkpoint files.
        for cut in (0..image.len()).step_by(97) {
            let err = Environment::restore_state(config(), &image[..cut]);
            assert!(err.is_err(), "truncated image at {cut} bytes was accepted");
        }
    }

    #[test]
    fn wrong_magic_version_and_config_are_rejected() {
        let env = Environment::new(config());
        let image = env.save_state();

        let mut bad_magic = image.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            Environment::restore_state(config(), &bad_magic).err(),
            Some(StateError::BadMagic)
        );

        let mut bad_version = image.clone();
        bad_version[8] = 99;
        assert_eq!(
            Environment::restore_state(config(), &bad_version).err(),
            Some(StateError::BadVersion(99))
        );

        let mut other = config();
        other.seed ^= 1;
        assert_eq!(
            Environment::restore_state(other, &image).err(),
            Some(StateError::ConfigMismatch)
        );

        let mut trailing = image.clone();
        trailing.push(0);
        assert_eq!(
            Environment::restore_state(config(), &trailing).err(),
            Some(StateError::TrailingBytes)
        );
    }

    /// xorshift64*: a tiny deterministic byte source for the fuzz sweeps
    /// below (no dependency on the simulator's own RNG stack, so a codec
    /// bug cannot hide behind the generator under test).
    struct FuzzRng(u64);

    impl FuzzRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn garbage_images_are_rejected_without_panic_or_huge_alloc() {
        // Pure-noise images of assorted sizes: every one must come back as
        // a clean `Err`, never a panic or an attempted multi-GB allocation.
        // (An allocation proportional to a bogus length field would abort
        // the process, which this test would surface as a crash.)
        let mut rng = FuzzRng(0x5eed_f00d);
        for size in [0usize, 1, 7, 8, 24, 100, 1_000, 10_000] {
            for round in 0..8 {
                let bytes: Vec<u8> = (0..size).map(|_| rng.next() as u8).collect();
                let result = Environment::restore_state(config(), &bytes);
                assert!(
                    result.is_err(),
                    "garbage image (size {size}, round {round}) was accepted"
                );
            }
        }
    }

    #[test]
    fn garbage_after_valid_header_is_rejected() {
        // Noise behind a valid magic + version + fingerprint exercises the
        // body decoders (length fields, tags) rather than the header check.
        let env = Environment::new(config());
        let header: Vec<u8> = env.save_state()[..20].to_vec();
        let mut rng = FuzzRng(0xbad_c0de);
        for size in [0usize, 8, 64, 512, 4_096] {
            let mut bytes = header.clone();
            bytes.extend((0..size).map(|_| rng.next() as u8));
            assert!(
                Environment::restore_state(config(), &bytes).is_err(),
                "garbage body of {size} bytes was accepted"
            );
        }
    }

    #[test]
    fn corrupt_length_field_errors_cleanly() {
        // Overwrite bytes right after the header — where the first sequence
        // lengths live — with huge little-endian values. The decoder must
        // reject them via the remaining-bytes bound instead of trying to
        // reserve petabytes.
        let mut env = Environment::new(config());
        let mut policy = StayPolicy;
        step_n(&mut env, &mut policy, 4);
        let image = env.save_state();
        for &evil in &[u64::MAX, u64::MAX / 2, 1 << 40, (1 << 32) + 1] {
            let mut bytes = image.clone();
            // now (u32) sits at offset 20; the taxi-count u64 follows it.
            bytes[24..32].copy_from_slice(&evil.to_le_bytes());
            let err = Environment::restore_state(config(), &bytes);
            assert!(err.is_err(), "length {evil:#x} was accepted");
        }
    }

    #[test]
    fn random_single_byte_corruption_never_panics() {
        // Fuzz-style sweep: flip one pseudo-random byte of a valid image at
        // a time. Restore must either succeed (the byte was slack, e.g. an
        // f64 mantissa bit) or fail cleanly — it must never panic. The
        // sweep count is bounded for test-suite speed; the stride-97
        // truncation sweep above covers the torn-image axis.
        let mut env = Environment::new(config());
        let mut policy = StayPolicy;
        step_n(&mut env, &mut policy, 4);
        let image = env.save_state();
        let mut rng = FuzzRng(0x0ddb_a115);
        for _ in 0..256 {
            let pos = (rng.next() as usize) % image.len();
            let flip = (rng.next() as u8) | 1; // never a zero XOR
            let mut bytes = image.clone();
            bytes[pos] ^= flip;
            // Success or clean error are both acceptable; what this pins is
            // the absence of panics and runaway allocations.
            let _ = Environment::restore_state(config(), &bytes);
        }
    }

    #[test]
    fn torn_and_doubled_images_are_rejected() {
        let mut env = Environment::new(config());
        let mut policy = StayPolicy;
        step_n(&mut env, &mut policy, 4);
        let image = env.save_state();
        // A torn tail spliced onto a valid prefix (the classic partial
        // rewrite) and a doubled image both fail structurally.
        let mut torn = image[..image.len() / 2].to_vec();
        torn.extend_from_slice(&image[..image.len() / 4]);
        assert!(Environment::restore_state(config(), &torn).is_err());
        let mut doubled = image.clone();
        doubled.extend_from_slice(&image);
        assert!(Environment::restore_state(config(), &doubled).is_err());
    }

    #[test]
    fn roundtrip_image_is_stable() {
        // save → restore → save yields the identical byte image: nothing is
        // lost or reordered by a round trip.
        let mut env = Environment::new(config());
        let mut policy = StayPolicy;
        step_n(&mut env, &mut policy, 9);
        let image = env.save_state();
        let restored = Environment::restore_state(config(), &image).unwrap();
        assert_eq!(image, restored.save_state());
    }

    #[test]
    fn hashing_the_image_equals_hashing_its_bytes() {
        let mut env = Environment::new(config());
        let mut policy = StayPolicy;
        step_n(&mut env, &mut policy, 5);
        let image = env.save_state();
        assert_eq!(env.hash_state(crate::FNV64_OFFSET), crate::fnv64(&image));
        // Continuing a hash, and appending to a buffer, both pick up where
        // the earlier bytes left off.
        let mut prefixed = b"prefix".to_vec();
        env.save_state_into(&mut prefixed);
        assert_eq!(&prefixed[6..], image.as_slice());
        assert_eq!(
            env.hash_state(crate::fnv64(b"prefix")),
            crate::fnv64(&prefixed)
        );
    }
}
