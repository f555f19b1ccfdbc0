//! Canonical text serialization for golden snapshots.
//!
//! Every form here is deterministic and exact: floats are rendered with
//! `{:?}` (Rust's shortest round-trip formatting), so two bit-identical
//! structures produce byte-identical text and any single-ULP drift shows up
//! as a diff. Event lines carry a leading `slot=N` token, which the golden
//! differ uses to report the first *diverging slot*, not just a line number.

use fairmove_core::experiments::ComparisonResults;
use fairmove_sim::FleetLedger;
use fairmove_telemetry::Snapshot;
use std::fmt::Write as _;

/// Exact float rendering (shortest string that round-trips).
pub fn f(x: f64) -> String {
    format!("{x:?}")
}

/// Canonical text form of a full [`FleetLedger`]: per-taxi totals, then
/// every trip and charge event (each line tagged with its completion slot).
pub fn canon_ledger(ledger: &FleetLedger) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fairmove-ledger v1");
    let _ = writeln!(out, "taxis {}", ledger.taxis().len());
    for (i, t) in ledger.taxis().iter().enumerate() {
        let _ = writeln!(
            out,
            "taxi T{i} cruise={} serve={} idle={} charge={} revenue={} cost={} trips={} charges={}",
            t.cruise_minutes,
            t.serve_minutes,
            t.idle_minutes,
            t.charge_minutes,
            f(t.revenue_cny),
            f(t.cost_cny),
            t.n_trips,
            t.n_charges,
        );
    }
    let _ = writeln!(out, "trips {}", ledger.trips().len());
    for t in ledger.trips() {
        let _ = writeln!(
            out,
            "slot={} trip taxi=T{} pickup={} dropoff={} origin={} dest={} km={} fare={} cruise_min={} after_charge={}",
            t.dropoff_at.absolute_slot(),
            t.taxi.0,
            t.pickup_at.minutes(),
            t.dropoff_at.minutes(),
            t.origin.0,
            t.destination.0,
            f(t.distance_km),
            f(t.fare_cny),
            t.cruise_minutes,
            t.first_after_charge.map_or(-1, |s| i64::from(s.0)),
        );
    }
    let _ = writeln!(out, "charges {}", ledger.charges().len());
    for c in ledger.charges() {
        let _ = writeln!(
            out,
            "slot={} charge taxi=T{} station={} decided={} plugged={} finished={} kwh={} cost={}",
            c.finished_at.absolute_slot(),
            c.taxi.0,
            c.station.0,
            c.decided_at.minutes(),
            c.plugged_at.minutes(),
            c.finished_at.minutes(),
            f(c.energy_kwh),
            f(c.cost_cny),
        );
    }
    let _ = writeln!(out, "expired {}", ledger.expired_requests);
    out
}

/// Compact per-slot digest of a ledger's event stream: one line per slot
/// that saw activity, with counts and an FNV-1a digest of the event fields.
/// Bit-identical ledgers produce byte-identical digests; the first
/// diverging slot is immediately visible in a diff.
pub fn slot_digests(ledger: &FleetLedger) -> String {
    #[derive(Default)]
    struct SlotAcc {
        trips: u32,
        charges: u32,
        hash: u64,
    }
    let mut slots: std::collections::BTreeMap<u32, SlotAcc> = std::collections::BTreeMap::new();
    let mut fold = |slot: u32, trips: u32, charges: u32, line: &str| {
        let acc = slots.entry(slot).or_insert_with(|| SlotAcc {
            hash: 0xcbf2_9ce4_8422_2325,
            ..SlotAcc::default()
        });
        acc.trips += trips;
        acc.charges += charges;
        // Chain line digests order-sensitively.
        let mut h = acc.hash;
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        acc.hash = h;
    };
    for t in ledger.trips() {
        let line = format!(
            "T{} {} {} {} {} {} {} {}",
            t.taxi.0,
            t.pickup_at.minutes(),
            t.dropoff_at.minutes(),
            t.origin.0,
            t.destination.0,
            f(t.distance_km),
            f(t.fare_cny),
            t.cruise_minutes
        );
        fold(t.dropoff_at.absolute_slot(), 1, 0, &line);
    }
    for c in ledger.charges() {
        let line = format!(
            "T{} {} {} {} {} {} {}",
            c.taxi.0,
            c.station.0,
            c.decided_at.minutes(),
            c.plugged_at.minutes(),
            c.finished_at.minutes(),
            f(c.energy_kwh),
            f(c.cost_cny)
        );
        fold(c.finished_at.absolute_slot(), 0, 1, &line);
    }
    let mut out = String::new();
    let (revenue, cost) = ledger.totals();
    let _ = writeln!(
        out,
        "totals revenue={} cost={} trips={} charges={} expired={}",
        f(revenue),
        f(cost),
        ledger.trips().len(),
        ledger.charges().len(),
        ledger.expired_requests
    );
    for (slot, acc) in &slots {
        let _ = writeln!(
            out,
            "slot={slot} trips={} charges={} fnv={:016x}",
            acc.trips, acc.charges, acc.hash
        );
    }
    out
}

/// Canonical text form of a [`ComparisonResults`]: headline outcome and
/// report per method, followed by the per-slot digests of each ledger.
pub fn canon_comparison(results: &ComparisonResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fairmove-comparison v1");
    let _ = writeln!(
        out,
        "gt reward={} mean_pe={} pf={}",
        f(results.gt.average_reward),
        f(results.gt.mean_pe),
        f(results.gt.pf)
    );
    for m in &results.methods {
        let _ = writeln!(
            out,
            "method {} reward={} mean_pe={} pf={} prct={} prit={} pipe={} pipf={} median_cruise={} median_pe={}",
            m.report.name,
            f(m.outcome.average_reward),
            f(m.outcome.mean_pe),
            f(m.outcome.pf),
            f(m.report.prct),
            f(m.report.prit),
            f(m.report.pipe),
            f(m.report.pipf),
            f(m.report.median_cruise_minutes),
            f(m.report.median_pe),
        );
        for (i, r) in m.training_curve.iter().enumerate() {
            let _ = writeln!(
                out,
                "method {} episode {} reward={}",
                m.report.name,
                i,
                f(*r)
            );
        }
    }
    let _ = writeln!(out, "ledger GT");
    out.push_str(&slot_digests(&results.gt.ledger));
    for m in &results.methods {
        let _ = writeln!(out, "ledger {}", m.report.name);
        out.push_str(&slot_digests(&m.outcome.ledger));
    }
    out
}

/// Canonical text form of a telemetry [`Snapshot`], with wall-clock timing
/// histograms stripped (`Snapshot::without_timings`) so the form is
/// machine-independent.
pub fn canon_snapshot(snapshot: &Snapshot) -> String {
    let s = snapshot.without_timings();
    let mut out = String::new();
    let _ = writeln!(out, "fairmove-telemetry v1");
    for (name, v) in &s.counters {
        let _ = writeln!(out, "counter {name} {v}");
    }
    for (name, v) in &s.gauges {
        let _ = writeln!(out, "gauge {name} {}", f(*v));
    }
    for h in &s.histograms {
        let _ = writeln!(
            out,
            "histogram {} count={} sum={} counts={:?}",
            h.name,
            h.count,
            f(h.sum),
            h.counts
        );
    }
    out
}
