//! The `paper-cma2c` and `paper-greedy` workloads: `ShardedEnv` at the
//! paper preset (491 regions, 123 stations, 20,130 taxis, 4 shards),
//! stepped slot by slot from slot 0.
//!
//! A run repeats one unit of work: a fresh engine stepped a fixed number of
//! slots from slot 0. Untraced, a unit times each `step_slot` call and
//! nothing else, and between slots it times the [`calib`] kernel; the
//! end-to-end times are scaled to the reference host's speed with it.
//! Traced, untraced units alternate with units whose shard
//! policies are wrapped in a [`TimedPolicy`], which times and counts each
//! `decide_region` call. Both kinds of unit must end in the same state (the
//! wrapper is inert), and the ratio of their step times is
//! `trace.overhead`.

use fairmove_agents::{Cma2cConfig, Cma2cShardPolicy};
use fairmove_city::{City, RegionId};
use fairmove_serve::fnv64;
use fairmove_sim::{
    Action, DecisionContext, GreedyDeficitPolicy, ShardPolicy, ShardedEnv, SimConfig,
    SlotObservation,
};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::{alloc, calib, layers, Scale, Workload};

/// Shard count of every paper-scale run (the baseline layout).
pub const SHARDS: usize = 4;
/// Fewest set-ups an untraced run times for `setup_s`.
const SETUP_REPEATS: usize = 15;

/// Which shard policy drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Frozen CMA2C with the trained benchmark actor.
    Cma2c,
    /// Greedy deficit chasing.
    Greedy,
}

impl Policy {
    /// Slots one unit of work steps from slot 0.
    fn unit_slots(self) -> u32 {
        match self {
            Policy::Cma2c => 6,
            Policy::Greedy => 7 * 144,
        }
    }

    /// Slots between two calibration samples: about one sample per
    /// 0.15 s of stepping.
    fn calib_every(self) -> usize {
        match self {
            Policy::Cma2c => 1,
            Policy::Greedy => 36,
        }
    }

    /// The slot at which every unit checks its pinned decision count and
    /// digest.
    fn pin_slot(self) -> u32 {
        match self {
            Policy::Cma2c => 2,
            Policy::Greedy => 144,
        }
    }

    /// `(decisions, digest)` at the pin slot of the paper preset at
    /// [`crate::DEFAULT_SEED`].
    fn pinned(self) -> (u64, u64) {
        match self {
            Policy::Cma2c => (44_909, 0x4b94_79a3_cf1b_0bda),
            Policy::Greedy => (3_078_512, 0x3619_ebc8_4b33_0c61),
        }
    }
}

/// The simulator configuration of a paper workload at `scale`.
pub fn sim_config(scale: Scale, seed: u64) -> SimConfig {
    let base = match scale {
        Scale::Full => SimConfig {
            days: 1,
            ..SimConfig::shenzhen_scale()
        },
        Scale::Test => SimConfig::test_scale(),
    };
    SimConfig { seed, ..base }
}

/// Reads the trained actor and checks it against the hash saved beside it.
pub fn read_actor() -> Result<Vec<u8>, String> {
    let path = crate::actor_path();
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let want = std::fs::read_to_string(format!("{path}.fnv64"))
        .map_err(|e| format!("read {path}.fnv64: {e}"))?;
    let got = format!("{:016x}", fnv64(&bytes));
    if got != want.trim() {
        return Err(format!("actor hash {got} does not match {}", want.trim()));
    }
    Ok(bytes)
}

/// Time and counts one shard's `decide_region` calls add up to.
#[derive(Debug, Default)]
pub struct ShardProbe {
    decide_ns: AtomicU64,
    calls: AtomicU64,
    contexts: AtomicU64,
    candidates: AtomicU64,
    /// The first non-empty context list this shard decided (for the
    /// featurization probe).
    sample: Mutex<Option<Vec<DecisionContext>>>,
}

impl ShardProbe {
    fn decide_ns(&self) -> u64 {
        self.decide_ns.load(Ordering::Relaxed)
    }
}

/// A [`ShardPolicy`] that delegates to `inner` and records the wall time
/// and sizes of each call in its shard's probe. It changes no input and no
/// output of the call.
pub struct TimedPolicy {
    inner: Box<dyn ShardPolicy>,
    probe: Arc<ShardProbe>,
}

impl ShardPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide_region(
        &mut self,
        city: &City,
        obs: &SlotObservation,
        region: RegionId,
        ctxs: &[DecisionContext],
        rng: &mut StdRng,
        out: &mut Vec<Action>,
    ) {
        let start = Instant::now();
        self.inner.decide_region(city, obs, region, ctxs, rng, out);
        let ns = start.elapsed().as_nanos() as u64;
        let p = &self.probe;
        p.decide_ns.fetch_add(ns, Ordering::Relaxed);
        if ctxs.is_empty() {
            return;
        }
        p.calls.fetch_add(1, Ordering::Relaxed);
        p.contexts.fetch_add(ctxs.len() as u64, Ordering::Relaxed);
        let candidates: usize = ctxs.iter().map(|c| c.actions.len()).sum();
        p.candidates.fetch_add(candidates as u64, Ordering::Relaxed);
        let mut sample = p.sample.lock().expect("probe sample lock poisoned");
        if sample.is_none() {
            *sample = Some(ctxs.to_vec());
        }
    }
}

/// Builds the engine under `policy`. With `probes`, every shard's policy
/// is wrapped in a [`TimedPolicy`] whose probe is appended to `probes` in
/// shard order.
pub fn build_env(
    config: &SimConfig,
    policy: Policy,
    actor: Option<&[u8]>,
    probes: Option<&Mutex<Vec<Arc<ShardProbe>>>>,
) -> ShardedEnv {
    let factory = |city: &City| -> Box<dyn ShardPolicy> {
        let inner: Box<dyn ShardPolicy> = match policy {
            Policy::Greedy => Box::new(GreedyDeficitPolicy::default()),
            Policy::Cma2c => {
                let mut p = Cma2cShardPolicy::new(city, &Cma2cConfig::default());
                let mut bytes = actor.expect("the CMA2C workload loads an actor");
                p.load_actor(&mut bytes)
                    .expect("actor matches the shard policy");
                Box::new(p)
            }
        };
        match probes {
            None => inner,
            Some(list) => {
                let probe = Arc::new(ShardProbe::default());
                list.lock()
                    .expect("probe list lock poisoned")
                    .push(Arc::clone(&probe));
                Box::new(TimedPolicy { inner, probe })
            }
        }
    };
    ShardedEnv::with_policy(config.clone(), SHARDS, &factory)
}

/// Sim threads: one per core, at most one per shard.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(SHARDS)
}

/// Checks fleet conservation: every taxi is somewhere.
fn check_fleet(out: &mut Outcome, env: &ShardedEnv, fleet: usize) {
    let taxis = env.taxi_rows().len();
    out.check(taxis == fleet, || {
        format!("slot {}: {taxis} taxis, fleet is {fleet}", env.slot())
    });
}

/// At the pin slot: checks the fleet, reports the decision count and
/// digest, and checks them against the pinned values on a paper-scale run
/// at the default seed.
fn check_pin(out: &mut Outcome, env: &ShardedEnv, w: &Workload, fleet: usize, policy: Policy) {
    check_fleet(out, env, fleet);
    let got = (env.decisions(), env.digest());
    let line = format!(
        "slot {}: {} decisions, digest {:016x}",
        env.slot(),
        got.0,
        got.1
    );
    if !out.notes.contains(&line) {
        out.note(line);
    }
    if w.scale == Scale::Full && w.seed == crate::DEFAULT_SEED {
        let want = policy.pinned();
        out.check(got == want, || {
            format!(
                "slot {}: decisions {} digest {:016x}, pinned {} {:016x}",
                env.slot(),
                got.0,
                got.1,
                want.0,
                want.1
            )
        });
    }
}

/// Per-slot sums over the traced units, read from the shard probes.
#[derive(Default)]
struct LayerSums {
    slots: u64,
    step_ns: f64,
    decide_ns: f64,
    imbalance: f64,
    allocs: u64,
    handoffs: u64,
    calls: u64,
    contexts: u64,
    candidates: u64,
    /// The frozen observation at the end of the last traced unit.
    obs: SlotObservation,
    /// Shard 0's first decided context list in the last traced unit.
    sample: Vec<DecisionContext>,
}

/// What one unit of work measured.
struct Unit {
    setup_s: f64,
    step_ms: Vec<f64>,
    /// Calibration kernel times taken between the unit's slots.
    calib_s: Vec<f64>,
    decisions: u64,
    digest: u64,
}

impl Unit {
    fn busy_s(&self) -> f64 {
        self.step_ms.iter().sum::<f64>() / 1e3
    }

    /// Factor from this unit's wall times to times at the reference host's
    /// speed: below 1 when the host ran slower than the reference.
    fn scale(&self) -> f64 {
        calib::REFERENCE_S / median(&self.calib_s)
    }
}

/// Set-up, timed: read and hash-check the actor, build the city, the engine
/// and its policies (wrapped when `probes` is given). Returns the engine
/// and the seconds it took, or `None` when set-up failed (recorded in
/// `out`).
fn set_up(
    out: &mut Outcome,
    config: &SimConfig,
    policy: Policy,
    probes: Option<&Mutex<Vec<Arc<ShardProbe>>>>,
) -> Option<(ShardedEnv, f64)> {
    let start = Instant::now();
    let actor = match policy {
        Policy::Cma2c => match read_actor() {
            Ok(bytes) => Some(bytes),
            Err(e) => {
                out.check(false, || e);
                return None;
            }
        },
        Policy::Greedy => None,
    };
    let env = build_env(config, policy, actor.as_deref(), probes);
    Some((env, start.elapsed().as_secs_f64()))
}

/// One unit of work: set up, then step `unit_slots` slots from slot 0,
/// timing each `step_slot` call. With `layers`, every shard's policy is
/// wrapped in a [`TimedPolicy`] and the probes are summed per slot.
/// Returns `None` when set-up failed (recorded in `out`).
fn run_unit(
    out: &mut Outcome,
    w: &Workload,
    config: &SimConfig,
    policy: Policy,
    mut layers: Option<&mut LayerSums>,
) -> Option<Unit> {
    let probe_list = Mutex::new(Vec::new());
    let traced = layers.is_some().then_some(&probe_list);
    let (mut env, setup_s) = set_up(out, config, policy, traced)?;
    let probes = probe_list.into_inner().expect("probe list lock poisoned");

    let threads = threads();
    let mut step_ms = Vec::with_capacity(policy.unit_slots() as usize);
    let mut calib_s = Vec::new();
    for _ in 0..policy.unit_slots() {
        match layers.as_deref_mut() {
            None => {
                let start = Instant::now();
                env.step_slot(threads);
                step_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            Some(sums) => {
                let decided: Vec<u64> = probes.iter().map(|p| p.decide_ns()).collect();
                let handoffs = env.cross_shard_handoffs();
                let allocs = alloc::allocations();
                alloc::set_counting(true);
                let start = Instant::now();
                env.step_slot(threads);
                let took = start.elapsed();
                alloc::set_counting(false);
                sums.allocs += alloc::allocations() - allocs;
                sums.handoffs += env.cross_shard_handoffs() - handoffs;
                step_ms.push(took.as_secs_f64() * 1e3);
                let per_shard: Vec<f64> = probes
                    .iter()
                    .zip(&decided)
                    .map(|(p, before)| (p.decide_ns() - before) as f64)
                    .collect();
                let decide: f64 = per_shard.iter().sum();
                let slowest = per_shard.iter().copied().fold(0.0, f64::max);
                sums.slots += 1;
                sums.step_ns += took.as_nanos() as f64;
                sums.decide_ns += decide;
                if decide > 0.0 {
                    sums.imbalance += slowest / (decide / per_shard.len() as f64);
                }
            }
        }
        if step_ms.len() % policy.calib_every() == 0 {
            calib_s.push(calib::time(threads));
        }
        out.attempted += 1;
        if env.slot() == policy.pin_slot() {
            check_pin(out, &env, w, config.fleet_size, policy);
        }
    }
    check_fleet(out, &env, config.fleet_size);
    if let Some(sums) = layers {
        let total = |count: fn(&ShardProbe) -> &AtomicU64| -> u64 {
            probes
                .iter()
                .map(|p| count(p).load(Ordering::Relaxed))
                .sum()
        };
        sums.calls += total(|p| &p.calls);
        sums.contexts += total(|p| &p.contexts);
        sums.candidates += total(|p| &p.candidates);
        sums.obs = env.observation().clone();
        let mut sample = probes[0].sample.lock().expect("probe sample lock poisoned");
        if let Some(ctxs) = sample.take() {
            sums.sample = ctxs;
        }
    }
    Some(Unit {
        setup_s,
        step_ms,
        calib_s,
        decisions: env.decisions(),
        digest: env.digest(),
    })
}

/// Runs a paper workload and returns what it measured.
///
/// Units repeat until `w.seconds` of stepping time has passed. Every unit
/// of a run does identical work and must end in the same state. Every time
/// is scaled to the reference host's speed ([`calib`]): rates are a unit's
/// work over the median unit's scaled stepping time, slot times are
/// quantiles over all the run's scaled slot times, and `setup_s` is the
/// median of at least [`SETUP_REPEATS`] set-ups times the median unit's
/// scale. The wall-clock figures are printed as notes.
pub fn run(w: Workload, policy: Policy) -> Outcome {
    let mut out = Outcome::default();
    let config = sim_config(w.scale, w.seed);
    let budget = w.seconds.as_secs_f64();
    let mut busy = 0.0;
    if !w.traced {
        let mut units: Vec<Unit> = Vec::new();
        while units.is_empty() || busy < budget {
            let Some(unit) = run_unit(&mut out, &w, &config, policy, None) else {
                return out;
            };
            busy += unit.busy_s();
            units.push(unit);
        }
        let mut setups: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
        while setups.len() < SETUP_REPEATS {
            let Some((_, took)) = set_up(&mut out, &config, policy, None) else {
                return out;
            };
            setups.push(took);
        }
        for unit in &units[1..] {
            out.check(
                unit.decisions == units[0].decisions && unit.digest == units[0].digest,
                || "two units of the same work ended in different states".into(),
            );
        }
        let slot_ms = |scaled: bool| -> Vec<f64> {
            units
                .iter()
                .flat_map(|u| {
                    let k = if scaled { u.scale() } else { 1.0 };
                    u.step_ms.iter().map(move |ms| ms * k)
                })
                .collect()
        };
        let (all_ms, wall_ms) = (slot_ms(true), slot_ms(false));
        let unit_s = median(
            &units
                .iter()
                .map(|u| u.busy_s() * u.scale())
                .collect::<Vec<_>>(),
        );
        let wall_unit_s = median(&units.iter().map(Unit::busy_s).collect::<Vec<_>>());
        let scale = median(&units.iter().map(Unit::scale).collect::<Vec<_>>());
        let slots = f64::from(policy.unit_slots());
        out.set("setup_s", median(&setups) * scale);
        out.set("ops_per_s", slots / unit_s);
        out.set("decisions_per_s", units[0].decisions as f64 / unit_s);
        out.set("op_p50_ms", median(&all_ms));
        out.set("peak_rss_mb", peak_rss_mb());
        out.note(format!(
            "{} units of {} slots from slot 0 on {} threads x {SHARDS} shards, {} decisions per unit",
            units.len(),
            policy.unit_slots(),
            threads(),
            units[0].decisions
        ));
        out.note(format!(
            "host speed: calibration kernel {:.3} ms per sample (reference {:.3} ms), times scaled by {scale:.4}",
            calib::REFERENCE_S / scale * 1e3,
            calib::REFERENCE_S * 1e3
        ));
        out.note(format!(
            "at reference speed: slots_per_s {:.4} 1/s, slot_p50_ms {:.4} ms",
            slots / unit_s,
            median(&all_ms)
        ));
        out.note(format!(
            "wall clock: slots_per_s {:.4} 1/s, slot_p50_ms {:.4} ms, setup_s {:.4} s",
            slots / wall_unit_s,
            median(&wall_ms),
            median(&setups)
        ));
        if all_ms.len() >= 1000 {
            out.note(format!(
                "slot_p99_ms {:.4} ms at reference speed, {:.4} ms wall clock",
                quantile(&all_ms, 0.99),
                quantile(&wall_ms, 0.99)
            ));
        }
        return out;
    }

    // Traced: untraced and traced units alternate over the same work.
    let mut sums = LayerSums::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    while plain_s.is_empty() || busy < budget {
        let Some(plain) = run_unit(&mut out, &w, &config, policy, None) else {
            return out;
        };
        let Some(traced) = run_unit(&mut out, &w, &config, policy, Some(&mut sums)) else {
            return out;
        };
        out.check(
            plain.digest == traced.digest && plain.decisions == traced.decisions,
            || "timed policy wrapper changed the run".into(),
        );
        busy += plain.busy_s() + traced.busy_s();
        plain_s.push(plain.busy_s());
        traced_s.push(traced.busy_s());
    }
    let n = sums.slots.max(1) as f64;
    let threads = threads();
    out.set("trace.overhead", median(&traced_s) / median(&plain_s) - 1.0);
    out.set("shard.step_ms", sums.step_ns / n / 1e6);
    out.set("shard.decide_ms", sums.decide_ns / n / 1e6);
    out.set(
        "shard.decide_share",
        sums.decide_ns / (threads as f64 * sums.step_ns),
    );
    out.set("shard.imbalance", sums.imbalance / n);
    out.set("shard.contexts_per_slot", sums.contexts as f64 / n);
    out.set(
        "shard.candidates_per_context",
        sums.candidates as f64 / sums.contexts.max(1) as f64,
    );
    out.set("shard.handoffs_per_slot", sums.handoffs as f64 / n);
    out.set("shard.allocs_per_slot", sums.allocs as f64 / n);
    out.note(format!(
        "{} traced units of {} slots on {threads} threads x {SHARDS} shards",
        traced_s.len(),
        policy.unit_slots()
    ));
    if policy == Policy::Cma2c {
        let contexts = sums.contexts.max(1) as f64;
        out.set(
            "cma2c_shard.us_per_context",
            sums.decide_ns / contexts / 1e3,
        );
        let city = City::generate(config.city.clone());
        let rows = layers::probe_features(&mut out, &city, &sums.obs, &sums.sample);
        let mut actor = Cma2cShardPolicy::new(&city, &Cma2cConfig::default());
        match read_actor() {
            Ok(bytes) => actor
                .load_actor(&mut bytes.as_slice())
                .expect("actor matches the shard policy"),
            Err(e) => out.check(false, || e),
        }
        let calls = sums.calls.max(1) as f64;
        let wave_rows = sums.candidates as f64 / calls;
        out.note(format!(
            "mean region wave: {:.1} contexts, {wave_rows:.1} candidate rows",
            sums.contexts as f64 / calls
        ));
        layers::probe_forward(&mut out, actor.actor(), &rows, wave_rows.round() as usize);
    }
    out
}
