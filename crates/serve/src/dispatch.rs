//! The dispatch core: simulator + policy ladder + crash-safe snapshots.
//!
//! A [`DispatchCore`] owns everything the worker thread mutates: the
//! environment, the frozen CMA2C policy (still stochastic — Algorithm 1
//! samples from π at execution time), and the fault specs injected so far.
//! Every mutation goes through [`DispatchCore::apply_payload`] with the
//! *journal text* of the command, so live execution and warm-restart replay
//! run literally the same code path — the foundation of the bit-identical
//! recovery guarantee.
//!
//! Checkpoints capture the full mutable state: environment image
//! ([`Environment::save_state`]), policy parameters, policy RNG state (a
//! frozen policy still consumes randomness when sampling actions), and the
//! event list (the *plan* of future fault windows is an input, not
//! environment state). The payload is versioned and fingerprinted against
//! the [`SimConfig`], so a server restarted with a different world politely
//! refuses the snapshot instead of replaying nonsense.

use crate::degrade::ServiceLevel;
use crate::proto::parse_event;
use fairmove_agents::{Cma2cConfig, Cma2cPolicy, OraclePolicy};
use fairmove_faults::{FaultPlan, FaultSpec, SlotWindow};
use fairmove_sim::{
    config_fingerprint, fnv64_continue, Action, DisplacementPolicy, Environment, ResilientPolicy,
    SimConfig, StayPolicy, FNV64_OFFSET,
};

const MAGIC: &[u8; 8] = b"FMSRVCK1";
const VERSION: u32 = 1;

/// Largest demand multiplier one `EVENT surge` may carry, alone or stacked:
/// overlapping surges on one region multiply, so the product of the
/// accepted ones must stay within it at every slot too. Randomized fault
/// plans draw surge factors from 0.5–3.0, so 10 leaves room for hand-written
/// events. The bound exists because the environment materializes every
/// Poisson-drawn trip: an unbounded factor (`1e12`, or thirteen stacked
/// `10`s) saturated the count at `u32::MAX` and the next `STEP` aborted on a
/// 10 GiB allocation, and as the event is journaled before it runs, warm
/// restart replayed the same abort.
const MAX_SURGE_FACTOR: f64 = 10.0;

/// Result of one applied `STEP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Simulation clock after the step, in minutes.
    pub now_minutes: u32,
    /// Completed trips so far (whole run).
    pub trips: u64,
}

/// Result of one applied `DECIDE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecideOutcome {
    /// Vacant taxis consulted.
    pub decisions: u64,
    /// Decisions that displace (anything but stay-put).
    pub moved: u64,
}

/// See the module docs.
pub struct DispatchCore {
    config: SimConfig,
    alpha: f64,
    env: Environment,
    policy: Cma2cPolicy,
    greedy: OraclePolicy,
    /// Canonical `EVENT` payload texts applied so far, in order.
    events: Vec<String>,
    /// Journal records applied (= the next sequence number expected).
    applied_seq: u64,
}

impl DispatchCore {
    /// A fresh core at slot zero with a frozen (randomly initialized unless
    /// later restored) CMA2C policy.
    pub fn new(config: SimConfig, alpha: f64) -> Self {
        let env = Environment::new(config.clone());
        let mut policy = Cma2cPolicy::new(
            env.city(),
            Cma2cConfig {
                alpha,
                seed: config.seed,
                ..Cma2cConfig::default()
            },
        );
        policy.freeze();
        DispatchCore {
            config,
            alpha,
            env,
            policy,
            greedy: OraclePolicy::new(),
            events: Vec::new(),
            applied_seq: 0,
        }
    }

    /// Journal records applied so far.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Simulation clock, in minutes.
    pub fn now_minutes(&self) -> u32 {
        self.env.now().0
    }

    /// Whether the simulation horizon is exhausted.
    pub fn done(&self) -> bool {
        self.env.done()
    }

    /// Whether the learned policy's parameters are finite.
    pub fn healthy(&self) -> bool {
        self.policy.is_healthy()
    }

    /// Digest over the *entire* replayable state: environment image plus
    /// policy RNG. Two cores with equal digests will answer every future
    /// request identically (given identical inputs).
    ///
    /// The environment image is hashed as it is encoded, never built: the
    /// digest is FNV-1a over `save_state() ‖ rng key ‖ counter ‖ index`.
    pub fn digest(&self) -> u64 {
        let mut h = self.env.hash_state(FNV64_OFFSET);
        let (key, counter, index) = self.policy.rng_state();
        for k in key {
            h = fnv64_continue(h, &k.to_le_bytes());
        }
        h = fnv64_continue(h, &counter.to_le_bytes());
        fnv64_continue(h, &index.to_le_bytes())
    }

    /// The fleet ledger (for tests asserting bitwise recovery).
    pub fn ledger(&self) -> &fairmove_sim::FleetLedger {
        self.env.ledger()
    }

    /// Applies one journal payload — `STEP <level>`, `DECIDE <level>`, or
    /// `EVENT <spec...>` — advancing the applied-sequence counter. Replay
    /// calls this with recorded payloads; live execution journals first and
    /// then calls this, so both paths are the same code.
    pub fn apply_payload(&mut self, payload: &str) -> Result<Applied, String> {
        // The record is consumed whether or not it executes (a horizon-
        // refused STEP refuses identically on live and replay paths), so
        // the applied-sequence counter always stays in lockstep with the
        // journal position.
        self.applied_seq += 1;
        let parts: Vec<&str> = payload.split_whitespace().collect();
        match parts.as_slice() {
            ["STEP", level] => Ok(Applied::Step(self.step(parse_level(level)?)?)),
            ["DECIDE", level] => Ok(Applied::Decide(self.decide(parse_level(level)?))),
            ["EVENT", rest @ ..] => {
                let (spec, text) = parse_event(rest)?;
                self.validate_spec(&spec)?;
                self.inject(spec, text);
                Ok(Applied::Event)
            }
            _ => Err(format!("unreplayable journal payload {payload:?}")),
        }
    }

    fn step(&mut self, level: ServiceLevel) -> Result<StepOutcome, String> {
        if self.env.done() {
            return Err("simulation horizon reached".into());
        }
        match level {
            ServiceLevel::Full => {
                let mut p = ResilientPolicy::new(&mut self.policy);
                self.env.step_slot(&mut p);
            }
            ServiceLevel::Fallback => {
                self.env.step_slot(&mut StayPolicy);
            }
            ServiceLevel::Greedy => {
                self.env.step_slot(&mut self.greedy);
            }
        }
        Ok(StepOutcome {
            now_minutes: self.env.now().0,
            trips: self.env.ledger().trips().len() as u64,
        })
    }

    fn decide(&mut self, level: ServiceLevel) -> DecideOutcome {
        let obs = self.env.observation();
        let ctxs = self.env.decision_contexts();
        let mut actions = Vec::with_capacity(ctxs.len());
        match level {
            ServiceLevel::Full => {
                let mut p = ResilientPolicy::new(&mut self.policy);
                p.decide_into(&obs, &ctxs, &mut actions);
            }
            ServiceLevel::Fallback => StayPolicy.decide_into(&obs, &ctxs, &mut actions),
            ServiceLevel::Greedy => self.greedy.decide_into(&obs, &ctxs, &mut actions),
        }
        let moved = actions
            .iter()
            .filter(|a| !matches!(a, Action::Stay))
            .count() as u64;
        DecideOutcome {
            decisions: ctxs.len() as u64,
            moved,
        }
    }

    /// Rejects fault specs whose ids don't exist in this world, surge
    /// factors that are non-finite, negative, or above [`MAX_SURGE_FACTOR`],
    /// and surges that would lift the product of the surges on their region
    /// above it at any slot of their window.
    /// A malformed client must get an `ERR 400` back, not crash the worker
    /// slots later when the environment indexes the phantom
    /// station/region/taxi or draws an unbounded trip count.
    /// Rejection happens identically on the live and replay paths (the
    /// record is journaled before it executes), so a bad event in an old
    /// journal replays to the same refusal.
    fn validate_spec(&self, spec: &FaultSpec) -> Result<(), String> {
        let regions = self.config.city.n_regions;
        let stations = self.config.city.n_stations;
        let fleet = self.config.fleet_size;
        match *spec {
            FaultSpec::StationOutage { station, .. } if usize::from(station) >= stations => Err(
                format!("station {station} out of range (world has {stations})"),
            ),
            FaultSpec::DemandSurge { region, .. }
            | FaultSpec::DemandBlackout { region, .. }
            | FaultSpec::ObservationDropout { region, .. }
                if usize::from(region) >= regions =>
            {
                Err(format!(
                    "region {region} out of range (world has {regions})"
                ))
            }
            FaultSpec::TaxiBreakdown { taxi, .. } if taxi as usize >= fleet => {
                Err(format!("taxi {taxi} out of range (fleet has {fleet})"))
            }
            FaultSpec::DemandSurge { factor, .. }
                if !(0.0..=MAX_SURGE_FACTOR).contains(&factor) =>
            {
                Err(format!(
                    "surge factor {factor} out of range (must be in [0, {MAX_SURGE_FACTOR}])"
                ))
            }
            FaultSpec::DemandSurge {
                region,
                factor,
                window,
            } => {
                let combined = self.peak_surge(region, window) * factor;
                if combined > MAX_SURGE_FACTOR {
                    Err(format!(
                        "surge factor {factor} stacks to {combined} on region {region} \
                         (combined factors must stay within {MAX_SURGE_FACTOR})"
                    ))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }

    /// The largest product of accepted surge factors on `region` at any slot
    /// of `window`: the demand multiplier `FaultSet` would already apply
    /// there before a new surge joins. The product only changes where a
    /// surge starts or ends (a factor below 1 ending raises it), so the
    /// window's first slot and every surge start and end inside it are the
    /// slots to check. An empty window is never active: 0.
    fn peak_surge(&self, region: u16, window: SlotWindow) -> f64 {
        let surges: Vec<(SlotWindow, f64)> = self
            .accepted_specs()
            .filter_map(|spec| match spec {
                FaultSpec::DemandSurge {
                    region: r,
                    factor,
                    window: w,
                } if r == region && w.start < window.end && window.start < w.end => {
                    Some((w, factor))
                }
                _ => None,
            })
            .collect();
        let edges = surges.iter().flat_map(|(w, _)| [w.start, w.end]);
        std::iter::once(window.start)
            .chain(edges)
            .filter(|&slot| window.contains(slot))
            .map(|slot| {
                surges
                    .iter()
                    .filter(|(w, _)| w.contains(slot))
                    .map(|&(_, f)| f)
                    .product::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// The accepted events, parsed back from their canonical texts.
    fn accepted_specs(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.events.iter().filter_map(|text| {
            let args: Vec<&str> = text.split_whitespace().collect();
            parse_event(&args).ok().map(|(spec, _)| spec)
        })
    }

    fn inject(&mut self, spec: FaultSpec, text: String) {
        let _ = spec;
        self.events.push(text);
        self.reattach_plan();
    }

    /// Rebuilds the fault plan from the accumulated event list. The plan is
    /// an *input* (future windows), re-derived from journaled events, while
    /// currently-active fault effects live inside the environment image.
    fn reattach_plan(&mut self) {
        let mut plan = FaultPlan::new(self.config.seed ^ 0x5345_5256); // "SERV"
        for spec in self.accepted_specs() {
            plan.push(spec);
        }
        self.env.set_fault_plan(plan);
    }

    // -- checkpointing -----------------------------------------------------

    /// Serializes the full restorable state (see the module docs) into a
    /// buffer sized once: the header, event and policy lengths are known,
    /// and the environment image is measured by the encoder that writes it.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut policy_blob = Vec::new();
        self.policy
            .save(&mut policy_blob)
            .expect("writing to a Vec cannot fail");
        let env_len = self.env.state_len();
        let events: usize = self.events.iter().map(|e| 4 + e.len()).sum();
        // magic, version, config fingerprint, applied seq, alpha, event
        // count | events | policy length, policy | rng key, counter, index,
        // environment length | environment image.
        let len = 8 + 4 + 8 + 8 + 8 + 4 + events + 8 + policy_blob.len() + 32 + 8 + 4 + 8 + env_len;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&config_fingerprint(&self.config).to_le_bytes());
        out.extend_from_slice(&self.applied_seq.to_le_bytes());
        out.extend_from_slice(&self.alpha.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&(e.len() as u32).to_le_bytes());
            out.extend_from_slice(e.as_bytes());
        }
        out.extend_from_slice(&(policy_blob.len() as u64).to_le_bytes());
        out.extend_from_slice(&policy_blob);
        let (key, counter, index) = self.policy.rng_state();
        for k in key {
            out.extend_from_slice(&k.to_le_bytes());
        }
        out.extend_from_slice(&counter.to_le_bytes());
        out.extend_from_slice(&index.to_le_bytes());
        out.extend_from_slice(&(env_len as u64).to_le_bytes());
        self.env.save_state_into(&mut out);
        debug_assert_eq!(out.len(), len, "checkpoint length mis-sized");
        out
    }

    /// Rebuilds a core from [`DispatchCore::checkpoint`] bytes. Rejects
    /// snapshots from a different config or a different format version.
    pub fn from_checkpoint(config: SimConfig, payload: &[u8]) -> Result<Self, String> {
        let mut r = Reader { buf: payload };
        if r.take(8)? != MAGIC.as_slice() {
            return Err("bad checkpoint magic".into());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        if r.u64()? != config_fingerprint(&config) {
            return Err("checkpoint is for a different configuration".into());
        }
        let applied_seq = r.u64()?;
        let alpha = f64::from_bits(r.u64()?);
        let n_events = r.u32()? as usize;
        let mut events = Vec::with_capacity(n_events.min(payload.len()));
        for _ in 0..n_events {
            let len = r.u32()? as usize;
            let text = std::str::from_utf8(r.take(len)?)
                .map_err(|_| "non-utf8 event payload")?
                .to_string();
            events.push(text);
        }
        let policy_len = r.u64()? as usize;
        let policy_blob = r.take(policy_len)?.to_vec();
        let mut key = [0u32; 8];
        for k in &mut key {
            *k = r.u32()?;
        }
        let counter = r.u64()?;
        let index = r.u32()?;
        let env_len = r.u64()? as usize;
        let env_blob = r.take(env_len)?;
        if !r.buf.is_empty() {
            return Err("trailing bytes after checkpoint".into());
        }

        let env = Environment::restore_state(config.clone(), env_blob)
            .map_err(|e| format!("environment image rejected: {e}"))?;
        let mut policy = Cma2cPolicy::new(
            env.city(),
            Cma2cConfig {
                alpha,
                seed: config.seed,
                ..Cma2cConfig::default()
            },
        );
        policy
            .load(&mut policy_blob.as_slice())
            .map_err(|e| format!("policy snapshot rejected: {e}"))?;
        policy.restore_rng_state(key, counter, index);
        policy.freeze();
        let mut core = DispatchCore {
            config,
            alpha,
            env,
            policy,
            greedy: OraclePolicy::new(),
            events,
            applied_seq,
        };
        core.reattach_plan();
        Ok(core)
    }
}

/// What an applied payload did (for response formatting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    Step(StepOutcome),
    Decide(DecideOutcome),
    Event,
}

fn parse_level(s: &str) -> Result<ServiceLevel, String> {
    let mut chars = s.chars();
    match (chars.next().and_then(ServiceLevel::from_code), chars.next()) {
        (Some(level), None) => Ok(level),
        _ => Err(format!("bad service level {s:?}")),
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() < n {
            return Err("truncated checkpoint".into());
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let arr: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| "truncated checkpoint".to_string())?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let arr: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| "truncated checkpoint".to_string())?;
        Ok(u64::from_le_bytes(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SimConfig {
        SimConfig::test_scale()
    }

    #[test]
    fn checkpoint_roundtrip_preserves_the_digest_and_future() {
        let mut a = DispatchCore::new(config(), 0.6);
        for payload in [
            "STEP F",
            "EVENT surge 3 1.5 2 6",
            "STEP S",
            "DECIDE F",
            "STEP G",
        ] {
            a.apply_payload(payload).unwrap();
        }
        let snapshot = a.checkpoint();
        let mut b = DispatchCore::from_checkpoint(config(), &snapshot).unwrap();
        assert_eq!(a.applied_seq(), b.applied_seq());
        assert_eq!(a.digest(), b.digest());
        // The restored core's *future* matches too — including CMA2C action
        // sampling, which consumes the restored RNG stream.
        for payload in ["STEP F", "DECIDE F", "STEP F"] {
            a.apply_payload(payload).unwrap();
            b.apply_payload(payload).unwrap();
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.ledger(), b.ledger());
    }

    #[test]
    fn checkpoint_buffer_is_sized_once() {
        let mut core = DispatchCore::new(config(), 0.6);
        for payload in ["STEP F", "EVENT surge 3 1.5 2 6", "DECIDE F", "STEP S"] {
            core.apply_payload(payload).unwrap();
        }
        let payload = core.checkpoint();
        // No doubling growth: the capacity is exactly the bytes written.
        assert_eq!(payload.capacity(), payload.len());
        assert_eq!(core.env.state_len(), core.env.save_state().len());
    }

    #[test]
    fn digest_and_checkpoint_carry_the_environment_image_unchanged() {
        // The digest hashes the environment image as it is encoded, and the
        // checkpoint encodes it in place. Both must equal the materialized
        // form: FNV-1a over `save_state() ‖ rng`, and a length-prefixed
        // `save_state()` closing the payload.
        let mut core = DispatchCore::new(config(), 0.6);
        for payload in [
            "STEP F",
            "EVENT surge 3 1.5 1 6",
            "EVENT outage 2 1 4",
            "DECIDE F",
            "STEP F",
            "DECIDE S",
            "STEP G",
        ] {
            core.apply_payload(payload).unwrap();
        }
        let image = core.env.save_state();
        let mut bytes = image.clone();
        let (key, counter, index) = core.policy.rng_state();
        for k in key {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        bytes.extend_from_slice(&counter.to_le_bytes());
        bytes.extend_from_slice(&index.to_le_bytes());
        assert_eq!(core.digest(), fairmove_sim::fnv64(&bytes));

        let payload = core.checkpoint();
        let (head, tail) = payload.split_at(payload.len() - image.len());
        assert_eq!(tail, image.as_slice());
        assert_eq!(head[head.len() - 8..], (image.len() as u64).to_le_bytes());
    }

    #[test]
    fn checkpoints_reject_other_configs_and_corruption() {
        let mut core = DispatchCore::new(config(), 0.6);
        core.apply_payload("STEP F").unwrap();
        let snapshot = core.checkpoint();
        let mut other = config();
        other.fleet_size += 1;
        let err = DispatchCore::from_checkpoint(other, &snapshot)
            .err()
            .expect("foreign config must be rejected");
        assert!(err.contains("different configuration"), "{err}");
        for cut in (0..snapshot.len()).step_by(211) {
            assert!(
                DispatchCore::from_checkpoint(config(), &snapshot[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn replay_reproduces_an_uninterrupted_run_bitwise() {
        let script = [
            "STEP F",
            "STEP F",
            "EVENT outage 1 2 8",
            "STEP S",
            "DECIDE G",
            "STEP F",
            "STEP G",
        ];
        let mut straight = DispatchCore::new(config(), 0.6);
        for p in script {
            straight.apply_payload(p).unwrap();
        }
        // Interrupted twin: checkpoint after 3 records, "crash", restore,
        // replay the rest from the (simulated) journal.
        let mut first = DispatchCore::new(config(), 0.6);
        for p in &script[..3] {
            first.apply_payload(p).unwrap();
        }
        let snapshot = first.checkpoint();
        drop(first);
        let mut revived = DispatchCore::from_checkpoint(config(), &snapshot).unwrap();
        for p in &script[3..] {
            revived.apply_payload(p).unwrap();
        }
        assert_eq!(straight.digest(), revived.digest());
        assert_eq!(straight.ledger(), revived.ledger());
    }

    #[test]
    fn out_of_range_event_ids_are_rejected_not_crashing() {
        // test_scale: 40 regions, 8 stations, 60 taxis. Before validation,
        // an outage on a phantom station was accepted and killed the worker
        // with an index panic when the outage window ended.
        let mut core = DispatchCore::new(config(), 0.6);
        for (payload, needle) in [
            ("EVENT outage 999 0 2", "station 999 out of range"),
            ("EVENT surge 40 1.5 0 2", "region 40 out of range"),
            ("EVENT blackout 65535 0 2", "region 65535 out of range"),
            ("EVENT breakdown 60 0 2", "taxi 60 out of range"),
            // Before the factor bound, the first of these saturated the
            // region's Poisson trip count and the next STEP aborted the
            // process on a 10 GiB allocation.
            (
                "EVENT surge 0 1e12 0 5",
                "surge factor 1000000000000 out of range",
            ),
            ("EVENT surge 0 inf 0 5", "surge factor inf out of range"),
            ("EVENT surge 0 NaN 0 5", "surge factor NaN out of range"),
            ("EVENT surge 0 -3 0 5", "surge factor -3 out of range"),
        ] {
            let err = core.apply_payload(payload).expect_err(payload);
            assert!(err.contains(needle), "{payload}: {err}");
        }
        // The worker survives and keeps serving: valid ids at the world's
        // edge are accepted and subsequent steps run through the windows
        // where the phantom faults would have expired.
        core.apply_payload("EVENT outage 7 0 2").unwrap();
        core.apply_payload("EVENT breakdown 59 0 2").unwrap();
        core.apply_payload("EVENT surge 39 10 0 2").unwrap();
        for _ in 0..4 {
            core.apply_payload("STEP F").unwrap();
        }
    }

    #[test]
    fn stacked_surges_are_bounded_by_their_product() {
        // Overlapping surges on one region multiply in `FaultSet`, so each
        // one within the per-event bound could still stack past it (13 ×
        // `surge 0 10 0 5` asked for 1e13). The check runs on the live path
        // and on replay from a checkpoint alike.
        // A factor below 1 raises the product where it ends, so the rows on
        // regions 2 and 3 are only refused if those end slots are checked.
        let script: [(&str, Option<&str>); 15] = [
            ("EVENT surge 0 10 0 5", None),
            ("EVENT surge 0 2 3 8", Some("stacks to 20 on region 0")),
            ("EVENT surge 0 10 0 5", Some("stacks to 100 on region 0")),
            ("EVENT surge 0 2 6 8", None),
            ("EVENT surge 0 5 7 9", None),
            ("EVENT surge 0 1.5 4 7", Some("stacks to 15 on region 0")),
            ("EVENT surge 1 10 0 5", None),
            ("EVENT surge 0 0.5 0 0", None),
            ("EVENT surge 2 0 0 1", None),
            ("EVENT surge 2 10 0 5", None),
            ("EVENT surge 2 10 0 5", Some("stacks to 100 on region 2")),
            ("EVENT surge 3 0.1 0 2", None),
            ("EVENT surge 3 10 0 4", None),
            ("EVENT surge 3 2 1 3", Some("stacks to 20 on region 3")),
            ("STEP F", None),
        ];
        let mut straight = DispatchCore::new(config(), 0.6);
        let mut first = DispatchCore::new(config(), 0.6);
        for (payload, _) in &script[..3] {
            let _ = first.apply_payload(payload);
        }
        let mut revived = DispatchCore::from_checkpoint(config(), &first.checkpoint()).unwrap();
        for (i, (payload, refusal)) in script.iter().enumerate() {
            let live = straight.apply_payload(payload);
            match refusal {
                Some(needle) => {
                    let err = live.as_ref().expect_err(payload);
                    assert!(err.contains(needle), "{payload}: {err}");
                }
                None => assert!(live.is_ok(), "{payload}: {live:?}"),
            }
            if i >= 3 {
                let replayed = revived.apply_payload(payload);
                assert_eq!(live.is_err(), replayed.is_err(), "{payload}");
            }
        }
        assert_eq!(straight.applied_seq(), revived.applied_seq());
        assert_eq!(straight.digest(), revived.digest());
    }

    #[test]
    fn rejected_events_replay_identically() {
        // A bad EVENT is journaled before it executes, so replay must hit
        // the same refusal and land on the same digest + sequence number.
        let script = ["STEP F", "EVENT outage 999 0 2", "STEP F"];
        let mut straight = DispatchCore::new(config(), 0.6);
        let mut replayed = DispatchCore::new(config(), 0.6);
        for p in script {
            let a = straight.apply_payload(p);
            let b = replayed.apply_payload(p);
            assert_eq!(a.is_err(), b.is_err(), "{p}");
        }
        assert_eq!(straight.applied_seq(), replayed.applied_seq());
        assert_eq!(straight.digest(), replayed.digest());
    }

    #[test]
    fn service_levels_differ_in_work_not_in_replayability() {
        let mut core = DispatchCore::new(config(), 0.6);
        // Fallback/greedy steps don't consume the CMA2C RNG: the stream is
        // reserved for Full-level inference, so a ladder change mid-run
        // can't desynchronize replay.
        let before = core.digest();
        core.apply_payload("DECIDE S").unwrap();
        core.apply_payload("DECIDE G").unwrap();
        let rng_after = core.policy.rng_state();
        assert_eq!(
            DispatchCore::new(config(), 0.6).policy.rng_state(),
            rng_after
        );
        let _ = before;
        core.apply_payload("DECIDE F").unwrap();
        assert_ne!(core.policy.rng_state(), rng_after, "Full consumes RNG");
    }
}
