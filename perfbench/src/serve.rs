//! The `serve-mixed` workload: an in-process `DispatchServer` at
//! `SimConfig::default()` (600 taxis, minute engine, frozen `Cma2cPolicy`)
//! under closed-loop load, then `KILL` → warm-restart cycles.
//!
//! The load phase repeats one round of work: a fresh server on a fresh data
//! directory, then a fixed number of request blocks from up to two
//! connections of this process. Each connection sends its next request only
//! after the previous reply arrived, as a slot dispatcher does. A block is a
//! seeded shuffle of a fixed mix that is half journaled writes (`STEP`,
//! `DECIDE`) and half unjournaled reads (`HEALTH`, `DIGEST`), so every round
//! sends the same mix and steps its world the same number of slots from
//! minute 0. The client writes each request line with one write and reads
//! one reply line.
//!
//! The traced run alternates untraced rounds with rounds that have the
//! minute-engine spans on (`trace.overhead`), and replays the last round's
//! journal in process through `DispatchCore::apply_payload`,
//! `DispatchCore::checkpoint`, `CheckpointVault::persist`,
//! `DispatchCore::from_checkpoint` and `Journal::append`, timing each call.

use fairmove_agents::{Cma2cConfig, Cma2cShardPolicy};
use fairmove_core::CheckpointVault;
use fairmove_serve::{journal, DispatchCore, DispatchServer, Journal, ServeConfig};
use fairmove_sim::{Environment, SimConfig};
use fairmove_telemetry::{trace, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::{layers, Scale, Workload};

/// Server starts timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
/// `KILL` → warm-restart cycles at the end of a run.
const RESTART_CYCLES: usize = 4;
/// Journaled writes sent before each `KILL`, so every restart replays.
const WRITES_PER_CYCLE: usize = 6;
/// Journal records between the server's automatic checkpoints.
const CHECKPOINT_EVERY: u64 = 32;
/// Deadline carried by every write, far above any service time, so the
/// admission path runs and nothing is shed.
const DEADLINE_MS: u32 = 2000;

/// Blocks of [`MIX`] each connection sends in one round. At full scale two
/// connections send 48 `STEP`s a round, and the last round 12 more in its
/// restart cycles: far inside the 432-slot horizon of `SimConfig::default()`,
/// so no `STEP` is refused.
fn blocks_per_round(scale: Scale) -> usize {
    match scale {
        Scale::Full => 12,
        Scale::Test => 2,
    }
}

/// One request kind of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Step,
    Decide,
    Health,
    Digest,
}

impl Op {
    fn line(self) -> String {
        match self {
            Op::Step => format!("STEP {DEADLINE_MS}"),
            Op::Decide => format!("DECIDE {DEADLINE_MS}"),
            Op::Health => "HEALTH".into(),
            Op::Digest => "DIGEST".into(),
        }
    }

    fn journaled(self) -> bool {
        matches!(self, Op::Step | Op::Decide)
    }

    /// Checks the reply's shape; returns the decision count of an
    /// `OK decide` (0 for every other valid reply).
    fn parse_reply(self, reply: &str) -> Option<u64> {
        let f: Vec<&str> = reply.split_whitespace().collect();
        let level = |s: &str| s.len() == 1;
        match (self, f.as_slice()) {
            (Op::Step, ["OK", "step", now, trips, l]) => {
                (now.parse::<u32>().is_ok() && trips.parse::<u64>().is_ok() && level(l))
                    .then_some(0)
            }
            (Op::Decide, ["OK", "decide", n, moved, l]) => {
                let n = n.parse::<u64>().ok()?;
                (moved.parse::<u64>().ok()? <= n && level(l)).then_some(n)
            }
            (Op::Health, ["OK", "health", l, seq, depth]) => {
                (level(l) && seq.parse::<u64>().is_ok() && depth.parse::<u64>().is_ok())
                    .then_some(0)
            }
            (Op::Digest, ["OK", "digest", hex, now]) => (hex.len() == 16
                && u64::from_str_radix(hex, 16).is_ok()
                && now.parse::<u32>().is_ok())
            .then_some(0),
            _ => None,
        }
    }
}

/// The fixed block every connection repeats, shuffled per repetition.
const MIX: [Op; 8] = [
    Op::Step,
    Op::Decide,
    Op::Decide,
    Op::Step,
    Op::Health,
    Op::Digest,
    Op::Health,
    Op::Digest,
];

/// A protocol connection that sends each request line in one write.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }
}

/// What one connection saw.
#[derive(Default)]
struct Tally {
    /// `(op, client latency ms)` of every OK reply.
    samples: Vec<(Op, f64)>,
    attempted: u64,
    failures: Vec<String>,
    decisions: u64,
}

impl Tally {
    /// Sends `op`, times the reply and checks it.
    fn request(&mut self, conn: &mut Conn, op: Op) -> Option<String> {
        self.attempted += 1;
        let start = Instant::now();
        let reply = conn.request(&op.line());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(reply) => match op.parse_reply(&reply) {
                Some(decisions) => {
                    self.decisions += decisions;
                    self.samples.push((op, ms));
                    Some(reply)
                }
                None => {
                    self.failures
                        .push(format!("{op:?}: unexpected reply {reply:?}"));
                    None
                }
            },
            Err(e) => {
                self.failures.push(format!("{op:?}: {e}"));
                None
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.decisions += other.decisions;
    }

    fn latencies(&self, keep: impl Fn(Op) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(op, _)| keep(*op))
            .map(|&(_, ms)| ms)
            .collect()
    }
}

/// The simulator configuration of the server at `scale`. The server is a
/// fixed deployment: its world keeps the configuration's own seed, and the
/// workload seed shapes only the request stream. So every run's `DECIDE`s
/// decide over worlds of the same size, and `decisions_per_s` measures the
/// server, not the seed.
pub fn sim_config(scale: Scale) -> SimConfig {
    match scale {
        Scale::Full => SimConfig::default(),
        Scale::Test => SimConfig::test_scale(),
    }
}

fn serve_config(sim: &SimConfig, dir: &Path, telemetry: &Telemetry) -> ServeConfig {
    ServeConfig {
        sim: sim.clone(),
        checkpoint_every: CHECKPOINT_EVERY,
        telemetry: telemetry.clone(),
        ..ServeConfig::test_scale(dir)
    }
}

/// A fresh data directory inside this package (removed by the caller).
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("run-data")
        .join(format!("serve-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a server and waits for its first OK reply. Also returns how long
/// `DispatchServer::start` itself took.
fn start(config: ServeConfig) -> io::Result<(DispatchServer, Conn, Duration)> {
    let start_at = Instant::now();
    let server = DispatchServer::start(config)?;
    let started = start_at.elapsed();
    let mut conn = Conn::open(server.addr())?;
    let reply = conn.request("HEALTH")?;
    if Op::Health.parse_reply(&reply).is_none() {
        return Err(io::Error::other(format!("first reply {reply:?}")));
    }
    Ok((server, conn, started))
}

/// One round's closed-loop load: `blocks` shuffled blocks of [`MIX`] from
/// every connection. Connection `c` of round `r` shuffles with its own
/// stream of the workload seed.
fn load(addr: SocketAddr, seed: u64, round: usize, clients: usize, blocks: usize) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut conn = match Conn::open(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            tally.attempted += 1;
                            tally.failures.push(format!("connect: {e}"));
                            return tally;
                        }
                    };
                    let stream = (round * clients + client) as u64 + 1;
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream));
                    let mut block = MIX;
                    for _ in 0..blocks {
                        block.shuffle(&mut rng);
                        for op in block {
                            tally.request(&mut conn, op);
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    total
}

/// Runs `serve-mixed` and returns what it measured.
pub fn run(w: Workload) -> Outcome {
    let mut out = Outcome::default();
    let sim = sim_config(w.scale);
    let telemetry = Telemetry::enabled();
    let dirs = std::cell::RefCell::new(Vec::new());
    let new_dir = || {
        let dir = fresh_dir();
        dirs.borrow_mut().push(dir.clone());
        dir
    };

    let result = run_in(&mut out, &w, &sim, &telemetry, new_dir);
    if let Err(e) = result {
        out.check(false, || format!("serve-mixed: {e}"));
    }
    for dir in dirs.into_inner() {
        let _ = std::fs::remove_dir_all(dir);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("run-data");
    let _ = std::fs::remove_dir(root);
    out
}

fn run_in(
    out: &mut Outcome,
    w: &Workload,
    sim: &SimConfig,
    telemetry: &Telemetry,
    mut new_dir: impl FnMut() -> PathBuf,
) -> io::Result<()> {
    // Set-up: server start (fresh data directory) to first OK reply.
    let repeats = if w.traced { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    for _ in 0..repeats {
        let dir = new_dir();
        let start_at = Instant::now();
        let (server, _conn, _) = start(serve_config(sim, &dir, telemetry))?;
        setups.push(start_at.elapsed().as_secs_f64());
        out.check(true, String::new);
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let blocks = blocks_per_round(w.scale);

    // Load phase: rounds until `w.seconds` of load time has passed. In the
    // traced run, odd rounds have the minute-engine spans on.
    let mut tally = Tally::default();
    let (mut load_s, mut plain_s, mut traced_s) = (0.0, Vec::new(), Vec::new());
    let mut last = None;
    let min_rounds = if w.traced { 2 } else { 1 };
    let mut round = 0;
    while round < min_rounds || load_s < w.seconds.as_secs_f64() {
        if let Some((old, old_dir)) = last.take() {
            DispatchServer::shutdown(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = new_dir();
        let (server, _conn, _) = start(serve_config(sim, &dir, telemetry))?;
        let traced_round = w.traced && round % 2 == 1;
        trace::set_enabled(traced_round);
        let t = Instant::now();
        tally.merge(load(server.addr(), w.seed, round, clients, blocks));
        let took = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        load_s += took;
        if traced_round {
            traced_s.push(took);
        } else {
            plain_s.push(took);
        }
        last = Some((server, dir));
        round += 1;
    }
    if w.traced {
        out.set("trace.overhead", median(&traced_s) / median(&plain_s) - 1.0);
    }
    let (mut server, dir) = last.expect("at least one round");
    let snapshot = telemetry.snapshot();

    // KILL → warm-restart cycles on the same data directory.
    let mut cycles = Tally::default();
    let mut control = Conn::open(server.addr())?;
    let (mut recovery_ms, mut start_ms, mut replayed) = (Vec::new(), Vec::new(), Vec::new());
    for cycle in 0..RESTART_CYCLES {
        for k in 0..WRITES_PER_CYCLE {
            let op = if k % 2 == 0 { Op::Step } else { Op::Decide };
            cycles.request(&mut control, op);
        }
        let before = cycles.request(&mut control, Op::Digest).unwrap_or_default();
        control.send("KILL")?;
        let killed_at = Instant::now();
        let exited = server.wait_worker_exit(Duration::from_secs(30));
        out.check(exited, || {
            format!("cycle {cycle}: worker did not exit after KILL")
        });
        drop(server);
        let (restarted, mut conn, started) = start(serve_config(sim, &dir, telemetry))?;
        recovery_ms.push(killed_at.elapsed().as_secs_f64() * 1e3);
        start_ms.push(started.as_secs_f64() * 1e3);
        replayed.push(restarted.recovery().replayed as f64);
        let after = cycles.request(&mut conn, Op::Digest).unwrap_or_default();
        out.check(!before.is_empty() && before == after, || {
            format!("cycle {cycle}: digest {before:?} before KILL, {after:?} after restart")
        });
        server = restarted;
        control = conn;
    }
    let final_digest = cycles.request(&mut control, Op::Digest).unwrap_or_default();
    drop(control);
    server.shutdown();

    // Client-side results: latencies and rates of the load phase, failures
    // of every request.
    let all = tally.latencies(|_| true);
    let writes = tally.latencies(Op::journaled);
    let reads = tally.latencies(|op| !op.journaled());
    let request_p50 = median(&all);
    out.set("setup_s", median(&setups));
    out.set("ops_per_s", all.len() as f64 / load_s);
    out.set("decisions_per_s", tally.decisions as f64 / load_s);
    out.set("op_p50_ms", request_p50);
    out.set("serve.write_p50_ms", median(&writes));
    out.set("serve.read_p50_ms", median(&reads));
    out.set("serve.request_p99_ms", quantile(&all, 0.99));
    out.set("serve.recovery_ms", median(&recovery_ms));
    out.set("restart.start_ms", median(&start_ms));
    out.set("restart.replayed", median(&replayed));
    tally.merge(cycles);
    out.attempted += tally.attempted;
    out.failed += tally.failures.len() as u64;
    out.failures.extend(tally.failures.iter().cloned());

    // Server-side results from its telemetry registry.
    let service_ms = snapshot
        .histogram("serve.request_seconds")
        .map_or(0.0, |h| h.quantile(0.5) * 1e3);
    let shed: u64 = [
        "serve.shed_deadline",
        "serve.shed_predicted",
        "serve.shed_queue",
    ]
    .iter()
    .filter_map(|name| snapshot.counter(name))
    .sum();
    out.set("serve.service_ms", service_ms);
    out.set("serve.wire_ms", request_p50 - service_ms);
    out.set(
        "serve.shed_ratio",
        shed as f64 / tally.attempted.max(1) as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb());

    out.note(format!(
        "{} requests in {round} rounds of {blocks} blocks from each of {clients} closed-loop connections over {load_s:.2} s, then {RESTART_CYCLES} KILL/restart cycles",
        all.len()
    ));
    out.note(format!(
        "requests_per_s {:.4} 1/s",
        all.len() as f64 / load_s
    ));
    out.note(format!("request_p50_ms {request_p50:.4} ms"));
    out.note(format!("request_p99_ms {:.4} ms", quantile(&all, 0.99)));
    out.note(format!(
        "write_p50_ms {:.4} ms ({} writes)",
        median(&writes),
        writes.len()
    ));
    out.note(format!(
        "read_p50_ms {:.4} ms ({} reads)",
        median(&reads),
        reads.len()
    ));
    out.note(format!(
        "recovery_ms {:.4} ms (median of {RESTART_CYCLES})",
        median(&recovery_ms)
    ));

    if w.traced {
        replay_layers(out, sim, &dir, new_dir(), &final_digest)?;
    }
    Ok(())
}

/// Replays the run's journal in process, timing each layer call, and checks
/// that the replayed state matches the server's final digest.
fn replay_layers(
    out: &mut Outcome,
    sim: &SimConfig,
    dir: &Path,
    scratch: PathBuf,
    final_digest: &str,
) -> io::Result<()> {
    let records = journal::scan(&std::fs::read(dir.join("journal.log"))?).records;
    std::fs::create_dir_all(&scratch)?;
    let mut vault = CheckpointVault::open(&scratch.join("checkpoints"))?;
    let (mut fresh_journal, _) = Journal::open(&scratch.join("journal.log"))?;

    let span = |name| trace::aggregate(trace::intern(name)).0 as f64;
    let (observe0, decide0, commit0) = (span("observe"), span("decide"), span("commit"));
    trace::set_enabled(true);
    let mut core = DispatchCore::new(sim.clone(), 0.6);
    let (mut step_ms, mut decide_ms, mut append_ms, mut ckpt_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut payload = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let t = Instant::now();
        fresh_journal.append(&record.payload)?;
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let applied = core.apply_payload(&record.payload);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.check(applied.is_ok(), || {
            format!("replay of {:?}: {applied:?}", record.payload)
        });
        if record.payload.starts_with("STEP") {
            step_ms.push(ms);
        } else {
            decide_ms.push(ms);
        }
        if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
            let t = Instant::now();
            payload = core.checkpoint();
            vault.persist(&payload)?;
            ckpt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    trace::set_enabled(false);
    let replayed = format!("OK digest {:016x} {}", core.digest(), core.now_minutes());
    out.check(replayed == final_digest, || {
        format!("journal replay ends at {replayed:?}, server at {final_digest:?}")
    });

    let steps = step_ms.len().max(1) as f64;
    out.set("journal.append_ms", median(&append_ms));
    out.set("dispatch.step_ms", median(&step_ms));
    out.set("dispatch.decide_ms", median(&decide_ms));
    out.set("env.observe_us", (span("observe") - observe0) / steps / 1e3);
    out.set("env.decide_us", (span("decide") - decide0) / steps / 1e3);
    out.set("env.commit_us", (span("commit") - commit0) / steps / 1e3);
    out.set("ckpt.write_ms", median(&ckpt_ms));
    out.set("ckpt.bytes", payload.len() as f64);
    let restore_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let restored = DispatchCore::from_checkpoint(sim.clone(), &payload);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.check(restored.is_ok(), || "checkpoint restore failed".into());
            ms
        })
        .collect();
    out.set("restart.restore_ms", median(&restore_ms));

    // The actor and features the server's minute-engine dispatcher runs:
    // same seed, so the same initial weights as the server's frozen policy.
    let env = Environment::new(sim.clone());
    let ctxs = env.decision_contexts();
    let rows = layers::probe_features(out, env.city(), &env.observation(), &ctxs);
    let actor_policy = Cma2cShardPolicy::new(
        env.city(),
        &Cma2cConfig {
            seed: sim.seed,
            ..Cma2cConfig::default()
        },
    );
    let candidates: usize = ctxs.iter().map(|c| c.actions.len()).sum();
    let wave_contexts = ctxs.len().clamp(1, 64);
    let wave_rows = candidates * wave_contexts / ctxs.len().max(1);
    layers::probe_forward(out, actor_policy.actor(), &rows, wave_rows);
    Ok(())
}
