//! The TCP dispatch server.
//!
//! One acceptor thread, one connection-handler thread per client, and a
//! single worker thread that owns the [`DispatchCore`] — dispatch state is
//! single-writer by construction, so crash consistency reduces to the
//! journal/checkpoint discipline in [`crate::journal`] and
//! [`crate::dispatch`].
//!
//! Every line, reply or request, goes out in one write on a `TCP_NODELAY`
//! socket: a line split over two writes waits out the peer's delayed ACK
//! (~40 ms on Linux) before its second half is sent. The server owns its
//! connection threads: [`DispatchServer::shutdown`] (and `Drop`) closes
//! every open connection and joins its handler, so no server thread
//! outlives the server.
//!
//! Backpressure is explicit: admission is a bounded queue; when it is full
//! the handler answers `ERR 429 shed` immediately instead of queueing
//! unboundedly, and when a request carries a deadline the handler rejects
//! it up front if the EWMA cost model predicts the budget cannot be met
//! (`ERR 503 deadline`). The worker re-checks on dequeue, so requests that
//! aged out while queued are dropped, not executed.
//!
//! `KILL` (and armed [`KillPoints`]) crash the worker without ceremony —
//! no final checkpoint, no queue drain — which is exactly what the chaos
//! tests need to prove warm restart works from any interruption point.

use crate::deadline::{CostModel, Deadline};
use crate::degrade::Degrader;
use crate::dispatch::{Applied, DispatchCore};
use crate::journal::Journal;
use crate::proto::{parse_request, Request};
use fairmove_core::CheckpointVault;
use fairmove_faults::KillPoints;
use fairmove_sim::SimConfig;
use fairmove_telemetry::server::{serve_metrics, MetricsServer};
use fairmove_telemetry::{buckets, Telemetry};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum request-line length; longer lines are rejected and the
/// connection closed (a protocol client never comes close).
const MAX_LINE_BYTES: usize = 4096;
/// Once a partial request line exists, it must complete within this bound
/// (slow-loris protection; an *idle* connection may stay open freely).
const LINE_DEADLINE: Duration = Duration::from_secs(2);
/// Per-read socket timeout while polling for request bytes.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Server configuration.
pub struct ServeConfig {
    /// Simulator configuration (fingerprinted into checkpoints).
    pub sim: SimConfig,
    /// Efficiency/fairness mix for the CMA2C policy.
    pub alpha: f64,
    /// Directory for the journal and checkpoint vault.
    pub data_dir: PathBuf,
    /// Dispatch listener address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Optional `/metrics` listener address.
    pub metrics_addr: Option<String>,
    /// Admission-queue capacity; beyond it requests shed with `ERR 429`.
    pub queue_depth: usize,
    /// Consecutive overload ticks before the ladder demotes.
    pub demote_after: u32,
    /// Consecutive calm ticks before the ladder promotes.
    pub promote_after: u32,
    /// Service time beyond which a request counts as an overload tick.
    pub step_budget: Duration,
    /// Journal records between automatic checkpoints.
    pub checkpoint_every: u64,
    /// Crash-injection sites (disarmed in production).
    pub kill_points: KillPoints,
    /// Metrics registry (shared with the embedding process).
    pub telemetry: Telemetry,
}

impl ServeConfig {
    /// A test-scale config rooted at `data_dir`, loopback, free ports.
    pub fn test_scale(data_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            sim: SimConfig::test_scale(),
            alpha: 0.6,
            data_dir: data_dir.into(),
            addr: "127.0.0.1:0".into(),
            metrics_addr: None,
            queue_depth: 64,
            demote_after: 3,
            promote_after: 8,
            step_budget: Duration::from_millis(250),
            checkpoint_every: 32,
            kill_points: KillPoints::disarmed(),
            telemetry: Telemetry::enabled(),
        }
    }
}

/// What warm restart found and did at startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Sequence of the checkpoint restored, if any.
    pub warm_start_seq: Option<u64>,
    /// Journal records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Torn journal-tail bytes discarded.
    pub torn_bytes: u64,
}

enum Job {
    Client {
        request: Request,
        deadline: Option<Deadline>,
        reply: Sender<String>,
    },
    /// Graceful shutdown: final checkpoint, then exit.
    Shutdown,
}

/// Answers a request and drops the worker's end of its reply channel at
/// once, so the waiting handler, which allocated the channel, frees it.
fn answer(reply: Sender<String>, line: String) {
    let _ = reply.send(line);
}

struct Shared {
    queue: SyncSender<Job>,
    depth: AtomicUsize,
    capacity: usize,
    cost: CostModel,
    stop: AtomicBool,
    worker_dead: AtomicBool,
    telemetry: Telemetry,
}

/// A connection-handler thread and a handle on its socket, so the server
/// can close the socket under the handler and join it.
struct Connection {
    stream: TcpStream,
    handler: JoinHandle<()>,
}

/// A running dispatch server. See the module docs.
pub struct DispatchServer {
    addr: SocketAddr,
    metrics: Option<MetricsServer>,
    shared: Arc<Shared>,
    recovery: RecoveryInfo,
    worker: Option<JoinHandle<()>>,
    /// Returns the connections still tracked when it exits.
    acceptor: Option<JoinHandle<Vec<Connection>>>,
}

impl DispatchServer {
    /// Binds the listener, performs warm restart from `data_dir` (latest
    /// valid checkpoint + journal replay), and starts serving.
    pub fn start(config: ServeConfig) -> io::Result<DispatchServer> {
        std::fs::create_dir_all(&config.data_dir)?;
        let telemetry = config.telemetry.clone();
        let mut vault = CheckpointVault::open(&config.data_dir.join("checkpoints"))?;

        // -- warm restart ------------------------------------------------
        let mut recovery = RecoveryInfo::default();
        let mut core = match vault.latest_valid() {
            Some((seq, payload)) => {
                match DispatchCore::from_checkpoint(config.sim.clone(), &payload) {
                    Ok(core) => {
                        recovery.warm_start_seq = Some(seq);
                        core
                    }
                    Err(_) => {
                        // CRC-valid but semantically foreign (config drift):
                        // refuse to guess, start fresh.
                        telemetry.counter("serve.checkpoint_rejected").inc();
                        DispatchCore::new(config.sim.clone(), config.alpha)
                    }
                }
            }
            None => DispatchCore::new(config.sim.clone(), config.alpha),
        };
        let (mut journal, replay) = Journal::open(&config.data_dir.join("journal.log"))?;
        recovery.torn_bytes = replay.torn_bytes;
        for record in &replay.records {
            if record.seq < core.applied_seq() {
                continue; // already inside the checkpoint
            }
            let _ = core.apply_payload(&record.payload);
            recovery.replayed += 1;
        }
        telemetry.counter("serve.replayed").add(recovery.replayed);

        // -- listeners ---------------------------------------------------
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = match &config.metrics_addr {
            Some(addr) => Some(serve_metrics(telemetry.clone(), addr)?),
            None => None,
        };

        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let shared = Arc::new(Shared {
            queue: tx,
            depth: AtomicUsize::new(0),
            capacity: config.queue_depth.max(1),
            cost: CostModel::new(0.2),
            stop: AtomicBool::new(false),
            worker_dead: AtomicBool::new(false),
            telemetry: telemetry.clone(),
        });

        // -- worker ------------------------------------------------------
        let worker_shared = Arc::clone(&shared);
        let kill_points = config.kill_points.clone();
        let mut degrader = Degrader::new(&telemetry, config.demote_after, config.promote_after);
        let step_budget = config.step_budget;
        let checkpoint_every = config.checkpoint_every.max(1);
        // The worker runs before any other server thread starts, and exits
        // after all of them (`stop_threads`). glibc gives a new thread the
        // allocator arena of the thread that exited last, so a server
        // started after another one runs its worker in the old worker's
        // arena: each restart reuses the worker's heap instead of leaving a
        // freed copy of it resident in another arena.
        let (running_tx, running) = mpsc::sync_channel(1);
        let worker = std::thread::Builder::new()
            .name("fairmove-serve-worker".into())
            .spawn(move || {
                let _ = running_tx.send(());
                let s = &worker_shared;
                let request_hist = s
                    .telemetry
                    .histogram("serve.request_seconds", buckets::LATENCY_SECONDS);
                let shed_deadline = s.telemetry.counter("serve.shed_deadline");
                let steps = s.telemetry.counter("serve.steps");
                let decides = s.telemetry.counter("serve.decides");
                let journal_records = s.telemetry.counter("serve.journal_records");
                let checkpoints = s.telemetry.counter("serve.checkpoints");
                let depth_gauge = s.telemetry.gauge("serve.queue_depth");
                let mut last_ckpt_at = core.applied_seq();
                'serve: while let Ok(job) = rx.recv() {
                    let Job::Client {
                        request,
                        deadline,
                        reply,
                    } = job
                    else {
                        // Graceful shutdown: leave a fresh checkpoint behind.
                        let _ = vault.persist(&core.checkpoint());
                        checkpoints.inc();
                        break;
                    };
                    let prev_depth = s.depth.fetch_sub(1, Ordering::SeqCst);
                    depth_gauge.set(prev_depth.saturating_sub(1) as f64);
                    s.telemetry.counter("serve.requests").inc();

                    // A queued request whose budget already lapsed is waste
                    // either way; executing it would also delay everyone
                    // behind it. Shed, and count the tick as overload.
                    if request.mutates() {
                        if let Some(d) = &deadline {
                            if d.expired() {
                                shed_deadline.inc();
                                degrader.observe(true, core.healthy());
                                answer(reply, "ERR 503 deadline expired_in_queue".into());
                                continue;
                            }
                        }
                    }

                    let response = match &request {
                        Request::Step { .. } | Request::Decide { .. } | Request::Event { .. } => {
                            let level = degrader.level();
                            let payload = match &request {
                                Request::Step { .. } => format!("STEP {}", level.code()),
                                Request::Decide { .. } => format!("DECIDE {}", level.code()),
                                Request::Event { text, .. } => format!("EVENT {text}"),
                                _ => unreachable!("outer arm admits only mutating requests"),
                            };
                            match journal.append(&payload) {
                                Err(e) => format!("ERR 500 journal {e}"),
                                Ok(seq) => {
                                    journal_records.inc();
                                    if kill_points.fire("serve.post_journal.crash") {
                                        // Crash between the write-ahead record
                                        // and its execution: replay owns it.
                                        break 'serve;
                                    }
                                    let t0 = Instant::now();
                                    let outcome = core.apply_payload(&payload);
                                    let took = t0.elapsed();
                                    s.cost.record(took);
                                    request_hist.observe(took.as_secs_f64());
                                    let overloaded = took > step_budget
                                        || s.depth.load(Ordering::SeqCst)
                                            >= (s.capacity * 3).div_ceil(4);
                                    degrader.observe(overloaded, core.healthy());
                                    match outcome {
                                        Ok(Applied::Step(o)) => {
                                            steps.inc();
                                            format!(
                                                "OK step {} {} {}",
                                                o.now_minutes,
                                                o.trips,
                                                level.code()
                                            )
                                        }
                                        Ok(Applied::Decide(o)) => {
                                            decides.inc();
                                            format!(
                                                "OK decide {} {} {}",
                                                o.decisions,
                                                o.moved,
                                                level.code()
                                            )
                                        }
                                        Ok(Applied::Event) => format!("OK event {seq}"),
                                        Err(e) => format!("ERR 400 {e}"),
                                    }
                                }
                            }
                        }
                        Request::Digest => {
                            format!("OK digest {:016x} {}", core.digest(), core.now_minutes())
                        }
                        Request::Health => format!(
                            "OK health {} {} {}",
                            degrader.level().code(),
                            core.applied_seq(),
                            s.depth.load(Ordering::SeqCst)
                        ),
                        Request::Ckpt => match checkpoint(&mut vault, &core, &kill_points) {
                            CkptOutcome::Written(seq) => {
                                checkpoints.inc();
                                last_ckpt_at = core.applied_seq();
                                format!("OK ckpt {seq}")
                            }
                            CkptOutcome::Crashed => break 'serve,
                            CkptOutcome::Failed(e) => format!("ERR 500 checkpoint {e}"),
                        },
                        Request::Kill => {
                            // A hard crash: no reply, no checkpoint, no drain.
                            break 'serve;
                        }
                        Request::Quit => continue, // handled connection-side
                    };
                    answer(reply, response);

                    if core.applied_seq().saturating_sub(last_ckpt_at) >= checkpoint_every {
                        match checkpoint(&mut vault, &core, &kill_points) {
                            CkptOutcome::Written(_) => {
                                checkpoints.inc();
                                last_ckpt_at = core.applied_seq();
                            }
                            CkptOutcome::Crashed => break 'serve,
                            CkptOutcome::Failed(_) => {}
                        }
                    }
                }
                s.worker_dead.store(true, Ordering::SeqCst);
            })
            .expect("spawn dispatch worker");
        let _ = running.recv();

        // -- acceptor ----------------------------------------------------
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("fairmove-serve-accept".into())
            .spawn(move || {
                let mut connections: Vec<Connection> = Vec::new();
                for stream in listener.incoming() {
                    if acceptor_shared.stop.load(Ordering::SeqCst)
                        || acceptor_shared.worker_dead.load(Ordering::SeqCst)
                    {
                        break;
                    }
                    connections.retain(|c| !c.handler.is_finished());
                    let Ok(stream) = stream else { continue };
                    let Ok(handle) = stream.try_clone() else {
                        continue;
                    };
                    let conn_shared = Arc::clone(&acceptor_shared);
                    if let Ok(handler) = std::thread::Builder::new()
                        .name("fairmove-serve-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(&stream, &conn_shared);
                            // The acceptor's handle keeps the socket open
                            // until it prunes this handler: close it now, so
                            // the client reads EOF when the handler is done.
                            let _ = stream.shutdown(Shutdown::Both);
                        })
                    {
                        connections.push(Connection {
                            stream: handle,
                            handler,
                        });
                    }
                }
                connections
            })
            .expect("spawn dispatch acceptor");

        Ok(DispatchServer {
            addr,
            metrics,
            shared,
            recovery,
            worker: Some(worker),
            acceptor: Some(acceptor),
        })
    }

    /// The dispatch listener address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `/metrics` listener address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// What warm restart found at startup.
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Whether the worker has crashed (`KILL` or an armed kill point).
    pub fn worker_dead(&self) -> bool {
        self.shared.worker_dead.load(Ordering::SeqCst)
    }

    /// Blocks until the worker thread exits (crash or shutdown), with a
    /// bound. Returns whether it exited in time.
    pub fn wait_worker_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.worker_dead() {
            if Instant::now() >= deadline {
                return false;
            }
            if self.worker.as_ref().is_none_or(|w| w.is_finished()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        true
    }

    /// Graceful shutdown: stop accepting, let each connection finish the
    /// request it is serving and close it, write a final checkpoint, join
    /// every thread.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()`.
        let _ = TcpStream::connect(self.addr);
        let connections = self
            .acceptor
            .take()
            .and_then(|a| a.join().ok())
            .unwrap_or_default();
        // No handler is added now. Shutting each socket's read side ends a
        // blocked read at once, so no join waits out a read timeout; a
        // handler still waiting on the worker gets its reply out first.
        for c in &connections {
            let _ = c.stream.shutdown(Shutdown::Read);
        }
        for c in connections {
            let _ = c.handler.join();
        }
        // The worker goes last: it answers what the handlers waited on, and
        // exiting last hands its arena to the next server's worker (see
        // `start`).
        if let Some(w) = self.worker.take() {
            let _ = self.shared.queue.send(Job::Shutdown);
            let _ = w.join();
        }
        if let Some(m) = self.metrics.take() {
            m.shutdown();
        }
    }
}

impl Drop for DispatchServer {
    fn drop(&mut self) {
        if self.worker.is_some() || self.acceptor.is_some() {
            self.stop_threads();
        }
    }
}

enum CkptOutcome {
    Written(u64),
    /// An armed kill point tore the write and "crashed" the worker.
    Crashed,
    Failed(io::Error),
}

fn checkpoint(vault: &mut CheckpointVault, core: &DispatchCore, kp: &KillPoints) -> CkptOutcome {
    let payload = core.checkpoint();
    if kp.fire("serve.ckpt.torn") {
        // Simulate power loss mid-write: leave a *torn* file at the next
        // sequence (bypassing the atomic tmp+rename discipline on purpose)
        // and die. Warm restart must skip it and fall back.
        let seq = match vault.persist(&payload) {
            Ok(seq) => seq,
            Err(_) => return CkptOutcome::Crashed,
        };
        let path = vault.dir().join(format!("ckpt-{seq:08}.bin"));
        let torn_len = (payload.len() / 2).max(1) as u64;
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
            let _ = f.set_len(torn_len);
            let _ = f.sync_all();
        }
        return CkptOutcome::Crashed;
    }
    match vault.persist(&payload) {
        Ok(seq) => CkptOutcome::Written(seq),
        Err(e) => CkptOutcome::Failed(e),
    }
}

/// Reads request lines off one client connection; see the module docs for
/// the shedding and slow-loris rules.
fn handle_connection(stream: &TcpStream, s: &Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut line = String::new();
    let mut line_started: Option<Instant> = None;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {
                line_started = None;
                let trimmed = line.trim().to_string();
                line.clear();
                if trimmed.is_empty() {
                    continue;
                }
                match serve_line(&trimmed, &mut writer, s)? {
                    Flow::Continue if !s.stop.load(Ordering::SeqCst) => {}
                    // Stopping: the request in hand was answered; take no
                    // more, even ones the client already sent.
                    Flow::Continue | Flow::Close => return Ok(()),
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // `read_line` may have buffered a partial line before the
                // timeout; a partial line that lingers is a slow-loris.
                if !line.is_empty() {
                    let started = *line_started.get_or_insert_with(Instant::now);
                    if started.elapsed() >= LINE_DEADLINE {
                        let _ = writer.write_all(b"ERR 408 line_too_slow\n");
                        return Ok(());
                    }
                } else {
                    line_started = None;
                }
                if line.len() > MAX_LINE_BYTES {
                    let _ = writer.write_all(b"ERR 400 line_too_long\n");
                    return Ok(());
                }
            }
            Err(_) => return Ok(()),
        }
        if line.len() > MAX_LINE_BYTES {
            let _ = writer.write_all(b"ERR 400 line_too_long\n");
            return Ok(());
        }
    }
}

enum Flow {
    Continue,
    Close,
}

fn serve_line(trimmed: &str, stream: &mut impl Write, s: &Arc<Shared>) -> io::Result<Flow> {
    let request = match parse_request(trimmed) {
        Ok(r) => r,
        Err(why) => {
            s.telemetry.counter("serve.bad_requests").inc();
            stream.write_all(format!("ERR 400 {why}\n").as_bytes())?;
            return Ok(Flow::Continue);
        }
    };
    if matches!(request, Request::Quit) {
        return Ok(Flow::Close);
    }
    let deadline = match &request {
        Request::Step { deadline_ms } | Request::Decide { deadline_ms } => {
            deadline_ms.map(|ms| Deadline::after(Duration::from_millis(ms)))
        }
        _ => None,
    };
    // Early rejection: if the cost model already knows the budget cannot be
    // met, don't waste a queue slot on a doomed request.
    if let Some(d) = &deadline {
        if !s.cost.admits(d.remaining()) {
            s.telemetry.counter("serve.shed_predicted").inc();
            stream.write_all(b"ERR 503 deadline predicted_over_budget\n")?;
            return Ok(Flow::Continue);
        }
    }
    let killing = matches!(request, Request::Kill);
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job::Client {
        request,
        deadline,
        reply: reply_tx,
    };
    s.depth.fetch_add(1, Ordering::SeqCst);
    match s.queue.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            s.depth.fetch_sub(1, Ordering::SeqCst);
            s.telemetry.counter("serve.shed_queue").inc();
            stream.write_all(b"ERR 429 shed queue_full\n")?;
            return Ok(Flow::Continue);
        }
        Err(TrySendError::Disconnected(_)) => {
            s.depth.fetch_sub(1, Ordering::SeqCst);
            stream.write_all(b"ERR 500 worker_gone\n")?;
            return Ok(Flow::Close);
        }
    }
    if killing {
        // The worker dies without replying; nothing to wait for.
        return Ok(Flow::Close);
    }
    // Wait for the worker's answer, bounded: the deadline plus slack when
    // one was given, a generous liveness bound otherwise.
    let wait = deadline
        .map(|d| d.remaining() + Duration::from_secs(5))
        .unwrap_or(Duration::from_secs(60));
    match reply_rx.recv_timeout(wait) {
        Ok(mut response) => {
            // Returns once the worker has dropped its end, which it does
            // right after sending: this thread then frees the channel it
            // allocated. glibc caches a chunk in the freeing thread, so a
            // worker freeing handler memory would grow its own buffers from
            // it inside the handler's arena, and each restart would leave a
            // freed worker-sized heap resident in another arena.
            let _ = reply_rx.recv();
            response.push('\n');
            stream.write_all(response.as_bytes())?;
            Ok(Flow::Continue)
        }
        Err(_) => {
            // Worker died (crash chaos) or is wedged past any deadline.
            let _ = stream.write_all(b"ERR 500 worker_gone\n");
            Ok(Flow::Close)
        }
    }
}

/// A tiny blocking protocol client (tests, chaos harness, load generator).
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The outgoing line, reused so each request is one write.
    out: Vec<u8>,
}

impl Client {
    /// Connects to a dispatch server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            out: Vec::new(),
        })
    }

    /// Sends one request line and reads one response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Sends a request without waiting for any response (for `KILL`).
    pub fn fire_and_forget(&mut self, line: &str) -> io::Result<()> {
        self.send(line)
    }

    /// Writes `line` and its `\n` in one write.
    fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)
    }
}
