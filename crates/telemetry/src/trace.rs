//! Hierarchical span tracing with lock-free per-thread ring buffers.
//!
//! This is the deep-tracing layer beneath the metrics registry: where a
//! [`crate::Histogram`] aggregates durations, a trace span remembers *which*
//! invocation took how long and *under which parent*, so a single slot can
//! be unfolded into its tree — `step_slot → observe → decide → dispatch(n)`,
//! then `commit` — and exported as Chrome trace-event JSON that loads
//! directly in Perfetto / `chrome://tracing`.
//!
//! ## Design
//!
//! * **Global on/off switch.** Tracing is process-global ([`set_enabled`]).
//!   The [`crate::trace_span!`] macro checks [`is_enabled`] *before* doing
//!   anything else, so a disabled span is one relaxed atomic load and a
//!   `None` guard — instrumentation can stay in the hot path permanently.
//! * **Interned names.** Span names are `&'static str`s interned once per
//!   call site into a [`SpanName`] (a small integer). The per-name duration
//!   aggregates ([`aggregate`]) are plain static atomic arrays indexed by
//!   it, so closing a span is a handful of relaxed `fetch_add`s — no maps,
//!   no locks, no allocation.
//! * **Per-thread rings.** Each thread lazily registers one [`ThreadTrace`]
//!   holding a fixed ring of [`RING_EVENTS`] completed events plus a small
//!   open-span stack. Only the owning thread writes; the ring head is
//!   published with `Release` after the event fields, so readers
//!   ([`collect_events`], the sampling profiler) never observe a
//!   half-written event below the head. Registration is the only
//!   allocation, and it happens on a thread's *first* span — inside any
//!   warmup period.
//! * **Span identity.** Every span gets an id `(tid << 40) | seq` and
//!   records its parent's id (the enclosing open span on the same thread),
//!   which is what lets the exporter reconstruct the tree.
//! * **Sampling profiler.** [`start_profiler`] spawns a watcher thread that
//!   snapshots every registered thread's open-span stack at a fixed rate
//!   and folds the samples into `a;b;c count` lines (the folded-stacks
//!   format flamegraph tools consume). No signals, no unwinding: the stack
//!   arrays are atomics the watcher simply reads.
//!
//! Tracing never touches simulation state or RNG, so enabling it must not
//! change what a run computes; the sim crate pins that with a
//! bit-identical-ledger test.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Completed events kept per thread (oldest overwritten on wrap).
pub const RING_EVENTS: usize = 8192;
/// Maximum simultaneously open spans per thread; deeper nesting saturates.
pub const MAX_DEPTH: usize = 32;
/// Maximum distinct interned span names.
pub const MAX_NAMES: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether spans currently record. Checked first by [`crate::trace_span!`].
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off process-wide. Spans opened while enabled still
/// record when dropped after a disable.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------------

/// An interned span name: an index into the global name table, cheap to
/// copy and to use as an aggregate key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(u16);

static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Interns `name`, returning the existing [`SpanName`] if already present.
///
/// # Panics
/// When more than [`MAX_NAMES`] distinct names are interned — span names
/// are call-site constants, so hitting the cap is a programming error.
pub fn intern(name: &'static str) -> SpanName {
    let mut names = NAMES.lock().expect("trace name table poisoned");
    if let Some(i) = names.iter().position(|&n| n == name) {
        return SpanName(i as u16);
    }
    assert!(
        names.len() < MAX_NAMES,
        "too many distinct span names (max {MAX_NAMES})"
    );
    names.push(name);
    SpanName((names.len() - 1) as u16)
}

/// The string for an interned name (`"?"` if out of range).
pub fn name_str(name: SpanName) -> &'static str {
    NAMES
        .lock()
        .expect("trace name table poisoned")
        .get(name.0 as usize)
        .copied()
        .unwrap_or("?")
}

fn name_table() -> Vec<&'static str> {
    NAMES.lock().expect("trace name table poisoned").clone()
}

// ---------------------------------------------------------------------------
// Per-name aggregates
// ---------------------------------------------------------------------------

static AGG_NS: [AtomicU64; MAX_NAMES] = [const { AtomicU64::new(0) }; MAX_NAMES];
static AGG_COUNT: [AtomicU64; MAX_NAMES] = [const { AtomicU64::new(0) }; MAX_NAMES];

/// Total nanoseconds and event count accumulated for `name` since the last
/// [`reset_aggregates`]. Survives ring wrap-around, so benches use it for
/// per-phase attribution over arbitrarily long runs.
pub fn aggregate(name: SpanName) -> (u64, u64) {
    let i = name.0 as usize;
    (
        AGG_NS[i].load(Ordering::Relaxed),
        AGG_COUNT[i].load(Ordering::Relaxed),
    )
}

/// Zeroes every per-name aggregate (e.g. after bench warmup).
pub fn reset_aggregates() {
    for i in 0..MAX_NAMES {
        AGG_NS[i].store(0, Ordering::Relaxed);
        AGG_COUNT[i].store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first trace clock read in this process.
#[inline]
pub fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Per-thread state
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct EventCell {
    name: AtomicU32,
    depth: AtomicU32,
    id: AtomicU64,
    parent: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    arg: AtomicU64,
}

impl EventCell {
    const fn new() -> Self {
        EventCell {
            name: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            id: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

/// One thread's trace state: a single-writer ring of completed events plus
/// the open-span stack the profiler samples. Registered globally on the
/// thread's first span and kept alive (for export) after the thread exits.
struct ThreadTrace {
    tid: u32,
    ring: Box<[EventCell]>,
    /// Total events ever written; `head % RING_EVENTS` is the next slot.
    /// Stored with `Release` *after* the event fields so readers taking
    /// `Acquire` see complete events below it.
    head: AtomicU64,
    stack_names: [AtomicU32; MAX_DEPTH],
    stack_ids: [AtomicU64; MAX_DEPTH],
    /// Open-span count, published with `Release` so the profiler's
    /// `Acquire` load sees the stack entries below it.
    depth: AtomicU32,
    /// Per-thread span sequence (owner-only).
    seq: AtomicU64,
}

impl ThreadTrace {
    fn new(tid: u32) -> Self {
        ThreadTrace {
            tid,
            ring: (0..RING_EVENTS).map(|_| EventCell::new()).collect(),
            head: AtomicU64::new(0),
            stack_names: [const { AtomicU32::new(0) }; MAX_DEPTH],
            stack_ids: [const { AtomicU64::new(0) }; MAX_DEPTH],
            depth: AtomicU32::new(0),
            seq: AtomicU64::new(0),
        }
    }
}

static REGISTRY: Mutex<Vec<Arc<ThreadTrace>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_TRACE: OnceLock<Arc<ThreadTrace>> = const { OnceLock::new() };
}

fn register_thread() -> Arc<ThreadTrace> {
    let tt = Arc::new(ThreadTrace::new(NEXT_TID.fetch_add(1, Ordering::Relaxed)));
    REGISTRY
        .lock()
        .expect("trace registry poisoned")
        .push(Arc::clone(&tt));
    tt
}

fn with_thread<R>(f: impl FnOnce(&ThreadTrace) -> R) -> R {
    THREAD_TRACE.with(|cell| f(cell.get_or_init(register_thread)))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An open trace span; records a completed event into the owning thread's
/// ring (and the per-name aggregates) when dropped. Create through
/// [`crate::trace_span!`], which handles the enabled check and name
/// interning. Not `Send`: a span must close on the thread that opened it.
#[derive(Debug)]
pub struct TraceSpan {
    name: SpanName,
    id: u64,
    parent: u64,
    depth: u32,
    start_ns: u64,
    arg: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl TraceSpan {
    /// Opens a span. Call only when [`is_enabled`] — the macro guards this.
    pub fn new(name: SpanName) -> TraceSpan {
        Self::with_arg(name, 0)
    }

    /// Opens a span carrying one `u64` argument (decision count, row count, …)
    /// shown under `args` in the Chrome trace.
    pub fn with_arg(name: SpanName, arg: u64) -> TraceSpan {
        let start_ns = now_ns();
        with_thread(|tt| {
            let seq = tt.seq.load(Ordering::Relaxed);
            tt.seq.store(seq + 1, Ordering::Relaxed);
            let id = ((tt.tid as u64) << 40) | (seq & ((1 << 40) - 1));
            let depth = tt.depth.load(Ordering::Relaxed);
            let parent = if depth == 0 {
                0
            } else {
                let top = (depth as usize - 1).min(MAX_DEPTH - 1);
                tt.stack_ids[top].load(Ordering::Relaxed)
            };
            if (depth as usize) < MAX_DEPTH {
                tt.stack_names[depth as usize].store(name.0 as u32, Ordering::Relaxed);
                tt.stack_ids[depth as usize].store(id, Ordering::Relaxed);
            }
            tt.depth.store(depth + 1, Ordering::Release);
            TraceSpan {
                name,
                id,
                parent,
                depth,
                start_ns,
                arg,
                _not_send: std::marker::PhantomData,
            }
        })
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        with_thread(|tt| {
            let depth = tt.depth.load(Ordering::Relaxed);
            tt.depth.store(depth.saturating_sub(1), Ordering::Release);
            let head = tt.head.load(Ordering::Relaxed);
            let cell = &tt.ring[(head % RING_EVENTS as u64) as usize];
            cell.name.store(self.name.0 as u32, Ordering::Relaxed);
            cell.depth.store(self.depth, Ordering::Relaxed);
            cell.id.store(self.id, Ordering::Relaxed);
            cell.parent.store(self.parent, Ordering::Relaxed);
            cell.start_ns.store(self.start_ns, Ordering::Relaxed);
            cell.dur_ns.store(dur_ns, Ordering::Relaxed);
            cell.arg.store(self.arg, Ordering::Relaxed);
            tt.head.store(head + 1, Ordering::Release);
        });
        let i = self.name.0 as usize;
        AGG_NS[i].fetch_add(dur_ns, Ordering::Relaxed);
        AGG_COUNT[i].fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Event collection + Chrome trace export
// ---------------------------------------------------------------------------

/// One completed span copied out of a ring.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Interned span name, resolved.
    pub name: &'static str,
    /// Owning thread's trace id (not the OS tid).
    pub tid: u32,
    /// Span id: `(tid << 40) | seq`.
    pub id: u64,
    /// Enclosing span's id on the same thread, 0 at the root.
    pub parent: u64,
    /// Nesting depth at open (0 = root).
    pub depth: u32,
    /// Open time, [`now_ns`] clock.
    pub start_ns: u64,
    /// Wall duration.
    pub dur_ns: u64,
    /// Caller-supplied argument (decision count, row count, …).
    pub arg: u64,
}

/// Copies every completed event currently held in the per-thread rings,
/// sorted by start time. At most [`RING_EVENTS`] per thread survive —
/// older events are overwritten on wrap (per-name totals live on in
/// [`aggregate`]).
pub fn collect_events() -> Vec<TraceEvent> {
    let names = name_table();
    let threads: Vec<Arc<ThreadTrace>> = REGISTRY
        .lock()
        .expect("trace registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let mut events = Vec::new();
    for tt in &threads {
        let head = tt.head.load(Ordering::Acquire);
        let available = head.min(RING_EVENTS as u64);
        for back in 0..available {
            let slot = ((head - available + back) % RING_EVENTS as u64) as usize;
            let cell = &tt.ring[slot];
            events.push(TraceEvent {
                name: names
                    .get(cell.name.load(Ordering::Relaxed) as usize)
                    .copied()
                    .unwrap_or("?"),
                tid: tt.tid,
                id: cell.id.load(Ordering::Relaxed),
                parent: cell.parent.load(Ordering::Relaxed),
                depth: cell.depth.load(Ordering::Relaxed),
                start_ns: cell.start_ns.load(Ordering::Relaxed),
                dur_ns: cell.dur_ns.load(Ordering::Relaxed),
                arg: cell.arg.load(Ordering::Relaxed),
            });
        }
    }
    events.sort_by_key(|e| (e.start_ns, e.tid, e.id));
    events
}

/// Clears every ring and all per-name aggregates. Call only while no spans
/// are being recorded (concurrent writers would interleave with the reset).
pub fn reset() {
    for tt in REGISTRY.lock().expect("trace registry poisoned").iter() {
        tt.head.store(0, Ordering::Release);
    }
    reset_aggregates();
}

/// Renders events as Chrome trace-event JSON (the `traceEvents` array
/// form): one complete (`"ph":"X"`) event per span with microsecond
/// timestamps, loadable in Perfetto or `chrome://tracing`. Span id, parent
/// id, and the argument ride along under `"args"`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(128 * events.len() + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"fairmove\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"arg\":{}}}}}",
            e.name,
            e.tid,
            e.start_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0,
            e.id,
            e.parent,
            e.arg,
        ));
    }
    out.push_str("]}");
    out
}

/// Validates Chrome trace-event JSON structurally — hand-rolled, no
/// dependencies: the document must be valid JSON (via
/// [`crate::export::validate_json`]), carry a `traceEvents` array, and
/// every event object must contain the keys Perfetto needs for a complete
/// event (`name`, `ph`, `pid`, `tid`, `ts`, `dur`). Returns the event
/// count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    crate::export::validate_json(json)?;
    let body = json
        .split_once("\"traceEvents\"")
        .ok_or("missing \"traceEvents\" key")?
        .1;
    let start = body.find('[').ok_or("traceEvents is not an array")?;
    // Walk the array, slicing out each top-level `{…}` event object.
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut obj_start = None;
    let mut count = 0usize;
    for (i, c) in body[start..].char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or("unbalanced braces in traceEvents")?;
                if depth == 0 {
                    let obj = &body[start + obj_start.ok_or("brace underflow")?..start + i + 1];
                    for key in [
                        "\"name\"", "\"ph\"", "\"pid\"", "\"tid\"", "\"ts\"", "\"dur\"",
                    ] {
                        if !obj.contains(key) {
                            return Err(format!("event {count} missing {key}: {obj}"));
                        }
                    }
                    count += 1;
                    obj_start = None;
                }
            }
            ']' if depth == 0 => return Ok(count),
            _ => {}
        }
    }
    Err("traceEvents array never closed".into())
}

// ---------------------------------------------------------------------------
// Sampling profiler
// ---------------------------------------------------------------------------

/// A running sampling profiler; [`Profiler::stop`] joins the watcher and
/// returns the folded stacks.
pub struct Profiler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<BTreeMap<String, u64>>>,
}

/// Starts a watcher thread sampling every registered thread's open-span
/// stack `hz` times per second. Signal-free: the stacks are atomics the
/// watcher reads directly, so sampled threads pay nothing.
pub fn start_profiler(hz: u32) -> Profiler {
    let period = Duration::from_nanos(1_000_000_000 / u64::from(hz.max(1)));
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("fairmove-profiler".into())
        .spawn(move || {
            let mut folded: BTreeMap<String, u64> = BTreeMap::new();
            let mut stack = String::new();
            while !stop_flag.load(Ordering::Relaxed) {
                let names = name_table();
                let threads: Vec<Arc<ThreadTrace>> = REGISTRY
                    .lock()
                    .expect("trace registry poisoned")
                    .iter()
                    .map(Arc::clone)
                    .collect();
                for tt in &threads {
                    let depth = (tt.depth.load(Ordering::Acquire) as usize).min(MAX_DEPTH);
                    if depth == 0 {
                        continue;
                    }
                    stack.clear();
                    for level in 0..depth {
                        if level > 0 {
                            stack.push(';');
                        }
                        let n = tt.stack_names[level].load(Ordering::Relaxed) as usize;
                        stack.push_str(names.get(n).copied().unwrap_or("?"));
                    }
                    *folded.entry(stack.clone()).or_insert(0) += 1;
                }
                std::thread::sleep(period);
            }
            folded
        })
        .expect("spawn profiler thread");
    Profiler {
        stop,
        handle: Some(handle),
    }
}

impl Profiler {
    /// Stops sampling and returns the folded-stacks text: one
    /// `root;child;leaf count` line per distinct stack, sorted — the format
    /// `flamegraph.pl` and speedscope consume.
    pub fn stop(mut self) -> String {
        self.stop.store(true, Ordering::Relaxed);
        let folded = self
            .handle
            .take()
            .expect("profiler already stopped")
            .join()
            .expect("profiler thread panicked");
        let mut out = String::new();
        for (stack, count) in folded {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global; tests that toggle it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn interning_is_idempotent_and_stable() {
        let a = intern("test.intern.a");
        let b = intern("test.intern.b");
        assert_ne!(a, b);
        assert_eq!(intern("test.intern.a"), a);
        assert_eq!(name_str(a), "test.intern.a");
    }

    #[test]
    fn nested_spans_link_parents_and_depths() {
        let _g = lock();
        set_enabled(true);
        reset();
        let outer_name = intern("test.outer");
        let inner_name = intern("test.inner");
        {
            let _outer = TraceSpan::new(outer_name);
            let _inner = TraceSpan::with_arg(inner_name, 7);
        }
        set_enabled(false);
        let events = collect_events();
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.arg, 7);
        // The child closes before (or when) the parent does.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn aggregates_accumulate_and_reset() {
        let _g = lock();
        set_enabled(true);
        reset();
        let name = intern("test.agg");
        for _ in 0..5 {
            let _s = TraceSpan::new(name);
        }
        set_enabled(false);
        let (ns, count) = aggregate(name);
        assert_eq!(count, 5);
        assert!(ns > 0, "durations should be nonzero");
        reset_aggregates();
        assert_eq!(aggregate(name), (0, 0));
    }

    #[test]
    fn chrome_trace_round_trips_through_the_validator() {
        let _g = lock();
        set_enabled(true);
        reset();
        let outer = intern("test.chrome.outer");
        let inner = intern("test.chrome.inner");
        {
            let _o = TraceSpan::new(outer);
            let _i = TraceSpan::with_arg(inner, 3);
        }
        set_enabled(false);
        let events = collect_events();
        let json = chrome_trace_json(&events);
        let n = validate_chrome_trace(&json).expect("trace must validate");
        assert_eq!(n, events.len());
        assert!(json.contains("\"name\":\"test.chrome.inner\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"fairmove\""));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("{\"events\":[]}").is_err());
        // Valid JSON, but the event lacks required keys.
        let missing = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\"}]}";
        assert!(validate_chrome_trace(missing)
            .unwrap_err()
            .contains("missing"));
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
    }

    #[test]
    fn ring_keeps_only_the_newest_events_but_aggregates_survive() {
        let _g = lock();
        set_enabled(true);
        reset();
        let name = intern("test.wrap");
        let total = RING_EVENTS + 50;
        for _ in 0..total {
            let _s = TraceSpan::new(name);
        }
        set_enabled(false);
        let ours: Vec<_> = collect_events()
            .into_iter()
            .filter(|e| e.name == "test.wrap")
            .collect();
        assert_eq!(ours.len(), RING_EVENTS);
        let (_, count) = aggregate(name);
        assert_eq!(count as usize, total);
    }

    #[test]
    fn profiler_folds_open_span_stacks() {
        let _g = lock();
        set_enabled(true);
        reset();
        let outer = intern("test.prof.outer");
        let inner = intern("test.prof.inner");
        let profiler = start_profiler(2000);
        {
            let _o = TraceSpan::new(outer);
            let _i = TraceSpan::new(inner);
            std::thread::sleep(Duration::from_millis(30));
        }
        set_enabled(false);
        let folded = profiler.stop();
        assert!(
            folded
                .lines()
                .any(|l| l.starts_with("test.prof.outer;test.prof.inner ")),
            "expected folded stack, got:\n{folded}"
        );
        for line in folded.lines() {
            let (_, count) = line.rsplit_once(' ').expect("count suffix");
            count.parse::<u64>().expect("count parses");
        }
    }

    #[test]
    fn disabled_tracing_records_nothing_new() {
        let _g = lock();
        set_enabled(false);
        reset();
        assert!(!is_enabled());
        // The macro-level gate: callers check is_enabled() and skip span
        // construction entirely, so nothing lands in the rings.
        assert_eq!(collect_events(), vec![]);
    }
}
