//! Chaos suite: the server under abuse — floods, dead clients, slow-loris,
//! zero budgets, crashes at armed kill points — must shed predictably,
//! degrade gracefully, and recover bit-identically.

use fairmove_faults::{KillMode, KillPoints};
use fairmove_serve::{Client, DispatchServer, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fairmove-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn queue_overflow_sheds_429_and_nothing_hangs() {
    let dir = fresh_dir("flood");
    let mut config = ServeConfig::test_scale(dir.clone());
    config.queue_depth = 1;
    let telemetry = config.telemetry.clone();
    let server = DispatchServer::start(config).unwrap();
    let addr = server.addr();

    let started = Instant::now();
    let workers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (mut ok, mut shed) = (0u64, 0u64);
                for _ in 0..8 {
                    let response = client.request("STEP").unwrap();
                    if response.starts_with("OK step") {
                        ok += 1;
                    } else if response.starts_with("ERR 429 shed") {
                        shed += 1;
                    } else {
                        panic!("unexpected response {response:?}");
                    }
                }
                (ok, shed)
            })
        })
        .collect();
    let (mut ok, mut shed) = (0u64, 0u64);
    for w in workers {
        let (o, s) = w.join().unwrap();
        ok += o;
        shed += s;
    }
    // Every request was answered (the joins above completed), fast: load
    // shedding never turns into hanging.
    assert_eq!(ok + shed, 64);
    assert!(ok > 0, "some steps must get through");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "flood took {:?}",
        started.elapsed()
    );
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter("serve.shed_queue").unwrap_or(0), shed);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_budget_requests_are_shed_with_503_never_executed_past_deadline() {
    let dir = fresh_dir("deadline");
    let config = ServeConfig::test_scale(dir.clone());
    let telemetry = config.telemetry.clone();
    let server = DispatchServer::start(config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A generous budget executes fine (and warms the cost model).
    let response = client.request("STEP 30000").unwrap();
    assert!(response.starts_with("OK step"), "{response}");
    // A zero budget can never be met: shed either at admission (the cost
    // model predicts a miss) or on dequeue (expired in queue) — both 503,
    // answered promptly, never silently executed.
    let started = Instant::now();
    let response = client.request("STEP 0").unwrap();
    assert!(response.starts_with("ERR 503 deadline"), "{response}");
    assert!(started.elapsed() < Duration::from_secs(5));
    let snapshot = telemetry.snapshot();
    let shed = snapshot.counter("serve.shed_predicted").unwrap_or(0)
        + snapshot.counter("serve.shed_deadline").unwrap_or(0);
    assert_eq!(shed, 1);
    // The shed request mutated nothing: exactly one step was journaled.
    let response = client.request("HEALTH").unwrap();
    let seq: u64 = response.split_whitespace().nth(3).unwrap().parse().unwrap();
    assert_eq!(seq, 1, "{response}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sustained_overload_walks_the_ladder_down_and_counts_it() {
    let dir = fresh_dir("ladder");
    let mut config = ServeConfig::test_scale(dir.clone());
    // Every request counts as an overload tick: the budget is zero.
    config.step_budget = Duration::ZERO;
    config.demote_after = 2;
    let telemetry = config.telemetry.clone();
    let server = DispatchServer::start(config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    assert!(client.request("HEALTH").unwrap().starts_with("OK health F"));
    let mut levels = Vec::new();
    for _ in 0..6 {
        let response = client.request("STEP").unwrap();
        levels.push(response.split_whitespace().last().unwrap().to_string());
    }
    // Two strikes per rung: F F (demote) S S (demote) G G.
    assert_eq!(levels, vec!["F", "F", "S", "S", "G", "G"]);
    assert!(client.request("HEALTH").unwrap().starts_with("OK health G"));
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter("serve.demotions"), Some(2));
    assert_eq!(snapshot.gauge("serve.ladder_level"), Some(2.0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_between_journal_append_and_execution_replays_cleanly() {
    let dir = fresh_dir("postjournal");
    let kp = KillPoints::new(KillMode::Report);
    let mut config = ServeConfig::test_scale(dir.clone());
    config.kill_points = kp.clone();
    let sim = config.sim.clone();
    let server = DispatchServer::start(config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..3 {
        client.request("STEP").unwrap();
    }
    // The 4th append crashes the worker before the step executes: the
    // client sees either a 500 (handler noticed the dropped reply channel)
    // or a closed connection, never a fabricated success.
    kp.arm("serve.post_journal.crash", 1);
    let mut server = server;
    if let Ok(response) = client.request("STEP") {
        assert!(response.starts_with("ERR 500"), "{response}");
    }
    assert!(server.wait_worker_exit(Duration::from_secs(10)));
    drop(server);

    // The write-ahead record is replayed on restart: the revived server has
    // executed all 4 steps, same as a run that never crashed.
    let mut config = ServeConfig::test_scale(dir.clone());
    config.sim = sim.clone();
    let revived = DispatchServer::start(config).unwrap();
    assert_eq!(revived.recovery().replayed, 4);
    let mut client = Client::connect(revived.addr()).unwrap();
    let digest = client.request("DIGEST").unwrap();

    let dir2 = fresh_dir("postjournal-ref");
    let mut ref_config = ServeConfig::test_scale(dir2.clone());
    ref_config.sim = sim;
    let reference = DispatchServer::start(ref_config).unwrap();
    let mut ref_client = Client::connect(reference.addr()).unwrap();
    for _ in 0..4 {
        ref_client.request("STEP").unwrap();
    }
    assert_eq!(ref_client.request("DIGEST").unwrap(), digest);
    revived.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn concurrent_decide_load_then_kill_restarts_to_the_same_digest() {
    let dir = fresh_dir("concurrent");
    let config = ServeConfig::test_scale(dir.clone());
    let checkpoint_every = config.checkpoint_every;
    let sim = config.sim.clone();
    let mut server = DispatchServer::start(config).unwrap();
    let addr = server.addr();

    // 3 clients x 15 decides: 45 journal records when none is shed, so one
    // automatic checkpoint lands mid-load and the rest must be replayed.
    let (clients, requests) = (3, 15);
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..requests {
                    let response = client.request("DECIDE 1000").unwrap();
                    assert!(
                        response.starts_with("OK decide ")
                            || response.starts_with("ERR 429")
                            || response.starts_with("ERR 503"),
                        "unexpected response {response:?}"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let health = client.request("HEALTH").unwrap();
    let seq: u64 = health.split_whitespace().nth(3).unwrap().parse().unwrap();
    assert!(
        seq > checkpoint_every,
        "load must pass a checkpoint: {health}"
    );
    let digest = client.request("DIGEST").unwrap();
    client.fire_and_forget("KILL").unwrap();
    assert!(server.wait_worker_exit(Duration::from_secs(30)));
    drop(server);

    let mut config = ServeConfig::test_scale(dir.clone());
    config.sim = sim;
    let revived = DispatchServer::start(config).unwrap();
    let recovery = revived.recovery();
    assert!(recovery.warm_start_seq.is_some(), "{recovery:?}");
    assert!(recovery.replayed > 0, "{recovery:?}");
    let mut client = Client::connect(revived.addr()).unwrap();
    assert_eq!(client.request("DIGEST").unwrap(), digest);
    revived.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_from_a_mid_write_crash_falls_back_and_recovers() {
    let dir = fresh_dir("tornckpt");
    let kp = KillPoints::new(KillMode::Report);
    let mut config = ServeConfig::test_scale(dir.clone());
    config.kill_points = kp.clone();
    config.checkpoint_every = 1000; // only explicit CKPTs
    let sim = config.sim.clone();
    let mut server = DispatchServer::start(config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..3 {
        client.request("STEP").unwrap();
    }
    assert!(client.request("CKPT").unwrap().starts_with("OK ckpt"));
    client.request("STEP").unwrap();
    client.request("STEP").unwrap();
    // This checkpoint write is torn mid-flight and the worker dies.
    kp.arm("serve.ckpt.torn", 1);
    if let Ok(response) = client.request("CKPT") {
        assert!(response.starts_with("ERR 500"), "{response}");
    }
    assert!(server.wait_worker_exit(Duration::from_secs(10)));
    drop(server);

    // Restart: the torn newest checkpoint is rejected, the older valid one
    // warm-starts, and the journal replays the two steps past it.
    let mut config = ServeConfig::test_scale(dir.clone());
    config.sim = sim.clone();
    let revived = DispatchServer::start(config).unwrap();
    let recovery = revived.recovery();
    assert_eq!(recovery.warm_start_seq, Some(0), "{recovery:?}");
    assert_eq!(recovery.replayed, 2, "{recovery:?}");
    let mut client = Client::connect(revived.addr()).unwrap();
    let digest = client.request("DIGEST").unwrap();

    let dir2 = fresh_dir("tornckpt-ref");
    let mut ref_config = ServeConfig::test_scale(dir2.clone());
    ref_config.sim = sim;
    let reference = DispatchServer::start(ref_config).unwrap();
    let mut ref_client = Client::connect(reference.addr()).unwrap();
    for _ in 0..5 {
        ref_client.request("STEP").unwrap();
    }
    assert_eq!(ref_client.request("DIGEST").unwrap(), digest);
    revived.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn slow_loris_and_dead_clients_do_not_wedge_the_listener() {
    let dir = fresh_dir("loris");
    let server = DispatchServer::start(ServeConfig::test_scale(dir.clone())).unwrap();
    let addr = server.addr();

    // Slow-loris: a partial line that never completes is answered 408 and
    // the connection dropped, within the line deadline.
    let started = Instant::now();
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"STE").unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    loris.read_to_end(&mut buf).unwrap();
    assert!(
        String::from_utf8_lossy(&buf).starts_with("ERR 408"),
        "got {buf:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(8));

    // Half-close: a full line terminated by EOF instead of newline is
    // still served before the connection winds down.
    let mut half = TcpStream::connect(addr).unwrap();
    half.write_all(b"DIGEST").unwrap();
    half.shutdown(std::net::Shutdown::Write).unwrap();
    half.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    half.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("OK digest"), "{response}");

    // Abrupt disconnects mid-request leave the server serving.
    for _ in 0..3 {
        let mut rude = TcpStream::connect(addr).unwrap();
        rude.write_all(b"STEP\n").unwrap();
        drop(rude);
    }
    let mut client = Client::connect(addr).unwrap();
    assert!(client.request("HEALTH").unwrap().starts_with("OK health"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_counters_and_ladder_gauge_are_scrapable_over_metrics() {
    let dir = fresh_dir("metrics");
    let mut config = ServeConfig::test_scale(dir.clone());
    config.metrics_addr = Some("127.0.0.1:0".into());
    config.queue_depth = 1;
    let server = DispatchServer::start(config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.request("STEP 30000").unwrap();
    assert!(client.request("STEP 0").unwrap().starts_with("ERR 503"));

    let metrics_addr = server.metrics_addr().expect("metrics listener");
    let mut scrape = TcpStream::connect(metrics_addr).unwrap();
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    scrape.read_to_string(&mut body).unwrap();
    for needle in [
        "serve_requests",
        "serve_steps 1",
        "serve_ladder_level",
        "serve_request_seconds_count",
    ] {
        assert!(body.contains(needle), "missing {needle} in:\n{body}");
    }
    // One of the two deadline-shed counters took the hit.
    assert!(
        body.contains("serve_shed_predicted 1") || body.contains("serve_shed_deadline 1"),
        "no shed counter in:\n{body}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_round_trips_do_not_wait_for_a_delayed_ack() {
    // A line split over two writes holds its second half until the peer
    // ACKs the first, and Linux delays that ACK by at least 40 ms: every
    // round trip would then take 40 ms or more, whatever the work.
    let dir = fresh_dir("nodelay");
    let server = DispatchServer::start(ServeConfig::test_scale(dir.clone())).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut round_trips: Vec<Duration> = (0..40)
        .map(|_| {
            let started = Instant::now();
            let response = client.request("HEALTH").unwrap();
            assert!(response.starts_with("OK health"), "{response}");
            started.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median HEALTH round trip {median:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_closes_idle_connections_and_joins_their_threads() {
    // An idle client holds its connection open. Shutdown must close it
    // under the handler and join the handler thread, not wait for the
    // client to leave.
    let dir = fresh_dir("idle");
    let server = DispatchServer::start(ServeConfig::test_scale(dir.clone())).unwrap();
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    idle.write_all(b"HEALTH\n").unwrap();
    let mut reader = BufReader::new(idle.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK health"), "{line}");

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?} with an idle client connected",
        started.elapsed()
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "read {line:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
