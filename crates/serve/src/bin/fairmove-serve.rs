//! The dispatch-server binary.
//!
//! ```text
//! fairmove-serve [--addr HOST:PORT] [--metrics HOST:PORT]
//!                [--data-dir DIR] [--scale test|default] [--alpha A]
//! ```
//!
//! Runs until killed. State lives under `--data-dir`; restarting the
//! binary with the same directory warm-restarts from the newest valid
//! checkpoint plus journal replay.

use fairmove_serve::{DispatchServer, ServeConfig};
use fairmove_sim::SimConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut config = ServeConfig::test_scale("fairmove-serve-data");
    config.addr = "127.0.0.1:9177".into();
    config.metrics_addr = Some("127.0.0.1:9184".into());
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--metrics" => config.metrics_addr = Some(value("--metrics")),
            "--no-metrics" => config.metrics_addr = None,
            "--data-dir" => config.data_dir = value("--data-dir").into(),
            "--alpha" => config.alpha = value("--alpha").parse().expect("--alpha must be a number"),
            "--scale" => {
                config.sim = match value("--scale").as_str() {
                    "test" => SimConfig::test_scale(),
                    "default" => SimConfig::default(),
                    other => panic!("unknown --scale {other:?} (test|default)"),
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: fairmove-serve [--addr H:P] [--metrics H:P | --no-metrics] \
                     [--data-dir DIR] [--scale test|default] [--alpha A]"
                );
                return;
            }
            other => panic!("unknown argument {other:?} (try --help)"),
        }
    }
    let server = DispatchServer::start(config).expect("start dispatch server");
    eprintln!("fairmove-serve listening on {}", server.addr());
    if let Some(m) = server.metrics_addr() {
        eprintln!("metrics at http://{m}/metrics");
    }
    let recovery = server.recovery();
    if recovery.warm_start_seq.is_some() || recovery.replayed > 0 {
        eprintln!(
            "warm restart: checkpoint {:?}, {} journal records replayed, {} torn bytes discarded",
            recovery.warm_start_seq, recovery.replayed, recovery.torn_bytes
        );
    }
    // Serve until the process is killed (the worker only exits on KILL).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
