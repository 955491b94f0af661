//! `pga-shop-serve` — the anytime solver service binary.
//!
//! ```text
//! pga-shop-serve [--addr HOST:PORT] [--port N] [--workers N] [--cache N]
//!                [--default-deadline-ms N] [--max-deadline-ms N]
//!                [--gen-cap N] [--racers N] [--racer-pool N]
//!                [--max-queue-depth N] [--cache-shards N]
//!                [--session-ttl-ms N] [--max-sessions N]
//!                [--event-deadline-ms N] [--port-file PATH]
//!                [--wal-dir PATH] [--wal-snapshot-every N]
//!                [--wal-no-fsync]
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once bound (port 0 = ephemeral;
//! `--port-file` additionally writes the bound address to a file for
//! scripts), then serves until a client sends `{"cmd":"shutdown"}`.

use serve::{ServeConfig, Service};

fn usage() -> ! {
    eprintln!(
        "usage: pga-shop-serve [--addr HOST:PORT] [--port N] [--workers N] [--cache N] \
         [--default-deadline-ms N] [--max-deadline-ms N] [--gen-cap N] [--racers N] \
         [--racer-pool N (0 = host cores)] [--max-queue-depth N (0 = auto)] \
         [--cache-shards N (0 = auto)] [--session-ttl-ms N] [--max-sessions N] \
         [--event-deadline-ms N] [--port-file PATH] \
         [--wal-dir PATH (durable sessions: per-session write-ahead logs)] \
         [--wal-snapshot-every N (compact cadence in events, 0 = default 64)] \
         [--wal-no-fsync (skip fsync per append: faster, weaker crash story)]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServeConfig::default();
    let mut port_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--port" => {
                let p: u16 = value("--port").parse().unwrap_or_else(|_| usage());
                config.addr = format!("127.0.0.1:{p}");
            }
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--cache" => {
                config.cache_capacity = value("--cache").parse().unwrap_or_else(|_| usage())
            }
            "--default-deadline-ms" => {
                config.default_deadline_ms = value("--default-deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--max-deadline-ms" => {
                config.max_deadline_ms = value("--max-deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--gen-cap" => config.gen_cap = value("--gen-cap").parse().unwrap_or_else(|_| usage()),
            "--racers" => config.racers = value("--racers").parse().unwrap_or_else(|_| usage()),
            "--racer-pool" => {
                config.racer_pool = value("--racer-pool").parse().unwrap_or_else(|_| usage())
            }
            "--max-queue-depth" => {
                config.max_queue_depth = value("--max-queue-depth")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--cache-shards" => {
                config.cache_shards = value("--cache-shards").parse().unwrap_or_else(|_| usage())
            }
            "--session-ttl-ms" => {
                config.session_ttl_ms = value("--session-ttl-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--max-sessions" => {
                config.max_sessions = value("--max-sessions").parse().unwrap_or_else(|_| usage())
            }
            "--event-deadline-ms" => {
                config.default_event_deadline_ms = value("--event-deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--wal-dir" => config.wal_dir = Some(value("--wal-dir")),
            "--wal-snapshot-every" => {
                config.wal_snapshot_every = value("--wal-snapshot-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--wal-no-fsync" => config.wal_fsync = false,
            "--port-file" => port_file = Some(value("--port-file")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    let service = match Service::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = service.local_addr();
    println!("LISTENING {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    service.wait();
    println!("SHUTDOWN");
}
