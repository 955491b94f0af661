//! Serving-path micro-bench: requests/sec against an in-process
//! `serve::Service` on `ft06`, cached (same cache key every request)
//! vs. cold (fresh seed ⇒ cache miss ⇒ full portfolio race each
//! request), plus a **concurrent-client saturation sweep** (1/2/4/8
//! connections of cold traffic against the persistent racer pool —
//! the provisioning experiment behind the scheduler: racer threads
//! stay bounded by the pool size while throughput tracks the
//! hardware). It prints the throughput and sweep rows; perfbench's
//! `cached_replay`, `cold_race` and `session_storm` workloads are the
//! recorded latency numbers.
//!
//! A second group measures **session-event throughput vs. WAL mode**
//! (no WAL / WAL+fsync / WAL without fsync) under concurrent
//! sessions and prints one row per mode — the measured price of the
//! fsync-before-answer durability guarantee.

use serve::protocol::{encode_request, InstanceSpec, Objective, SolveRequest};
use serve::{ServeConfig, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // Without TCP_NODELAY, Nagle + delayed ACK adds ~40 ms per
        // request/response pair and drowns the cached path entirely.
        stream.set_nodelay(true).expect("nodelay");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        response
    }
}

fn solve_line(seed: u64) -> String {
    encode_request(&SolveRequest {
        id: None,
        instance: InstanceSpec::Named("ft06".into()),
        objective: Objective::Makespan,
        seed,
        deadline_ms: 200,
        trace: false,
    })
}

/// Requests/sec over `window` for requests produced by `next_line`.
fn throughput(client: &mut Client, window: Duration, mut next_line: impl FnMut() -> String) -> f64 {
    let started = Instant::now();
    let mut done = 0u64;
    while started.elapsed() < window {
        let response = client.roundtrip(&next_line());
        assert!(response.contains("\"status\":\"ok\""), "bad response");
        done += 1;
    }
    done as f64 / started.elapsed().as_secs_f64()
}

/// Aggregate cold requests/sec with `clients` concurrent connections,
/// each issuing cold solves (distinct seeds ⇒ cache misses ⇒ races)
/// for `window`. `busy` responses are counted separately — under
/// saturation they are the scheduler shedding load as designed, and
/// they also return fast, so they must not inflate the ok-throughput.
fn concurrent_cold_sweep(
    addr: std::net::SocketAddr,
    clients: usize,
    window: Duration,
    seed_base: u64,
) -> (f64, u64) {
    let ok = std::sync::atomic::AtomicU64::new(0);
    let busy = std::sync::atomic::AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let ok = &ok;
            let busy = &busy;
            s.spawn(move || {
                let mut client = Client::connect(addr);
                let mut seed = seed_base + 1_000_000 * c as u64;
                while started.elapsed() < window {
                    seed += 1;
                    let response = client.roundtrip(&solve_line(seed));
                    if response.contains("\"code\":\"busy\"") {
                        busy.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    } else {
                        assert!(response.contains("\"status\":\"ok\""), "bad response");
                        ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    (
        ok.load(std::sync::atomic::Ordering::Relaxed) as f64 / elapsed,
        busy.load(std::sync::atomic::Ordering::Relaxed),
    )
}

fn session_open_line(seed: u64) -> String {
    format!(
        r#"{{"cmd":"session_open","instance":{{"name":"ft06"}},"seed":{seed},"deadline_ms":2000}}"#
    )
}

fn session_event_line(sid: &str) -> String {
    // A constant-time breakdown keeps the virtual clock legal
    // (`at >= now` holds with equality) while still re-racing the
    // whole unstarted suffix, so every event exercises the full
    // accept-event path: fold, repair, capped race, WAL append.
    format!(
        r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":0,"from":1,"duration":1}},"deadline_ms":200}}"#
    )
}

/// Aggregate session events/sec with `sessions` concurrent sessions
/// (one connection each) for `window`. Every accepted event is fsync'd
/// before its answer when the bound service has a WAL, so this is the
/// durability tax measured end-to-end through the wire.
fn session_events_sweep(addr: std::net::SocketAddr, sessions: usize, window: Duration) -> f64 {
    let done = std::sync::atomic::AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for c in 0..sessions {
            let done = &done;
            s.spawn(move || {
                let mut client = Client::connect(addr);
                let opened = client.roundtrip(&session_open_line(500 + c as u64));
                let sid = serve::json::parse(opened.trim())
                    .expect("parse open")
                    .get("session")
                    .expect("session id")
                    .as_str()
                    .expect("string id")
                    .to_string();
                let line = session_event_line(&sid);
                while started.elapsed() < window {
                    let response = client.roundtrip(&line);
                    assert!(response.contains("\"status\":\"ok\""), "bad response");
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    done.load(std::sync::atomic::Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
}

/// Session-event throughput with and without the WAL: the same
/// concurrent event storm against a memory-only service, a durable one
/// (fsync before every answer), and a durable one with fsync off —
/// isolating framing+write cost from the fsync itself.
fn bench_session_wal() {
    const SESSIONS: usize = 4;
    let wal_root = std::env::temp_dir().join(format!("pga-wal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let modes: [(&str, bool, bool); 3] = [
        ("no_wal", false, true),
        ("wal_fsync", true, true),
        ("wal_nofsync", true, false),
    ];
    for (mode, wal, fsync) in modes {
        let config = ServeConfig {
            gen_cap: 10,
            racers: 1,
            workers: 8,
            wal_dir: wal.then(|| wal_root.join(mode).to_string_lossy().into_owned()),
            wal_fsync: fsync,
            ..ServeConfig::default()
        }
        .resolved();
        let service = Service::bind(config).expect("bind");
        let events_per_sec =
            session_events_sweep(service.local_addr(), SESSIONS, Duration::from_millis(800));
        println!(
            "serve_session_wal: mode {mode}, {SESSIONS} sessions, gen_cap 10: \
             {events_per_sec:.1} events/s"
        );

        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_root);
}

fn bench_serve() {
    let config = ServeConfig {
        // Small caps keep a cold ft06 race in the low milliseconds so
        // the bench finishes quickly; the cached path is cap-independent.
        gen_cap: 40,
        racers: 2,
        // Enough workers that the concurrent sweep is limited by the
        // racer pool (sized from host cores), not by connection slots.
        workers: 8,
        ..ServeConfig::default()
    }
    .resolved();
    let max_queue_depth = config.max_queue_depth;
    let service = Service::bind(config).expect("bind");
    let addr = service.local_addr();

    // Warm the cache entry the cached row hits.
    let mut client = Client::connect(addr);
    client.roundtrip(&solve_line(42));

    // Single-client throughput rows.
    let cached_rps = throughput(&mut client, Duration::from_millis(800), || solve_line(42));
    let mut seed = 10_000u64;
    let cold_rps = throughput(&mut client, Duration::from_millis(800), || {
        seed += 1;
        solve_line(seed)
    });
    println!(
        "serve_throughput: ft06, deadline 200 ms, racer pool {}, max queue depth {}: \
         cached {cached_rps:.1} req/s, cold {cold_rps:.1} req/s ({:.1}x)",
        service.racer_pool_size(),
        max_queue_depth,
        cached_rps / cold_rps
    );
    // Concurrent-client saturation sweep: cold traffic from 1/2/4/8
    // connections against the fixed racer pool. Racer threads are
    // pinned at pool size, and the sweep shows how aggregate cold
    // throughput scales with offered load.
    for clients in [1usize, 2, 4, 8] {
        let (rps, busy) = concurrent_cold_sweep(
            addr,
            clients,
            Duration::from_millis(1_500),
            100_000 * (clients as u64 + 1),
        );
        println!(
            "serve_throughput: concurrent cold sweep, {clients} clients: \
             {rps:.1} req/s, {busy} busy responses"
        );
    }

    drop(client);
    service.shutdown();
}

fn main() {
    bench_serve();
    bench_session_wal();
}
