//! Over-the-wire tests of `serve::server`: connection handling and
//! dispatch, solves, generate, batch and watch streams, and the
//! session handlers with and without a write-ahead log. Declared by
//! `server/mod.rs` as `server::tests`.

#![cfg(test)]

use super::*;
use crate::protocol::{encode_request, InstanceSpec, Objective, SessionRef, SolveRequest};

fn send_lines(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    for l in lines {
        writeln!(writer, "{l}").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        out.push(resp.trim().to_string());
    }
    out
}

fn tiny_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        gen_cap: 60,
        ..ServeConfig::default()
    }
}

#[test]
fn serves_solves_stats_and_errors_over_tcp() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let req = encode_request(&SolveRequest {
        id: Some("t1".into()),
        instance: InstanceSpec::Named("flow05".into()),
        objective: Objective::Makespan,
        seed: 9,
        deadline_ms: 2_000,
        trace: false,
    });
    let responses = send_lines(
        addr,
        &[
            req.clone(),
            req, // second hit must come from the cache
            "garbage".to_string(),
            r#"{"cmd":"stats"}"#.to_string(),
        ],
    );
    let first = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(first.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
    let second = crate::json::parse(&responses[1]).unwrap();
    assert_eq!(second.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        first.get("schedule").unwrap(),
        second.get("schedule").unwrap()
    );
    let err = crate::json::parse(&responses[2]).unwrap();
    assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
    let stats = crate::json::parse(&responses[3]).unwrap();
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("cache_misses").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("errors").unwrap().as_u64(), Some(1));
    assert_eq!(service.stats().cache_hits, 1);
    assert_eq!(service.cache_len(), 1);
    service.shutdown();
}

#[test]
fn request_without_trailing_newline_is_served_at_eof() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // No trailing newline; half-close the write side to signal EOF.
    write!(writer, r#"{{"cmd":"stats"}}"#).unwrap();
    writer.flush().unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).unwrap();
    let v = crate::json::parse(resp.trim()).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    service.shutdown();
}

#[test]
fn oversized_request_line_is_rejected() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // One 9 MiB line (over MAX_REQUEST_BYTES) must be answered with
    // an error, not buffered indefinitely.
    let chunk = vec![b'x'; 1024 * 1024];
    for _ in 0..9 {
        if writer.write_all(&chunk).is_err() {
            break; // server may close early once over the cap
        }
    }
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
    let mut resp = String::new();
    let _ = BufReader::new(stream).read_line(&mut resp);
    if !resp.trim().is_empty() {
        assert!(resp.contains("request too large"), "got: {resp}");
    }
    service.shutdown();
}

#[test]
fn longer_deadline_outgrows_a_deadline_bound_cache_entry() {
    // gen_cap effectively unbounded and ft06's target (the makespan
    // lower bound) unreachable: every race is cut by its deadline,
    // so cached entries are deadline-bound.
    let service = Service::bind(ServeConfig {
        workers: 1,
        gen_cap: u64::MAX,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let mk = |deadline_ms: u64| {
        encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("ft06".into()),
            objective: Objective::Makespan,
            seed: 5,
            deadline_ms,
            trace: false,
        })
    };
    let responses = send_lines(addr, &[mk(60), mk(400), mk(300)]);
    let v: Vec<_> = responses
        .iter()
        .map(|r| crate::json::parse(r).unwrap())
        .collect();
    let cached = |i: usize| v[i].get("cached").unwrap().as_bool().unwrap();
    let value = |i: usize| v[i].get("value").unwrap().as_f64().unwrap();
    // Cold 60 ms solve, memoised as deadline-bound.
    assert!(!cached(0));
    // A 400 ms budget outgrows the entry: the service must re-race
    // rather than replay 60 ms-quality, and never worsen the answer.
    assert!(!cached(1), "larger budget must not replay a bound entry");
    assert!(
        value(1) <= value(0),
        "upgrade must keep the better solution"
    );
    // A follow-up within the enlarged budget replays the entry.
    assert!(cached(2));
    assert_eq!(value(2), value(1));
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.solved, 2);
    assert_eq!(service.cache_len(), 1, "upgrade replaces, never duplicates");
    service.shutdown();
}

#[test]
fn generate_request_mints_reproducibly_and_solves_into_the_shared_cache() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let spec = r#"{"family":"job","jobs":4,"machines":3,"seed":11}"#;
    let responses = send_lines(
        addr,
        &[
            format!(r#"{{"id":"g0","cmd":"generate","spec":{spec}}}"#),
            format!(
                r#"{{"id":"g1","cmd":"generate","spec":{spec},"solve":true,"seed":5,"deadline_ms":2000}}"#
            ),
            // The minted name is directly solvable; same canonical
            // hash + seed => answered from the cache entry the
            // generate+solve just created.
            r#"{"id":"s","instance":{"name":"gen-job-4x3-s11"},"seed":5,"deadline_ms":2000}"#
                .to_string(),
        ],
    );
    let bare = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(bare.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(bare.get("name").unwrap().as_str(), Some("gen-job-4x3-s11"));
    assert_eq!(bare.get("family").unwrap().as_str(), Some("job"));
    assert_eq!(bare.get("total_ops").unwrap().as_u64(), Some(12));
    assert!(bare.get("solution").is_none(), "solve not requested");
    // The instance text round-trips to the advertised hash.
    let text = bare.get("instance").unwrap().as_str().unwrap();
    let parsed = shop::gen::AnyInstance::parse(shop::gen::Family::Job, text).unwrap();
    let hash = bare.get("hash").unwrap().as_str().unwrap().to_string();
    assert_eq!(hash, format!("{:#018x}", parsed.canonical_hash()));

    let solved = crate::json::parse(&responses[1]).unwrap();
    let solution = solved.get("solution").expect("solution attached");
    assert_eq!(solution.get("status").unwrap().as_str(), Some("ok"));
    assert!(solution.get("makespan").unwrap().as_u64().unwrap() > 0);

    let named = crate::json::parse(&responses[2]).unwrap();
    assert_eq!(named.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        named.get("schedule").unwrap().encode(),
        solution.get("schedule").unwrap().encode(),
        "named gen-* solve must replay the generate+solve entry"
    );

    // Bad spec => protocol-level error line, not a dropped request.
    let err = send_lines(
        addr,
        &[r#"{"cmd":"generate","spec":{"family":"job","jobs":0,"machines":3}}"#.to_string()],
    );
    let err_v = crate::json::parse(&err[0]).unwrap();
    assert_eq!(err_v.get("status").unwrap().as_str(), Some("error"));
    service.shutdown();
}

#[test]
fn batch_cache_hits_do_not_consume_racer_threads() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    // Prime the cache with one cold solve.
    let prime = encode_request(&SolveRequest {
        id: None,
        instance: InstanceSpec::Named("flow05".into()),
        objective: Objective::Makespan,
        seed: 3,
        deadline_ms: 2_000,
        trace: false,
    });
    // A batch of 8 copies of the primed key: every item must replay
    // the entry, and no new portfolio race may start.
    let items: Vec<String> = (0..8)
        .map(|_| r#"{"instance":{"name":"flow05"}}"#.to_string())
        .collect();
    let batch = format!(
        r#"{{"id":"b","cmd":"batch","items":[{}],"seed":3,"deadline_ms":2000}}"#,
        items.join(",")
    );
    let responses = send_lines(addr, &[prime, batch]);
    let v = crate::json::parse(&responses[1]).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("count").unwrap().as_u64(), Some(8));
    assert_eq!(v.get("ok").unwrap().as_u64(), Some(8));
    let entries = v.get("items").unwrap().as_arr().unwrap();
    assert_eq!(entries.len(), 8);
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(e.get("index").unwrap().as_u64(), Some(i as u64));
        assert_eq!(e.get("cached").unwrap().as_bool(), Some(true), "item {i}");
    }
    let t = v.get("telemetry").unwrap();
    assert_eq!(t.get("cache_hits").unwrap().as_u64(), Some(8));
    assert_eq!(t.get("errors").unwrap().as_u64(), Some(0));
    let stats = service.stats();
    assert_eq!(stats.solved, 1, "cache hits must not race the portfolio");
    assert_eq!(stats.cache_hits, 8);
    service.shutdown();
}

#[test]
fn batch_evicts_lru_when_overflowing_the_cache() {
    // Capacity 3, one worker (sequential item order, so eviction
    // order is deterministic), one cache shard (exact global LRU
    // order — the property under test), batch of 5 distinct
    // generated instances: the cache must end at capacity holding
    // exactly the three *most recently inserted* entries (seeds 2,
    // 3, 4), and every item must still be answered.
    let service = Service::bind(ServeConfig {
        cache_capacity: 3,
        cache_shards: 1,
        workers: 1,
        gen_cap: 60,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let items: Vec<String> = (0..5)
        .map(|s| format!(r#"{{"generate":{{"family":"flow","jobs":3,"machines":2,"seed":{s}}}}}"#))
        .collect();
    let batch = format!(
        r#"{{"cmd":"batch","items":[{}],"deadline_ms":2000}}"#,
        items.join(",")
    );
    let responses = send_lines(addr, &[batch]);
    let v = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(v.get("ok").unwrap().as_u64(), Some(5));
    assert_eq!(service.cache_len(), 3, "cache must stay at capacity");
    assert_eq!(service.stats().solved, 5);

    // LRU order preserved under batch load: the last three inserts
    // survive (replay), the first two were evicted (re-solve).
    let probe = |seed: u64| format!(r#"{{"instance":{{"name":"gen-flow-3x2-s{seed}"}}}}"#);
    let responses = send_lines(addr, &[probe(2), probe(3), probe(4), probe(0)]);
    let cached = |i: usize| {
        crate::json::parse(&responses[i])
            .unwrap()
            .get("cached")
            .unwrap()
            .as_bool()
            .unwrap()
    };
    assert!(cached(0), "seed 2 must have survived the batch");
    assert!(cached(1), "seed 3 must have survived the batch");
    assert!(cached(2), "seed 4 must have survived the batch");
    assert!(!cached(3), "seed 0 must have been evicted as LRU");
    assert_eq!(service.cache_len(), 3);
    service.shutdown();
}

#[test]
fn duplicate_batch_items_race_once_and_replay() {
    // A cold batch listing the same spec three times (mixed with a
    // distinct item) must race each unique key once: duplicates
    // serialize behind their first occurrence and replay its entry.
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let batch = concat!(
        r#"{"cmd":"batch","items":["#,
        r#"{"generate":{"family":"job","jobs":4,"machines":3,"seed":1}},"#,
        r#"{"generate":{"family":"job","jobs":4,"machines":3,"seed":1}},"#,
        r#"{"instance":{"name":"gen-job-4x3-s1"}},"#,
        r#"{"generate":{"family":"job","jobs":4,"machines":3,"seed":2}}"#,
        r#"],"seed":7,"deadline_ms":2000}"#
    );
    let responses = send_lines(addr, &[batch.to_string()]);
    let v = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(v.get("ok").unwrap().as_u64(), Some(4));
    let entries = v.get("items").unwrap().as_arr().unwrap();
    let cached = |i: usize| entries[i].get("cached").unwrap().as_bool().unwrap();
    assert!(!cached(0), "first occurrence races");
    assert!(cached(1), "duplicate generate spec replays");
    assert!(!cached(3), "distinct seed is its own race");
    // Item 2 names the same instance via the gen-* grammar: it is a
    // different spelling, so it may race separately — but the cache
    // key is the canonical hash, so at most one extra race runs and
    // the answers agree.
    assert_eq!(
        entries[1].get("makespan").unwrap().as_u64(),
        entries[0].get("makespan").unwrap().as_u64()
    );
    let stats = service.stats();
    assert!(
        stats.solved <= 3,
        "4 items, 2 unique specs of one key + 1 distinct: at most 3 races, got {}",
        stats.solved
    );
    assert!(stats.cache_hits >= 1);
    service.shutdown();
}

#[test]
fn bad_gen_name_parameters_get_the_generator_error() {
    // A name in the gen-* grammar with an invalid parameter space
    // must surface GenSpec::check's message, not "unknown named
    // instance".
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let responses = send_lines(
        addr,
        &[
            r#"{"instance":{"name":"gen-job-20000x3-s1"}}"#.to_string(),
            r#"{"instance":{"name":"gen-flow-5x3-s1-t9x2"}}"#.to_string(),
            r#"{"instance":{"name":"gen-job-6x6"}}"#.to_string(), // bad grammar
        ],
    );
    let err = |i: usize| {
        crate::json::parse(&responses[i])
            .unwrap()
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert!(err(0).contains("capped"), "{}", err(0));
    assert!(err(1).contains("min_time"), "{}", err(1));
    assert!(err(2).contains("unknown named instance"), "{}", err(2));
    assert_eq!(service.stats().errors, 3);
    service.shutdown();
}

#[test]
fn batch_reports_per_item_errors_without_failing_the_batch() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let batch = concat!(
        r#"{"cmd":"batch","items":["#,
        r#"{"instance":{"name":"nope"}},"#,
        r#"{"generate":{"family":"job","jobs":0,"machines":2}},"#,
        r#"{"instance":{"name":"flow05"}}"#,
        r#"],"deadline_ms":2000}"#
    );
    let responses = send_lines(addr, &[batch.to_string()]);
    let v = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("count").unwrap().as_u64(), Some(3));
    assert_eq!(v.get("ok").unwrap().as_u64(), Some(1));
    let entries = v.get("items").unwrap().as_arr().unwrap();
    assert_eq!(entries[0].get("status").unwrap().as_str(), Some("error"));
    assert_eq!(entries[1].get("status").unwrap().as_str(), Some("error"));
    assert_eq!(entries[2].get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        v.get("telemetry").unwrap().get("errors").unwrap().as_u64(),
        Some(2)
    );
    assert_eq!(service.stats().errors, 2);
    service.shutdown();
}

/// The backpressure contract end to end: a saturated racer pool
/// makes cold solves fail fast with `code:"busy"` (well within the
/// request deadline — no hang), while cached hits keep being
/// served, and the pool recovers once the load passes.
#[test]
fn saturated_pool_returns_busy_and_still_serves_cached_hits() {
    let service = Service::bind(ServeConfig {
        workers: 3,
        racers: 3,
        racer_pool: 1,
        max_queue_depth: 1,
        gen_cap: u64::MAX, // unreachable cap: races run to their deadline
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    // Prime a cache entry under a small budget while the pool is
    // idle (2 s deadline, but ft06 races finish earlier only via
    // deadline here, so the entry is deadline-bound with budget
    // 800 ms — replayable for any request of budget <= 800 ms).
    let prime = encode_request(&SolveRequest {
        id: None,
        instance: InstanceSpec::Named("flow05".into()),
        objective: Objective::Makespan,
        seed: 3,
        deadline_ms: 800,
        trace: false,
    });
    send_lines(addr, &[prime]);

    // Saturate: a long cold race occupies the inline slot of one
    // worker and parks its 2 remaining members on the pool (depth
    // hits 1 as soon as the single racer thread picks one up).
    let long = encode_request(&SolveRequest {
        id: Some("long".into()),
        instance: InstanceSpec::Named("ft06".into()),
        objective: Objective::Makespan,
        seed: 77,
        deadline_ms: 2_500,
        trace: false,
    });
    std::thread::scope(|s| {
        let saturator = s.spawn(|| send_lines(addr, std::slice::from_ref(&long)));
        // Wait (bounded) for the long race to be admitted and queue
        // its members.
        for _ in 0..400 {
            if service.queue_depth() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(service.queue_depth() >= 1, "pool must be saturated");

        // A cold solve must now be refused fast with code busy.
        let cold = encode_request(&SolveRequest {
            id: Some("cold".into()),
            instance: InstanceSpec::Named("la01".into()),
            objective: Objective::Makespan,
            seed: 5,
            deadline_ms: 2_000,
            trace: false,
        });
        let asked = Instant::now();
        let resp = send_lines(addr, &[cold]);
        let answered_in = asked.elapsed();
        let v = crate::json::parse(&resp[0]).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("code").unwrap().as_str(), Some("busy"));
        assert!(v.get("queue_depth").unwrap().as_u64().unwrap() >= 1);
        assert!(
            answered_in < Duration::from_millis(1_000),
            "busy must be immediate (took {answered_in:?}), not a hang"
        );

        // A cached hit (budget <= the primed 800 ms) is still
        // answered while saturated.
        let cached = encode_request(&SolveRequest {
            id: Some("hit".into()),
            instance: InstanceSpec::Named("flow05".into()),
            objective: Objective::Makespan,
            seed: 3,
            deadline_ms: 500,
            trace: false,
        });
        let hit = send_lines(addr, &[cached]);
        let v = crate::json::parse(&hit[0]).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));

        let responses = saturator.join().unwrap();
        let v = crate::json::parse(&responses[0]).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    });

    let stats = service.stats();
    assert_eq!(stats.busy_rejections, 1);
    assert!(stats.cache_hits >= 1);
    // Deadline cancellation freed the queued members: once the
    // long race's deadline passed, its stranded tasks drain.
    let waited = Instant::now();
    while service.queue_depth() > 0 && waited.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(service.queue_depth(), 0, "cancellation frees pool slots");
    // And the recovered pool admits cold solves again.
    let retry = encode_request(&SolveRequest {
        id: None,
        instance: InstanceSpec::Named("la01".into()),
        objective: Objective::Makespan,
        seed: 5,
        deadline_ms: 300,
        trace: false,
    });
    let resp = send_lines(addr, &[retry]);
    let v = crate::json::parse(&resp[0]).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    service.shutdown();
}

#[test]
fn stats_report_pool_and_admission_configuration() {
    let service = Service::bind(ServeConfig {
        workers: 2,
        racer_pool: 2,
        max_queue_depth: 7,
        ..ServeConfig::default()
    })
    .unwrap();
    assert_eq!(service.racer_pool_size(), 2);
    let addr = service.local_addr();
    let responses = send_lines(addr, &[r#"{"cmd":"stats"}"#.to_string()]);
    let v = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(v.get("racer_pool").unwrap().as_u64(), Some(2));
    assert_eq!(v.get("max_queue_depth").unwrap().as_u64(), Some(7));
    assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(0));
    assert_eq!(v.get("busy_rejections").unwrap().as_u64(), Some(0));
    assert!(v.get("pool_wait_us").unwrap().as_u64().is_some());
    service.shutdown();
}

#[test]
fn session_lifecycle_over_tcp() {
    let service = Service::bind(ServeConfig {
        workers: 2,
        gen_cap: 60,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let responses = send_lines(
        addr,
        &[
            // Non-job families cannot open sessions.
            r#"{"cmd":"session_open","instance":{"name":"flow05"},"deadline_ms":2000}"#
                .to_string(),
            r#"{"id":"o","cmd":"session_open","instance":{"name":"ft06"},"seed":42,"deadline_ms":2000}"#
                .to_string(),
        ],
    );
    let err = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
    assert!(err
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("job-shop"));
    let opened = crate::json::parse(&responses[1]).unwrap();
    assert_eq!(opened.get("status").unwrap().as_str(), Some("ok"));
    let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
    assert_eq!(opened.get("now").unwrap().as_u64(), Some(0));
    let mk = opened.get("makespan").unwrap().as_u64().unwrap();

    // A breakdown event: answered ok, winner's value never worse
    // than repair's, clock advanced, session mutated.
    let from = mk / 4;
    let responses = send_lines(
        addr,
        &[
            format!(
                r#"{{"id":"e1","cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":2,"from":{from},"duration":{}}},"deadline_ms":1500}}"#,
                mk / 3
            ),
            format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
            r#"{"cmd":"stats"}"#.to_string(),
            format!(r#"{{"cmd":"session_close","session":"{sid}"}}"#),
            format!(r#"{{"cmd":"session_close","session":"{sid}"}}"#),
        ],
    );
    let event = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(
        event.get("status").unwrap().as_str(),
        Some("ok"),
        "{event:?}"
    );
    assert_eq!(event.get("now").unwrap().as_u64(), Some(from));
    assert_eq!(event.get("events").unwrap().as_u64(), Some(1));
    let value = event.get("value").unwrap().as_f64().unwrap();
    let repair = event.get("repair_value").unwrap().as_f64().unwrap();
    assert!(
        value <= repair,
        "winner {value} must not lose to repair {repair}"
    );
    let winner = event.get("winner").unwrap().as_str().unwrap();
    assert!(winner == "repair" || winner == "resolve");

    // session_get replays the incumbent the event installed.
    let got = crate::json::parse(&responses[1]).unwrap();
    assert_eq!(got.get("value").unwrap().as_f64(), Some(value));
    assert_eq!(
        got.get("schedule").unwrap().encode(),
        event.get("schedule").unwrap().encode()
    );

    let stats = crate::json::parse(&responses[2]).unwrap();
    assert_eq!(stats.get("sessions_open").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("sessions_opened").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("session_events").unwrap().as_u64(), Some(1));
    let wins = stats.get("session_repair_wins").unwrap().as_u64().unwrap()
        + stats.get("session_resolve_wins").unwrap().as_u64().unwrap();
    assert_eq!(wins, 1);

    let closed = crate::json::parse(&responses[3]).unwrap();
    assert_eq!(closed.get("closed").unwrap().as_bool(), Some(true));
    assert_eq!(closed.get("events").unwrap().as_u64(), Some(1));
    let gone = crate::json::parse(&responses[4]).unwrap();
    assert_eq!(gone.get("code").unwrap().as_str(), Some("unknown_session"));
    assert_eq!(service.session_gauges().open, 0, "registry drains on close");
    service.shutdown();
}

#[test]
fn session_events_validate_against_the_session_clock() {
    let service = Service::bind(ServeConfig {
        workers: 1,
        gen_cap: 40,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let responses = send_lines(
        addr,
        &[
            r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":1,"deadline_ms":1000}"#
                .to_string(),
        ],
    );
    let sid = crate::json::parse(&responses[0])
        .unwrap()
        .get("session")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let event = |body: &str| {
        format!(r#"{{"cmd":"session_event","session":"{sid}","event":{body},"deadline_ms":400}}"#)
    };
    let responses = send_lines(
        addr,
        &[
            event(r#"{"type":"breakdown","machine":1,"from":30,"duration":10}"#),
            // Clock at 30 now: an earlier event must be refused.
            event(r#"{"type":"breakdown","machine":1,"from":10,"duration":5}"#),
            // Unknown machine.
            event(r#"{"type":"breakdown","machine":99,"from":40,"duration":5}"#),
            // Revising an op that started before the event time.
            event(r#"{"type":"revision","at":31,"job":0,"op":0,"duration":9}"#),
            format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
        ],
    );
    assert_eq!(
        crate::json::parse(&responses[0])
            .unwrap()
            .get("status")
            .unwrap()
            .as_str(),
        Some("ok")
    );
    for (i, why) in [
        (1, "stale clock"),
        (2, "unknown machine"),
        (3, "started op"),
    ] {
        let v = crate::json::parse(&responses[i]).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"), "{why}");
    }
    // The failed events left the session at one applied event.
    let got = crate::json::parse(&responses[4]).unwrap();
    assert_eq!(got.get("events").unwrap().as_u64(), Some(1));
    assert_eq!(got.get("now").unwrap().as_u64(), Some(30));
    service.shutdown();
}

#[test]
fn busy_degraded_event_reports_deadline_bound_in_session_get() {
    let service = Service::bind(ServeConfig {
        workers: 2,
        gen_cap: 60,
        max_queue_depth: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let responses = send_lines(
        addr,
        &[
            r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":5,"deadline_ms":2000}"#
                .to_string(),
        ],
    );
    let opened = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(
        opened.get("status").unwrap().as_str(),
        Some("ok"),
        "{opened:?}"
    );
    let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
    let mk = opened.get("makespan").unwrap().as_u64().unwrap();

    // Saturate the racer pool so the event's re-solve leg is shed:
    // one gated job per racer thread occupies every slot, and two
    // more sit queued, holding `queue_depth` over the admission
    // limit for as long as the gate stays closed.
    let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
    let cancel = Arc::new(crate::scheduler::CancelToken::default());
    let job_deadline = Instant::now() + Duration::from_secs(30);
    for _ in 0..service.racer_pool_size() + 2 {
        let gate = Arc::clone(&gate);
        service.shared.pool.submit(
            job_deadline,
            Arc::clone(&cancel),
            Box::new(move |_run| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }),
        );
    }
    for _ in 0..400 {
        if service.queue_depth() >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(service.queue_depth() >= 1, "pool saturation did not take");

    let responses = send_lines(
        addr,
        &[format!(
            r#"{{"id":"e1","cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":{},"duration":{}}},"deadline_ms":500}}"#,
            mk / 4,
            mk / 3
        )],
    );
    let event = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(
        event.get("status").unwrap().as_str(),
        Some("ok"),
        "{event:?}"
    );
    assert_eq!(event.get("resolve_skipped").unwrap().as_str(), Some("busy"));
    assert_eq!(event.get("winner").unwrap().as_str(), Some("repair"));
    assert_eq!(event.get("deadline_bound").unwrap().as_bool(), Some(true));
    let value = event.get("value").unwrap().as_f64().unwrap();
    assert_eq!(
        Some(value),
        event.get("repair_value").unwrap().as_f64(),
        "a shed re-solve answers with the repaired schedule"
    );

    // The regression under test: session_get must replay the busy
    // event's degraded incumbent — the repaired value, flagged
    // deadline_bound — not a stale or settled view of it.
    let responses = send_lines(
        addr,
        &[format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#)],
    );
    let got = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(
        got.get("deadline_bound").unwrap().as_bool(),
        Some(true),
        "{got:?}"
    );
    assert_eq!(got.get("value").unwrap().as_f64(), Some(value));
    assert_eq!(
        got.get("schedule").unwrap().encode(),
        event.get("schedule").unwrap().encode()
    );

    // Release the pool: the next event gets its re-solve slot and
    // the session settles back to deadline_bound=false.
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    cancel.cancel();
    for _ in 0..400 {
        if service.queue_depth() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let responses = send_lines(
        addr,
        &[
            format!(
                r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":0,"from":{},"duration":5}},"deadline_ms":2000}}"#,
                mk / 2
            ),
            format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
        ],
    );
    let second = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(
        second.get("status").unwrap().as_str(),
        Some("ok"),
        "{second:?}"
    );
    let settled = crate::json::parse(&responses[1]).unwrap();
    assert_eq!(
        settled.get("deadline_bound").unwrap().as_bool(),
        Some(false),
        "a full-budget event settles the session again: {settled:?}"
    );
    service.shutdown();
}

#[test]
fn sessions_expire_by_ttl_and_count_in_stats() {
    let service = Service::bind(ServeConfig {
        workers: 1,
        gen_cap: 30,
        session_ttl_ms: 80,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let responses = send_lines(
        addr,
        &[
            r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":2,"deadline_ms":1000}"#
                .to_string(),
        ],
    );
    let sid = crate::json::parse(&responses[0])
        .unwrap()
        .get("session")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(service.session_gauges().open, 1);
    std::thread::sleep(Duration::from_millis(200));
    let responses = send_lines(
        addr,
        &[
            format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
            r#"{"cmd":"stats"}"#.to_string(),
        ],
    );
    let v = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(v.get("code").unwrap().as_str(), Some("unknown_session"));
    let stats = crate::json::parse(&responses[1]).unwrap();
    assert_eq!(stats.get("sessions_open").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("sessions_expired").unwrap().as_u64(), Some(1));
    service.shutdown();
}

/// A scratch WAL directory, removed on drop.
struct TmpWalDir(std::path::PathBuf);

impl TmpWalDir {
    fn new(tag: &str) -> TmpWalDir {
        let dir = std::env::temp_dir().join(format!("pga-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpWalDir(dir)
    }

    fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for TmpWalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// The TTL-vs-durability regression: an idle-expired session whose
// log is on disk must come back via replay — bit-identically — not
// answer `unknown_session`, and stats must count the recovery.
#[test]
fn expired_session_with_wal_recovers_via_replay() {
    let tmp = TmpWalDir::new("ttl");
    let service = Service::bind(ServeConfig {
        workers: 1,
        gen_cap: 30,
        session_ttl_ms: 80,
        wal_dir: Some(tmp.path()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let responses = send_lines(
        addr,
        &[
            r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":2,"deadline_ms":1000}"#
                .to_string(),
        ],
    );
    let opened = crate::json::parse(&responses[0]).unwrap();
    let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
    let responses = send_lines(
        addr,
        &[format!(
            r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":2,"from":10,"duration":12}},"deadline_ms":1000}}"#
        )],
    );
    let event = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(event.get("status").unwrap().as_str(), Some("ok"));
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(service.session_gauges().open, 0, "session must expire");
    let responses = send_lines(
        addr,
        &[
            format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
            r#"{"cmd":"stats"}"#.to_string(),
        ],
    );
    let got = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(got.get("status").unwrap().as_str(), Some("ok"), "{got:?}");
    assert_eq!(got.get("events").unwrap().as_u64(), Some(1));
    assert_eq!(got.get("now").unwrap().as_u64(), Some(10));
    assert_eq!(
        got.get("value").unwrap().as_f64(),
        event.get("value").unwrap().as_f64()
    );
    assert_eq!(
        got.get("schedule").unwrap().encode(),
        event.get("schedule").unwrap().encode(),
        "replayed incumbent must be bit-identical"
    );
    assert_eq!(got.get("windows").unwrap().encode(), "[[2,10,22]]");
    let stats = crate::json::parse(&responses[1]).unwrap();
    assert_eq!(stats.get("sessions_recovered").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("wal_replays").unwrap().as_u64(), Some(2));
    assert!(stats.get("wal_appends").unwrap().as_u64().unwrap() >= 2);
    service.shutdown();
}

/// Opens an ft06 session with `seed` over the wire and returns its id.
fn open_session(addr: SocketAddr, seed: u64) -> String {
    let line = format!(
        r#"{{"cmd":"session_open","instance":{{"name":"ft06"}},"seed":{seed},"deadline_ms":1000}}"#
    );
    let opened = crate::json::parse(&send_lines(addr, &[line])[0]).unwrap();
    opened.get("session").unwrap().as_str().unwrap().to_string()
}

// Close is ordered after an event that already holds the session lock:
// the event's append lands first and close then deletes the log. A close
// that deleted the log without the lock would let the append revive it;
// with a snapshot cadence of 1 as a full snapshot `session_get` answers.
#[test]
fn session_close_waits_for_an_in_flight_event_and_leaves_no_log() {
    let tmp = TmpWalDir::new("close-race");
    let service = Service::bind(ServeConfig {
        wal_dir: Some(tmp.path()),
        wal_snapshot_every: 1,
        ..tiny_config()
    })
    .unwrap();
    let addr = service.local_addr();
    let shared = Arc::clone(&service.shared);
    let sid = open_session(addr, 3);
    let log = tmp.0.join(format!("{sid}.wal"));
    assert!(log.exists());

    // The in-flight event: it looked the session up and holds its lock.
    let entry = shared.sessions.entry(&sid).unwrap();
    let mut slot = entry.lock().unwrap();
    let closer = {
        let shared = Arc::clone(&shared);
        let r = SessionRef {
            id: None,
            session: sid.clone(),
        };
        std::thread::spawn(move || sessions::handle_session_close(&r, &shared))
    };
    // Give the close every chance to overtake the event; it must wait.
    let patience = Instant::now() + Duration::from_millis(300);
    while !closer.is_finished() && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(5));
    }
    let state = slot.as_mut().expect("close waits for the in-flight event");
    let event = shop::dynamic::Event::Breakdown {
        machine: 2,
        from: 10,
        duration: 12,
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let out =
        crate::session::handle_event(&shared.pool, state, &event, deadline, 30, 2, true).unwrap();
    shared.sessions.record_event(&sid, state, &event, &out);
    drop(slot);

    let closed = crate::json::parse(&closer.join().unwrap()).unwrap();
    assert_eq!(closed.get("closed").and_then(Json::as_bool), Some(true));
    assert_eq!(closed.get("events").unwrap().as_u64(), Some(1));
    assert!(!log.exists(), "close must delete the log after the event");
    // An event that looked the session up before the close finds it
    // gone, so it answers unknown_session and logs nothing.
    assert!(entry.lock().unwrap().is_none());
    let responses = send_lines(
        addr,
        &[
            format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
            r#"{"cmd":"stats"}"#.to_string(),
        ],
    );
    let got = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(
        got.get("code").and_then(Json::as_str),
        Some("unknown_session")
    );
    let stats = crate::json::parse(&responses[1]).unwrap();
    // The one error is the unknown_session answer; no quarantine.
    assert_eq!(stats.get("errors").unwrap().as_u64(), Some(1));
    assert!(!log.exists());
}

// A durable session evicted from the registry by a later open is
// recovered from its log, bit-identically: its open record was written
// before the session was ever reachable.
#[test]
fn evicted_durable_session_is_recovered_from_its_log() {
    let tmp = TmpWalDir::new("evict");
    let service = Service::bind(ServeConfig {
        wal_dir: Some(tmp.path()),
        max_sessions: 1,
        ..tiny_config()
    })
    .unwrap();
    let addr = service.local_addr();
    let first = open_session(addr, 4);
    let get = format!(r#"{{"cmd":"session_get","session":"{first}"}}"#);
    let before = send_lines(addr, std::slice::from_ref(&get));
    let second = open_session(addr, 5);
    assert_ne!(first, second);
    let gauges = service.session_gauges();
    assert_eq!((gauges.open, gauges.evicted), (1, 1));
    let after = send_lines(addr, &[get, r#"{"cmd":"stats"}"#.to_string()]);
    assert_eq!(
        after[0], before[0],
        "recovered session must answer identically"
    );
    let stats = crate::json::parse(&after[1]).unwrap();
    assert_eq!(stats.get("sessions_recovered").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("errors").unwrap().as_u64(), Some(0));
}

/// One breakdown `session_event` line for `sid` at time `from`.
fn breakdown_line(sid: &str, from: u64) -> String {
    format!(
        r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":2,"from":{from},"duration":12}},"deadline_ms":1000}}"#
    )
}

/// One `stats` counter, read over the wire.
fn stat(addr: SocketAddr, name: &str) -> u64 {
    let stats =
        crate::json::parse(&send_lines(addr, &[r#"{"cmd":"stats"}"#.to_string()])[0]).unwrap();
    stats.get(name).unwrap().as_u64().unwrap()
}

// A session whose log went missing heals at its next event: the failed
// append falls back to a full snapshot, the log replays to the live
// state, and nothing counts as an error.
#[test]
fn missing_session_log_is_rewritten_at_the_next_event() {
    let tmp = TmpWalDir::new("heal");
    let service = Service::bind(ServeConfig {
        wal_dir: Some(tmp.path()),
        ..tiny_config()
    })
    .unwrap();
    let addr = service.local_addr();
    let sid = open_session(addr, 6);
    let log = tmp.0.join(format!("{sid}.wal"));
    std::fs::remove_file(&log).unwrap();
    let errors = stat(addr, "errors");
    let event = crate::json::parse(&send_lines(addr, &[breakdown_line(&sid, 10)])[0]).unwrap();
    assert_eq!(event.get("status").unwrap().as_str(), Some("ok"));
    assert!(log.exists(), "the event must rewrite the missing log");
    assert_eq!(stat(addr, "errors"), errors);

    let wal = crate::wal::Wal::new(crate::wal::WalConfig {
        dir: tmp.0.clone(),
        snapshot_every: 64,
        fsync: false,
    })
    .unwrap();
    let crate::wal::RecoverOutcome::Recovered(rec) = wal.recover_one(&sid).unwrap() else {
        panic!("the healed log must replay");
    };
    let entry = service.shared.sessions.entry(&sid).unwrap();
    let live = entry.lock().unwrap();
    let live = live.as_ref().unwrap();
    assert_eq!(rec.state.events, 1);
    assert_eq!(rec.state.events, live.events);
    assert_eq!(rec.state.now, live.now);
    assert_eq!(rec.state.incumbent.value, live.incumbent.value);
    assert_eq!(rec.state.incumbent.schedule, live.incumbent.schedule);
    let journal = |s: &crate::session::SessionState| -> Vec<String> {
        s.journal
            .iter()
            .map(|e| crate::wal::journal_entry_to_json(e).encode())
            .collect()
    };
    assert_eq!(journal(&rec.state), journal(live));
}

// With the WAL directory gone (a regular file in its place), every
// append and rewrite fails with ENOTDIR: events still answer ok and
// advance the in-memory session, each counts one error, and no write
// is counted as a WAL append.
#[test]
fn unwritable_wal_degrades_to_memory_and_counts_each_event() {
    let tmp = TmpWalDir::new("degrade");
    let service = Service::bind(ServeConfig {
        wal_dir: Some(tmp.path()),
        ..tiny_config()
    })
    .unwrap();
    let addr = service.local_addr();
    let sid = open_session(addr, 7);
    std::fs::remove_dir_all(&tmp.0).unwrap();
    std::fs::write(&tmp.0, b"not a directory").unwrap();
    let (errors, appends) = (stat(addr, "errors"), stat(addr, "wal_appends"));
    for (n, from) in [(1, 10), (2, 20)] {
        let event =
            crate::json::parse(&send_lines(addr, &[breakdown_line(&sid, from)])[0]).unwrap();
        assert_eq!(event.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(event.get("events").unwrap().as_u64(), Some(n));
        assert_eq!(stat(addr, "errors"), errors + n);
        assert_eq!(stat(addr, "wal_appends"), appends);
    }
    let get = format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#);
    let got = crate::json::parse(&send_lines(addr, &[get])[0]).unwrap();
    assert_eq!(got.get("events").unwrap().as_u64(), Some(2));
    assert_eq!(got.get("now").unwrap().as_u64(), Some(20));
    std::fs::remove_file(&tmp.0).unwrap();
}

#[test]
fn session_events_returns_the_ordered_log() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let responses = send_lines(
        addr,
        &[
            r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":5,"deadline_ms":1000}"#
                .to_string(),
        ],
    );
    let sid = crate::json::parse(&responses[0])
        .unwrap()
        .get("session")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let responses = send_lines(
        addr,
        &[
            format!(
                r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":8,"duration":6}},"deadline_ms":800}}"#
            ),
            format!(
                r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"job_arrival","at":15,"route":[[0,5],[3,7]]}},"deadline_ms":800}}"#
            ),
            format!(r#"{{"id":"log","cmd":"session_events","session":"{sid}"}}"#),
            r#"{"cmd":"session_events","session":"sess-unknown"}"#.to_string(),
        ],
    );
    let second = crate::json::parse(&responses[1]).unwrap();
    assert_eq!(second.get("status").unwrap().as_str(), Some("ok"));
    let log = crate::json::parse(&responses[2]).unwrap();
    assert_eq!(log.get("id").unwrap().as_str(), Some("log"));
    assert_eq!(log.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(log.get("events").unwrap().as_u64(), Some(2));
    let rows = log.get("log").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get("seq").unwrap().as_u64(), Some(1));
    assert_eq!(
        rows[0].get("event").unwrap().get("type").unwrap().as_str(),
        Some("breakdown")
    );
    assert_eq!(rows[1].get("seq").unwrap().as_u64(), Some(2));
    assert_eq!(
        rows[1].get("event").unwrap().get("type").unwrap().as_str(),
        Some("job_arrival")
    );
    // The last row mirrors the session's incumbent summary.
    assert_eq!(
        rows[1].get("value").unwrap().as_f64(),
        second.get("value").unwrap().as_f64()
    );
    let missing = crate::json::parse(&responses[3]).unwrap();
    assert_eq!(
        missing.get("code").unwrap().as_str(),
        Some("unknown_session")
    );
    service.shutdown();
}

#[test]
fn shutdown_command_stops_the_service() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let responses = send_lines(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    let v = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(v.get("shutting_down").unwrap().as_bool(), Some(true));
    // wait() returns because the protocol shutdown stopped every
    // thread; afterwards new connections are refused eventually.
    service.wait();
}

#[test]
fn concurrent_connections_are_served() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let mk = |seed: u64| {
        encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("open_latin3".into()),
            objective: Objective::Makespan,
            seed,
            deadline_ms: 2_000,
            trace: false,
        })
    };
    std::thread::scope(|s| {
        for seed in 0..4u64 {
            let req = mk(seed);
            s.spawn(move || {
                let resp = send_lines(addr, &[req]);
                let v = crate::json::parse(&resp[0]).unwrap();
                assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
            });
        }
    });
    assert_eq!(service.stats().solved, 4);
    service.shutdown();
}

/// Every legacy `ServiceStats` field must read back identically
/// through the metrics registry — the snapshot is a *view*, not a
/// second set of counters that could drift.
#[test]
fn stats_snapshot_matches_metrics_registry() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let req = encode_request(&SolveRequest {
        id: None,
        instance: InstanceSpec::Named("flow05".into()),
        objective: Objective::Makespan,
        seed: 11,
        deadline_ms: 1_000,
        trace: false,
    });
    send_lines(addr, &[req.clone(), req, "nonsense".to_string()]);
    let snap = service.stats();
    let reg = service.registry();
    for (name, value) in [
        ("serve_requests_total", snap.requests),
        ("serve_solved_total", snap.solved),
        ("serve_cache_hits_total", snap.cache_hits),
        ("serve_cache_misses_total", snap.cache_misses),
        ("serve_errors_total", snap.errors),
        ("serve_busy_rejections_total", snap.busy_rejections),
        ("serve_queue_wait_us_total", snap.queue_wait_us),
        ("serve_pool_wait_us_total", snap.pool_wait_us),
        ("serve_session_events_total", snap.session_events),
        ("serve_session_repair_wins_total", snap.session_repair_wins),
        (
            "serve_session_resolve_wins_total",
            snap.session_resolve_wins,
        ),
        (
            "serve_session_resolve_busy_total",
            snap.session_resolve_busy,
        ),
        ("serve_wal_appends_total", snap.wal_appends),
        ("serve_wal_replays_total", snap.wal_replays),
    ] {
        assert_eq!(reg.value(name), Some(value), "{name} drifted");
    }
    assert_eq!(snap.requests, 3);
    assert_eq!(snap.cache_hits, 1);
    assert_eq!(snap.errors, 1);
    service.shutdown();
}

#[test]
fn metrics_command_exposes_json_and_text() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let solve = encode_request(&SolveRequest {
        id: None,
        instance: InstanceSpec::Named("flow05".into()),
        objective: Objective::Makespan,
        seed: 4,
        deadline_ms: 1_000,
        trace: false,
    });
    let responses = send_lines(
        addr,
        &[
            solve,
            r#"{"cmd":"stats"}"#.to_string(),
            r#"{"cmd":"metrics"}"#.to_string(),
        ],
    );
    let stats = crate::json::parse(&responses[1]).unwrap();
    let metrics = crate::json::parse(&responses[2]).unwrap();
    assert_eq!(metrics.get("status").unwrap().as_str(), Some("ok"));
    let json = metrics.get("json").expect("json exposition");
    // The exposition must round-trip every legacy stats field. The
    // metrics request itself is the one extra request since the
    // stats snapshot was taken.
    assert_eq!(
        json.get("serve_requests_total").and_then(Json::as_u64),
        stats.get("requests").and_then(Json::as_u64).map(|n| n + 1)
    );
    for (wire, metric) in [
        ("solved", "serve_solved_total"),
        ("cache_hits", "serve_cache_hits_total"),
        ("cache_misses", "serve_cache_misses_total"),
        ("errors", "serve_errors_total"),
        ("busy_rejections", "serve_busy_rejections_total"),
        ("queue_wait_us", "serve_queue_wait_us_total"),
        ("pool_wait_us", "serve_pool_wait_us_total"),
        ("session_events", "serve_session_events_total"),
        ("session_repair_wins", "serve_session_repair_wins_total"),
        ("session_resolve_wins", "serve_session_resolve_wins_total"),
        ("session_resolve_busy", "serve_session_resolve_busy_total"),
        ("wal_appends", "serve_wal_appends_total"),
        ("wal_replays", "serve_wal_replays_total"),
        ("sessions_recovered", "serve_sessions_recovered"),
    ] {
        assert_eq!(
            json.get(metric).and_then(Json::as_u64),
            stats.get(wire).and_then(Json::as_u64),
            "{metric} must match stats.{wire}"
        );
    }
    // Labelled families, gauges and histograms ride along.
    assert_eq!(
        json.get("serve_requests_by_type_total{type=\"solve\"}")
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        json.get("serve_solved_by_family_total{family=\"flow\"}")
            .and_then(Json::as_u64),
        Some(1)
    );
    assert!(json.get("serve_uptime_ms").is_some());
    assert!(
        json.get("serve_request_us")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1),
        "request latency histogram observed the solve"
    );
    let text = metrics.get("text").unwrap().as_str().unwrap();
    assert!(text.contains("# TYPE serve_requests_total counter"));
    assert!(text.contains("# TYPE serve_request_us histogram"));
    assert!(text.contains("serve_requests_by_type_total{type=\"solve\"} 1"));
    // The stats body itself gained uptime and version.
    assert!(stats.get("uptime_ms").is_some());
    assert_eq!(
        stats.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    service.shutdown();
}

/// A traced solve returns the request's span tree inline and
/// retains it for `trace_dump`; the race leg carries per-member
/// anytime timelines.
#[test]
fn traced_solve_attaches_spans_and_timelines() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let mk = |trace: bool| {
        encode_request(&SolveRequest {
            id: None,
            instance: InstanceSpec::Named("flow05".into()),
            objective: Objective::Makespan,
            seed: 21,
            deadline_ms: 1_500,
            trace,
        })
    };
    let responses = send_lines(
        addr,
        &[
            mk(true),
            mk(false),
            mk(true),
            r#"{"cmd":"trace_dump"}"#.to_string(),
        ],
    );
    let cold = crate::json::parse(&responses[0]).unwrap();
    let trace = cold.get("trace").expect("traced solve returns a trace");
    assert_eq!(trace.get("kind").unwrap().as_str(), Some("solve"));
    let spans = trace.get("spans").unwrap().as_arr().unwrap();
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    for expected in ["parse", "cache_lookup", "admission", "race"] {
        assert!(
            names.contains(&expected),
            "missing span {expected}: {names:?}"
        );
    }
    // At least one member span with a non-empty anytime timeline
    // whose points are (elapsed_us, best) with non-increasing best.
    let member = spans
        .iter()
        .find(|s| {
            s.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("member/"))
        })
        .expect("race records member spans");
    let points = member.get("timeline").unwrap().as_arr().unwrap();
    assert!(!points.is_empty(), "anytime timeline has points");
    let values: Vec<f64> = points
        .iter()
        .filter_map(|p| p.as_arr().and_then(|xy| xy[1].as_f64()))
        .collect();
    assert!(values.windows(2).all(|w| w[1] <= w[0]), "{values:?}");
    // Untraced requests stay clean; a traced cache hit records the
    // lookup but no race.
    let untraced = crate::json::parse(&responses[1]).unwrap();
    assert!(untraced.get("trace").is_none());
    let hit = crate::json::parse(&responses[2]).unwrap();
    let hit_spans = hit.get("trace").unwrap().get("spans").unwrap();
    let hit_names: Vec<&str> = hit_spans
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(hit_names.contains(&"cache_lookup"));
    assert!(!hit_names.contains(&"race"));
    // The ring retained both traced requests, oldest first.
    let dump = crate::json::parse(&responses[3]).unwrap();
    assert_eq!(dump.get("count").unwrap().as_u64(), Some(2));
    let traces = dump.get("traces").unwrap().as_arr().unwrap();
    assert_eq!(
        traces[0].get("id").unwrap().as_u64(),
        trace.get("id").unwrap().as_u64()
    );
    service.shutdown();
}

/// The acceptance path: a traced disruption shows the repair and
/// re-solve legs as distinct spans, with each race member's anytime
/// points riding on its member span.
#[test]
fn traced_session_event_shows_repair_and_resolve_legs() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let responses = send_lines(
        addr,
        &[
            r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":7,"deadline_ms":1500,"trace":true}"#
                .to_string(),
        ],
    );
    let opened = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(opened.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        opened.get("trace").unwrap().get("kind").unwrap().as_str(),
        Some("session_open")
    );
    let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
    let mk = opened.get("makespan").unwrap().as_u64().unwrap();
    let responses = send_lines(
        addr,
        &[format!(
            r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":{},"duration":{}}},"deadline_ms":1200,"trace":true}}"#,
            mk / 4,
            mk / 3
        )],
    );
    let event = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(event.get("status").unwrap().as_str(), Some("ok"));
    let trace = event.get("trace").expect("traced event returns a trace");
    assert_eq!(trace.get("kind").unwrap().as_str(), Some("session_event"));
    let spans = trace.get("spans").unwrap().as_arr().unwrap();
    let span = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
    };
    let repair = span("repair").expect("distinct repair span");
    let resolve = span("resolve").expect("distinct resolve span");
    assert!(repair.get("value").unwrap().as_f64().is_some());
    assert!(resolve.get("value").unwrap().as_f64().is_some());
    let timelines = spans
        .iter()
        .filter(|s| {
            s.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("member/"))
        })
        .count();
    assert!(timelines >= 1, "re-solve race records member timelines");
    service.shutdown();
}

/// The `serve_phase_us_count{family="job",...}` lines of a metrics
/// render, as (series, count) pairs.
fn job_phase_counts(addr: SocketAddr) -> Vec<(String, u64)> {
    let metrics =
        crate::json::parse(&send_lines(addr, &[r#"{"cmd":"metrics"}"#.to_string()])[0]).unwrap();
    let text = metrics.get("text").unwrap().as_str().unwrap();
    text.lines()
        .filter(|l| l.starts_with(r#"serve_phase_us_count{family="job","#))
        .map(|l| {
            let (series, count) = l.rsplit_once(' ').unwrap();
            (series.to_string(), count.parse().unwrap())
        })
        .collect()
}

/// `serve_phase_us` profiles cold races only: a session event's
/// frozen-prefix re-solve is a suffix race and must not land in the
/// cold job-solve series.
#[test]
fn session_resolve_leaves_the_cold_job_phase_histograms_alone() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let sid = open_session(addr, 11);
    let before = job_phase_counts(addr);
    assert!(
        before.iter().any(|(_, count)| *count >= 1),
        "the open's cold race is profiled: {before:?}"
    );
    let responses = send_lines(
        addr,
        &[format!(
            r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":5,"duration":10}},"deadline_ms":1200}}"#
        )],
    );
    let event = crate::json::parse(&responses[0]).unwrap();
    assert_eq!(event.get("status").unwrap().as_str(), Some("ok"));
    assert!(
        event.get("resolve_value").unwrap().as_f64().is_some(),
        "the re-solve leg ran: {event:?}"
    );
    assert_eq!(job_phase_counts(addr), before);
    service.shutdown();
}

/// Sends one request and reads streamed lines until a terminal one:
/// a `{"frame":"answer",...}` object or a frame-less line (error
/// bodies). Returns every line read, terminal included.
fn watch_lines(addr: SocketAddr, line: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut lines = Vec::new();
    loop {
        let mut l = String::new();
        if reader.read_line(&mut l).unwrap() == 0 {
            panic!("connection closed before a terminal frame: {lines:?}");
        }
        let l = l.trim().to_string();
        let frame = crate::json::parse(&l)
            .ok()
            .and_then(|j| j.get("frame").and_then(Json::as_str).map(String::from));
        let terminal = !matches!(frame.as_deref(), Some(f) if f != "answer");
        lines.push(l);
        if terminal {
            return lines;
        }
    }
}

/// The frame kinds of a streamed transcript, in order.
fn frame_kinds(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|l| {
            crate::json::parse(l)
                .ok()?
                .get("frame")?
                .as_str()
                .map(String::from)
        })
        .collect()
}

/// A watched solve streams convergence frames and ends with an
/// answer bit-identical to an unwatched run of the same request;
/// the race also populates the phase histograms and the cost-model
/// drift gauge.
#[test]
fn watched_solve_streams_frames_then_bit_identical_answer() {
    let req = encode_request(&SolveRequest {
        id: None,
        instance: InstanceSpec::Named("flow05".into()),
        objective: Objective::Makespan,
        seed: 33,
        deadline_ms: 2_000,
        trace: false,
    });
    // Reference run on its own service: own cache, own pool, no
    // watch hooks anywhere near the race.
    let bare = Service::bind(tiny_config()).unwrap();
    let reference =
        crate::json::parse(&send_lines(bare.local_addr(), std::slice::from_ref(&req))[0]).unwrap();
    bare.shutdown();

    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let watch_req = crate::protocol::encode_watch(&WatchTarget::Solve(
        crate::protocol::parse_request(&req)
            .ok()
            .and_then(|r| match r {
                Request::Solve(s) => Some(*s),
                _ => None,
            })
            .unwrap(),
    ));
    let lines = watch_lines(addr, &watch_req);
    let kinds = frame_kinds(&lines);
    assert!(kinds.contains(&"start".to_string()), "{kinds:?}");
    let sample_at = kinds.iter().position(|k| k == "sample");
    let answer_at = kinds.iter().position(|k| k == "answer");
    assert!(
        sample_at.is_some_and(|s| answer_at.is_some_and(|a| s < a)),
        "a convergence sample precedes the answer: {kinds:?}"
    );
    let sample = crate::json::parse(&lines[sample_at.unwrap()]).unwrap();
    for field in ["generation", "evaluations", "best", "mean", "diversity"] {
        assert!(sample.get(field).is_some(), "sample carries {field}");
    }
    let answer = crate::json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(answer.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        answer.get("value").unwrap(),
        reference.get("value").unwrap()
    );
    assert_eq!(
        answer.get("schedule").unwrap(),
        reference.get("schedule").unwrap()
    );

    // A watched cache hit races nothing: the answer frame arrives
    // alone. The connection stayed usable after the first stream —
    // this request rides the same socket in a fresh connection.
    let replay = watch_lines(addr, &watch_req);
    assert_eq!(frame_kinds(&replay), vec!["answer".to_string()]);
    let hit = crate::json::parse(&replay[0]).unwrap();
    assert_eq!(hit.get("cached").unwrap().as_bool(), Some(true));

    // The cold race fed the profiler: phase histograms and the
    // drift gauge for the solved family are populated.
    let metrics =
        crate::json::parse(&send_lines(addr, &[r#"{"cmd":"metrics"}"#.to_string()])[0]).unwrap();
    let text = metrics.get("text").unwrap().as_str().unwrap();
    let count_line = text
        .lines()
        .find(|l| l.starts_with(r#"serve_phase_us_count{family="flow",phase="evaluate"}"#))
        .expect("evaluate phase histogram exposed");
    let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 1, "{count_line}");
    let drift_line = text
        .lines()
        .find(|l| l.starts_with(r#"serve_cost_model_drift_milli{family="flow"}"#))
        .expect("drift gauge exposed");
    let drift: u64 = drift_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(drift > 0, "{drift_line}");
    let stats =
        crate::json::parse(&send_lines(addr, &[r#"{"cmd":"stats"}"#.to_string()])[0]).unwrap();
    assert_eq!(
        stats
            .get("cost_model_drift_milli")
            .unwrap()
            .get("flow")
            .unwrap()
            .as_u64(),
        Some(drift)
    );
    service.shutdown();
}

/// The spans of the trace a streamed answer frame carries.
fn answer_spans(lines: &[String]) -> Vec<Json> {
    let answer = crate::json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(answer.get("frame").unwrap().as_str(), Some("answer"));
    let trace = answer.get("trace").expect("traced watch carries a trace");
    trace.get("spans").unwrap().as_arr().unwrap().to_vec()
}

/// A traced and watched solve: each `member/<model>` span is the
/// recording of exactly that member's frames on the wire — its
/// timeline is the `best` frames, its duration runs from the
/// `start` to the `finish` frame, and its retained samples are
/// `sample` frames.
#[test]
fn watched_trace_is_the_recording_of_the_stream() {
    // A pool slot per pooled member: none can be cancelled while
    // queued, so every member runs and records a span.
    let service = Service::bind(ServeConfig {
        racer_pool: 2,
        ..tiny_config()
    })
    .unwrap();
    let lines = watch_lines(
        service.local_addr(),
        r#"{"cmd":"watch","instance":{"name":"ft06"},"seed":19,"deadline_ms":20000,"trace":true}"#,
    );
    let frames: Vec<Json> = lines[..lines.len() - 1]
        .iter()
        .map(|l| crate::json::parse(l).unwrap())
        .collect();
    let members: Vec<Json> = answer_spans(&lines)
        .into_iter()
        .filter(|s| {
            s.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("member/"))
        })
        .collect();
    assert_eq!(members.len(), 3, "a cap-bound race records every member");
    for span in &members {
        let model = &span.get("name").unwrap().as_str().unwrap()["member/".len()..];
        let of = |kind: &str| -> Vec<&Json> {
            frames
                .iter()
                .filter(|f| {
                    f.get("model").and_then(Json::as_str) == Some(model)
                        && f.get("frame").and_then(Json::as_str) == Some(kind)
                })
                .collect()
        };
        let us = |f: &Json| f.get("elapsed_us").unwrap().as_u64().unwrap();
        let bests: Vec<Json> = of("best")
            .into_iter()
            .map(|f| Json::Arr(vec![us(f).into(), f.get("value").unwrap().clone()]))
            .collect();
        assert!(!bests.is_empty(), "{model} streamed its starting best");
        assert_eq!(span.get("timeline").unwrap().as_arr().unwrap(), &bests[..]);
        let (start, finish) = (of("start"), of("finish"));
        assert_eq!((start.len(), finish.len()), (1, 1), "{model}");
        assert_eq!(
            span.get("dur_us").unwrap().as_u64().unwrap(),
            us(finish[0]) - us(start[0]),
            "{model}"
        );
        let streamed: Vec<Json> = of("sample")
            .into_iter()
            .map(|f| match f {
                // A sample frame is the sample object behind the
                // frame/member/model header.
                Json::Obj(fields) => Json::Obj(fields[3..].to_vec()),
                other => panic!("frame is not an object: {other:?}"),
            })
            .collect();
        let retained = span.get("samples").unwrap().as_arr().unwrap();
        assert!(!retained.is_empty(), "{model} retained samples");
        for s in retained {
            assert!(streamed.contains(s), "{model} retained {s:?}");
        }
    }
    service.shutdown();
}

/// A traced watch reports the time spent parsing its request line,
/// like any other traced request.
#[test]
fn traced_watch_reports_its_parse_time() {
    let family = shop::gen::Family::Flow;
    let inst = shop::gen::GenSpec::new(family, 200, 50, 3)
        .build()
        .unwrap()
        .instance;
    let req = crate::protocol::encode_watch(&WatchTarget::Solve(SolveRequest {
        id: None,
        instance: InstanceSpec::Inline {
            family,
            text: inst.text(),
        },
        objective: Objective::Makespan,
        seed: 1,
        deadline_ms: 200,
        trace: true,
    }));
    assert!(req.len() > 20_000, "{} request bytes", req.len());
    let service = Service::bind(tiny_config()).unwrap();
    let lines = watch_lines(service.local_addr(), &req);
    let spans = answer_spans(&lines);
    let parse = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("parse"))
        .expect("parse span");
    assert!(parse.get("dur_us").unwrap().as_u64().unwrap() > 0);
    service.shutdown();
}

/// A second connection can attach to an in-flight watched race by
/// request id: it replays every frame streamed so far, follows the
/// rest live, and sees the same terminal answer. Once the race
/// finishes the id is gone.
#[test]
fn watch_attach_replays_the_stream_and_follows_live() {
    let service = Service::bind(ServeConfig {
        workers: 2,
        gen_cap: u64::MAX,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    // ft10's optimum sits above its lower bound, so the race runs
    // the full deadline — long enough to attach mid-flight.
    let watch_req =
        r#"{"cmd":"watch","id":"w-1","instance":{"name":"ft10"},"seed":5,"deadline_ms":1500}"#;
    let origin = std::thread::spawn(move || watch_lines(addr, watch_req));
    std::thread::sleep(Duration::from_millis(300));
    let attached = watch_lines(addr, r#"{"cmd":"watch","request":"w-1"}"#);
    let origin_lines = origin.join().unwrap();
    assert!(
        frame_kinds(&origin_lines)
            .iter()
            .filter(|k| *k == "sample")
            .count()
            >= 1,
        "origin saw samples"
    );
    // The channel mirrors the origin stream frame for frame.
    assert_eq!(attached, origin_lines);
    let gone = watch_lines(addr, r#"{"cmd":"watch","request":"w-1"}"#);
    assert_eq!(gone.len(), 1);
    let err = crate::json::parse(&gone[0]).unwrap();
    assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
    service.shutdown();
}

/// Watching a session disruption streams the repair-vs-resolve
/// race's frames and terminates with the ordinary event answer.
#[test]
fn watched_session_event_streams_resolve_race() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let opened = crate::json::parse(
        &send_lines(
            addr,
            &[
                r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":3,"deadline_ms":1500}"#
                    .to_string(),
            ],
        )[0],
    )
    .unwrap();
    let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
    let mk = opened.get("makespan").unwrap().as_u64().unwrap();
    let lines = watch_lines(
        addr,
        &format!(
            r#"{{"cmd":"watch","session":"{sid}","event":{{"type":"breakdown","machine":1,"from":{},"duration":{}}},"deadline_ms":1200}}"#,
            mk / 4,
            mk / 3
        ),
    );
    let kinds = frame_kinds(&lines);
    assert_eq!(kinds.last().map(String::as_str), Some("answer"));
    assert!(kinds.contains(&"start".to_string()), "{kinds:?}");
    let answer = crate::json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(answer.get("status").unwrap().as_str(), Some("ok"));
    assert!(answer.get("winner").unwrap().as_str().is_some());
    service.shutdown();
}

/// A watch id already carried by an in-flight race is rejected
/// with an error line: re-attach must be unambiguous, and the
/// rejection must leave the running race's registration (and its
/// stream) untouched.
#[test]
fn watch_rejects_a_duplicate_in_flight_id() {
    let service = Service::bind(ServeConfig {
        workers: 2,
        gen_cap: u64::MAX,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let watch_req =
        r#"{"cmd":"watch","id":"dup","instance":{"name":"ft10"},"seed":5,"deadline_ms":1500}"#;
    let origin = std::thread::spawn(move || watch_lines(addr, watch_req));
    std::thread::sleep(Duration::from_millis(300));
    let clash = watch_lines(
        addr,
        r#"{"cmd":"watch","id":"dup","instance":{"name":"ft06"},"seed":1,"deadline_ms":400}"#,
    );
    assert_eq!(clash.len(), 1, "{clash:?}");
    let err = crate::json::parse(&clash[0]).unwrap();
    assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
    assert!(
        err.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("already in flight"),
        "{clash:?}"
    );
    let origin_lines = origin.join().unwrap();
    assert_eq!(
        frame_kinds(&origin_lines).last().map(String::as_str),
        Some("answer"),
        "the original race streamed to its answer untouched"
    );
    // The id is free again after the race finished.
    assert!(service.shared.watches.attach("dup").is_none());
    service.shutdown();
}

/// A watch handler that unwinds before `finish` (a panicking inline
/// member is an expected failure mode) must not leak its hub
/// registration or strand attached followers on the log's condvar.
/// Dropping the subscription unfinished is exactly what the unwind
/// does.
#[test]
fn watch_guard_unregisters_and_releases_followers_on_unwind() {
    let service = Service::bind(tiny_config()).unwrap();
    let hub = &service.shared.watches;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut server_side, _) = listener.accept().unwrap();
    let sub = hub
        .subscribe(Some("leak-1"), &server_side)
        .unwrap()
        .expect("fresh id registers");
    let log = hub.attach("leak-1").expect("registered while in flight");
    drop(sub);
    assert!(
        hub.attach("leak-1").is_none(),
        "unwind removes the hub entry"
    );
    // A follower's follow terminates instead of waiting forever.
    log.follow(&mut server_side).unwrap();
    service.shutdown();
}

/// `trace_dump` narrows by request type and session id.
#[test]
fn trace_dump_filters_by_type_and_session() {
    let service = Service::bind(tiny_config()).unwrap();
    let addr = service.local_addr();
    let opened = crate::json::parse(
        &send_lines(
            addr,
            &[
                r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":11,"deadline_ms":1500,"trace":true}"#
                    .to_string(),
            ],
        )[0],
    )
    .unwrap();
    let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
    let mk = opened.get("makespan").unwrap().as_u64().unwrap();
    let responses = send_lines(
        addr,
        &[
            format!(
                r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":0,"from":{},"duration":{}}},"deadline_ms":800,"trace":true}}"#,
                mk / 4,
                mk / 4
            ),
            r#"{"instance":{"name":"flow05"},"seed":2,"deadline_ms":1000,"trace":true}"#
                .to_string(),
            r#"{"cmd":"trace_dump","type":"solve"}"#.to_string(),
            format!(r#"{{"cmd":"trace_dump","session":"{sid}"}}"#),
            format!(r#"{{"cmd":"trace_dump","type":"session_event","session":"{sid}"}}"#),
            r#"{"cmd":"trace_dump","type":"watch"}"#.to_string(),
        ],
    );
    let kinds_of = |resp: &str| -> Vec<String> {
        crate::json::parse(resp)
            .unwrap()
            .get("traces")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.get("kind").unwrap().as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(kinds_of(&responses[2]), vec!["solve".to_string()]);
    // The session filter catches the open and the event, not the
    // unrelated solve.
    assert_eq!(
        kinds_of(&responses[3]),
        vec!["session_open".to_string(), "session_event".to_string()]
    );
    assert_eq!(kinds_of(&responses[4]), vec!["session_event".to_string()]);
    assert!(kinds_of(&responses[5]).is_empty());
    service.shutdown();
}
