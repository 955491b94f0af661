//! End-to-end test of the anytime solver service (ISSUE 2 acceptance
//! criterion): spawn the service in-process on an ephemeral port,
//! submit `ft06` with seed 42 and a 2 s deadline twice, and check that
//! both responses are feasible (validated by `shop::schedule`), have
//! makespan ≤ 65, are bit-identical, and that the second was served
//! from the solution cache (asserted via telemetry counters).

use pga_shop::serve::json::{self, Json};
use pga_shop::serve::protocol::{
    encode_batch_request, encode_request, schedule_from_json, BatchItem, BatchRequest, BatchSource,
    InstanceSpec, Objective, SolveRequest,
};
use pga_shop::serve::{ServeConfig, Service};
use pga_shop::shop::gen::{Family, GenSpec};
use pga_shop::shop::instance::classic::ft06;
use pga_shop::shop::schedule::Schedule;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn request_line() -> String {
    encode_request(&SolveRequest {
        id: Some("e2e".into()),
        instance: InstanceSpec::Named("ft06".into()),
        objective: Objective::Makespan,
        seed: 42,
        deadline_ms: 2_000,
        trace: false,
    })
}

fn roundtrip(addr: std::net::SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone");
    writeln!(writer, "{line}").expect("send");
    writer.flush().expect("flush");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("receive");
    response.trim().to_string()
}

#[test]
fn ft06_served_twice_feasible_deterministic_and_cached() {
    let service = Service::bind(ServeConfig::default()).expect("bind ephemeral port");
    let addr = service.local_addr();

    let first = roundtrip(addr, &request_line());
    let second = roundtrip(addr, &request_line());

    let instance = ft06().instance;
    let mut makespans = Vec::new();
    let mut schedules = Vec::new();
    for (label, raw) in [("first", &first), ("second", &second)] {
        let v = json::parse(raw).unwrap_or_else(|e| panic!("{label}: bad json: {e}"));
        assert_eq!(
            v.get("status").and_then(Json::as_str),
            Some("ok"),
            "{label}: {raw}"
        );
        let ops = schedule_from_json(v.get("schedule").expect("schedule field"))
            .unwrap_or_else(|e| panic!("{label}: bad schedule: {e}"));
        let schedule = Schedule::new(ops);
        schedule
            .validate_job(&instance)
            .unwrap_or_else(|e| panic!("{label}: infeasible: {e}"));
        let makespan = v
            .get("makespan")
            .and_then(Json::as_u64)
            .expect("makespan field");
        assert_eq!(makespan, schedule.makespan(), "{label}: makespan mismatch");
        assert!(
            makespan <= 65,
            "{label}: makespan {makespan} exceeds 65 (optimum is 55)"
        );
        makespans.push(makespan);
        schedules.push(v.get("schedule").expect("schedule").encode());
    }

    // Bit-identical across the two runs: same serialized schedule and
    // same makespan.
    assert_eq!(
        schedules[0], schedules[1],
        "schedules must be bit-identical"
    );
    assert_eq!(makespans[0], makespans[1]);

    // The second response came from the solution cache: response flag
    // plus service telemetry counters.
    let second_v = json::parse(&second).expect("json");
    assert_eq!(second_v.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        second_v
            .get("telemetry")
            .and_then(|t| t.get("cache_hit"))
            .and_then(Json::as_bool),
        Some(true)
    );
    let first_v = json::parse(&first).expect("json");
    assert_eq!(first_v.get("cached").and_then(Json::as_bool), Some(false));

    let stats = service.stats();
    assert_eq!(stats.cache_misses.get(), 1, "first request must miss");
    assert_eq!(stats.cache_hits.get(), 1, "second request must hit");
    assert_eq!(
        stats.solved.get(),
        1,
        "only one portfolio race must have run"
    );
    assert_eq!(service.cache_len(), 1);

    service.shutdown();
}

#[test]
fn batch_of_generated_instances_solves_under_one_deadline() {
    // ISSUE 3 acceptance criterion: a batch request of >= 8 generated
    // instances completes under one shared deadline with a feasible,
    // locally re-validated schedule and telemetry for every item.
    let specs = [
        GenSpec::new(Family::Job, 4, 3, 1),
        GenSpec::new(Family::Job, 5, 4, 2),
        GenSpec::new(Family::Flow, 6, 3, 3),
        GenSpec::new(Family::Flow, 5, 5, 4),
        GenSpec::new(Family::Open, 4, 4, 5),
        GenSpec::new(Family::Open, 3, 5, 6),
        GenSpec::new(Family::Flexible, 4, 3, 7),
        GenSpec::new(Family::Flexible, 3, 4, 8).with_density_pct(75),
        GenSpec::new(Family::Job, 3, 3, 9),
    ];
    let request = encode_batch_request(&BatchRequest {
        id: Some("sweep".into()),
        items: specs
            .iter()
            .map(|&spec| BatchItem {
                id: Some(spec.name()),
                source: BatchSource::Generate(spec),
                seed: None,
                objective: None,
            })
            .collect(),
        objective: Objective::Makespan,
        seed: 42,
        deadline_ms: 10_000,
    });

    let service = Service::bind(ServeConfig {
        workers: 3,
        gen_cap: 100,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();
    let response = roundtrip(addr, &request);
    let v = json::parse(&response).expect("batch response json");
    assert_eq!(v.get("id").and_then(Json::as_str), Some("sweep"));
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("count").and_then(Json::as_u64), Some(9));
    assert_eq!(v.get("ok").and_then(Json::as_u64), Some(9));
    let batch_t = v.get("telemetry").expect("batch telemetry");
    assert!(batch_t.get("batch_ms").and_then(Json::as_u64).is_some());
    assert!(batch_t.get("fanout").and_then(Json::as_u64).unwrap() >= 1);

    let entries = v.get("items").and_then(Json::as_arr).expect("items");
    assert_eq!(entries.len(), 9);
    for (i, (entry, spec)) in entries.iter().zip(&specs).enumerate() {
        assert_eq!(entry.get("index").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(
            entry.get("id").and_then(Json::as_str),
            Some(spec.name().as_str()),
            "item {i}"
        );
        assert_eq!(
            entry.get("status").and_then(Json::as_str),
            Some("ok"),
            "item {i}: {}",
            entry.encode()
        );
        // Re-build the instance locally from the same spec (generation
        // is deterministic) and validate the returned schedule against
        // the family's Table I feasibility conditions.
        let instance = spec.build().expect("spec builds").instance;
        let ops = schedule_from_json(entry.get("schedule").expect("schedule"))
            .unwrap_or_else(|e| panic!("item {i}: bad schedule: {e}"));
        let schedule = Schedule::new(ops);
        instance
            .validate(&schedule)
            .unwrap_or_else(|e| panic!("item {i} ({}): infeasible: {e}", spec.name()));
        assert_eq!(
            entry.get("makespan").and_then(Json::as_u64),
            Some(schedule.makespan()),
            "item {i}"
        );
        let t = entry.get("telemetry").expect("item telemetry");
        assert!(t.get("solve_ms").and_then(Json::as_u64).is_some());
        assert_eq!(t.get("cache_hit").and_then(Json::as_bool), Some(false));
    }
    assert_eq!(service.stats().solved.get(), 9);

    // The whole batch replays from the cache: small cap-bound races are
    // budget-independent, so a repeat is answered without re-racing.
    let again = json::parse(&roundtrip(addr, &request)).expect("json");
    let entries = again.get("items").and_then(Json::as_arr).expect("items");
    for (i, entry) in entries.iter().enumerate() {
        assert_eq!(
            entry.get("cached").and_then(Json::as_bool),
            Some(true),
            "repeat item {i}"
        );
    }
    assert_eq!(
        service.stats().solved.get(),
        9,
        "repeat must not race again"
    );
    service.shutdown();
}

#[test]
fn inline_instance_hits_the_same_cache_entry_as_the_named_classic() {
    // The cache key is the canonical instance hash, so the same problem
    // submitted inline (reformatted, with comments) after a named solve
    // is a cache hit.
    let service = Service::bind(ServeConfig::default()).expect("bind");
    let addr = service.local_addr();

    let named = roundtrip(addr, &request_line());
    let inline_text = format!("# ft06, reformatted\n{}", ft06().instance);
    let inline = roundtrip(
        addr,
        &encode_request(&SolveRequest {
            id: Some("inline".into()),
            instance: InstanceSpec::Inline {
                family: pga_shop::serve::Family::Job,
                text: inline_text,
            },
            objective: Objective::Makespan,
            seed: 42,
            deadline_ms: 2_000,
            trace: false,
        }),
    );
    let named_v = json::parse(&named).expect("json");
    let inline_v = json::parse(&inline).expect("json");
    assert_eq!(inline_v.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        named_v.get("schedule").expect("schedule").encode(),
        inline_v.get("schedule").expect("schedule").encode()
    );
    assert_eq!(service.stats().cache_hits.get(), 1);
    service.shutdown();
}
