//! End-to-end test of dynamic-rescheduling sessions (ISSUE 5
//! acceptance criterion): open a session on `ft06`, inject a breakdown
//! and a job arrival, and check that every answer is feasible
//! (re-validated locally against the session's instance), that the
//! winner never loses to pure right-shift repair, that answers arrive
//! within the event deadline, and that the whole trajectory is
//! deterministic for a fixed seed under a generation cap.

use pga_shop::serve::json::{self, Json};
use pga_shop::serve::protocol::schedule_from_json;
use pga_shop::serve::{ServeConfig, Service};
use pga_shop::shop::dynamic::with_job_arrival;
use pga_shop::shop::instance::classic::ft06;
use pga_shop::shop::instance::Op;
use pga_shop::shop::schedule::Schedule;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let _ = stream.set_nodelay(true);
    let writer = stream.try_clone().expect("clone");
    (writer, BufReader::new(stream))
}

fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(writer, "{line}").expect("send");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    json::parse(response.trim()).expect("parse response")
}

/// One full session trajectory; returns `(value, model, schedule-json)`
/// per answer so the determinism test can compare runs bit-for-bit.
/// `model` names the winner: the opening race's member, then
/// `resolve/<member>` or `right_shift` per event.
fn run_session(gen_cap: u64) -> Vec<(f64, String, String)> {
    let service = Service::bind(ServeConfig {
        workers: 2,
        gen_cap,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();
    let (mut w, mut r) = connect(addr);

    let opened = roundtrip(
        &mut w,
        &mut r,
        r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":42,"deadline_ms":3000}"#,
    );
    assert_eq!(opened.get("status").unwrap().as_str(), Some("ok"));
    let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
    let mk = opened.get("makespan").unwrap().as_u64().unwrap();
    let base = ft06().instance;

    // The opening schedule is feasible for ft06.
    let sched = schedule_from_json(opened.get("schedule").unwrap()).unwrap();
    Schedule::new(sched).validate_job(&base).unwrap();

    let model = |answer: &Json| answer.get("model").unwrap().as_str().unwrap().to_string();
    let mut answers = vec![(
        opened.get("value").unwrap().as_f64().unwrap(),
        model(&opened),
        opened.get("schedule").unwrap().encode(),
    )];

    // Event 1: a breakdown at a quarter of the horizon. The event
    // deadline is tight (900 ms); the answer must arrive within it
    // plus transport slack, be feasible, and never lose to repair.
    let from = mk / 4;
    let deadline_ms = 900u64;
    let asked = Instant::now();
    let ev1 = roundtrip(
        &mut w,
        &mut r,
        &format!(
            r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":2,"from":{from},"duration":{}}},"deadline_ms":{deadline_ms}}}"#,
            mk / 3
        ),
    );
    let answered_in = asked.elapsed();
    assert_eq!(ev1.get("status").unwrap().as_str(), Some("ok"), "{ev1:?}");
    assert!(
        answered_in < Duration::from_millis(deadline_ms + 2_000),
        "event answer took {answered_in:?}, deadline was {deadline_ms} ms"
    );
    let value1 = ev1.get("value").unwrap().as_f64().unwrap();
    let repair1 = ev1.get("repair_value").unwrap().as_f64().unwrap();
    assert!(
        value1 <= repair1,
        "winner {value1} must be <= right-shift repair {repair1}"
    );
    let sched1 = schedule_from_json(ev1.get("schedule").unwrap()).unwrap();
    Schedule::new(sched1).validate_job(&base).unwrap();
    answers.push((value1, model(&ev1), ev1.get("schedule").unwrap().encode()));

    // Event 2: a job arrives. The session's instance grows; validate
    // against the same transformation applied locally.
    let at = mk / 2;
    let asked = Instant::now();
    let ev2 = roundtrip(
        &mut w,
        &mut r,
        &format!(
            r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"job_arrival","at":{at},"route":[[0,5],[3,7],[1,4]]}},"deadline_ms":{deadline_ms}}}"#
        ),
    );
    let answered_in = asked.elapsed();
    assert_eq!(ev2.get("status").unwrap().as_str(), Some("ok"), "{ev2:?}");
    assert!(answered_in < Duration::from_millis(deadline_ms + 2_000));
    let value2 = ev2.get("value").unwrap().as_f64().unwrap();
    let repair2 = ev2.get("repair_value").unwrap().as_f64().unwrap();
    assert!(value2 <= repair2);
    let grown =
        with_job_arrival(&base, &[Op::new(0, 5), Op::new(3, 7), Op::new(1, 4)], at).unwrap();
    let sched2 = schedule_from_json(ev2.get("schedule").unwrap()).unwrap();
    Schedule::new(sched2).validate_job(&grown).unwrap();
    answers.push((value2, model(&ev2), ev2.get("schedule").unwrap().encode()));

    // Close; the registry must drain.
    let closed = roundtrip(
        &mut w,
        &mut r,
        &format!(r#"{{"cmd":"session_close","session":"{sid}"}}"#),
    );
    assert_eq!(closed.get("closed").unwrap().as_bool(), Some(true));
    assert_eq!(closed.get("events").unwrap().as_u64(), Some(2));
    let wire = roundtrip(&mut w, &mut r, r#"{"cmd":"stats"}"#);
    assert_eq!(wire.get("sessions_open").and_then(Json::as_u64), Some(0));
    let stats = service.stats();
    assert_eq!(stats.session_events.get(), 2);
    assert_eq!(
        stats.session_repair_wins.get() + stats.session_resolve_wins.get(),
        2
    );

    service.shutdown();
    answers
}

/// ISSUE 8 acceptance criterion: a durable session must survive losing
/// the process. Open a session over a WAL directory, apply a breakdown
/// and a job arrival, drop the `Service` mid-stream (no close, no
/// drain — the in-memory registry dies with it), restart over the same
/// directory, and require `session_get` to answer bit-identically:
/// incumbent value and schedule, virtual clock, and down-windows.
#[test]
fn killed_service_recovers_sessions_bit_identically_from_wal() {
    let wal_dir = std::env::temp_dir().join(format!("pga-wal-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let config = || ServeConfig {
        workers: 2,
        gen_cap: 60,
        wal_dir: Some(wal_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };

    // Phase 1: build up session state, snapshot it through the wire,
    // then pull the plug.
    let service = Service::bind(config()).expect("bind");
    let addr = service.local_addr();
    let (mut w, mut r) = connect(addr);
    let opened = roundtrip(
        &mut w,
        &mut r,
        r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":42,"deadline_ms":3000}"#,
    );
    assert_eq!(opened.get("status").unwrap().as_str(), Some("ok"));
    let sid = opened.get("session").unwrap().as_str().unwrap().to_string();
    let mk = opened.get("makespan").unwrap().as_u64().unwrap();
    let ev1 = roundtrip(
        &mut w,
        &mut r,
        &format!(
            r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"breakdown","machine":2,"from":{},"duration":{}}},"deadline_ms":900}}"#,
            mk / 4,
            mk / 3
        ),
    );
    assert_eq!(ev1.get("status").unwrap().as_str(), Some("ok"), "{ev1:?}");
    let ev2 = roundtrip(
        &mut w,
        &mut r,
        &format!(
            r#"{{"cmd":"session_event","session":"{sid}","event":{{"type":"job_arrival","at":{},"route":[[0,5],[3,7],[1,4]]}},"deadline_ms":900}}"#,
            mk / 2
        ),
    );
    assert_eq!(ev2.get("status").unwrap().as_str(), Some("ok"), "{ev2:?}");
    let pre = roundtrip(
        &mut w,
        &mut r,
        &format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
    );
    assert_eq!(pre.get("status").unwrap().as_str(), Some("ok"));
    drop((w, r));
    drop(service); // the registry (and the session) dies here

    // Phase 2: a fresh service over the same WAL directory rebuilds
    // the session before accepting connections.
    let service = Service::bind(config()).expect("rebind");
    assert_eq!(service.stats().sessions_recovered.get(), 1);
    let (mut w, mut r) = connect(service.local_addr());
    let post = roundtrip(
        &mut w,
        &mut r,
        &format!(r#"{{"cmd":"session_get","session":"{sid}"}}"#),
    );
    assert_eq!(post.get("status").unwrap().as_str(), Some("ok"), "{post:?}");
    for key in ["value", "makespan", "now", "events", "windows", "schedule"] {
        assert_eq!(
            post.get(key).unwrap().encode(),
            pre.get(key).unwrap().encode(),
            "{key} must survive the restart bit-identically"
        );
    }
    // open + 2 events replayed; the registry never reissues the
    // recovered id to a new session.
    assert_eq!(service.stats().wal_replays.get(), 3);
    let opened2 = roundtrip(
        &mut w,
        &mut r,
        r#"{"cmd":"session_open","instance":{"name":"ft06"},"seed":7,"deadline_ms":3000}"#,
    );
    assert_eq!(opened2.get("status").unwrap().as_str(), Some("ok"));
    assert_ne!(opened2.get("session").unwrap().as_str().unwrap(), sid);

    // The whole ordered log survives too, served by `session_events`.
    let log = roundtrip(
        &mut w,
        &mut r,
        &format!(r#"{{"cmd":"session_events","session":"{sid}"}}"#),
    );
    assert_eq!(log.get("status").unwrap().as_str(), Some("ok"));
    let rows = log.get("log").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[1].get("value").unwrap().as_f64(),
        pre.get("value").unwrap().as_f64()
    );

    service.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn session_trajectory_is_feasible_beats_repair_and_is_deterministic() {
    // A small generation cap under a generous deadline: every race is
    // cap-bound, so the whole trajectory is a pure function of the
    // seed — two independent service instances must answer
    // bit-identically.
    let a = run_session(60);
    let b = run_session(60);
    assert_eq!(a, b, "fixed seed + generation cap must pin the trajectory");
    let rows: Vec<(f64, &str)> = a.iter().map(|(v, m, _)| (*v, m.as_str())).collect();
    assert_eq!(
        rows,
        [
            (55.0, "cellular"),
            (68.0, "resolve/island"),
            (64.0, "resolve/cellular"),
        ]
    );
}
