//! The three end-to-end workloads. Each starts its own `pga-shop-serve`
//! child, sets it up (several times, to report a median set-up time),
//! runs one closed-loop measured phase over loopback TCP, and checks
//! every answer it gets.

use crate::plan::{self, num, Target};
use crate::stats::{samples_needed, Samples};
use crate::wire::{Conn, Server};
use crate::Tally;
use serve::json::{self, Json};
use serve::protocol::schedule_from_json;
use serve::{Objective, RacerPool};
use shop::dynamic::apply_event;
use shop::gen::AnyInstance;
use shop::instance::JobShopInstance;
use shop::schedule::{Schedule, ScheduledOp};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times each workload sets up, on a fresh server each time;
/// `setup_s` is their median.
const SETUPS: usize = 5;

/// What every workload needs to run.
pub struct Ctx {
    /// The `pga-shop-serve` binary.
    pub bin: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-run scratch directory in the working tree (WAL dirs).
    pub tmp: PathBuf,
    /// Directory for the cross-run determinism digests.
    pub digests: PathBuf,
}

/// A workload's measurements and check results.
#[derive(Default)]
pub struct Outcome {
    /// Requests and checks attempted, and which failed.
    pub tally: Tally,
    /// Wall time of each set-up, spawn to measurable, in seconds.
    pub setups: Vec<f64>,
    /// The server's peak RSS at the end of the measured phase.
    pub peak_rss_mb: f64,
    /// Latency of the workload's main request, in ms.
    pub latency_ms: Samples,
    /// Main requests per second of the measured phase.
    pub throughput: f64,
    /// The effective server flags (beyond port and shipped defaults).
    pub flags: Vec<String>,
    /// Workload-specific figures for the report and the ledger
    /// (`cold_solve_ms.p50`, `hit_us.p99`, `event_ms.p90`, ...).
    pub detail: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn check(&mut self, ok: Result<(), String>) {
        self.tally.check(ok);
    }

    fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push((name.to_string(), value, unit));
    }

    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        Samples::new(self.setups.clone()).median()
    }
}

/// Parses a response line and demands `status:"ok"`; a `busy` or any
/// other error is a failure.
fn ok_json(line: &str) -> Result<Json, String> {
    let v = json::parse(line).map_err(|e| format!("unparsable response: {e}"))?;
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(v),
        _ => Err(format!("error response: {}", truncate(line))),
    }
}

fn truncate(line: &str) -> &str {
    line.get(..200).unwrap_or(line)
}

fn schedule_of(v: &Json) -> Result<Vec<ScheduledOp>, String> {
    schedule_from_json(v.get("schedule").ok_or("response has no schedule")?)
        .map_err(|e| e.to_string())
}

/// Re-validates an answer against its instance (Table I, through
/// `AnyInstance::validate`) and recomputes its objective value.
fn validate_answer(inst: &AnyInstance, objective: Objective, v: &Json) -> Result<f64, String> {
    let schedule = Schedule::new(schedule_of(v)?);
    inst.validate(&schedule)
        .map_err(|e| format!("infeasible schedule: {e}"))?;
    let value = num(v, "value").ok_or("response has no value")?;
    let recomputed = match objective {
        Objective::Makespan => schedule.makespan() as f64,
        Objective::TotalCompletion => schedule
            .completion_times(inst.problem().n_jobs())
            .iter()
            .sum::<u64>() as f64,
    };
    if recomputed != value {
        return Err(format!("value {value} but the schedule gives {recomputed}"));
    }
    Ok(value)
}

/// A checked solve answer: `(value, decode_count)`.
fn solve_answer(line: &str, target: &Target, cached: bool) -> Result<(f64, u64), String> {
    let v = ok_json(line)?;
    if v.get("cached").and_then(Json::as_bool) != Some(cached) {
        return Err(format!("expected cached:{cached}: {}", truncate(line)));
    }
    let value = validate_answer(&target.instance, target.objective, &v)?;
    let decodes = v
        .get("telemetry")
        .and_then(|t| t.get("decode_count"))
        .and_then(Json::as_u64)
        .ok_or("response has no decode_count")?;
    Ok((value, decodes))
}

fn flags(gen_cap: u64, extra: &[String]) -> Vec<String> {
    let mut f = vec!["--gen-cap".to_string(), gen_cap.to_string()];
    f.extend_from_slice(extra);
    f
}

/// Runs `setup` [`SETUPS`] times on fresh servers, timing each from
/// spawn; every server but the last is shut down again.
fn repeated_setup<S>(
    ctx: &Ctx,
    out: &mut Outcome,
    flags_for: impl Fn(usize) -> Vec<String>,
    mut setup: impl FnMut(usize, &Server, &mut Outcome) -> Result<S, String>,
) -> Result<(Server, S), String> {
    let mut last = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        let server = Server::spawn(&ctx.bin, &flags_for(k))?;
        let state = setup(k, &server, out)?;
        out.setups.push(started.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            server.shutdown()?;
        } else {
            last = Some((server, state));
        }
    }
    out.flags = flags_for(SETUPS - 1);
    last.ok_or_else(|| "no set-up ran".into())
}

/// Whether a measured phase may stop: its time is up and it has the
/// samples its percentiles need — or a hard cap of three times the
/// requested length has passed.
fn phase_done(started: Instant, seconds: f64, samples: usize, needed: usize) -> bool {
    let t = started.elapsed().as_secs_f64();
    (t >= seconds && samples >= needed) || t >= 3.0 * seconds.max(5.0)
}

fn require_samples(out: &mut Outcome, what: &str, samples: &Samples, q: f64) {
    let needed = samples_needed(q);
    out.check(if samples.len() >= needed {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} samples, p{} needs {needed}",
            samples.len(),
            q * 100.0
        ))
    });
}

/// `cold_race`: one connection, cap-bound cold solves with a fresh seed
/// each, rotating over one mid-size instance per family.
pub fn cold_race(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let targets = plan::cold_targets(ctx.seed);
    let (server, mut conn) = repeated_setup(
        ctx,
        &mut out,
        |_| flags(plan::COLD_GEN_CAP, &[]),
        |k, server, out| {
            let mut conn = server.connect()?;
            // The untimed warm-up round: one cold solve per family.
            for (j, t) in targets.iter().enumerate() {
                let seed = plan::warmup_seed(ctx.seed, (k * targets.len() + j) as u64);
                let line = plan::solve_line(&plan::named_json(&t.name), t.objective, seed);
                let (resp, _) = conn.call(&line)?;
                let ok = solve_answer(resp, t, false).map(|_| ());
                out.check(ok);
            }
            Ok(conn)
        },
    )?;

    let lines: Vec<String> = targets.iter().map(|t| plan::named_json(&t.name)).collect();
    let needed = samples_needed(0.9);
    let mut latency = Vec::new();
    let mut digest: Vec<(u64, f64, u64)> = Vec::new();
    let mut decodes = 0u64;
    let started = Instant::now();
    let mut i = 0u64;
    while !phase_done(started, ctx.seconds, latency.len(), needed) {
        let j = plan::cold_target_of(i);
        let t = &targets[j];
        let line = plan::solve_line(&lines[j], t.objective, plan::cold_seed(ctx.seed, i));
        let (resp, took) = conn.call(&line)?;
        latency.push(took.as_secs_f64() * 1e3);
        let answer = solve_answer(resp, t, false);
        let (value, count) = answer.clone().unwrap_or((f64::NAN, 0));
        out.check(answer.map(|_| ()));
        decodes += count;
        digest.push((line_hash(&line), value, count));
        i += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    out.peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;

    let l = Samples::new(latency);
    require_samples(&mut out, "cold_race", &l, 0.9);
    out.throughput = l.len() as f64 / wall;
    out.latency_ms = l.clone();
    let evals_per_s = decodes as f64 / wall;

    // Determinism: the first request of each family, re-solved in
    // process, must give the same (value, decode_count) as the server.
    let pool = RacerPool::new(crate::nproc());
    for (j, t) in targets.iter().enumerate() {
        let i = plan::cold_requests_of(j, 1)[0];
        let Some(&(_, value, count)) = digest.get(i as usize) else {
            continue;
        };
        let served = (value, count);
        let inst = Arc::new(t.instance.clone());
        let deadline = Instant::now() + Duration::from_millis(plan::DEADLINE_MS);
        let seed = plan::cold_seed(ctx.seed, i);
        let again = serve::solve(
            &pool,
            &inst,
            t.objective,
            seed,
            deadline,
            plan::COLD_GEN_CAP,
            plan::RACERS,
        );
        let evals: u64 = again.models.iter().map(|(_, m)| m.evaluations).sum();
        out.check(if (again.solution.value, evals) == served {
            Ok(())
        } else {
            Err(format!(
                "{}: server answered {served:?}, in-process re-solve {:?}",
                t.name,
                (again.solution.value, evals)
            ))
        });
    }
    // ... and every request must match earlier runs of the same seed
    // against the same server binary.
    let build = file_hash(&ctx.bin)? ^ line_hash(&out.flags.join(" "));
    let path = ctx
        .digests
        .join(format!("cold_race-{build:016x}-{}.txt", ctx.seed));
    let mismatches = compare_digests(&path, &digest)?;
    out.check(if mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "{mismatches} answers differ from an earlier run of this seed"
        ))
    });

    out.detail("cold_solve_ms.p50", l.pct(0.5), "ms");
    out.detail("cold_solve_ms.p90", l.pct(0.9), "ms");
    out.detail("cold_evals_per_s", evals_per_s, "1/s");
    out.detail("cold_solves", l.len() as f64, "count");
    Ok(out)
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

fn line_hash(text: &str) -> u64 {
    hash_bytes(text.as_bytes())
}

/// Content hash of a file (the digests are per server binary and
/// flags).
fn file_hash(path: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(hash_bytes(&bytes))
}

/// Compares `digest` — `(request hash, value, decode_count)` per
/// request — with the one stored at `path`, request by request where
/// both sent the same request line, then stores the longer of the two.
/// Returns the mismatches.
fn compare_digests(path: &Path, digest: &[(u64, f64, u64)]) -> Result<usize, String> {
    let mine: String = digest
        .iter()
        .map(|(h, v, c)| format!("{h:016x} {v} {c}\n"))
        .collect();
    let stored = std::fs::read_to_string(path).unwrap_or_default();
    let same_request = |a: &str, b: &str| a.split(' ').next() == b.split(' ').next();
    let mismatches = stored
        .lines()
        .zip(mine.lines())
        .filter(|(a, b)| same_request(a, b) && a != b)
        .count();
    if mine.lines().count() > stored.lines().count() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, mine).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(mismatches)
}

/// The bytes of a solve answer that a replay must reproduce: everything
/// before the per-request `telemetry` object.
fn answer_body(line: &str) -> &str {
    line.rfind(r#","telemetry":"#).map_or(line, |i| &line[..i])
}

/// `cached_replay`: one connection replays a fixed key set that set-up
/// has put in the cache; every answer must equal its reference bytes.
/// A single connection keeps the client and the server's worker in
/// lockstep, so the figures do not depend on how two clients' large
/// answers happen to overlap on a small host.
pub fn cached_replay(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let keys = plan::cached_keys(ctx.seed);
    let (server, (mut conn, reference)) = repeated_setup(
        ctx,
        &mut out,
        |_| flags(plan::CACHED_GEN_CAP, &[]),
        |_, server, out| {
            let mut conn = server.connect()?;
            // Fill: each key solved cold, its schedule validated once...
            for key in &keys {
                let (resp, _) = conn.call(&key.line)?;
                out.check(solve_answer(resp, &key.target, false).map(|_| ()));
            }
            // ...then replayed once: the reference bytes every later
            // replay must reproduce.
            let mut reference = Vec::with_capacity(keys.len());
            for key in &keys {
                let (resp, _) = conn.call(&key.line)?;
                out.check(solve_answer(resp, &key.target, true).map(|_| ()));
                reference.push(answer_body(resp).to_string());
            }
            Ok((conn, reference))
        },
    )?;

    let (mut latency, mut bytes, mut mismatched) = (Vec::new(), 0u64, 0u64);
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let k = i % keys.len();
        let (resp, took) = conn.call(&keys[k].line)?;
        latency.push(took.as_secs_f64() * 1e3);
        bytes += resp.len() as u64;
        if answer_body(resp) != reference[k] {
            mismatched += 1;
        }
        i += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    let hits = latency.len() as u64;
    out.tally.attempted += hits;
    if mismatched > 0 {
        out.tally.fail(
            mismatched,
            format!("{mismatched} replays differ from their reference answer"),
        );
    }
    let (stats, _) = conn.call(r#"{"cmd":"stats"}"#)?;
    let stats = ok_json(stats)?;
    let (h, m) = (
        num(&stats, "cache_hits").unwrap_or(0.0),
        num(&stats, "cache_misses").unwrap_or(0.0),
    );
    out.peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;

    let l = Samples::new(latency);
    require_samples(&mut out, "cached_replay", &l, 0.99);
    out.throughput = hits as f64 / wall;
    out.latency_ms = l.clone();
    out.detail("hit_us.p50", l.pct(0.5) * 1e3, "us");
    out.detail("hit_us.p99", l.pct(0.99) * 1e3, "us");
    out.detail("hit_rps", out.throughput, "1/s");
    out.detail(
        "response_bytes.mean",
        bytes as f64 / hits.max(1) as f64,
        "B",
    );
    out.detail("cache.hit_ratio", h / (h + m).max(1.0), "ratio");
    Ok(out)
}

/// One session as the generator tracks it, to build valid events and
/// validate answers.
struct Track {
    slot: usize,
    id: String,
    inst: JobShopInstance,
    windows: Vec<shop::dynamic::DownWindow>,
    schedule: Vec<ScheduledOp>,
    now: u64,
    events: u64,
    value: f64,
    rng: plan::Rng,
}

/// Opens session `slot` and starts tracking it. Every life of a slot
/// opens the same instance with the same seed and replays the same
/// event stream.
fn open_session(conn: &mut Conn, seed: u64, slot: usize, cached: bool) -> Result<Track, String> {
    let (name, session_seed) = plan::session_targets(seed).swap_remove(slot);
    let instance = AnyInstance::named(&name).ok_or("bad session instance")?;
    let (resp, _) = conn.call(&plan::open_line(&name, session_seed))?;
    let v = ok_json(resp)?;
    if v.get("cached").and_then(Json::as_bool) != Some(cached) {
        return Err(format!("session_open expected cached:{cached}"));
    }
    let value = validate_answer(&instance, Objective::Makespan, &v)?;
    let id = v
        .get("session")
        .and_then(Json::as_str)
        .ok_or("no session id")?;
    let AnyInstance::Job(inst) = instance else {
        return Err("session instances are job shops".into());
    };
    Ok(Track {
        slot,
        id: id.to_string(),
        inst,
        windows: Vec::new(),
        schedule: schedule_of(&v)?,
        now: 0,
        events: 0,
        value,
        rng: plan::Rng::new(seed, 70 + slot as u64),
    })
}

/// Checks an event answer and advances the session's track.
fn event_answer(track: &mut Track, event: &shop::dynamic::Event, line: &str) -> Result<(), String> {
    let v = ok_json(line)?;
    if v.get("deadline_bound").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "cap-bound event answered deadline_bound: {}",
            truncate(line)
        ));
    }
    let value = num(&v, "value").ok_or("event answer has no value")?;
    let repair = num(&v, "repair_value").ok_or("event answer has no repair_value")?;
    if value > repair {
        return Err(format!(
            "event answer {value} is worse than repair {repair}"
        ));
    }
    let before = Schedule::new(track.schedule.clone());
    let (inst, windows, _) = apply_event(&track.inst, &before, &track.windows, event)
        .map_err(|e| format!("generator produced an invalid event: {e}"))?;
    let any = AnyInstance::Job(inst);
    let checked = validate_answer(&any, Objective::Makespan, &v);
    let AnyInstance::Job(inst) = any else {
        unreachable!("wrapped a job shop above")
    };
    track.inst = inst;
    track.windows = windows;
    track.schedule = schedule_of(&v)?;
    track.now = num(&v, "now").ok_or("event answer has no now")? as u64;
    track.events += 1;
    track.value = checked?;
    Ok(())
}

/// A `session_get` answer must show the tracked state.
fn get_answer(track: &Track, line: &str) -> Result<(), String> {
    let v = ok_json(line)?;
    let events = num(&v, "events").unwrap_or(-1.0);
    let value = num(&v, "value").unwrap_or(f64::NAN);
    if events != track.events as f64 || value != track.value {
        return Err(format!(
            "{}: session_get shows {events} events / value {value}, expected {} / {}",
            track.id, track.events, track.value
        ));
    }
    Ok(())
}

/// `session_storm`: one connection over a fsync'd WAL; a seeded stream
/// of valid events round-robin over a few job-shop sessions, with a
/// `session_get` after every few events. A session that has absorbed
/// [`plan::SESSION_LIFE`] events is closed and reopened, so the load
/// stays stationary (sessions do not grow through the run) and every
/// life replays the same cap-bound answers, which are checked against
/// the first life's. Ends with a durability probe: `kill -9`, restart
/// over the same WAL, and every session must read back byte-identically.
pub fn session_storm(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let wal_dir = |k: usize| ctx.tmp.join(format!("wal-{k}"));
    let flags_for = |k: usize| {
        flags(
            plan::SESSION_GEN_CAP,
            &["--wal-dir".to_string(), wal_dir(k).display().to_string()],
        )
    };
    let (server, (mut conn, mut tracks)) =
        repeated_setup(ctx, &mut out, flags_for, |_, server, out| {
            let mut conn = server.connect()?;
            let mut tracks = Vec::new();
            for slot in 0..plan::SESSIONS {
                match open_session(&mut conn, ctx.seed, slot, false) {
                    Ok(track) => {
                        out.check(Ok(()));
                        tracks.push(track);
                    }
                    Err(e) => out.check(Err(e)),
                }
            }
            if tracks.is_empty() {
                return Err("no session opened".into());
            }
            Ok((conn, tracks))
        })?;

    let needed = samples_needed(0.9);
    let (mut events, mut gets) = (Vec::new(), Vec::new());
    // The first life's answer value per (slot, event index).
    let mut first_life: Vec<Vec<f64>> = vec![Vec::new(); plan::SESSIONS];
    let started = Instant::now();
    let mut i = 0usize;
    while !phase_done(started, ctx.seconds, events.len(), needed) {
        let n = tracks.len();
        let track = &mut tracks[i % n];
        if track.events == plan::SESSION_LIFE {
            let close = format!(r#"{{"cmd":"session_close","session":"{}"}}"#, track.id);
            let closed = conn
                .call(&close)
                .and_then(|(resp, _)| ok_json(resp).map(|_| ()));
            out.check(closed);
            *track = open_session(&mut conn, ctx.seed, track.slot, true)?;
        }
        let event = plan::next_event(&mut track.rng, &track.inst, &track.schedule, track.now);
        let (resp, took) = conn.call(&plan::event_line(&track.id, &event))?;
        events.push(took.as_secs_f64() * 1e3);
        let answered = event_answer(track, &event, resp).and_then(|()| {
            let seen = &mut first_life[track.slot];
            let k = track.events as usize - 1;
            match seen.get(k) {
                None => seen.push(track.value),
                Some(&v) if v != track.value => {
                    return Err(format!(
                        "{}: event {} answered {} in one life and {v} in another",
                        track.id,
                        k + 1,
                        track.value
                    ))
                }
                Some(_) => {}
            }
            Ok(())
        });
        out.check(answered);
        if (i + 1).is_multiple_of(plan::EVENTS_PER_GET) {
            let (resp, took) = conn.call(&plan::get_line(&track.id))?;
            gets.push(took.as_secs_f64() * 1e6);
            let ok = get_answer(track, resp);
            out.check(ok);
        }
        i += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    out.peak_rss_mb = server.peak_rss_mb()?;

    // Durability probe: the last event is acknowledged; crash the server
    // and restart it over the same WAL directory.
    let mut before = Vec::new();
    for t in &tracks {
        before.push(conn.call(&plan::get_line(&t.id))?.0.to_string());
    }
    drop(conn);
    server.kill();
    let restarted = Server::spawn(&ctx.bin, &out.flags)?;
    let mut conn = restarted.connect()?;
    for (t, pre) in tracks.iter().zip(&before) {
        let (post, _) = conn.call(&plan::get_line(&t.id))?;
        let ok = if post == pre {
            Ok(())
        } else {
            Err(format!("{} reads back differently after kill -9", t.id))
        };
        out.check(ok);
    }
    drop(conn);
    restarted.shutdown()?;

    let (l, g) = (Samples::new(events), Samples::new(gets));
    require_samples(&mut out, "session_storm", &l, 0.9);
    out.throughput = l.len() as f64 / wall;
    out.latency_ms = l.clone();
    out.detail("event_ms.p50", l.pct(0.5), "ms");
    out.detail("event_ms.p90", l.pct(0.9), "ms");
    out.detail("events_per_s", out.throughput, "1/s");
    out.detail("get_us.p50", g.pct(0.5), "us");
    out.detail("gets", g.len() as f64, "count");
    Ok(out)
}
