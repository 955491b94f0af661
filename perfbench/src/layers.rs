//! The traced per-layer run. In process, on the same instances and
//! seeds as the end-to-end workloads, it wraps spans of its own around
//! calls into each layer's public functions and reads the counts those
//! functions already return. It closes with a boundary-ratio table:
//! what each layer costs against the layer below it.

use crate::plan::{self, Target};
use crate::stats::Samples;
use crate::wire::Conn;
use crate::Tally;
use pga::telemetry::RequestTelemetry;
use serve::cache::{CacheKey, CachedSolve, ShardedCache};
use serve::json;
use serve::protocol::{encode_solution, InstanceSpec};
use serve::session::{handle_event, SessionState};
use serve::wal::{event_record, open_record, Wal, WalConfig};
use serve::{
    load_instance, solve, solve_hooked, Objective, PhaseAcc, RacerPool, ServeConfig, Service,
    SolveHooks, SolveOutcome,
};
use shop::decoder::table::{
    DecodeScratch, FlexTable, IncrementalFlex, IncrementalFlow, IncrementalJob,
    IncrementalOpenOrder, OpTable,
};
use shop::gen::AnyInstance;
use shop::schedule::Schedule;
use shop::Problem;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each traced or plain race per family; the plain and
/// traced 3-racer races alternate which runs first, so keep it even.
const REPS: usize = 4;
/// Time spent decoding random genomes per family.
const DECODE_BUDGET: Duration = Duration::from_millis(150);
/// Events applied per session in the session/WAL probe.
const PROBE_EVENTS: usize = 8;
/// Sessions in the session/WAL probe.
const PROBE_SESSIONS: usize = 2;

/// The per-layer metrics, the boundary-ratio table and the check tally.
#[derive(Default)]
pub struct Layers {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Rendered boundary-ratio table.
    pub table: Vec<String>,
    /// Output checks.
    pub tally: Tally,
}

impl Layers {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn check(&mut self, ok: Result<(), String>) {
        self.tally.check(ok);
    }

    fn ratio(&mut self, family: &str, layer: &str, value: f64, base: f64, base_unit: &str) {
        self.table.push(format!(
            "  {family:<9} {layer:<11} {value:>9.3}x  (base {base:.1} {base_unit})"
        ));
    }
}

fn deadline() -> Instant {
    Instant::now() + Duration::from_millis(plan::DEADLINE_MS)
}

fn family_of(t: &Target) -> &'static str {
    t.instance.family().name()
}

/// What the probes run with, for the run record: they call the layers in
/// process with these caps rather than through a server's flags.
pub fn config() -> String {
    format!(
        "in process: racer_pool={} racers={} gen_cap cold={} cached={} session={} \
         deadline_ms={} wal_fsync=true",
        crate::nproc(),
        plan::RACERS,
        plan::COLD_GEN_CAP,
        plan::CACHED_GEN_CAP,
        plan::SESSION_GEN_CAP,
        plan::DEADLINE_MS
    )
}

/// CPU seconds this process has used so far, all threads (user +
/// system, from `/proc/self/stat` in 1/100 s ticks); 0 where that is
/// unavailable.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Runs every layer probe for `seed`.
pub fn run(seed: u64, tmp: &Path) -> Result<Layers, String> {
    let mut out = Layers::default();
    let pool = RacerPool::new(crate::nproc());
    let targets = plan::cold_targets(seed);
    let mut race_walls = Vec::new();
    let mut r3 = RaceTally::default();
    // Traced over plain wall time of each same-seed 3-racer pair, less 1.
    let mut overhead = Vec::new();
    for (j, t) in targets.iter().enumerate() {
        let f = family_of(t);
        let (full_ns_per_op, table_ns_per_op) = decode_probe(&t.instance, seed);
        out.metric(format!("decoder.{f}.full_ns_per_op"), full_ns_per_op, "ns");
        out.metric(
            format!("decoder.{f}.table_ns_per_op"),
            table_ns_per_op,
            "ns",
        );

        // Plain races at 1..3 racers and traced races with the phase
        // accumulator, on the seeds of cold_race's requests for `t`.
        let acc = Arc::new(PhaseAcc::new());
        let mut members: Vec<(String, u64, u64)> = Vec::new();
        let (mut evals, mut decodes, mut retimed) = (0u64, 0u64, 0u64);
        let mut slowest_member_ns = 0u128; // summed over reps
        let mut hooked_wall_ns = 0u128;
        let seeds: Vec<u64> = plan::cold_requests_of(j, REPS)
            .into_iter()
            .map(|i| plan::cold_seed(seed, i))
            .collect();
        let mut walls = [0f64; 3];
        let mut evals_by_r = [0u64; 3];
        for (k, &s) in seeds.iter().enumerate() {
            let inst = Arc::new(t.instance.clone());
            let plain = |r: usize| {
                let (started, cpu) = (Instant::now(), cpu_seconds());
                let o = solve(
                    &pool,
                    &inst,
                    t.objective,
                    s,
                    deadline(),
                    plan::COLD_GEN_CAP,
                    r,
                );
                (o, started.elapsed(), cpu_seconds() - cpu)
            };
            for r in [1, 2] {
                let (o, wall, _) = plain(r);
                walls[r - 1] += wall.as_secs_f64();
                evals_by_r[r - 1] += o.models.iter().map(|(_, m)| m.evaluations).sum::<u64>();
                out.check(valid(t, &o));
            }
            // The plain 3-racer race and the traced one on the same seed,
            // in alternating order so that neither always starts warmer.
            let (mut plain_wall, mut hooked_wall) = (Duration::ZERO, Duration::ZERO);
            for traced in [k % 2 == 1, k % 2 == 0] {
                if !traced {
                    let (o, wall, cpu) = plain(plan::RACERS);
                    walls[plan::RACERS - 1] += wall.as_secs_f64();
                    evals_by_r[plan::RACERS - 1] +=
                        o.models.iter().map(|(_, m)| m.evaluations).sum::<u64>();
                    out.check(valid(t, &o));
                    race_walls.push((j, wall));
                    r3.add(&o, wall, cpu);
                    plain_wall = wall;
                    continue;
                }
                let hooks = SolveHooks {
                    traced: true,
                    watch: None,
                    phases: Some(Arc::clone(&acc)),
                };
                let started = Instant::now();
                let o = solve_hooked(
                    &pool,
                    &inst,
                    t.objective,
                    s,
                    deadline(),
                    plan::COLD_GEN_CAP,
                    plan::RACERS,
                    hooks,
                );
                hooked_wall = started.elapsed();
                hooked_wall_ns += hooked_wall.as_nanos();
                for (name, tel) in &o.models {
                    evals += tel.evaluations;
                    decodes += tel.decode_calls;
                    retimed += tel.retimed_positions;
                    match members.iter_mut().find(|m| &m.0 == name) {
                        Some(m) => m.1 += tel.evaluations,
                        None => members.push((name.clone(), tel.evaluations, 0)),
                    }
                }
                for tr in &o.timelines {
                    if let Some(m) = members.iter_mut().find(|m| m.0 == tr.member) {
                        m.2 += tr.dur_us;
                    }
                }
                let slowest = o.timelines.iter().map(|tr| tr.dur_us).max().unwrap_or(0);
                slowest_member_ns += slowest as u128 * 1000;
                out.check(valid(t, &o));
            }
            overhead.push(hooked_wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9) - 1.0);
        }
        let [select, breed, evaluate, migrate, decode] = acc.snapshot_ns().map(|ns| ns as f64);
        let child = evals.max(1) as f64;
        let race_ns_per_call = decode / decodes.max(1) as f64;
        let genome = plan::genome_len(&t.instance) as f64;
        out.metric(
            format!("decoder.{f}.race_ns_per_call"),
            race_ns_per_call,
            "ns",
        );
        out.metric(
            format!("decoder.{f}.retimed_share"),
            retimed as f64 / (decodes.max(1) as f64 * genome),
            "ratio",
        );
        out.metric(format!("ga.{f}.select_ns_per_child"), select / child, "ns");
        out.metric(format!("ga.{f}.breed_ns_per_child"), breed / child, "ns");
        out.metric(
            format!("ga.{f}.breed_over_evaluate"),
            breed / evaluate.max(1.0),
            "ratio",
        );
        for m in ["master_slave", "island", "cellular"] {
            let rate = members
                .iter()
                .find(|x| x.0 == m)
                .map_or(0.0, |x| x.1 as f64 / (x.2.max(1) as f64 / 1e6));
            out.metric(format!("pga.{f}.{m}.evals_per_s"), rate, "1/s");
        }
        for r in 1..=plan::RACERS {
            out.metric(
                format!("race.{f}.evals_per_s.r{r}"),
                evals_by_r[r - 1] as f64 / walls[r - 1].max(1e-9),
                "1/s",
            );
        }

        // Boundary ratios, each against the layer below.
        let ops = t.instance.total_ops() as f64;
        let (standalone, table) = (full_ns_per_op * ops, table_ns_per_op * ops);
        let eval_per_child = evaluate / child;
        let gen_per_child = (select + breed + evaluate + migrate) / child;
        let member_ns: f64 = members.iter().map(|m| m.2 as f64 * 1e3).sum();
        let member_per_eval = member_ns / child;
        out.ratio(
            f,
            "incremental",
            standalone / table,
            table,
            "ns/decode table",
        );
        out.ratio(
            f,
            "decode",
            race_ns_per_call / table,
            table,
            "ns/decode table",
        );
        out.ratio(
            f,
            "evaluate",
            eval_per_child / race_ns_per_call.max(1e-9),
            race_ns_per_call,
            "ns/decode in race",
        );
        out.ratio(
            f,
            "generation",
            gen_per_child / eval_per_child.max(1e-9),
            eval_per_child,
            "ns/child evaluate",
        );
        out.ratio(
            f,
            "member",
            member_per_eval / gen_per_child.max(1e-9),
            gen_per_child,
            "ns/child phases",
        );
        let race = hooked_wall_ns as f64 / slowest_member_ns.max(1) as f64;
        let slowest_ms = slowest_member_ns as f64 / 1e6 / REPS as f64;
        out.ratio(f, "race", race, slowest_ms, "ms slowest member");
    }
    r3.report(&mut out);
    request_path(&mut out, seed, &pool)?;
    cold_requests(&mut out, &targets, seed, &race_walls)?;
    session_and_wal(&mut out, seed, &pool, tmp)?;
    // Signed: a true overhead near zero can read slightly negative.
    out.metric(
        "trace.overhead_share",
        Samples::new(overhead).median(),
        "ratio",
    );
    Ok(out)
}

fn valid(t: &Target, o: &SolveOutcome) -> Result<(), String> {
    let schedule = Schedule::new(o.solution.schedule.clone());
    t.instance.validate(&schedule).map_err(|e| {
        format!(
            "{}: in-process race gave an infeasible schedule: {e}",
            t.name
        )
    })
}

/// Race-level counters over the plain 3-racer solves.
#[derive(Default)]
struct RaceTally {
    pool_wait_us: Vec<f64>,
    cpu_s: f64,
    capacity_s: f64,
    winner_share: Vec<f64>,
}

impl RaceTally {
    /// Adds one race of `wall` time that used `cpu` seconds of CPU.
    fn add(&mut self, o: &SolveOutcome, wall: Duration, cpu: f64) {
        self.pool_wait_us.push(o.pool_wait.as_secs_f64() * 1e6);
        self.cpu_s += cpu;
        let lanes = o.models.len().min(crate::nproc()).max(1);
        self.capacity_s += wall.as_secs_f64() * lanes as f64;
        let total: u64 = o.models.iter().map(|(_, m)| m.evaluations).sum();
        let winner: u64 = o
            .models
            .iter()
            .filter(|(name, _)| *name == o.solution.model)
            .map(|(_, m)| m.evaluations)
            .sum();
        self.winner_share.push(winner as f64 / total.max(1) as f64);
    }

    fn report(&self, out: &mut Layers) {
        out.metric(
            "race.pool_wait_us",
            Samples::new(self.pool_wait_us.clone()).mean(),
            "us",
        );
        // CPU time, not summed member wall time: a member time-sliced
        // with another on one core is not busy all its wall time.
        out.metric(
            "race.busy_share",
            self.cpu_s / self.capacity_s.max(1e-9),
            "ratio",
        );
        out.metric(
            "race.winner_eval_share",
            Samples::new(self.winner_share.clone()).mean(),
            "ratio",
        );
    }
}

/// Mean nanoseconds per operation of full decodes, as
/// `(incremental, table)`: the family's incremental decoder fed
/// unrelated random genomes (so every call re-times the whole genome),
/// and the plain table decode of the same genomes.
fn decode_probe(inst: &AnyInstance, seed: u64) -> (f64, f64) {
    let mut rng = plan::Rng::new(seed, 900);
    let p = inst.problem();
    let repetition = |rng: &mut plan::Rng| {
        let mut seq: Vec<usize> = (0..p.n_jobs())
            .flat_map(|j| std::iter::repeat_n(j, p.n_ops(j)))
            .collect();
        rng.shuffle(&mut seq);
        seq
    };
    let permutation = |rng: &mut plan::Rng, n: usize| {
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        perm
    };
    const GENOMES: usize = 64;
    let mut scratch = DecodeScratch::new();
    let (incremental, table) = match inst {
        AnyInstance::Job(i) => {
            let genomes: Vec<_> = (0..GENOMES).map(|_| repetition(&mut rng)).collect();
            let table = Arc::new(OpTable::from_job(i));
            let mut dec = IncrementalJob::new(Arc::clone(&table));
            (
                time_loop(&genomes, |g| dec.decode(g)),
                time_loop(&genomes, |g| table.job_makespan(g, &mut scratch)),
            )
        }
        AnyInstance::Flow(i) => {
            let genomes: Vec<_> = (0..GENOMES)
                .map(|_| permutation(&mut rng, i.n_jobs()))
                .collect();
            let table = Arc::new(OpTable::from_flow(i));
            let mut dec = IncrementalFlow::new(Arc::clone(&table));
            (
                time_loop(&genomes, |g| dec.decode(g)),
                time_loop(&genomes, |g| table.flow_makespan(g, &mut scratch)),
            )
        }
        AnyInstance::Open(i) => {
            let n = i.n_jobs() * i.n_machines();
            let genomes: Vec<_> = (0..GENOMES).map(|_| permutation(&mut rng, n)).collect();
            let table = Arc::new(OpTable::from_open(i));
            let mut dec = IncrementalOpenOrder::new(Arc::clone(&table));
            (
                time_loop(&genomes, |g| dec.decode(g)),
                time_loop(&genomes, |g| table.open_order_makespan(g, &mut scratch)),
            )
        }
        AnyInstance::Flexible(i) => {
            let genomes: Vec<_> = (0..GENOMES)
                .map(|_| {
                    let assign: Vec<usize> =
                        (0..i.total_ops()).map(|_| rng.below(16) as usize).collect();
                    (assign, repetition(&mut rng))
                })
                .collect();
            let table = Arc::new(FlexTable::from_flexible(i));
            let mut dec = IncrementalFlex::new(Arc::clone(&table));
            (
                time_loop(&genomes, |(a, s)| dec.decode(a, s)),
                time_loop(&genomes, |(a, s)| table.makespan(a, s, &mut scratch)),
            )
        }
    };
    let per_op = |(calls, elapsed): (u64, Duration)| {
        elapsed.as_nanos() as f64 / (calls as f64 * inst.total_ops() as f64)
    };
    (per_op(incremental), per_op(table))
}

/// Decodes `genomes` round-robin for [`DECODE_BUDGET`]; one span around
/// each pass. Returns `(calls, time)`.
fn time_loop<G>(genomes: &[G], mut decode: impl FnMut(&G) -> u64) -> (u64, Duration) {
    let (mut calls, mut elapsed, mut sink) = (0u64, Duration::ZERO, 0u64);
    while elapsed < DECODE_BUDGET {
        let started = Instant::now();
        for g in genomes {
            sink = sink.wrapping_add(decode(g));
        }
        elapsed += started.elapsed();
        calls += genomes.len() as u64;
    }
    std::hint::black_box(sink);
    (calls, elapsed)
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let v = f();
    (v, started.elapsed().as_secs_f64() * 1e6)
}

/// The cached request path, layer by layer, on `cached_replay`'s key
/// set: parse → load → hash → cache get → encode, then the same keys
/// through an in-process service for the wire-level remainder.
fn request_path(out: &mut Layers, seed: u64, pool: &RacerPool) -> Result<(), String> {
    let keys = plan::cached_keys(seed);
    let cache = ShardedCache::new(256, 8);
    let mut solutions = Vec::new();
    for k in &keys {
        let inst = Arc::new(k.target.instance.clone());
        let o = solve(
            pool,
            &inst,
            k.target.objective,
            k.seed,
            deadline(),
            plan::CACHED_GEN_CAP,
            plan::RACERS,
        );
        let key = CacheKey {
            instance: inst.canonical_hash(),
            objective: k.target.objective,
            seed: k.seed,
        };
        cache.insert_best(
            key,
            CachedSolve {
                solution: Arc::new(o.solution.clone()),
                budget_ms: plan::DEADLINE_MS,
                deadline_bound: false,
            },
        );
        solutions.push(o.solution);
    }
    let (mut parse, mut load_gen, mut load_parse) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hash, mut get, mut encode, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut span_sum = vec![0.0; keys.len()];
    let passes = 8;
    for _ in 0..passes {
        for (i, k) in keys.iter().enumerate() {
            let (parsed, t_parse) = time(|| json::parse(&k.line));
            parsed.map_err(|e| e.to_string())?;
            let spec = if k.inline {
                InstanceSpec::Inline {
                    family: k.target.instance.family(),
                    text: k.target.instance.text(),
                }
            } else {
                InstanceSpec::Named(k.target.name.clone())
            };
            let (inst, t_load) = time(|| load_instance(&spec));
            let inst = inst.map_err(|e| e.to_string())?;
            let (h, t_hash) = time(|| inst.canonical_hash());
            let key = CacheKey {
                instance: h,
                objective: k.target.objective,
                seed: k.seed,
            };
            let (hit, t_get) = time(|| cache.get(&key));
            let hit = hit.ok_or("cache miss in the request-path probe")?;
            let (line, t_encode) =
                time(|| encode_solution(None, &hit.solution, true, &RequestTelemetry::default()));
            parse.push(t_parse);
            if k.inline {
                load_parse.push(t_load);
            } else {
                load_gen.push(t_load);
            }
            hash.push(t_hash);
            get.push(t_get);
            encode.push(t_encode);
            bytes.push(line.len() as f64);
            span_sum[i] += (t_parse + t_load + t_hash + t_get + t_encode) / passes as f64;
        }
    }
    let mean = |v: Vec<f64>| Samples::new(v).mean();
    out.metric("json.parse_us", mean(parse), "us");
    out.metric("load.gen_us", mean(load_gen), "us");
    out.metric("load.parse_us", mean(load_parse), "us");
    out.metric("hash.us", mean(hash), "us");
    out.metric("cache.get_us", mean(get), "us");
    out.metric("protocol.encode_us", mean(encode), "us");
    out.metric("protocol.response_bytes", mean(bytes), "B");

    // The same keys through an in-process service over loopback.
    let service = Service::bind(ServeConfig {
        gen_cap: plan::CACHED_GEN_CAP,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("in-process service: {e}"))?;
    let addr = service.local_addr().to_string();
    let mut conn = Conn::open(&addr)?;
    for k in &keys {
        conn.call(&k.line)?;
    }
    let mut dispatch = Vec::new();
    let mut hits = Vec::new();
    for _ in 0..passes {
        for (i, k) in keys.iter().enumerate() {
            let (_, took) = conn.call(&k.line)?;
            let us = took.as_secs_f64() * 1e6;
            hits.push(us);
            dispatch.push(us - span_sum[i]);
        }
    }
    let mut queue_wait = Vec::new();
    for k in keys.iter().take(16) {
        let mut fresh = Conn::open(&addr)?;
        let (line, _) = fresh.call(&k.line)?;
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let wait = v
            .get("telemetry")
            .and_then(|t| t.get("queue_wait_us"))
            .and_then(json::Json::as_f64)
            .ok_or("no queue_wait_us in the answer")?;
        queue_wait.push(wait);
    }
    drop(conn);
    service.shutdown();
    out.metric(
        "server.queue_wait_us",
        Samples::new(queue_wait).mean(),
        "us",
    );
    out.metric("server.dispatch_us", Samples::new(dispatch).median(), "us");
    out.table.push(format!(
        "  {:<9} {:<11} {:>9.3}x  (base {:.1} us spans: parse+load+hash+get+encode)",
        "cached",
        "request",
        Samples::new(hits).median() / Samples::new(span_sum.clone()).median(),
        Samples::new(span_sum).median()
    ));
    Ok(())
}

/// Served cold requests against the bare races they wrap: the request
/// boundary of the table.
fn cold_requests(
    out: &mut Layers,
    targets: &[Target],
    seed: u64,
    race_walls: &[(usize, Duration)],
) -> Result<(), String> {
    let service = Service::bind(ServeConfig {
        gen_cap: plan::COLD_GEN_CAP,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("in-process service: {e}"))?;
    let mut conn = Conn::open(&service.local_addr().to_string())?;
    for (j, t) in targets.iter().enumerate() {
        let mut latency = Vec::new();
        for i in plan::cold_requests_of(j, REPS) {
            let s = plan::cold_seed(seed, i);
            let line = plan::solve_line(&plan::named_json(&t.name), t.objective, s);
            let (_, took) = conn.call(&line)?;
            latency.push(took.as_secs_f64());
        }
        let race = Samples::new(
            race_walls
                .iter()
                .filter(|w| w.0 == j)
                .map(|w| w.1.as_secs_f64())
                .collect(),
        )
        .median();
        let request = Samples::new(latency).median();
        out.ratio(
            family_of(t),
            "request",
            request / race,
            race * 1e3,
            "ms race",
        );
    }
    drop(conn);
    service.shutdown();
    Ok(())
}

fn clone_state(s: &SessionState) -> SessionState {
    SessionState {
        inst: s.inst.clone(),
        objective: s.objective,
        seed: s.seed,
        windows: s.windows.clone(),
        now: s.now,
        incumbent: Arc::clone(&s.incumbent),
        deadline_bound: s.deadline_bound,
        events: s.events,
        ttl_ms: s.ttl_ms,
        journal: s.journal.clone(),
    }
}

/// Session events (repair alone, and repair raced against the
/// warm-started re-solve) with their WAL appends, then recovery of the
/// logs written.
fn session_and_wal(
    out: &mut Layers,
    seed: u64,
    pool: &RacerPool,
    tmp: &Path,
) -> Result<(), String> {
    let dir = tmp.join("layers-wal");
    let wal = Wal::new(WalConfig {
        dir,
        snapshot_every: 64,
        fsync: true,
    })
    .map_err(|e| format!("wal: {e}"))?;
    let (mut repair, mut resolve, mut append, mut record_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut wins = 0usize;
    let mut finals = Vec::new();
    for (i, (name, sseed)) in plan::session_targets(seed)
        .into_iter()
        .take(PROBE_SESSIONS)
        .enumerate()
    {
        let inst = AnyInstance::named(&name).ok_or("bad session instance")?;
        let opened = solve(
            pool,
            &Arc::new(inst.clone()),
            Objective::Makespan,
            sseed,
            deadline(),
            plan::SESSION_GEN_CAP,
            plan::RACERS,
        );
        let AnyInstance::Job(job) = inst else {
            return Err("session instances are job shops".into());
        };
        let mut state = SessionState {
            inst: job,
            objective: Objective::Makespan,
            seed: sseed,
            windows: Vec::new(),
            now: 0,
            incumbent: Arc::new(opened.solution),
            deadline_bound: false,
            events: 0,
            ttl_ms: 0,
            journal: Vec::new(),
        };
        let id = format!("probe-{i}");
        wal.begin(&id, &open_record(&id, &state))
            .map_err(|e| format!("wal begin: {e}"))?;
        let mut rng = plan::Rng::new(seed, 70 + i as u64);
        for _ in 0..PROBE_EVENTS {
            let event =
                plan::next_event(&mut rng, &state.inst, &state.incumbent.schedule, state.now);
            let mut copy = clone_state(&state);
            let (r, us) = time(|| {
                handle_event(
                    pool,
                    &mut copy,
                    &event,
                    deadline(),
                    plan::SESSION_GEN_CAP,
                    plan::RACERS,
                    true,
                )
            });
            r?;
            repair.push(us);
            let (r, us) = time(|| {
                handle_event(
                    pool,
                    &mut state,
                    &event,
                    deadline(),
                    plan::SESSION_GEN_CAP,
                    plan::RACERS,
                    false,
                )
            });
            let outcome = r?;
            resolve.push(us / 1e3);
            if outcome.winner == "resolve" {
                wins += 1;
            }
            let record = event_record(state.events, &event, &outcome);
            let (r, us) = time(|| wal.append(&id, &record));
            r.map_err(|e| format!("wal append: {e}"))?;
            append.push(us);
            // Frame: u32 length + u64 checksum + payload.
            record_bytes.push((12 + record.len()) as f64);
        }
        finals.push((
            id,
            state.events,
            state.incumbent.value,
            state.incumbent.schedule.clone(),
        ));
    }
    let (recovered, us) = time(|| wal.recover_all());
    let recovered = recovered.map_err(|e| format!("wal recover: {e}"))?;
    for (id, events, value, schedule) in &finals {
        let ok = recovered.iter().find(|r| &r.session == id).map_or(
            Err(format!("{id} was not recovered")),
            |r| {
                let s = &r.state;
                if s.events == *events
                    && s.incumbent.value == *value
                    && &s.incumbent.schedule == schedule
                {
                    Ok(())
                } else {
                    Err(format!("{id} recovered a different incumbent"))
                }
            },
        );
        out.check(ok);
    }
    let mean = |v: Vec<f64>| Samples::new(v).mean();
    let n = resolve.len().max(1) as f64;
    out.metric("session.repair_us", mean(repair), "us");
    out.metric("session.resolve_ms", mean(resolve), "ms");
    out.metric("session.resolve_win_share", wins as f64 / n, "ratio");
    out.metric("wal.append_us", mean(append), "us");
    out.metric("wal.record_bytes", mean(record_bytes), "B");
    out.metric("wal.recover_ms", us / 1e3, "ms");
    Ok(())
}
