//! What a run sends, all derived from the workload seed: the generated
//! instances, the request seeds, the cached key set and the session
//! event stream. The server only ever sees these generated requests.

use ga::rng::split_seed;
use serve::json::{obj, Json};
use serve::protocol::event_to_json;
use serve::Objective;
use shop::dynamic::Event;
use shop::gen::{AnyInstance, Family};
use shop::instance::{JobShopInstance, Op};
use shop::schedule::ScheduledOp;
use shop::Problem;

/// Generation cap of the `cold_race` server: every race stops at this
/// cap long before its deadline, so each answer is seed-deterministic.
pub const COLD_GEN_CAP: u64 = 40;
/// Generation cap of the `cached_replay` server: small, so filling the
/// cache with ~2000-operation instances stays quick.
pub const CACHED_GEN_CAP: u64 = 5;
/// Generation cap of the `session_storm` server: each event's
/// warm-started re-solve stops at this cap.
pub const SESSION_GEN_CAP: u64 = 20;
/// Deadline on every request: generous, so the generation cap binds.
pub const DEADLINE_MS: u64 = 20_000;
/// Racing models per request (the server default).
pub const RACERS: usize = 3;
/// Sessions open at once in `session_storm`.
pub const SESSIONS: usize = 6;
/// Events a `session_storm` session absorbs before it is closed and
/// reopened.
pub const SESSION_LIFE: u64 = 8;
/// `session_storm` reads a session back after every this-many events.
pub const EVENTS_PER_GET: usize = 3;

/// A small deterministic generator (SplitMix64) for the request streams.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(split_seed(seed, stream))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        split_seed(self.0, 0)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A seed-derived number that fits a JSON number exactly.
pub fn derive(seed: u64, stream: u64) -> u64 {
    split_seed(seed, stream) >> 12
}

fn gen_name(family: Family, jobs: usize, machines: usize, seed: u64) -> String {
    format!("gen-{}-{jobs}x{machines}-s{seed}", family.name())
}

fn instance(name: &str) -> AnyInstance {
    AnyInstance::named(name).unwrap_or_else(|| panic!("{name} is a valid generated name"))
}

/// One generated instance and the objective it is solved under.
pub struct Target {
    /// Canonical `gen-*` name.
    pub name: String,
    /// The instance, generated locally to validate answers against.
    pub instance: AnyInstance,
    /// Objective of every request on it.
    pub objective: Objective,
}

/// The four mid-size instances `cold_race` rotates over, one per
/// family. Open shop uses total completion time: its makespan lower
/// bound is often certified early, and an early exit is timing-dependent.
pub fn cold_targets(seed: u64) -> Vec<Target> {
    [
        (Family::Job, 20, 10, Objective::Makespan),
        (Family::Flexible, 20, 8, Objective::Makespan),
        (Family::Flow, 50, 10, Objective::Makespan),
        (Family::Open, 16, 10, Objective::TotalCompletion),
    ]
    .into_iter()
    .enumerate()
    .map(|(k, (family, jobs, machines, objective))| {
        let name = gen_name(family, jobs, machines, derive(seed, 1 + k as u64) % 100_000);
        Target {
            instance: instance(&name),
            name,
            objective,
        }
    })
    .collect()
}

/// The order `cold_race` sends requests in, as indices into
/// [`cold_targets`]. Job shop takes two slots of five so that the
/// median lands inside the job-shop mode and p90 inside the flexible
/// mode, never on the edge between two families' latencies.
pub const COLD_ROTATION: [usize; 5] = [0, 1, 2, 3, 0];

/// The target of measured cold request `i`.
pub fn cold_target_of(i: u64) -> usize {
    COLD_ROTATION[i as usize % COLD_ROTATION.len()]
}

/// The first `n` measured cold request indices that go to target `j`.
pub fn cold_requests_of(j: usize, n: usize) -> Vec<u64> {
    (0..).filter(|&i| cold_target_of(i) == j).take(n).collect()
}

/// Seed of measured cold request `i`: fresh per request, so each one
/// misses the cache.
pub fn cold_seed(seed: u64, i: u64) -> u64 {
    derive(seed, 1_000_000 + i)
}

/// Seed of warm-up request `i` (disjoint from the measured stream).
pub fn warmup_seed(seed: u64, i: u64) -> u64 {
    derive(seed, 2_000_000 + i)
}

/// A solve request line.
pub fn solve_line(instance: &str, objective: Objective, seed: u64) -> String {
    format!(
        r#"{{"instance":{instance},"objective":"{}","seed":{seed},"deadline_ms":{DEADLINE_MS}}}"#,
        objective.name()
    )
}

/// The `instance` object addressing a generated name.
pub fn named_json(name: &str) -> String {
    obj([("name", name.into())]).encode()
}

/// The `instance` object carrying the instance as inline text.
pub fn inline_json(inst: &AnyInstance) -> String {
    obj([
        ("kind", inst.family().name().into()),
        ("data", inst.text().into()),
    ])
    .encode()
}

/// One key of the `cached_replay` set.
pub struct CachedKey {
    /// The instance and objective.
    pub target: Target,
    /// The request seed (part of the cache key).
    pub seed: u64,
    /// Sent as inline text (`true`) or as its `gen-*` name.
    pub inline: bool,
    /// The request line, byte-identical on every send.
    pub line: String,
}

/// `(jobs, machines)`.
type Dims = (usize, usize);

/// Small and large instance dimensions per family: 40 operations, and
/// 2000 operations. Answers differ ~50x in size.
const CACHED_DIMS: [(Family, Dims, Dims); 4] = [
    (Family::Job, (8, 5), (100, 20)),
    (Family::Flow, (10, 4), (200, 10)),
    (Family::Open, (8, 5), (50, 40)),
    (Family::Flexible, (8, 5), (100, 20)),
];

/// The `cached_replay` key set: per family three small keys and one
/// large one; half the keys travel as names and half as inline text.
/// It fits the server's default cache (256 entries over 8 shards).
pub fn cached_keys(seed: u64) -> Vec<CachedKey> {
    let mut keys = Vec::new();
    for k in 0..4u64 {
        for (f, &(family, small, large)) in CACHED_DIMS.iter().enumerate() {
            let (jobs, machines) = if k < 3 { small } else { large };
            let stream = 10 + 4 * f as u64 + k;
            let name = gen_name(family, jobs, machines, derive(seed, stream) % 100_000);
            let inline = (f as u64 + k) % 2 == 1;
            let inst = instance(&name);
            let req_seed = derive(seed, 100 + stream);
            let spec = if inline {
                inline_json(&inst)
            } else {
                named_json(&name)
            };
            let line = solve_line(&spec, Objective::Makespan, req_seed);
            keys.push(CachedKey {
                target: Target {
                    name,
                    instance: inst,
                    objective: Objective::Makespan,
                },
                seed: req_seed,
                inline,
                line,
            });
        }
    }
    keys
}

/// The job shops `session_storm` opens, with each session's root seed.
pub fn session_targets(seed: u64) -> Vec<(String, u64)> {
    (0..SESSIONS as u64)
        .map(|i| {
            let name = gen_name(Family::Job, 15, 8, derive(seed, 50 + i) % 100_000);
            (name, derive(seed, 60 + i))
        })
        .collect()
}

/// A `session_open` request line.
pub fn open_line(name: &str, seed: u64) -> String {
    format!(
        r#"{{"cmd":"session_open","instance":{},"objective":"makespan","seed":{seed},"deadline_ms":{DEADLINE_MS}}}"#,
        named_json(name)
    )
}

/// A `session_event` request line.
pub fn event_line(session: &str, event: &Event) -> String {
    format!(
        r#"{{"cmd":"session_event","session":"{session}","event":{},"deadline_ms":{DEADLINE_MS}}}"#,
        event_to_json(event).encode()
    )
}

/// A `session_get` request line.
pub fn get_line(session: &str) -> String {
    format!(r#"{{"cmd":"session_get","session":"{session}"}}"#)
}

/// The next event of a session, valid by construction against its
/// current instance, incumbent schedule and clock: time never runs
/// backwards (it advances by at most 1% of the makespan), a revision
/// only targets an operation that has not started, and an arriving job
/// visits three distinct machines. Mix: 45% breakdowns, 40% revisions,
/// 15% arrivals.
pub fn next_event(
    rng: &mut Rng,
    inst: &JobShopInstance,
    schedule: &[ScheduledOp],
    now: u64,
) -> Event {
    let makespan = schedule.iter().map(|o| o.end).max().unwrap_or(0);
    let at = now + rng.below(makespan / 100 + 1);
    let machines = inst.n_machines() as u64;
    let roll = rng.below(100);
    if roll >= 85 && machines >= 3 {
        let first = rng.below(machines);
        let route = (0..3)
            .map(|k| Op::new(((first + k) % machines) as usize, 1 + rng.below(99)))
            .collect();
        return Event::JobArrival { at, route };
    }
    if roll >= 45 {
        let open: Vec<&ScheduledOp> = schedule.iter().filter(|o| o.start >= at).collect();
        if !open.is_empty() {
            let o = open[rng.below(open.len() as u64) as usize];
            return Event::Revision {
                at,
                job: o.job,
                op: o.op,
                duration: 1 + rng.below(99),
            };
        }
    }
    Event::Breakdown {
        machine: rng.below(machines) as usize,
        from: at,
        duration: 1 + rng.below(makespan / 20 + 1),
    }
}

/// Length of a family's genome (the unit of `retimed_positions`).
pub fn genome_len(inst: &AnyInstance) -> usize {
    match inst {
        AnyInstance::Flow(f) => f.n_jobs(),
        _ => inst.total_ops(),
    }
}

/// Shorthand for a JSON number field.
pub fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}
