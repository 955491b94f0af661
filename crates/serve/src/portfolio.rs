//! Portfolio racing: pick a starting lineup of parallel-GA models for
//! the instance size (ranked by the `hpc` cost models on a multicore
//! platform), then race the models against a shared deadline on the
//! service's **persistent racer pool** (see [`crate::scheduler`]).
//! Every racer reports improvements into a shared best-so-far cell the
//! moment they happen (cooperative anytime behaviour), and the service
//! answers with the global best when the race ends.
//!
//! A race does not own threads. The submitting thread runs the
//! predicted-cheapest member *inline* — so a race always makes
//! progress, even with the pool saturated — and submits the remaining
//! members as cancellable tasks. Members that never get a pool slot
//! before the deadline are skipped (the race is then reported as
//! deadline-bound: more capacity could have done better); members
//! running at the deadline stop within one cooperative chunk.
//!
//! Determinism: racer `i` derives its seed as `split_seed(seed, i)` over
//! a lineup that is itself a pure function of `(instance size, thread
//! budget)`, so each racer's trajectory is reproducible. The *race
//! outcome* is deterministic when every racer runs to its generation
//! cap — which, under the pool, additionally requires that every
//! member got a slot before the deadline (always true when the pool is
//! not saturated). When the target is certified before the cap, rivals
//! are cut short at a timing-dependent generation, so which member
//! holds the best solution (the winner label) can vary run to run even
//! though the certified cost cannot.

use crate::obs::phase::PhaseAcc;
use crate::obs::trace::{Frame, MemberTrace, Payload, TraceRecorder, WatchSink};
use crate::scheduler::{CancelToken, RacerPool, TaskRun};
use ga::engine::{Engine, GaConfig, GaPhase, Individual, Observer, Toolkit};
use ga::rng::split_seed;
use ga::stats::GenerationSample;
use ga::termination::Termination;
use hpc::model::{cellular_time, island_time, master_slave_time, RunShape};
use hpc::Platform;
use pga::telemetry::RunTelemetry;
use pga::{CellularConfig, CellularGa, Instrumented, IslandConfig, IslandGa, MigrationConfig};
use shop::gen::Family;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One portfolio member: a parallel model with its sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Panmictic GA with fanned-out evaluation (`pop` individuals).
    MasterSlave {
        /// Population size.
        pop: usize,
    },
    /// Coarse-grained islands on a ring.
    Island {
        /// Island count.
        islands: usize,
        /// Per-island population size.
        island_pop: usize,
    },
    /// Fine-grained torus.
    Cellular {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
}

impl ModelKind {
    /// Stable wire/telemetry label of the model.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::MasterSlave { .. } => "master_slave",
            ModelKind::Island { .. } => "island",
            ModelKind::Cellular { .. } => "cellular",
        }
    }
}

/// Shared monotone best-so-far cell: an `AtomicU64` holding the bit
/// pattern of a non-negative `f64` cost (IEEE-754 order matches numeric
/// order for non-negative floats, so `fetch_min` on the bits is a
/// lock-free numeric min).
#[derive(Debug)]
pub struct BestSoFar(AtomicU64);

impl Default for BestSoFar {
    fn default() -> Self {
        BestSoFar(AtomicU64::new(f64::INFINITY.to_bits()))
    }
}

impl BestSoFar {
    /// Reports a candidate cost; keeps the minimum.
    pub fn report(&self, cost: f64) {
        debug_assert!(cost >= 0.0);
        self.0.fetch_min(cost.to_bits(), Ordering::Relaxed);
    }

    /// Current global best (`f64::INFINITY` before any report).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Prices candidate configurations of all three models for a `family`
/// instance with `total_ops` operations on a multicore platform of
/// `threads` width, returning them ranked cheapest-first as
/// `(predicted seconds, model)`. The per-evaluation cost uses the
/// family's nominal decode cost from [`hpc::calibrate`] — a flexible
/// decode costs several times a flow decode of the same operation
/// count, and pricing all families with one shared constant left the
/// generated-sweep predictions 3–10x off on the flexible/open
/// families. The constants are still nominal (the ranking stays
/// machine-independent); the generated-sweep bench
/// (`g01_generated_sweep`) records predicted next to observed runtimes
/// to track how the model scales with size.
pub fn price_lineup(family: Family, total_ops: usize, threads: usize) -> Vec<(f64, ModelKind)> {
    let threads = threads.clamp(1, 3);
    // Population scales with instance size, bounded for latency.
    let pop = (2 * total_ops).clamp(32, 128);
    let decode_op_s = match family {
        Family::Flow => hpc::calibrate::DECODE_OP_S_FLOW,
        Family::Job => hpc::calibrate::DECODE_OP_S_JOB,
        Family::Open => hpc::calibrate::DECODE_OP_S_OPEN,
        Family::Flexible => hpc::calibrate::DECODE_OP_S_FLEXIBLE,
    };
    let shape = RunShape {
        generations: 100,
        evals_per_gen: pop as u64,
        eval_s: decode_op_s * total_ops as f64,
        serial_gen_s: 150e-9 * pop as f64,
        genome_bytes: 8.0 * total_ops as f64,
    };
    let platform = Platform::multicore(threads.max(2));
    let islands = 4usize;
    let island_pop = (pop / islands).max(8);
    let side = (pop as f64).sqrt().round().max(2.0) as usize;
    let candidates = [
        (
            master_slave_time(&shape, &platform),
            ModelKind::MasterSlave { pop },
        ),
        (
            island_time(&shape, islands, 5, 2, islands as u64, &platform),
            ModelKind::Island {
                islands,
                island_pop,
            },
        ),
        (
            cellular_time(&shape, side * side, 4, &platform),
            ModelKind::Cellular {
                rows: side,
                cols: side,
            },
        ),
    ];
    let mut ranked: Vec<(f64, ModelKind)> = candidates.to_vec();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.truncate(threads);
    ranked
}

/// Picks the starting lineup for a `family` instance with `total_ops`
/// operations given `threads` racer threads: the [`price_lineup`]
/// ranking's cheapest `threads` (at most 3) race. Pure function of its
/// arguments — the lineup is part of the service's determinism
/// contract.
///
/// ```
/// use serve::portfolio::plan_lineup;
/// use shop::gen::Family;
///
/// let lineup = plan_lineup(Family::Job, 36, 3); // ft06-sized, 3 threads
/// assert_eq!(lineup.len(), 3);
/// assert_eq!(lineup, plan_lineup(Family::Job, 36, 3)); // pure function
/// ```
pub fn plan_lineup(family: Family, total_ops: usize, threads: usize) -> Vec<ModelKind> {
    price_lineup(family, total_ops, threads)
        .into_iter()
        .map(|(_, m)| m)
        .collect()
}

/// Outcome of one race.
#[derive(Debug, Clone)]
pub struct RaceResult<G> {
    /// Best individual found by any member that completed.
    pub best: Individual<G>,
    /// Name of the member that held the returned solution.
    /// Informational only: whenever the race exits early on a certified
    /// target, rival cut-off points are timing-dependent, so this label
    /// is not part of the deterministic contract (only cap-bound races
    /// pin it).
    pub winner: String,
    /// Structural counters per *completed* member, in lineup order.
    /// Members cancelled before getting a pool slot are absent.
    pub models: Vec<(String, RunTelemetry)>,
    /// True when the wall-clock budget — rather than `gen_cap` or a
    /// certified `target` — limited the search: at least one racer was
    /// cut off by the clock *or never got a pool slot before the
    /// deadline*, so a rerun with a larger budget (or an idler pool)
    /// could find a better solution.
    pub deadline_bound: bool,
    /// Longest time any of this race's pooled members waited for a
    /// racer slot (zero when every member started immediately, and for
    /// single-member lineups, which run entirely inline).
    pub pool_wait: Duration,
    /// Per-member anytime improvement timelines, in lineup order —
    /// recorded only for traced races, empty otherwise. Members
    /// cancelled before getting a pool slot are absent.
    pub timelines: Vec<MemberTrace>,
    /// Summed wall-clock nanoseconds the members actually ran (always
    /// recorded — two `Instant` reads per member). Feeds the
    /// cost-model drift gauge: observed ns/op is `run_ns /
    /// (evaluations × total_ops)`.
    pub run_ns: u64,
}

/// A racer's stopping parameters, kept as parts (rather than one
/// prebuilt [`Termination`]) so the chunked loop can also poll the
/// shared best-so-far cell between chunks.
#[derive(Debug, Clone, Copy)]
pub struct StopRule {
    /// Absolute wall-clock deadline shared by the whole race.
    pub deadline: Instant,
    /// Per-racer generation cap (the determinism anchor).
    pub gen_cap: u64,
    /// Early-exit target cost (reaching it certifies optimality).
    pub target: f64,
}

/// Observation hooks for one race (and the solve or session event
/// around it): anytime-timeline tracing, live watch streaming, and
/// phase profiling. All default off; none of them changes the search
/// trajectory (same seeds, same stop rule, same winner — the
/// bit-identity contract the server's watch tests pin). `Arc`-owned
/// because pooled member tasks outlive the submitting stack frame.
#[derive(Default, Clone)]
pub struct SolveHooks {
    /// Record per-member improvement timelines and retained
    /// convergence samples into `RaceResult::timelines`.
    pub traced: bool,
    /// Stream start/sample/best/finish frames live.
    pub watch: Option<Arc<dyn WatchSink>>,
    /// Accumulate per-phase search time (select / breed / evaluate /
    /// migrate from the models, decode from the evaluation closures).
    pub phases: Option<Arc<PhaseAcc>>,
}

/// The [`Observer`] one race member runs under. Improvements reach the
/// shared best-so-far cell and, like per-generation samples, the
/// member's one frame output (models build samples only when there is
/// one); phase times reach the accumulator when profiled. That is what
/// lets tracing, watching and profiling ride along without touching the
/// GA layers.
struct MemberObs<'a> {
    /// The race-wide monotone best cell (the anytime contract).
    best: &'a BestSoFar,
    /// Where this member's frames go: the subscriber's sink, a trace
    /// recorder, or nothing for an unobserved race.
    frames: Option<&'a dyn WatchSink>,
    member: usize,
    model: &'static str,
    /// Race start — the zero point of every frame's `elapsed_us`.
    t0: Instant,
    /// Best value already announced (models re-report their best every
    /// chunk; the stream keeps strict improvements only).
    last_best: f64,
    /// Phase-time accumulator, when the race is profiled.
    phases: Option<&'a PhaseAcc>,
}

impl MemberObs<'_> {
    fn emit(&self, payload: Payload) {
        if let Some(sink) = self.frames {
            sink.emit(&Frame {
                member: self.member,
                model: self.model,
                payload,
            });
        }
    }
}

impl<G> Observer<G> for MemberObs<'_> {
    /// Reports a candidate cost into the shared cell and, on an
    /// observed race, emits a `best` frame. Models re-report their
    /// current best at every cooperative chunk boundary, so the stream
    /// keeps only *strict* improvements (plus the member's very first
    /// report, its starting best).
    fn on_best(&mut self, best: &Individual<G>) {
        let cost = best.cost;
        self.best.report(cost);
        if self.frames.is_some() && cost < self.last_best {
            self.last_best = cost;
            self.emit(Payload::Best {
                value: cost,
                elapsed_us: self.t0.elapsed().as_micros() as u64,
            });
        }
    }

    fn on_sample(&mut self, s: GenerationSample) {
        self.emit(Payload::Sample(s));
    }

    fn wants_samples(&self) -> bool {
        self.frames.is_some()
    }

    fn wants_phases(&self) -> bool {
        self.phases.is_some()
    }

    fn on_phase(&self, phase: GaPhase, d: Duration) {
        if let Some(acc) = self.phases {
            acc.add(phase, d);
        }
    }
}

/// What one member run yields: its best, its telemetry, and whether
/// the deadline alone cut it short.
type MemberOut<G> = (Individual<G>, RunTelemetry, bool);

/// Progress accounting for the members handed to the pool.
struct Progress {
    /// Submitted, not yet picked up (or skipped).
    queued: usize,
    /// Picked up and currently racing.
    running: usize,
}

/// Everything a race shares between the submitting thread and its
/// pooled member tasks. `Arc`-owned by each task, so the submitter can
/// return at the deadline without waiting for queued stragglers — they
/// complete (as skips) against this state later and free their slots.
struct RaceState<G, R> {
    /// Runs one lineup member under its derived seed (a call of
    /// [`run_member`] with the race's factories).
    run: R,
    seed: u64,
    stop: StopRule,
    best: BestSoFar,
    results: Mutex<Vec<Option<MemberOut<G>>>>,
    progress: Mutex<Progress>,
    done: Condvar,
    /// Max pool-queue wait over this race's members, in µs.
    pool_wait_us: AtomicU64,
    /// Summed member run wall-clock, in ns (always recorded).
    run_ns: AtomicU64,
    /// Race start — the zero point of every frame's `elapsed_us`.
    t0: Instant,
    /// Frame output of every member (observed races only).
    frames: Option<Arc<dyn WatchSink>>,
    /// Phase-time accumulator (profiled races).
    phases: Option<Arc<PhaseAcc>>,
}

impl<G, R> RaceState<G, R>
where
    R: Fn(ModelKind, u64, &StopRule, &mut MemberObs<'_>) -> MemberOut<G>,
{
    /// Runs lineup member `i` on the calling thread and files its
    /// result. Its `start` and `finish` frames bracket the run; each
    /// costs one clock read, shared with `run_ns`.
    fn race_member(&self, i: usize, member: ModelKind) {
        let mut obs = MemberObs {
            best: &self.best,
            frames: self.frames.as_deref(),
            member: i,
            model: member.name(),
            t0: self.t0,
            last_best: f64::INFINITY,
            phases: self.phases.as_deref(),
        };
        let start = self.t0.elapsed();
        obs.emit(Payload::Start {
            elapsed_us: start.as_micros() as u64,
        });
        let seed = split_seed(self.seed, i as u64);
        let out = (self.run)(member, seed, &self.stop, &mut obs);
        let end = self.t0.elapsed();
        let run_ns = end.saturating_sub(start).as_nanos() as u64;
        self.run_ns.fetch_add(run_ns, Ordering::Relaxed);
        obs.emit(Payload::Finish {
            elapsed_us: end.as_micros() as u64,
            best: out.0.cost,
        });
        self.results.lock().expect("results poisoned")[i] = Some(out);
    }
}

impl<G, R> RaceState<G, R> {
    fn begin_run(&self) {
        let mut p = self.progress.lock().expect("race progress poisoned");
        p.queued -= 1;
        p.running += 1;
    }

    fn finish_run(&self) {
        let mut p = self.progress.lock().expect("race progress poisoned");
        p.running -= 1;
        drop(p);
        self.done.notify_all();
    }

    fn skip_one(&self) {
        let mut p = self.progress.lock().expect("race progress poisoned");
        p.queued -= 1;
        drop(p);
        self.done.notify_all();
    }

    /// Blocks until every pooled member finished, or the race is over
    /// early (target certified with nothing left running), or the
    /// deadline passed with nothing left running. Cancels the race's
    /// queued tasks on every early exit so they free their pool slots
    /// in O(1) when popped.
    fn wait_for_members(&self, cancel: &CancelToken) {
        let StopRule {
            deadline, target, ..
        } = self.stop;
        let mut p = self.progress.lock().expect("race progress poisoned");
        loop {
            if p.queued == 0 && p.running == 0 {
                return;
            }
            // Only queued members remain and the target is already
            // certified: running them could not improve the answer.
            if p.running == 0 && self.best.get() <= target {
                cancel.cancel();
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                cancel.cancel();
                if p.running == 0 {
                    // Queued stragglers will be skipped at pop; their
                    // slots are not worth waiting for.
                    return;
                }
                // Running members notice the deadline within one
                // cooperative chunk; collect their telemetry.
                let (guard, _) = self
                    .done
                    .wait_timeout(p, Duration::from_millis(50))
                    .expect("race progress poisoned");
                p = guard;
            } else {
                let (guard, _) = self
                    .done
                    .wait_timeout(p, deadline - now)
                    .expect("race progress poisoned");
                p = guard;
            }
        }
    }
}

/// Races `lineup` on the given racer pool under `stop`. Member 0 (the
/// predicted-cheapest) runs inline on the calling thread; the rest are
/// submitted as cancellable pool tasks. Each member that runs builds
/// its toolkit from `toolkit_factory` and its own decoder from
/// `decoder_factory`, and costs every genome as `cost(&mut decoder,
/// genome)`. Decodes are counted into
/// `RunTelemetry::decode_calls` and, when `hooks.phases` is set, timed.
///
/// Each member runs with derived seed `split_seed(seed, index)` until
/// the first of deadline / `gen_cap` generations / `target` cost fires,
/// reporting every improvement into a [`BestSoFar`] cell — which the
/// other racers poll between generation chunks, so the whole race ends
/// (not just the proving racer) as soon as anyone certifies the target.
/// Returns the global best individual, the winning member and
/// per-member telemetry. The racers' own trajectories are
/// seed-deterministic; only *when* a rival's target-hit cuts a racer
/// short can depend on timing, so the winner label (and, when several
/// genomes attain the target cost, the returned genome) is only
/// guaranteed reproducible for races where every member runs to
/// `gen_cap`. The service's cache pins whichever solution completed
/// first.
///
/// Every member emits one frame stream: to the watch sink, or through a
/// trace recorder (forwarding to the watch sink, if any) whose
/// recordings become `RaceResult::timelines` when traced. None of the
/// hooks changes any member's search trajectory.
///
/// ```
/// use serve::portfolio::{race, ModelKind, SolveHooks, StopRule};
/// use serve::scheduler::RacerPool;
/// use ga::engine::Toolkit;
/// use ga::crossover::PermCrossover;
/// use ga::mutate::SeqMutation;
/// use std::time::{Duration, Instant};
///
/// // Minimise total displacement of a permutation (optimum: identity).
/// // The decoder is a per-member scratch buffer of absolute offsets.
/// let cost = |offsets: &mut Vec<f64>, p: &Vec<usize>| {
///     offsets.clear();
///     offsets.extend(p.iter().enumerate().map(|(i, &v)| (i as f64 - v as f64).abs()));
///     offsets.iter().sum::<f64>()
/// };
/// let toolkit = || Toolkit::permutation(6, PermCrossover::Order, SeqMutation::Swap);
/// let pool = RacerPool::new(2);
/// let stop = StopRule {
///     deadline: Instant::now() + Duration::from_secs(10),
///     gen_cap: 300,
///     target: 0.0, // certified optimum
/// };
/// let outcome = race(
///     &pool,
///     &[ModelKind::MasterSlave { pop: 16 }],
///     toolkit,
///     Vec::new, // one decoder per member
///     cost,
///     7, // seed
///     stop,
///     SolveHooks::default(),
/// );
/// assert_eq!(outcome.best.cost, 0.0);
/// assert_eq!(outcome.best.genome, (0..6).collect::<Vec<usize>>());
/// let (_, telemetry) = &outcome.models[0];
/// assert_eq!(telemetry.decode_calls, telemetry.evaluations);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn race<G, D, TF, DF, C>(
    pool: &RacerPool,
    lineup: &[ModelKind],
    toolkit_factory: TF,
    decoder_factory: DF,
    cost: C,
    seed: u64,
    stop: StopRule,
    hooks: SolveHooks,
) -> RaceResult<G>
where
    G: Clone + Send + Sync + 'static,
    D: Send + 'static,
    TF: Fn() -> Toolkit<G> + Send + Sync + 'static,
    DF: Fn() -> D + Send + Sync + 'static,
    C: Fn(&mut D, &G) -> f64 + Send + Sync + 'static,
{
    assert!(!lineup.is_empty(), "portfolio needs at least one member");
    let members = lineup.len();
    let recorder = hooks
        .traced
        .then(|| Arc::new(TraceRecorder::new(members, hooks.watch.clone())));
    let run = move |member: ModelKind, seed: u64, stop: &StopRule, obs: &mut MemberObs<'_>| {
        run_member(
            member,
            seed,
            &toolkit_factory,
            &decoder_factory,
            &cost,
            stop,
            obs,
        )
    };
    let state = Arc::new(RaceState {
        run,
        seed,
        stop,
        best: BestSoFar::default(),
        results: Mutex::new((0..members).map(|_| None).collect()),
        progress: Mutex::new(Progress {
            queued: members - 1,
            running: 0,
        }),
        done: Condvar::new(),
        pool_wait_us: AtomicU64::new(0),
        run_ns: AtomicU64::new(0),
        t0: Instant::now(),
        frames: recorder
            .clone()
            .map(|r| r as Arc<dyn WatchSink>)
            .or(hooks.watch),
        phases: hooks.phases,
    });
    let cancel = Arc::new(CancelToken::default());

    for (i, member) in lineup.iter().enumerate().skip(1) {
        let state = Arc::clone(&state);
        let member = *member;
        pool.submit(
            stop.deadline,
            Arc::clone(&cancel),
            Box::new(move |run: TaskRun| {
                // Record the queue wait for skipped members too: a
                // member cancelled while queued is precisely the one
                // that waited longest, and pool_wait is the documented
                // saturation gauge — it must not read zero at peak
                // contention.
                state
                    .pool_wait_us
                    .fetch_max(run.queue_wait.as_micros() as u64, Ordering::Relaxed);
                if run.skipped {
                    state.skip_one();
                    return;
                }
                state.begin_run();
                // Drop guard: even a panicking member must not leave
                // the race waiting on `running` forever.
                struct FinishGuard<'a, G, R>(&'a RaceState<G, R>);
                impl<G, R> Drop for FinishGuard<'_, G, R> {
                    fn drop(&mut self) {
                        self.0.finish_run();
                    }
                }
                let _guard = FinishGuard(&*state);
                state.race_member(i, member);
            }),
        );
    }

    // The predicted-cheapest member races inline on this thread: even a
    // fully saturated pool cannot starve a race of progress, and total
    // racing threads stay bounded by pool size + serving workers.
    state.race_member(0, lineup[0]);
    state.wait_for_members(&cancel);
    // Idempotent; covers the all-members-finished path too, where any
    // re-submitted key's stale queue entries no longer exist.
    cancel.cancel();

    let collected: Vec<Option<MemberOut<G>>> = {
        let mut slots = state.results.lock().expect("results poisoned");
        slots.iter_mut().map(Option::take).collect()
    };
    // A filled slot means that member's `finish` frame is recorded; a
    // straggler still winding down is left out.
    let timelines: Vec<MemberTrace> =
        recorder.map_or_else(Vec::new, |r| r.traces(|i| collected[i].is_some()));
    let mut models = Vec::with_capacity(lineup.len());
    let mut winner: Option<(usize, Individual<G>)> = None;
    let mut any_timed_out = false;
    let mut missing = 0usize;
    for (i, slot) in collected.into_iter().enumerate() {
        let Some((best, telemetry, timed_out)) = slot else {
            // Cancelled before getting a pool slot: with more capacity
            // (or wall-clock) this member would have raced.
            missing += 1;
            continue;
        };
        models.push((lineup[i].name().to_string(), telemetry));
        any_timed_out |= timed_out;
        let better = match &winner {
            None => true,
            // Strict improvement only: ties go to the earliest lineup
            // member, which pins the winner when racer results are
            // reproducible (cap-bound races); after a timing-dependent
            // early exit it merely makes the pick a pure function of
            // the collected results.
            Some((_, cur)) => best.cost < cur.cost,
        };
        if better {
            winner = Some((i, best));
        }
    }
    let (idx, best) = winner.expect("the inline member always completes");
    debug_assert!(best.cost >= state.best.get());
    // A certified target is a proof of optimality, so extra wall-clock
    // could not improve on it even if some rival was cut off mid-search
    // or never started.
    let deadline_bound = (any_timed_out || missing > 0) && best.cost > stop.target;
    RaceResult {
        best,
        winner: lineup[idx].name().to_string(),
        models,
        deadline_bound,
        pool_wait: Duration::from_micros(state.pool_wait_us.load(Ordering::Relaxed)),
        timelines,
        run_ns: state.run_ns.load(Ordering::Relaxed),
    }
}

/// Generations per chunk between cooperative checks of the shared
/// best-so-far cell — small enough that a racer notices within
/// milliseconds when a rival has already proven the target.
const COOP_CHUNK: u64 = 10;

/// Runs one model in [`COOP_CHUNK`]-generation chunks until the stop
/// rule fires *or* the shared cell shows some racer already reached the
/// target — without this the race would always last as long as its
/// slowest member even after the optimum is certified. `run` advances
/// the model until the given criterion fires and returns the model's
/// best individual plus its current generation. The returned flag is
/// true when the deadline alone ended this racer — with more wall-clock
/// it would have kept searching.
fn run_chunked<G>(
    stop: &StopRule,
    shared: &BestSoFar,
    run: &mut dyn FnMut(&Termination) -> (Individual<G>, u64),
) -> (Individual<G>, bool) {
    let mut generation = 0;
    loop {
        let next = (generation + COOP_CHUNK).min(stop.gen_cap);
        let chunk = Termination::Any(vec![
            Termination::Generations(next),
            Termination::TargetCost(stop.target),
            Termination::Deadline(stop.deadline),
        ]);
        let (best, gen) = run(&chunk);
        generation = gen;
        let capped = generation >= stop.gen_cap;
        let on_target = best.cost <= stop.target || shared.get() <= stop.target;
        let timed_out = Instant::now() >= stop.deadline;
        if capped || on_target || timed_out {
            return (best, timed_out && !capped && !on_target);
        }
    }
}

/// Runs one portfolio member to completion under the stop rule: the
/// unit of work a racer-pool task executes, and the one place a race
/// member's evaluator is built. The member owns one decoder from
/// `decoder_factory`, behind a mutex that is uncontended (the evaluator
/// bound is `Fn + Sync`, and nothing else sees it). The mutex also
/// holds the member's decode count and, when profiled, its summed
/// decode nanoseconds, so a decode touches no cache line the other
/// racers share; both reach the race once, when the member returns.
fn run_member<G, D>(
    member: ModelKind,
    seed: u64,
    toolkit_factory: &(impl Fn() -> Toolkit<G> + Sync),
    decoder_factory: &impl Fn() -> D,
    cost: &(impl Fn(&mut D, &G) -> f64 + Sync),
    stop: &StopRule,
    obs: &mut MemberObs,
) -> MemberOut<G>
where
    G: Clone + Send + Sync,
    D: Send,
{
    struct Decodes<D> {
        decoder: D,
        calls: u64,
        ns: u64,
    }
    let profiled = obs.phases.is_some();
    let decodes = Mutex::new(Decodes {
        decoder: decoder_factory(),
        calls: 0,
        ns: 0,
    });
    let evaluator = |g: &G| {
        let mut d = decodes.lock().expect("member decoder poisoned");
        d.calls += 1;
        let t0 = profiled.then(Instant::now);
        let v = cost(&mut d.decoder, g);
        if let Some(t0) = t0 {
            d.ns += t0.elapsed().as_nanos() as u64;
        }
        v
    };
    let mut model: Box<dyn Instrumented<G> + '_> = match member {
        ModelKind::MasterSlave { pop } => {
            let cfg = GaConfig {
                pop_size: pop,
                seed,
                ..GaConfig::default()
            };
            Box::new(Engine::new(cfg, toolkit_factory(), &evaluator))
        }
        ModelKind::Island {
            islands,
            island_pop,
        } => {
            let cfg = GaConfig {
                pop_size: island_pop,
                seed,
                ..GaConfig::default()
            };
            Box::new(IslandGa::homogeneous(
                cfg,
                islands,
                &|_| toolkit_factory(),
                &evaluator,
                IslandConfig::new(MigrationConfig::ring(5, 2)),
            ))
        }
        ModelKind::Cellular { rows, cols } => {
            let cfg = CellularConfig::new(rows, cols, seed);
            Box::new(CellularGa::new(cfg, toolkit_factory(), &evaluator))
        }
    };
    // Construction decoded the initial population outside every
    // model's `Evaluate` phase; count it there, so the race's decode
    // time stays within its evaluate time.
    if let Some(acc) = obs.phases {
        let ns = decodes.lock().expect("member decoder poisoned").ns;
        acc.add(GaPhase::Evaluate, Duration::from_nanos(ns));
    }
    let shared = obs.best;
    let (best, timed_out) = run_chunked(stop, shared, &mut |t| {
        let best = ga::engine::run(&mut *model, t, obs);
        (best, model.status().generation)
    });
    let mut telemetry = model.telemetry();
    drop(model);
    let d = decodes.into_inner().expect("member decoder poisoned");
    if let Some(acc) = obs.phases {
        acc.add_decode(Duration::from_nanos(d.ns));
    }
    // Every decode is a full decode of one fixed-length genome.
    let len = toolkit_factory()
        .seq_view
        .map_or(0, |view| view(&best.genome).len());
    telemetry.decode_calls = d.calls;
    telemetry.retimed_positions = d.calls * len as u64;
    (best, telemetry, timed_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::crossover::PermCrossover;
    use ga::mutate::SeqMutation;
    use std::time::Duration;

    fn displacement(p: &[usize]) -> f64 {
        p.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 - v as f64).abs())
            .sum()
    }

    fn toolkit(n: usize) -> Toolkit<Vec<usize>> {
        Toolkit::permutation(n, PermCrossover::Order, SeqMutation::Swap)
    }

    /// Races `floor + displacement` over `n`-permutations toward target
    /// 0 through a counting decoder factory; returns the result and how
    /// many decoders the members built.
    fn race_perm(
        pool: &RacerPool,
        lineup: &[ModelKind],
        n: usize,
        floor: f64,
        seed: u64,
        deadline: Instant,
        gen_cap: u64,
    ) -> (RaceResult<Vec<usize>>, u64) {
        let built = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&built);
        let r = race(
            pool,
            lineup,
            move || toolkit(n),
            move || {
                counter.fetch_add(1, Ordering::Relaxed);
            },
            move |_: &mut (), g: &Vec<usize>| floor + displacement(g),
            seed,
            StopRule {
                deadline,
                gen_cap,
                target: 0.0,
            },
            SolveHooks::default(),
        );
        let built = built.load(Ordering::Relaxed);
        (r, built)
    }

    /// Gate for a pool-occupying blocker task; opens on drop so a
    /// failing assertion unwinds without deadlocking the pool join.
    type Gate = Arc<(Mutex<bool>, Condvar)>;

    struct OpenOnDrop(Gate);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            *self.0 .0.lock().unwrap() = true;
            self.0 .1.notify_all();
        }
    }

    /// Parks the pool's (single) racer thread behind the returned gate.
    fn occupy_pool(pool: &RacerPool) -> (Gate, OpenOnDrop) {
        let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            pool.submit(
                Instant::now() + Duration::from_secs(30),
                Arc::new(CancelToken::default()),
                Box::new(move |_| {
                    let mut open = gate.0.lock().unwrap();
                    while !*open {
                        open = gate.1.wait(open).unwrap();
                    }
                }),
            );
        }
        let waited = Instant::now();
        while pool.queue_depth() > 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.queue_depth(), 0, "blocker was not picked up");
        let guard = OpenOnDrop(Arc::clone(&gate));
        (gate, guard)
    }

    #[test]
    fn lineup_is_deterministic_and_bounded() {
        let a = plan_lineup(Family::Job, 36, 3);
        let b = plan_lineup(Family::Job, 36, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(plan_lineup(Family::Job, 36, 1).len(), 1);
        assert_eq!(plan_lineup(Family::Job, 36, 16).len(), 3);
        // All three models appear exactly once.
        let names: std::collections::HashSet<&str> = a.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn best_so_far_is_a_numeric_min() {
        let b = BestSoFar::default();
        assert_eq!(b.get(), f64::INFINITY);
        b.report(10.0);
        b.report(55.0);
        assert_eq!(b.get(), 10.0);
        b.report(0.5);
        assert_eq!(b.get(), 0.5);
    }

    #[test]
    fn race_finds_optimum_and_is_seed_deterministic() {
        let pool = RacerPool::new(2);
        let lineup = plan_lineup(Family::Job, 10, 3);
        let run = || {
            race_perm(
                &pool,
                &lineup,
                8,
                0.0,
                7,
                Instant::now() + Duration::from_secs(20),
                400,
            )
            .0
        };
        let a = run();
        let b = run();
        // Tiny instance and a generous budget: every run certifies cost
        // 0 well before the deadline, and the cost-0 genome (the
        // identity permutation) is unique, so cost and genome are
        // bit-identical across runs. The winner *label* is not asserted
        // equal: a target-certified race cuts rivals short at a
        // scheduling-dependent generation, so which member ends holding
        // the optimum is timing-dependent by design.
        assert_eq!(a.best.cost, 0.0);
        assert_eq!(a.best.genome, b.best.genome);
        assert!(
            !a.deadline_bound,
            "a certified target is never deadline-bound"
        );
        for r in [&a, &b] {
            assert!(
                lineup.iter().any(|m| m.name() == r.winner),
                "winner {:?} must be a lineup member",
                r.winner
            );
        }
        for (_, t) in &a.models {
            assert!(t.evaluations > 0);
        }
    }

    /// Each member that runs builds exactly one decoder, decodes once
    /// per evaluation, and times the whole genome each time.
    #[test]
    fn every_member_that_runs_builds_one_decoder() {
        let pool = RacerPool::new(2);
        let lineup = plan_lineup(Family::Job, 10, 3);
        let deadline = Instant::now() + Duration::from_secs(60);
        // Cap-bound: every member runs to generation 20.
        let (r, built) = race_perm(&pool, &lineup, 10, 1.0, 5, deadline, 20);
        assert_eq!(r.models.len(), lineup.len());
        assert_eq!(built, lineup.len() as u64);
        for (model, t) in &r.models {
            assert!(t.evaluations > 0, "{model}");
            assert_eq!(t.decode_calls, t.evaluations, "{model}");
            assert_eq!(t.retimed_positions, 10 * t.decode_calls, "{model}");
        }
    }

    #[test]
    fn run_chunked_stops_when_a_rival_reached_the_target() {
        // A rival already reported a cost at the target: the racer must
        // stop after its first chunk instead of grinding to gen_cap.
        let shared = BestSoFar::default();
        shared.report(5.0);
        let stop = StopRule {
            deadline: Instant::now() + Duration::from_secs(3600),
            gen_cap: 1_000_000,
            target: 5.0,
        };
        let mut chunks = 0u64;
        let mut generation = 0u64;
        let (best, timed_out) = run_chunked(&stop, &shared, &mut |t| {
            chunks += 1;
            // Simulate a model that advances COOP_CHUNK generations per
            // chunk without ever improving past cost 9.
            generation += COOP_CHUNK;
            assert!(matches!(t, Termination::Any(_)));
            (
                Individual {
                    genome: (),
                    cost: 9.0,
                },
                generation,
            )
        });
        assert_eq!(chunks, 1, "must notice the rival's report after one chunk");
        assert_eq!(best.cost, 9.0);
        assert!(!timed_out, "rival target-hit is not a deadline cut-off");
    }

    #[test]
    fn cap_bound_race_is_not_deadline_bound() {
        // Unreachable target, distant deadline, small cap: every racer
        // runs to gen_cap, so the outcome is budget-independent.
        let pool = RacerPool::new(1);
        let lineup = [ModelKind::MasterSlave { pop: 16 }];
        let deadline = Instant::now() + Duration::from_secs(3600);
        let (r, _) = race_perm(&pool, &lineup, 12, 1.0, 3, deadline, 30);
        assert!(!r.deadline_bound);
        assert!(r.best.cost >= 1.0);
    }

    #[test]
    fn race_respects_deadline_with_impossible_target() {
        let pool = RacerPool::new(1);
        let lineup = [ModelKind::MasterSlave { pop: 16 }];
        let started = Instant::now();
        let deadline = started + Duration::from_millis(120);
        let (r, _) = race_perm(&pool, &lineup, 30, 1.0, 1, deadline, u64::MAX);
        // Deadline is the only live criterion: the race must end near
        // it (generously bounded for slow CI) and still return a best.
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(r.best.cost >= 1.0);
        assert_eq!(r.winner, "master_slave");
        assert!(
            r.deadline_bound,
            "clock-cut race must report deadline_bound"
        );
    }

    /// A race whose pooled members never get a slot before the deadline
    /// still answers (from the inline member) and honestly reports
    /// itself deadline-bound; the stranded tasks free their pool slots
    /// as skips instead of racing after the fact.
    #[test]
    fn saturated_pool_races_degrade_to_the_inline_member() {
        let pool = RacerPool::new(1);
        // Occupy the only racer slot for the whole test.
        let (gate, _open_on_unwind) = occupy_pool(&pool);
        let lineup = plan_lineup(Family::Job, 10, 3);
        assert_eq!(lineup.len(), 3);
        let started = Instant::now();
        // Unreachable cap and target.
        let deadline = started + Duration::from_millis(150);
        let (r, built) = race_perm(&pool, &lineup, 10, 1.0, 9, deadline, u64::MAX);
        // The race ends near its deadline with only the inline member's
        // result, reported as deadline-bound.
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(r.models.len(), 1, "only the inline member completed");
        assert_eq!(built, 1, "skipped members build no decoder");
        assert!(r.deadline_bound);
        assert!(r.best.cost >= 1.0);
        // Release the blocker; the stranded tasks drain as skips.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let waited = Instant::now();
        while pool.queue_depth() > 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.queue_depth(), 0, "cancelled members freed the queue");
        let (_, _, skipped) = pool.stats();
        assert_eq!(skipped, 2, "both pooled members were skipped, not run");
    }

    /// Early target certification cancels members still waiting for a
    /// pool slot instead of letting them race pointlessly.
    #[test]
    fn certified_race_cancels_queued_members() {
        let pool = RacerPool::new(1);
        let (_gate, _open_on_unwind) = occupy_pool(&pool);
        // Tiny problem with target 0: the inline member certifies the
        // optimum almost immediately.
        let lineup = plan_lineup(Family::Job, 6, 2);
        let started = Instant::now();
        let deadline = started + Duration::from_secs(30);
        let (r, _) = race_perm(&pool, &lineup, 4, 0.0, 7, deadline, 100_000);
        assert_eq!(r.best.cost, 0.0);
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "certification must not wait out the 30 s deadline"
        );
        assert!(!r.deadline_bound, "certified races are budget-independent");
        // The gate guard opens on drop; the stranded member drains as
        // a skip once the blocker exits.
    }
}
