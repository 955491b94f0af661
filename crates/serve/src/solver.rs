//! Glue between the wire protocol and the GA stack: load an instance
//! (named classic, `gen-*` generated name, or inline text), build the
//! family's toolkit/decoder pair, race the portfolio on the service's
//! racer pool, and decode the winning genome into a validated schedule.
//!
//! The family-generic instance type is [`shop::gen::AnyInstance`];
//! this module only adds the protocol-level resolution
//! ([`load_instance`]) and the racing glue ([`solve`]). Each family arm
//! builds one `Arc`-shared flat operation table
//! ([`shop::decoder::table`]) per solve, the toolkit factory, and a
//! decoder factory that wraps the table in a member decoder (one
//! reusable scratch); [`crate::portfolio::race`] gives every member
//! that runs its own decoder, and counts and times its decodes. The
//! `Incremental*` decoder names are historical; they stay because the
//! perfbench harness calls them. The final winning genome is decoded
//! by the family's reference decoder and validated — the hot path
//! never gets to answer unchecked.

use crate::obs::trace::MemberTrace;
pub use crate::portfolio::SolveHooks;
use crate::portfolio::{plan_lineup, race, RaceResult, StopRule};
use crate::protocol::{InstanceSpec, Objective, Solution};
use crate::scheduler::RacerPool;
use ga::crossover::{PermCrossover, RepCrossover};
use ga::dual::DualGenome;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use pga::telemetry::RunTelemetry;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::decoder::table::{
    FlexTable, IncrementalFlex, IncrementalFlow, IncrementalJob, IncrementalOpenOrder, OpTable,
};
use shop::gen::AnyInstance;
use shop::schedule::Schedule;
use shop::{Problem, Time};
use std::sync::Arc;
use std::time::Instant;

/// The parsed problem instance a request resolves to. Kept as an alias
/// of [`shop::gen::AnyInstance`] — the family-generic operations
/// (hashing, validation, text round-trips) live in `shop::gen` so
/// every layer shares one definition.
pub type LoadedInstance = AnyInstance;

/// Error loading an instance from a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError(pub String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot load instance: {}", self.0)
    }
}

impl std::error::Error for LoadError {}

/// Resolves a request's instance spec. Named instances cover the
/// embedded classics of all four families plus canonical `gen-*`
/// generated names (`shop::gen::GenSpec::from_name`); inline text uses
/// the `shop::instance::parse` formats.
pub fn load_instance(spec: &InstanceSpec) -> Result<AnyInstance, LoadError> {
    match spec {
        InstanceSpec::Named(name) => match AnyInstance::resolve_named(name) {
            // A name in the gen-* grammar gets the generator's own
            // error on a bad parameter space ("jobs >= 1", dim caps)
            // instead of being misreported as an unknown name.
            Some(resolved) => resolved.map_err(|e| LoadError(e.to_string())),
            None => Err(LoadError(format!(
                "unknown named instance {name:?} (classics: ft06, ft10, ft20, la01, \
                 flow05, open_latin3, flex03; or a gen-<family>-<jobs>x<machines>-s<seed> name)"
            ))),
        },
        InstanceSpec::Inline { family, text } => {
            AnyInstance::parse(*family, text).map_err(|e| LoadError(e.to_string()))
        }
    }
}

/// Everything a solved request reports back.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The best validated-decodable solution of the race.
    pub solution: Solution,
    /// Per-member structural telemetry, in lineup order (members the
    /// pool cancelled before they started are absent).
    pub models: Vec<(String, RunTelemetry)>,
    /// True when the wall-clock budget cut the race short before
    /// `gen_cap` or a certified target — including members that never
    /// got a pool slot: a rerun with a larger budget could do better
    /// (see `portfolio::RaceResult::deadline_bound`). Drives the
    /// cache's replay-vs-re-race policy.
    pub deadline_bound: bool,
    /// Longest time any of the race's pooled members waited for a racer
    /// slot (see `portfolio::RaceResult::pool_wait`).
    pub pool_wait: std::time::Duration,
    /// Per-member anytime timelines (with retained convergence
    /// samples), recorded only by traced solves; empty otherwise.
    pub timelines: Vec<MemberTrace>,
    /// Summed wall-clock nanoseconds the race members actually ran
    /// (always recorded — see `portfolio::RaceResult::run_ns`).
    pub run_ns: u64,
    /// Operation count of the solved instance. With the summed member
    /// evaluations from `models`, this prices the observed cost per
    /// operation — `run_ns / (evaluations × total_ops)` — which the
    /// server compares against the calibrated `hpc::calibrate`
    /// constants for the drift gauge.
    pub total_ops: u64,
}

/// Races the portfolio on `inst` until `deadline` on `pool` and returns
/// the best schedule found, decoded and ready to validate. `threads`
/// bounds the number of racing models, `gen_cap` bounds each racer's
/// generations (the determinism anchor: when every racer hits its cap
/// before the deadline — which under the pool also requires every
/// member got a slot in time — the outcome is machine-independent).
pub fn solve(
    pool: &RacerPool,
    inst: &Arc<LoadedInstance>,
    objective: Objective,
    seed: u64,
    deadline: Instant,
    gen_cap: u64,
    threads: usize,
) -> SolveOutcome {
    let bare = SolveHooks::default();
    solve_hooked(
        pool, inst, objective, seed, deadline, gen_cap, threads, bare,
    )
}

/// [`solve`] with the full observation surface (see [`SolveHooks`]):
/// tracing, live watch streaming, and phase profiling, in any
/// combination. Every member decodes through its own table decoder
/// over the solve's one shared table; the race times those decodes
/// when profiled, and the models report the other phases through each
/// member's observer.
#[allow(clippy::too_many_arguments)]
pub fn solve_hooked(
    pool: &RacerPool,
    inst: &Arc<LoadedInstance>,
    objective: Objective,
    seed: u64,
    deadline: Instant,
    gen_cap: u64,
    threads: usize,
    hooks: SolveHooks,
) -> SolveOutcome {
    let lineup = plan_lineup(inst.family(), inst.total_ops(), threads);
    // Early-exit target: the makespan lower bound certifies optimality;
    // other objectives have no cheap bound, so they race to the cap.
    let target = match objective {
        Objective::Makespan => inst.makespan_lower_bound() as f64,
        Objective::TotalCompletion => 0.0,
    };
    let stop = StopRule {
        deadline,
        gen_cap,
        target,
    };
    // Each arm builds the solve's one flat operation table, shared by
    // every member's decoder, and materialises the winner through the
    // family's reference decoder: the answer cross-checks the hot path
    // (validated in finish's caller tests and the property suite).
    match &**inst {
        LoadedInstance::Flow(flow) => {
            let (n, table) = (flow.n_jobs(), Arc::new(OpTable::from_flow(flow)));
            let outcome = race(
                pool,
                &lineup,
                move || Toolkit::permutation(n, PermCrossover::Order, SeqMutation::Swap),
                move || IncrementalFlow::new(Arc::clone(&table)),
                cost(
                    objective,
                    |d: &mut IncrementalFlow, g: &Vec<usize>| d.decode(g),
                    |d, g| d.decode_completion_sum(g),
                ),
                seed,
                stop,
                hooks,
            );
            let schedule = FlowDecoder::new(flow).schedule(&outcome.best.genome);
            finish(inst, objective, schedule, outcome)
        }
        LoadedInstance::Job(job) => {
            let (ops_per_job, table) = (job.ops_per_job(), Arc::new(OpTable::from_job(job)));
            let outcome = race(
                pool,
                &lineup,
                move || {
                    Toolkit::repetition(
                        ops_per_job.clone(),
                        RepCrossover::JobOrder,
                        SeqMutation::Swap,
                    )
                },
                move || IncrementalJob::new(Arc::clone(&table)),
                cost(
                    objective,
                    |d: &mut IncrementalJob, g: &Vec<usize>| d.decode(g),
                    |d, g| d.decode_completion_sum(g),
                ),
                seed,
                stop,
                hooks,
            );
            let schedule = JobDecoder::new(job).semi_active(&outcome.best.genome);
            finish(inst, objective, schedule, outcome)
        }
        LoadedInstance::Open(open) => {
            let (n, m) = (open.n_jobs(), open.n_machines());
            let table = Arc::new(OpTable::from_open(open));
            let outcome = race(
                pool,
                &lineup,
                move || Toolkit::permutation(n * m, PermCrossover::Order, SeqMutation::Swap),
                move || IncrementalOpenOrder::new(Arc::clone(&table)),
                cost(
                    objective,
                    |d: &mut IncrementalOpenOrder, g: &Vec<usize>| d.decode(g),
                    |d, g| d.decode_completion_sum(g),
                ),
                seed,
                stop,
                hooks,
            );
            let order: Vec<(usize, usize)> = outcome
                .best
                .genome
                .iter()
                .map(|&v| (v / m, v % m))
                .collect();
            let schedule = OpenDecoder::new(open).by_op_order(&order);
            finish(inst, objective, schedule, outcome)
        }
        LoadedInstance::Flexible(flex) => {
            let (ops_per_job, max_choices) = (flex.ops_per_job(), flex.max_choices());
            let table = Arc::new(FlexTable::from_flexible(flex));
            let outcome = race(
                pool,
                &lineup,
                move || Toolkit::dual(ops_per_job.clone(), max_choices),
                move || IncrementalFlex::new(Arc::clone(&table)),
                cost(
                    objective,
                    |d: &mut IncrementalFlex, g: &DualGenome| d.decode(&g.assign, &g.seq),
                    |d, g| d.decode_completion_sum(&g.assign, &g.seq),
                ),
                seed,
                stop,
                hooks,
            );
            let best = &outcome.best.genome;
            let schedule = FlexDecoder::new(flex).decode(&best.assign, &best.seq);
            finish(inst, objective, schedule, outcome)
        }
    }
}

/// A member's cost function for `objective`: the decoder kernel that
/// computes it, chosen once per solve.
fn cost<D, G>(
    objective: Objective,
    makespan: fn(&mut D, &G) -> Time,
    completion_sum: fn(&mut D, &G) -> Time,
) -> impl Fn(&mut D, &G) -> f64 {
    let kernel = match objective {
        Objective::Makespan => makespan,
        Objective::TotalCompletion => completion_sum,
    };
    move |decoder, genome| kernel(decoder, genome) as f64
}

fn finish<G>(
    inst: &LoadedInstance,
    objective: Objective,
    schedule: Schedule,
    outcome: RaceResult<G>,
) -> SolveOutcome {
    let value = objective.value(inst.problem(), &schedule);
    SolveOutcome {
        solution: Solution {
            objective,
            value,
            makespan: schedule.makespan(),
            model: outcome.winner,
            schedule: schedule.ops,
        },
        models: outcome.models,
        deadline_bound: outcome.deadline_bound,
        pool_wait: outcome.pool_wait,
        timelines: outcome.timelines,
        run_ns: outcome.run_ns,
        total_ops: inst.total_ops() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Family;
    use std::time::Duration;

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    #[test]
    fn loads_named_and_inline_instances() {
        let ft = load_instance(&InstanceSpec::Named("ft06".into())).unwrap();
        assert_eq!(ft.family(), Family::Job);
        assert_eq!(ft.total_ops(), 36);
        let inline = load_instance(&InstanceSpec::Inline {
            family: Family::Flow,
            text: "2 2\n3 4\n5 1\n".into(),
        })
        .unwrap();
        assert_eq!(inline.family(), Family::Flow);
        assert!(load_instance(&InstanceSpec::Named("nope".into())).is_err());
        assert!(load_instance(&InstanceSpec::Inline {
            family: Family::Job,
            text: "bogus".into(),
        })
        .is_err());
    }

    #[test]
    fn named_and_inline_ft06_share_a_cache_hash() {
        let named = load_instance(&InstanceSpec::Named("ft06".into())).unwrap();
        let LoadedInstance::Job(inst) = &named else {
            panic!("ft06 is a job shop");
        };
        let inline = load_instance(&InstanceSpec::Inline {
            family: Family::Job,
            text: format!("{inst}"),
        })
        .unwrap();
        assert_eq!(named.canonical_hash(), inline.canonical_hash());
    }

    #[test]
    fn solves_every_family_feasibly() {
        let pool = RacerPool::new(2);
        for (spec, cap) in [
            (InstanceSpec::Named("flow05".into()), 60),
            (InstanceSpec::Named("ft06".into()), 60),
            (InstanceSpec::Named("open_latin3".into()), 60),
            (InstanceSpec::Named("flex03".into()), 60),
        ] {
            let inst = Arc::new(load_instance(&spec).unwrap());
            let out = solve(&pool, &inst, Objective::Makespan, 1, deadline(), cap, 2);
            let schedule = Schedule::new(out.solution.schedule.clone());
            assert!(
                inst.validate(&schedule).is_ok(),
                "{spec:?} produced an infeasible schedule"
            );
            assert_eq!(out.solution.makespan, schedule.makespan());
            assert!(!out.models.is_empty());
        }
    }

    /// Every evaluation is one full decode of the whole genome, in the
    /// four solve families and in a session re-solve: the request
    /// telemetry's decode count and perfbench's `retimed_share` of 1.0
    /// both rest on this.
    #[test]
    fn every_evaluation_is_one_full_decode() {
        use crate::session::{handle_event, SessionState};
        use shop::dynamic::{apply_event, frozen_prefix, Event};
        let pool = RacerPool::new(2);
        let mut cases = Vec::new();
        for name in ["flow05", "ft06", "open_latin3", "flex03"] {
            let inst = Arc::new(load_instance(&InstanceSpec::Named(name.into())).unwrap());
            let genome_len = match &*inst {
                LoadedInstance::Flow(flow) => flow.n_jobs(),
                other => other.total_ops(),
            };
            let out = solve(&pool, &inst, Objective::Makespan, 5, deadline(), 30, 3);
            cases.push((name, out.models, genome_len));
        }
        // A cap-bound re-solve after a breakdown on ft06: its genome is
        // the unstarted suffix.
        let inst = shop::instance::classic::ft06().instance;
        let any = Arc::new(LoadedInstance::Job(inst.clone()));
        let opened = solve(&pool, &any, Objective::Makespan, 5, deadline(), 30, 3);
        let mk = opened.solution.makespan;
        let event = Event::Breakdown {
            machine: 2,
            from: mk / 4,
            duration: mk / 3,
        };
        let incumbent = Schedule::new(opened.solution.schedule.clone());
        let (_, _, repaired) = apply_event(&inst, &incumbent, &[], &event).unwrap();
        let suffix_len = frozen_prefix(&repaired, event.at()).1.len();
        let mut state = SessionState {
            inst,
            objective: Objective::Makespan,
            seed: 5,
            windows: Vec::new(),
            now: 0,
            incumbent: Arc::new(opened.solution),
            deadline_bound: false,
            events: 0,
            ttl_ms: 0,
            journal: Vec::new(),
        };
        let out = handle_event(&pool, &mut state, &event, deadline(), 30, 3, false).unwrap();
        cases.push(("ft06 session", out.resolve_models, suffix_len));

        for (name, models, genome_len) in cases {
            assert!(!models.is_empty(), "{name}: no members ran");
            for (model, t) in &models {
                assert!(t.evaluations > 0, "{name}/{model}: no evaluations");
                assert_eq!(t.decode_calls, t.evaluations, "{name}/{model}");
                assert_eq!(
                    t.retimed_positions,
                    t.decode_calls * genome_len as u64,
                    "{name}/{model}"
                );
            }
        }
    }

    #[test]
    fn total_completion_objective_is_consistent() {
        let pool = RacerPool::new(1);
        let inst = Arc::new(load_instance(&InstanceSpec::Named("flow05".into())).unwrap());
        let out = solve(
            &pool,
            &inst,
            Objective::TotalCompletion,
            3,
            deadline(),
            40,
            1,
        );
        let schedule = Schedule::new(out.solution.schedule.clone());
        let LoadedInstance::Flow(flow) = &*inst else {
            panic!("flow05 is a flow shop");
        };
        let sum: u64 = schedule.completion_times(flow.n_jobs()).iter().sum();
        assert_eq!(out.solution.value, sum as f64);
        assert!(inst.validate(&schedule).is_ok());
    }

    /// FNV-1a over every field of every scheduled operation.
    fn schedule_hash(ops: &[shop::schedule::ScheduledOp]) -> u64 {
        let mut h = shop::instance::hash::Fnv1a::default();
        for o in ops {
            for v in [o.job, o.op, o.machine] {
                h.write_u64(v as u64);
            }
            h.write_u64(o.start);
            h.write_u64(o.end);
        }
        h.finish()
    }

    /// A cap-bound solve is a pure function of (instance, objective,
    /// seed, cap): every family answers its pinned value, twice. The
    /// winner label and the schedule are pinned only where the target
    /// is never certified (every racer runs to the cap, as on ft06,
    /// whose makespan lower bound sits below the optimum, and under
    /// total completion, whose target is 0). A certified race cuts its
    /// rivals short at a timing-dependent generation, so `None` there.
    #[test]
    fn solve_is_deterministic_when_caps_bind() {
        use Objective::{Makespan, TotalCompletion};
        let pool = RacerPool::new(3);
        let goldens = [
            (
                "flow05",
                Makespan,
                46.0,
                Some(("cellular", 8202653481939093861)),
            ),
            (
                "flow05",
                TotalCompletion,
                153.0,
                Some(("cellular", 11613451717241188761)),
            ),
            (
                "ft06",
                Makespan,
                55.0,
                Some(("cellular", 8680174348891320210)),
            ),
            (
                "ft06",
                TotalCompletion,
                280.0,
                Some(("island", 12714476144529347776)),
            ),
            // Certified: 6 is open_latin3's makespan lower bound.
            ("open_latin3", Makespan, 6.0, None),
            (
                "open_latin3",
                TotalCompletion,
                18.0,
                Some(("cellular", 1248479420612381056)),
            ),
            (
                "flex03",
                Makespan,
                7.0,
                Some(("master_slave", 7047738052505233059)),
            ),
            (
                "flex03",
                TotalCompletion,
                19.0,
                Some(("master_slave", 7047738052505233059)),
            ),
        ];
        for (name, objective, value, pinned) in goldens {
            let inst = Arc::new(load_instance(&InstanceSpec::Named(name.into())).unwrap());
            let run = || solve(&pool, &inst, objective, 42, deadline(), 150, 3);
            for out in [run(), run()] {
                let row = format!("{name}/{objective:?}");
                assert_eq!(out.solution.value, value, "{row}");
                assert!(
                    !out.deadline_bound,
                    "{row}: cap-bound solve is budget-independent"
                );
                if let Some((winner, hash)) = pinned {
                    assert_eq!(out.solution.model, winner, "{row}");
                    assert_eq!(schedule_hash(&out.solution.schedule), hash, "{row}");
                }
            }
        }
    }

    /// Watching alone records no trace: the frames reach the sink and
    /// nothing else keeps them.
    #[test]
    fn watched_untraced_solve_returns_no_timelines() {
        use crate::obs::trace::{Frame, WatchSink};
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Default)]
        struct Count(AtomicU64);
        impl WatchSink for Count {
            fn emit(&self, _: &Frame) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let pool = RacerPool::new(2);
        let inst = Arc::new(load_instance(&InstanceSpec::Named("ft06".into())).unwrap());
        let sink = Arc::new(Count::default());
        let out = solve_hooked(
            &pool,
            &inst,
            Objective::Makespan,
            5,
            deadline(),
            30,
            2,
            SolveHooks {
                traced: false,
                watch: Some(Arc::clone(&sink) as Arc<dyn WatchSink>),
                phases: None,
            },
        );
        assert!(sink.0.load(Ordering::Relaxed) > 0, "frames were emitted");
        assert!(out.timelines.is_empty());
    }

    /// Each member adds its summed decode time once, after its run. Every
    /// decode but the initial population's runs inside a model's timed
    /// evaluation batch, and ft06's target is never certified, so all
    /// three members run their 40 generations and the race's decode
    /// total stays within its evaluate total.
    #[test]
    fn profiled_solve_reports_decode_within_evaluate() {
        use crate::obs::phase::PhaseAcc;
        let pool = RacerPool::new(2);
        let inst = Arc::new(load_instance(&InstanceSpec::Named("ft06".into())).unwrap());
        let phases = Arc::new(PhaseAcc::new());
        solve_hooked(
            &pool,
            &inst,
            Objective::Makespan,
            7,
            deadline(),
            40,
            3,
            SolveHooks {
                traced: false,
                watch: None,
                phases: Some(Arc::clone(&phases)),
            },
        );
        let [_, _, evaluate, _, decode] = phases.snapshot_ns();
        eprintln!("RATIO {}", decode as f64 / evaluate as f64);
        assert!(decode > 0, "no decode time recorded");
        assert!(
            decode <= evaluate,
            "decode {decode} ns > evaluate {evaluate} ns"
        );
    }

    #[test]
    fn clock_cut_solve_reports_deadline_bound() {
        let pool = RacerPool::new(2);
        let inst = Arc::new(load_instance(&InstanceSpec::Named("ft06".into())).unwrap());
        // Uncapped generations, unreachable target, tiny deadline: the
        // clock is the only stopping criterion that can fire.
        let out = solve(
            &pool,
            &inst,
            Objective::Makespan,
            42,
            Instant::now() + Duration::from_millis(50),
            u64::MAX,
            2,
        );
        assert!(out.deadline_bound);
    }
}
