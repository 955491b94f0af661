//! Glue between the wire protocol and the GA stack: load an instance
//! (named classic, `gen-*` generated name, or inline text), build the
//! family's toolkit/decoder pair, race the portfolio on the service's
//! racer pool, and decode the winning genome into a validated schedule.
//!
//! The family-generic instance type is [`shop::gen::AnyInstance`];
//! this module only adds the protocol-level resolution
//! ([`load_instance`]) and the racing glue ([`solve`]). Because races
//! run as tasks on a persistent pool (see [`crate::scheduler`]), all
//! race members share one `Arc`-cached flat operation table
//! ([`shop::decoder::table`]) built once per solve; each member run
//! wraps it in its own member decoder (one reusable scratch plus
//! decode counters) and decodes every genome in full. The final
//! winning genome is decoded by the family's reference decoder and
//! validated — the hot path never gets to answer unchecked.

use crate::obs::trace::MemberTrace;
pub use crate::portfolio::SolveHooks;
use crate::portfolio::{plan_lineup, race_core, run_member, MemberObs, MemberRunner, ModelKind};
use crate::portfolio::{RaceResult, StopRule};
use crate::protocol::{InstanceSpec, Objective, Solution};
use crate::scheduler::RacerPool;
use ga::crossover::{PermCrossover, RepCrossover};
use ga::dual::DualGenome;
use ga::engine::{Individual, Toolkit};
use ga::mutate::SeqMutation;
use pga::telemetry::RunTelemetry;
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::decoder::open::OpenDecoder;
use shop::decoder::table::{
    DecodeCounters, FlexTable, IncrementalFlex, IncrementalFlow, IncrementalJob,
    IncrementalOpenOrder, OpTable,
};
use shop::gen::AnyInstance;
use shop::schedule::Schedule;
use shop::Problem;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// Runs one member over its own table decoder `inc` (the shared
/// tail of the per-family [`MemberRunner`] closures below, each of
/// which owns an `Arc` of the instance so the racer-pool task is
/// `'static`). `decode` costs one genome; when the race is profiled,
/// every call is timed, summed in the member's own evaluator state and
/// added to the race's `decode` phase once, when the member returns.
/// The decoder's work counters are folded into the member's telemetry.
fn run_decoding<G, D, TF>(
    member: ModelKind,
    member_seed: u64,
    stop: &StopRule,
    obs: &mut MemberObs,
    toolkit_factory: TF,
    inc: D,
    decode: impl Fn(&mut D, &G) -> f64 + Sync,
    counters: impl Fn(&D) -> DecodeCounters,
) -> (Individual<G>, RunTelemetry, bool)
where
    G: Clone + Send + Sync,
    D: Send,
    TF: Fn() -> Toolkit<G> + Sync,
{
    // The mutex satisfies the `Fn + Sync` evaluator bound and is
    // uncontended: one evaluator per member run. It also holds the
    // member's summed decode nanoseconds, so a profiled decode touches
    // no cache line the other racers share.
    let state = Mutex::new((inc, 0u64));
    let profiled = obs.phases.is_some();
    let eval = |g: &G| {
        let mut state = state.lock().expect("member decoder poisoned");
        let (inc, decode_ns) = &mut *state;
        let t0 = profiled.then(Instant::now);
        let v = decode(inc, g);
        if let Some(t0) = t0 {
            *decode_ns += t0.elapsed().as_nanos() as u64;
        }
        v
    };
    let (best, mut tel, hit) = run_member(member, member_seed, &toolkit_factory, &eval, stop, obs);
    let (inc, decode_ns) = state.into_inner().expect("member decoder poisoned");
    if let Some(acc) = obs.phases {
        acc.add_decode(Duration::from_nanos(decode_ns));
    }
    let c = counters(&inc);
    tel.decode_calls = c.decodes;
    tel.retimed_positions = c.retimed_positions;
    (best, tel, hit)
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
/// combination. The decode leg of the profile is timed here, around
/// the member table decoders; the other phases come from the models
/// through each member's observer.
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
    match &**inst {
        LoadedInstance::Flow(flow) => {
            let n_jobs = flow.n_jobs();
            // One flat operation table per solve, shared by every race
            // member; each member wraps it in its own decoder.
            let table = Arc::new(OpTable::from_flow(flow));
            let runner: Arc<MemberRunner<Vec<usize>>> =
                Arc::new(move |member, mseed, stop: &StopRule, obs: &mut MemberObs| {
                    run_decoding(
                        member,
                        mseed,
                        stop,
                        obs,
                        || Toolkit::permutation(n_jobs, PermCrossover::Order, SeqMutation::Swap),
                        IncrementalFlow::new(Arc::clone(&table)),
                        |inc, perm: &Vec<usize>| match objective {
                            Objective::Makespan => inc.decode(perm) as f64,
                            Objective::TotalCompletion => inc.decode_completion_sum(perm) as f64,
                        },
                        IncrementalFlow::counters,
                    )
                });
            let outcome = race_core(
                pool, &lineup, runner, seed, deadline, gen_cap, target, hooks,
            );
            // The final answer goes through the reference decoder — the
            // materialised schedule cross-checks the hot path (validated
            // in finish's caller tests and the property suite).
            let decoder = FlowDecoder::new(flow);
            finish(
                inst,
                objective,
                decoder.schedule(&outcome.best.genome),
                outcome,
            )
        }
        LoadedInstance::Job(job) => {
            let ops_per_job = job.ops_per_job();
            let table = Arc::new(OpTable::from_job(job));
            let runner: Arc<MemberRunner<Vec<usize>>> =
                Arc::new(move |member, mseed, stop: &StopRule, obs: &mut MemberObs| {
                    run_decoding(
                        member,
                        mseed,
                        stop,
                        obs,
                        || {
                            Toolkit::repetition(
                                ops_per_job.clone(),
                                RepCrossover::JobOrder,
                                SeqMutation::Swap,
                            )
                        },
                        IncrementalJob::new(Arc::clone(&table)),
                        |inc, seq: &Vec<usize>| match objective {
                            Objective::Makespan => inc.decode(seq) as f64,
                            Objective::TotalCompletion => inc.decode_completion_sum(seq) as f64,
                        },
                        IncrementalJob::counters,
                    )
                });
            let outcome = race_core(
                pool, &lineup, runner, seed, deadline, gen_cap, target, hooks,
            );
            let decoder = JobDecoder::new(job);
            finish(
                inst,
                objective,
                decoder.semi_active(&outcome.best.genome),
                outcome,
            )
        }
        LoadedInstance::Open(open) => {
            let (n, m) = (open.n_jobs(), open.n_machines());
            let table = Arc::new(OpTable::from_open(open));
            let runner: Arc<MemberRunner<Vec<usize>>> =
                Arc::new(move |member, mseed, stop: &StopRule, obs: &mut MemberObs| {
                    run_decoding(
                        member,
                        mseed,
                        stop,
                        obs,
                        || Toolkit::permutation(n * m, PermCrossover::Order, SeqMutation::Swap),
                        IncrementalOpenOrder::new(Arc::clone(&table)),
                        |inc, perm: &Vec<usize>| match objective {
                            Objective::Makespan => inc.decode(perm) as f64,
                            Objective::TotalCompletion => inc.decode_completion_sum(perm) as f64,
                        },
                        IncrementalOpenOrder::counters,
                    )
                });
            let outcome = race_core(
                pool, &lineup, runner, seed, deadline, gen_cap, target, hooks,
            );
            let decoder = OpenDecoder::new(open);
            let order: Vec<(usize, usize)> = outcome
                .best
                .genome
                .iter()
                .map(|&v| (v / m, v % m))
                .collect();
            let schedule = decoder.by_op_order(&order);
            finish(inst, objective, schedule, outcome)
        }
        LoadedInstance::Flexible(flex) => {
            let (ops_per_job, max_choices) = (flex.ops_per_job(), flex.max_choices());
            let table = Arc::new(FlexTable::from_flexible(flex));
            let runner: Arc<MemberRunner<DualGenome>> =
                Arc::new(move |member, mseed, stop: &StopRule, obs: &mut MemberObs| {
                    run_decoding(
                        member,
                        mseed,
                        stop,
                        obs,
                        || Toolkit::dual(ops_per_job.clone(), max_choices),
                        IncrementalFlex::new(Arc::clone(&table)),
                        |inc, g: &DualGenome| match objective {
                            Objective::Makespan => inc.decode(&g.assign, &g.seq) as f64,
                            Objective::TotalCompletion => {
                                inc.decode_completion_sum(&g.assign, &g.seq) as f64
                            }
                        },
                        IncrementalFlex::counters,
                    )
                });
            let outcome = race_core(
                pool, &lineup, runner, seed, deadline, gen_cap, target, hooks,
            );
            let schedule = FlexDecoder::new(flex)
                .decode(&outcome.best.genome.assign, &outcome.best.genome.seq);
            finish(inst, objective, schedule, outcome)
        }
    }
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

    /// Every evaluation is one full table decode of the whole genome:
    /// the request telemetry's decode count and perfbench's
    /// `retimed_share` of 1.0 both rest on this.
    #[test]
    fn every_evaluation_is_one_full_decode() {
        let pool = RacerPool::new(2);
        for name in ["flow05", "ft06", "open_latin3", "flex03"] {
            let inst = Arc::new(load_instance(&InstanceSpec::Named(name.into())).unwrap());
            let genome_len = match &*inst {
                LoadedInstance::Flow(flow) => flow.n_jobs(),
                other => other.total_ops(),
            } as u64;
            let out = solve(&pool, &inst, Objective::Makespan, 5, deadline(), 30, 3);
            assert!(!out.models.is_empty());
            for (model, t) in &out.models {
                assert!(t.evaluations > 0, "{name}/{model}: no evaluations");
                assert_eq!(t.decode_calls, t.evaluations, "{name}/{model}");
                assert_eq!(
                    t.retimed_positions,
                    t.decode_calls * genome_len,
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

    #[test]
    fn solve_is_deterministic_when_caps_bind() {
        let pool = RacerPool::new(3);
        let inst = Arc::new(load_instance(&InstanceSpec::Named("ft06".into())).unwrap());
        let run = || solve(&pool, &inst, Objective::Makespan, 42, deadline(), 150, 3);
        let a = run();
        let b = run();
        assert_eq!(a.solution.schedule, b.solution.schedule);
        // Model equality is safe to assert *here* because ft06's
        // makespan lower bound sits below the optimum: the target is
        // never certified, every racer runs to the cap, and the winner
        // label is pinned. It is not part of the general contract.
        assert_eq!(a.solution.model, b.solution.model);
        assert_eq!(a.solution.makespan, b.solution.makespan);
        assert!(!a.deadline_bound, "cap-bound solve is budget-independent");
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
