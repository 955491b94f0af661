//! Dynamic-environment scheduling — the second "new integrated factor"
//! of the survey's Section II (Tang et al. \[9\] use a predictive-reactive
//! approach for dynamic flexible flow shops): machine breakdowns, job
//! arrivals and processing-time revisions hit a running schedule, and
//! the scheduler reacts either by *right-shift repair* (push affected
//! operations later, keeping all sequencing decisions) or by
//! *rescheduling* the unstarted suffix.
//!
//! The GA hook is [`frozen_prefix`]: at a disruption time, the already
//! started operations are frozen and the remaining operation multiset is
//! rescheduled — typically by a GA warm-started from the old sequence
//! (`ga::engine::Toolkit::with_warm_start`).
//!
//! Three event kinds are supported (the survey's dynamic-environment
//! catalogue): [`Event::Breakdown`] takes a machine down for a window,
//! [`Event::JobArrival`] releases a brand-new job mid-execution, and
//! [`Event::Revision`] changes the processing time of a not-yet-started
//! operation. [`apply_event`] applies one event to an
//! `(instance, windows, schedule)` triple and returns the
//! right-shift-repaired result; [`fold_events`] folds a whole event
//! sequence (e.g. an event storm with repeated, overlapping
//! breakdowns). Both freeze everything that already started at the
//! event's time — a breakdown entirely in the past is stale information
//! and degrades to a no-op.
//!
//! **Non-preemption assumption**: an operation that already *started*
//! before an event's time runs to completion — a breakdown window is
//! only enforced against operations that have not started yet (the
//! machine is assumed to fail between operations, or the event to be
//! known by the time the affected operation would start). The
//! time-zero convenience wrappers ([`right_shift_repair`],
//! [`reschedule_suffix`]) treat every operation as unstarted, which
//! recovers the classic textbook repair.

use crate::instance::{JobShopInstance, Op};
use crate::schedule::{Schedule, ScheduledOp};
use crate::{Problem, ShopError, ShopResult, Time};

/// A disruption event. Each variant carries the (virtual-clock) time it
/// takes effect; see [`Event::at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Machine `machine` is down during `[from, from + duration)`.
    Breakdown {
        /// The machine that goes down.
        machine: usize,
        /// Start of the outage (also the event time).
        from: Time,
        /// Length of the outage (0 = a glitch with no unavailability).
        duration: Time,
    },
    /// A new job with the given route becomes available at `at` (its
    /// release time). The job is appended to the instance with index
    /// `n_jobs()`.
    JobArrival {
        /// Arrival (= release) time.
        at: Time,
        /// The new job's technological route.
        route: Vec<Op>,
    },
    /// The processing time of operation `(job, op)` — which must not
    /// have started by `at` — is revised to `duration`.
    Revision {
        /// Time the revision becomes known.
        at: Time,
        /// Job index.
        job: usize,
        /// Stage index within the job.
        op: usize,
        /// The new processing time (> 0).
        duration: Time,
    },
}

impl Event {
    /// The virtual-clock time the event takes effect: a breakdown's
    /// window start, an arrival's release, a revision's announcement.
    pub fn at(&self) -> Time {
        match self {
            Event::Breakdown { from, .. } => *from,
            Event::JobArrival { at, .. } => *at,
            Event::Revision { at, .. } => *at,
        }
    }
}

/// Upper bound on any single event-supplied time or duration — the
/// wire protocol's exact-integer domain (2^53 − 1). [`apply_event`]
/// enforces it for in-process callers too, so event arithmetic can
/// never overflow the `u64` time axis (see also [`MAX_HORIZON`]).
pub const MAX_EVENT_TIME: Time = (1 << 53) - 1;

/// Once a schedule's makespan has grown past this, further events are
/// refused as "time axis exhausted": with every event contributing at
/// most ~2^54 of growth (window + arriving work, each capped by
/// [`MAX_EVENT_TIME`]), bounding the pre-event makespan keeps every
/// addition in the dispatch loops far below `u64::MAX`.
pub const MAX_HORIZON: Time = 1 << 60;

/// A machine-unavailability window `[from, until)` accumulated from a
/// breakdown event. Empty windows (`until <= from`) never bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownWindow {
    /// The unavailable machine.
    pub machine: usize,
    /// Start of the outage.
    pub from: Time,
    /// End of the outage (exclusive).
    pub until: Time,
}

impl DownWindow {
    /// Whether running `[start, start + dur)` on `machine` overlaps
    /// this window. Zero-duration operations cannot exist (instance
    /// construction enforces `duration > 0`), and zero-length windows
    /// overlap nothing.
    pub fn blocks(&self, machine: usize, start: Time, dur: Time) -> bool {
        self.until > self.from
            && machine == self.machine
            && start < self.until
            && start + dur > self.from
    }
}

/// Earliest start `>= start` at which an operation of length `dur` on
/// `machine` avoids every window. Windows may chain (overlapping
/// outages), so the push repeats until stable.
fn clear_of_windows(machine: usize, mut start: Time, dur: Time, windows: &[DownWindow]) -> Time {
    loop {
        let mut moved = false;
        for w in windows {
            if w.blocks(machine, start, dur) {
                start = w.until;
                moved = true;
            }
        }
        if !moved {
            return start;
        }
    }
}

/// Right-shift repair against a set of breakdown windows, freezing
/// everything that started before `now`: frozen operations keep their
/// recorded spans (non-preemption — see the module docs); the remaining
/// operations are re-timed in their original global start order, each
/// no earlier than its original start, respecting all precedences and
/// avoiding every window. All sequencing decisions survive, so this is
/// the instant always-available baseline a rescheduling GA races.
///
/// Durations are taken from `inst` (not from the old spans), so a
/// schedule repaired after a [`Event::Revision`] reflects the revised
/// processing times.
pub fn repair_with_windows(
    inst: &JobShopInstance,
    schedule: &Schedule,
    now: Time,
    windows: &[DownWindow],
) -> Schedule {
    let mut machine_free = vec![0 as Time; inst.n_machines()];
    let mut job_free: Vec<Time> = (0..inst.n_jobs()).map(|j| inst.release(j)).collect();
    let mut out = Vec::with_capacity(schedule.ops.len());
    let mut suffix: Vec<ScheduledOp> = Vec::new();
    for &o in &schedule.ops {
        if o.start < now {
            machine_free[o.machine] = machine_free[o.machine].max(o.end);
            job_free[o.job] = job_free[o.job].max(o.end);
            out.push(o);
        } else {
            suffix.push(o);
        }
    }
    suffix.sort_by_key(|o| (o.start, o.machine, o.job));
    for o in suffix {
        let dur = inst.op(o.job, o.op).duration;
        // Right-shift: never earlier than the original start, plus
        // whatever upstream shifts and breakdown windows force.
        let start = job_free[o.job].max(machine_free[o.machine]).max(o.start);
        let start = clear_of_windows(o.machine, start, dur, windows);
        let end = start + dur;
        machine_free[o.machine] = end;
        job_free[o.job] = end;
        out.push(ScheduledOp { start, end, ..o });
    }
    Schedule::new(out)
}

/// Right-shift repair for a single breakdown with nothing yet started
/// (the classic textbook form, kept for the predictive-phase callers).
/// Keeps every machine sequence and job order from `schedule` and
/// pushes operations later until the breakdown window and all
/// precedences are respected.
///
/// # Panics
///
/// On a non-breakdown event: arrivals and revisions change the
/// *instance*, so they must go through [`apply_event`].
pub fn right_shift_repair(inst: &JobShopInstance, schedule: &Schedule, event: &Event) -> Schedule {
    let Event::Breakdown {
        machine,
        from,
        duration,
    } = *event
    else {
        panic!("right_shift_repair handles breakdowns only; use apply_event");
    };
    repair_with_windows(
        inst,
        schedule,
        0,
        &[DownWindow {
            machine,
            from,
            until: from.saturating_add(duration),
        }],
    )
}

/// Splits `schedule` at `t`: operations that already *started* (strictly
/// before `t`; an operation starting exactly at `t` is still free to
/// move) stay frozen; the rest are collected as a remaining operation
/// multiset. Returns `(frozen ops, remaining op-sequence in original
/// order)`.
pub fn frozen_prefix(schedule: &Schedule, t: Time) -> (Vec<ScheduledOp>, Vec<(usize, usize)>) {
    let mut frozen = Vec::new();
    let mut remaining: Vec<ScheduledOp> = Vec::new();
    for &o in &schedule.ops {
        if o.start < t {
            frozen.push(o);
        } else {
            remaining.push(o);
        }
    }
    remaining.sort_by_key(|o| (o.start, o.machine));
    (
        frozen,
        remaining.into_iter().map(|o| (o.job, o.op)).collect(),
    )
}

/// Reschedules the suffix against a set of breakdown windows: frozen
/// operations keep their slots; `suffix_order` (a GA decision vector of
/// `(job, op)`s, which must cover exactly the instance's operations not
/// in `frozen`) acts as a *priority list* — operations are dispatched
/// greedily in priority order but never before their job predecessor
/// **and never before `now`** (the rescheduling moment: work cannot
/// start in the past), so any permutation of the suffix decodes to a
/// feasible schedule. Durations come from `inst`, so revised
/// processing times apply.
///
/// Dispatching the *unchanged* suffix order is component-wise no later
/// than [`repair_with_windows`] at the same `now` (greedy dispatch is
/// the minimal timing for the same sequences, and repair's suffix
/// starts already satisfy the `now` floor), which is what makes an
/// incumbent-seeded rescheduling GA never lose to right-shift repair.
pub fn reschedule_suffix_with_windows(
    inst: &JobShopInstance,
    frozen: &[ScheduledOp],
    suffix_order: &[(usize, usize)],
    windows: &[DownWindow],
    now: Time,
) -> Schedule {
    let mut machine_free = vec![0 as Time; inst.n_machines()];
    let mut job_free: Vec<Time> = (0..inst.n_jobs()).map(|j| inst.release(j)).collect();
    let mut next_op = vec![0usize; inst.n_jobs()];
    let mut ops: Vec<ScheduledOp> = frozen.to_vec();
    for o in frozen {
        machine_free[o.machine] = machine_free[o.machine].max(o.end);
        job_free[o.job] = job_free[o.job].max(o.end);
        next_op[o.job] = next_op[o.job].max(o.op + 1);
    }
    let mut pending: Vec<(usize, usize)> = suffix_order.to_vec();
    while !pending.is_empty() {
        // First pending op whose job predecessor is already scheduled.
        let pos = pending
            .iter()
            .position(|&(j, s)| s == next_op[j])
            .expect("suffix multiset must contain each job's next stage");
        let (j, s) = pending.remove(pos);
        let op = inst.op(j, s);
        let start = job_free[j].max(machine_free[op.machine]).max(now);
        let start = clear_of_windows(op.machine, start, op.duration, windows);
        let end = start + op.duration;
        ops.push(ScheduledOp {
            job: j,
            op: s,
            machine: op.machine,
            start,
            end,
        });
        machine_free[op.machine] = end;
        job_free[j] = end;
        next_op[j] = s + 1;
    }
    Schedule::new(ops)
}

/// Single-breakdown suffix reschedule (time-zero convenience wrapper of
/// [`reschedule_suffix_with_windows`]).
///
/// # Panics
///
/// On a non-breakdown event, like [`right_shift_repair`].
pub fn reschedule_suffix(
    inst: &JobShopInstance,
    frozen: &[ScheduledOp],
    suffix_order: &[(usize, usize)],
    event: &Event,
) -> Schedule {
    let Event::Breakdown {
        machine,
        from,
        duration,
    } = *event
    else {
        panic!("reschedule_suffix handles breakdowns only; use apply_event");
    };
    reschedule_suffix_with_windows(
        inst,
        frozen,
        suffix_order,
        &[DownWindow {
            machine,
            from,
            until: from.saturating_add(duration),
        }],
        0,
    )
}

/// Appends a newly arrived job (release time `at`) to the instance.
/// The new job gets index `inst.n_jobs()`.
pub fn with_job_arrival(
    inst: &JobShopInstance,
    route: &[Op],
    at: Time,
) -> ShopResult<JobShopInstance> {
    if route.is_empty() {
        return Err(ShopError::BadInstance(
            "arriving job has an empty route".into(),
        ));
    }
    if route.iter().any(|op| op.machine >= inst.n_machines()) {
        return Err(ShopError::BadInstance(format!(
            "arriving job visits an unknown machine (instance has {})",
            inst.n_machines()
        )));
    }
    // The whole arriving job must fit the time-axis cap: its total
    // work bounds how much one event can grow the schedule.
    let total = route
        .iter()
        .try_fold(0 as Time, |a, op| a.checked_add(op.duration));
    if !matches!(total, Some(t) if t <= MAX_EVENT_TIME) {
        return Err(ShopError::BadInstance(format!(
            "arriving job's total work exceeds the time-axis cap {MAX_EVENT_TIME}"
        )));
    }
    let mut jobs: Vec<Vec<Op>> = (0..inst.n_jobs()).map(|j| inst.route(j).to_vec()).collect();
    jobs.push(route.to_vec());
    let mut meta = inst.meta.clone();
    meta.release.push(at);
    meta.due.push(Time::MAX);
    meta.weight.push(1.0);
    JobShopInstance::with_meta(jobs, meta)
}

/// Revises the processing time of operation `(job, op)` to `duration`.
/// Started-or-not is the *caller's* check (the fold validates against
/// the current schedule); this transform only validates indices and a
/// positive duration.
pub fn with_revision(
    inst: &JobShopInstance,
    job: usize,
    op: usize,
    duration: Time,
) -> ShopResult<JobShopInstance> {
    if job >= inst.n_jobs() || op >= inst.n_ops(job) {
        return Err(ShopError::BadInstance(format!(
            "revision targets unknown operation ({job}, {op})"
        )));
    }
    if duration == 0 {
        return Err(ShopError::BadInstance(
            "revised duration must be positive".into(),
        ));
    }
    if duration > MAX_EVENT_TIME {
        return Err(ShopError::BadInstance(format!(
            "revised duration {duration} exceeds the time-axis cap {MAX_EVENT_TIME}"
        )));
    }
    let mut jobs: Vec<Vec<Op>> = (0..inst.n_jobs()).map(|j| inst.route(j).to_vec()).collect();
    jobs[job][op].duration = duration;
    JobShopInstance::with_meta(jobs, inst.meta.clone())
}

/// Applies one event at its time `event.at()` to the current
/// `(instance, windows, schedule)` state and returns the updated
/// instance, the accumulated windows, and the **right-shift-repaired**
/// schedule (the instant baseline; callers wanting a better answer
/// reschedule the suffix with a GA on top — see `serve::session`).
///
/// Semantics per variant:
///
/// * `Breakdown` — the window joins the accumulated set and every
///   unstarted operation is right-shifted clear of all windows. A
///   window entirely in the past (its end at or before `event.at()` is
///   impossible by construction since `at == from`, but one inherited
///   from an earlier fold step can be) simply never binds, because
///   unstarted operations start at or after `at`.
/// * `JobArrival` — the instance grows a job; its operations are
///   appended to the schedule greedily after the existing load on each
///   machine (never before `at`, clear of every window). Existing
///   operations are untouched, so repair stays the do-least baseline;
///   a rescheduling GA is free to interleave the new job properly.
/// * `Revision` — the targeted operation must not have started
///   (`start >= at` in `schedule`), the instance's duration changes,
///   and the whole unstarted suffix is re-timed under the new duration.
///
/// Errors on malformed events (unknown machine/operation, revising a
/// started operation, empty arrival route); the input state is
/// untouched in that case.
pub fn apply_event(
    inst: &JobShopInstance,
    schedule: &Schedule,
    windows: &[DownWindow],
    event: &Event,
) -> ShopResult<(JobShopInstance, Vec<DownWindow>, Schedule)> {
    let now = event.at();
    // Overflow guards: every event-supplied number is capped at the
    // wire's exact-integer domain, and a schedule that has already
    // grown past the horizon refuses further events — together these
    // keep all window/dispatch arithmetic far from u64::MAX.
    if now > MAX_EVENT_TIME {
        return Err(ShopError::BadInstance(format!(
            "event time {now} exceeds the time-axis cap {MAX_EVENT_TIME}"
        )));
    }
    if schedule.makespan() > MAX_HORIZON {
        return Err(ShopError::Infeasible(format!(
            "time axis exhausted: schedule makespan {} exceeds {MAX_HORIZON}",
            schedule.makespan()
        )));
    }
    let capped = |duration: Time| -> ShopResult<Time> {
        if duration > MAX_EVENT_TIME {
            return Err(ShopError::BadInstance(format!(
                "event duration {duration} exceeds the time-axis cap {MAX_EVENT_TIME}"
            )));
        }
        Ok(duration)
    };
    match event {
        Event::Breakdown {
            machine,
            from,
            duration,
        } => {
            if *machine >= inst.n_machines() {
                return Err(ShopError::BadInstance(format!(
                    "breakdown on unknown machine {machine} (instance has {})",
                    inst.n_machines()
                )));
            }
            let mut windows = windows.to_vec();
            windows.push(DownWindow {
                machine: *machine,
                from: *from,
                until: from + capped(*duration)?,
            });
            let repaired = repair_with_windows(inst, schedule, now, &windows);
            Ok((inst.clone(), windows, repaired))
        }
        Event::JobArrival { at, route } => {
            let grown = with_job_arrival(inst, route, *at)?;
            let new_job = inst.n_jobs();
            let mut machine_free = vec![0 as Time; grown.n_machines()];
            for o in &schedule.ops {
                machine_free[o.machine] = machine_free[o.machine].max(o.end);
            }
            let mut ops = schedule.ops.clone();
            let mut job_free = *at;
            for (s, op) in route.iter().enumerate() {
                let start = job_free.max(machine_free[op.machine]);
                let start = clear_of_windows(op.machine, start, op.duration, windows);
                let end = start + op.duration;
                ops.push(ScheduledOp {
                    job: new_job,
                    op: s,
                    machine: op.machine,
                    start,
                    end,
                });
                machine_free[op.machine] = end;
                job_free = end;
            }
            Ok((grown, windows.to_vec(), Schedule::new(ops)))
        }
        Event::Revision {
            at,
            job,
            op,
            duration,
        } => {
            let revised = with_revision(inst, *job, *op, *duration)?;
            if let Some(o) = schedule.ops.iter().find(|o| o.job == *job && o.op == *op) {
                if o.start < *at {
                    return Err(ShopError::Infeasible(format!(
                        "cannot revise operation ({job}, {op}): it started at {} < {at}",
                        o.start
                    )));
                }
            }
            let repaired = repair_with_windows(&revised, schedule, now, windows);
            Ok((revised, windows.to_vec(), repaired))
        }
    }
}

/// Folds an event sequence over `(inst, schedule)`, applying each event
/// in order with [`apply_event`]. Event times must be nondecreasing
/// (the virtual clock never runs backwards); a decreasing time is an
/// error. Returns the final instance, accumulated windows, and the
/// repaired schedule after the whole storm.
pub fn fold_events(
    inst: &JobShopInstance,
    schedule: &Schedule,
    events: &[Event],
) -> ShopResult<(JobShopInstance, Vec<DownWindow>, Schedule)> {
    let mut cur_inst = inst.clone();
    let mut cur_sched = schedule.clone();
    let mut windows: Vec<DownWindow> = Vec::new();
    let mut now = 0;
    for event in events {
        if event.at() < now {
            return Err(ShopError::Infeasible(format!(
                "event at {} after the clock reached {now}",
                event.at()
            )));
        }
        now = event.at();
        let (i, w, s) = apply_event(&cur_inst, &cur_sched, &windows, event)?;
        cur_inst = i;
        windows = w;
        cur_sched = s;
    }
    Ok((cur_inst, windows, cur_sched))
}

/// Objective-only decode of frozen-prefix suffix permutations — the
/// evaluator of a warm-started session re-solve.
///
/// A session re-solve races permutations of the suffix index set. This
/// decoder returns the objective values of materialising the order
/// (`perm → Vec<(job, op)>`) through [`reschedule_suffix_with_windows`],
/// bit-identically, in one O(k) pass with no per-decode allocation.
///
/// # Why one pass dispatches in priority order
///
/// The priority-list rule dispatches, at each step, the first pending
/// position whose op is its job's next stage. Whether a position is
/// ready depends only on its own job's progress, so every position a
/// left-to-right scan has passed over waits on a stage of its own job
/// that the scan has not reached yet. When the scan reaches a job's
/// next stage, that stage is therefore the first ready position and is
/// dispatched. Dispatching it readies only the job's following stage:
/// if the scan already passed over it, it is now the first ready
/// position and is dispatched at once, and so on down the chain;
/// otherwise no passed-over position became ready and the scan resumes.
#[derive(Clone)]
pub struct SuffixRedecoder {
    inst: std::sync::Arc<JobShopInstance>,
    suffix: std::sync::Arc<Vec<(usize, usize)>>,
    windows: std::sync::Arc<Vec<DownWindow>>,
    now: Time,
    /// Makespan contribution of the frozen prefix.
    frozen_mk: Time,
    /// Fold state after the frozen prefix (decode starting point).
    base_machine_free: Vec<Time>,
    base_job_free: Vec<Time>,
    base_next_op: Vec<usize>,
    /// Dense `(job, stage)` ids: job `j`'s stages are
    /// `stage_base[j]..stage_base[j + 1]`.
    stage_base: Vec<usize>,
    // Scratch (reused, no per-decode allocation). `seen` marks the
    // passed-over stages; the chain that dispatches one clears it, so
    // it is all `false` between decodes.
    machine_free: Vec<Time>,
    job_free: Vec<Time>,
    next_op: Vec<usize>,
    seen: Vec<bool>,
}

impl SuffixRedecoder {
    /// A decoder for the `(frozen, suffix)` split of a schedule at
    /// rescheduling moment `now` (see [`frozen_prefix`]); `suffix` is
    /// the canonical remaining-operation order a permutation indexes
    /// into.
    pub fn new(
        inst: std::sync::Arc<JobShopInstance>,
        frozen: &[ScheduledOp],
        suffix: std::sync::Arc<Vec<(usize, usize)>>,
        windows: std::sync::Arc<Vec<DownWindow>>,
        now: Time,
    ) -> Self {
        let mut base_machine_free = vec![0 as Time; inst.n_machines()];
        let mut base_job_free: Vec<Time> = (0..inst.n_jobs()).map(|j| inst.release(j)).collect();
        let mut base_next_op = vec![0usize; inst.n_jobs()];
        let mut frozen_mk = 0;
        for o in frozen {
            base_machine_free[o.machine] = base_machine_free[o.machine].max(o.end);
            base_job_free[o.job] = base_job_free[o.job].max(o.end);
            base_next_op[o.job] = base_next_op[o.job].max(o.op + 1);
            frozen_mk = frozen_mk.max(o.end);
        }
        let mut stage_base = vec![0];
        for j in 0..inst.n_jobs() {
            stage_base.push(stage_base[j] + inst.route(j).len());
        }
        SuffixRedecoder {
            machine_free: base_machine_free.clone(),
            job_free: base_job_free.clone(),
            next_op: base_next_op.clone(),
            seen: vec![false; stage_base[inst.n_jobs()]],
            inst,
            suffix,
            windows,
            now,
            frozen_mk,
            base_machine_free,
            base_job_free,
            base_next_op,
            stage_base,
        }
    }

    /// Makespan of the schedule `perm` decodes to — bit-identical to
    /// materialising via [`reschedule_suffix_with_windows`], with the
    /// `now` floor and the breakdown windows, in one pass (see the type
    /// docs).
    pub fn makespan(&mut self, perm: &[usize]) -> Time {
        debug_assert_eq!(perm.len(), self.suffix.len());
        self.machine_free.copy_from_slice(&self.base_machine_free);
        self.job_free.copy_from_slice(&self.base_job_free);
        self.next_op.copy_from_slice(&self.base_next_op);
        let mut mk = self.frozen_mk;
        for &p in perm {
            let (j, mut s) = self.suffix[p];
            let base = self.stage_base[j];
            let stages = self.stage_base[j + 1] - base;
            if s != self.next_op[j] {
                self.seen[base + s] = true;
                continue;
            }
            loop {
                let op = self.inst.op(j, s);
                let start = self.job_free[j]
                    .max(self.machine_free[op.machine])
                    .max(self.now);
                let start = clear_of_windows(op.machine, start, op.duration, &self.windows);
                let end = start + op.duration;
                self.machine_free[op.machine] = end;
                self.job_free[j] = end;
                mk = mk.max(end);
                s += 1;
                if s == stages || !self.seen[base + s] {
                    break;
                }
                self.seen[base + s] = false;
            }
            self.next_op[j] = s;
        }
        debug_assert!(
            !self.seen.contains(&true),
            "suffix multiset must contain each job's next stage"
        );
        mk
    }

    /// Sum of per-job completion times of the decoded schedule.
    pub fn completion_sum(&mut self, perm: &[usize]) -> Time {
        self.makespan(perm);
        // Every job has at least one operation and operations never end
        // before the job's release, so the per-job availability vector
        // *is* the completion-time vector.
        self.job_free.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::job::JobDecoder;
    use crate::instance::generate::{job_shop_uniform, GenConfig};

    fn base() -> (JobShopInstance, Schedule) {
        let inst = job_shop_uniform(&GenConfig::new(5, 3, 9));
        let seq: Vec<usize> = (0..3).flat_map(|_| 0..5).collect();
        let sched = JobDecoder::new(&inst).semi_active(&seq);
        (inst, sched)
    }

    #[test]
    fn right_shift_repair_is_feasible_and_avoids_window() {
        let (inst, sched) = base();
        let mk = sched.makespan();
        let event = Event::Breakdown {
            machine: 1,
            from: mk / 4,
            duration: mk / 3,
        };
        let repaired = right_shift_repair(&inst, &sched, &event);
        repaired.validate_job(&inst).unwrap();
        let Event::Breakdown {
            machine,
            from,
            duration,
        } = event
        else {
            unreachable!()
        };
        for o in repaired.ops.iter().filter(|o| o.machine == machine) {
            let overlaps = o.start < from + duration && o.end > from;
            assert!(!overlaps, "op {o:?} overlaps breakdown window");
        }
        assert!(repaired.makespan() >= mk);
    }

    #[test]
    fn frozen_prefix_partitions_all_ops() {
        let (_, sched) = base();
        let t = sched.makespan() / 2;
        let (frozen, rest) = frozen_prefix(&sched, t);
        assert_eq!(frozen.len() + rest.len(), sched.ops.len());
        assert!(frozen.iter().all(|o| o.start < t));
    }

    #[test]
    fn reschedule_suffix_feasible_and_respects_window() {
        let (inst, sched) = base();
        let mk = sched.makespan();
        let t = mk / 3;
        let event = Event::Breakdown {
            machine: 0,
            from: t,
            duration: mk / 4,
        };
        let (frozen, rest) = frozen_prefix(&sched, t);
        let re = reschedule_suffix(&inst, &frozen, &rest, &event);
        re.validate_job(&inst).unwrap();
        let Event::Breakdown {
            machine,
            from,
            duration,
        } = event
        else {
            unreachable!()
        };
        for o in re
            .ops
            .iter()
            .filter(|o| o.machine == machine && o.start >= t)
        {
            let overlaps = o.start < from + duration && o.end > from;
            assert!(!overlaps);
        }
    }

    #[test]
    fn rescheduling_never_loses_to_right_shift_given_same_order() {
        // Right-shift keeps the old order *and* the old start times as
        // lower bounds; rescheduling with the same order dispatches the
        // same sequences at their earliest feasible times, so it can
        // never be worse — the warm-start guarantee the serve layer's
        // repair-vs-resolve race is built on.
        let (inst, sched) = base();
        let mk = sched.makespan();
        let t = mk / 4;
        let window = DownWindow {
            machine: 2,
            from: t,
            until: t + mk / 2,
        };
        let repaired = repair_with_windows(&inst, &sched, t, &[window]);
        let (frozen, rest) = frozen_prefix(&sched, t);
        let re = reschedule_suffix_with_windows(&inst, &frozen, &rest, &[window], t);
        re.validate_job(&inst).unwrap();
        assert!(re.makespan() <= repaired.makespan());
    }

    // ---- boundary cases -------------------------------------------------

    #[test]
    fn op_starting_exactly_at_the_disruption_time_is_pushed() {
        // An op with start == from on the broken machine overlaps the
        // window (windows are [from, until)) and must wait it out; an
        // op with start == now is *not* frozen (frozen is start < now).
        let (inst, sched) = base();
        let boundary = sched
            .ops
            .iter()
            .find(|o| o.start > 0)
            .copied()
            .expect("some op starts after 0");
        let window = DownWindow {
            machine: boundary.machine,
            from: boundary.start,
            until: boundary.start + 5,
        };
        let repaired = repair_with_windows(&inst, &sched, boundary.start, &[window]);
        repaired.validate_job(&inst).unwrap();
        let moved = repaired
            .ops
            .iter()
            .find(|o| o.job == boundary.job && o.op == boundary.op)
            .unwrap();
        assert!(
            moved.start >= window.until,
            "op starting exactly at the window start must be pushed past it"
        );
        // Frozen split at the same instant: the boundary op is movable.
        let (frozen, rest) = frozen_prefix(&sched, boundary.start);
        assert!(frozen.iter().all(|o| o.start < boundary.start));
        assert!(rest.contains(&(boundary.job, boundary.op)));
    }

    #[test]
    fn zero_duration_outage_is_a_no_op() {
        let (inst, sched) = base();
        let event = Event::Breakdown {
            machine: 1,
            from: sched.makespan() / 2,
            duration: 0,
        };
        let repaired = right_shift_repair(&inst, &sched, &event);
        repaired.validate_job(&inst).unwrap();
        assert_eq!(repaired.makespan(), sched.makespan());
        // Semi-active input: the re-derived timing is identical.
        let mut a = repaired.ops.clone();
        let mut b = sched.ops.clone();
        a.sort_by_key(|o| (o.job, o.op));
        b.sort_by_key(|o| (o.job, o.op));
        assert_eq!(a, b);
    }

    #[test]
    fn breakdown_entirely_in_the_past_never_binds() {
        // A window that ended before the event clock reaches the
        // unstarted suffix cannot shift anything: unstarted ops start
        // at or after `now >= until`.
        let (inst, sched) = base();
        let mk = sched.makespan();
        let now = mk / 2;
        let stale = DownWindow {
            machine: 0,
            from: 0,
            until: now,
        };
        let repaired = repair_with_windows(&inst, &sched, now, &[stale]);
        repaired.validate_job(&inst).unwrap();
        assert_eq!(repaired.makespan(), sched.makespan());
        let mut a = repaired.ops.clone();
        let mut b = sched.ops.clone();
        a.sort_by_key(|o| (o.job, o.op));
        b.sort_by_key(|o| (o.job, o.op));
        assert_eq!(a, b, "a fully-past window must change nothing");
    }

    #[test]
    fn repeated_overlapping_breakdowns_fold_and_chain() {
        // Two overlapping outages on one machine plus a later one on
        // another: the fold must avoid the union and stay feasible, and
        // chained windows must push an op past *both*.
        let (inst, sched) = base();
        let mk = sched.makespan();
        let events = vec![
            Event::Breakdown {
                machine: 1,
                from: mk / 5,
                duration: mk / 4,
            },
            Event::Breakdown {
                machine: 1,
                from: mk / 4,
                duration: mk / 3,
            },
            Event::Breakdown {
                machine: 2,
                from: mk / 2,
                duration: mk / 5,
            },
        ];
        let (final_inst, windows, repaired) = fold_events(&inst, &sched, &events).unwrap();
        assert_eq!(windows.len(), 3);
        repaired.validate_job(&final_inst).unwrap();
        // No suffix op (started at or after its event time) overlaps
        // any window that was live when it was re-timed; the final
        // schedule must at least avoid all windows for ops starting at
        // or after the last freeze point of their machine's windows.
        for w in &windows {
            for o in repaired.ops.iter().filter(|o| o.machine == w.machine) {
                if o.start >= w.from {
                    assert!(
                        !(o.start < w.until && o.end > w.from),
                        "op {o:?} overlaps window {w:?}"
                    );
                }
            }
        }
        assert!(repaired.makespan() >= mk);
    }

    #[test]
    fn reschedule_never_starts_suffix_work_before_now() {
        // The rescheduling moment is a hard floor: whatever order the
        // GA proposes, no unstarted operation may be placed in the
        // past — even on a machine that is idle from time 0.
        let (inst, sched) = base();
        let t = sched.makespan() / 2;
        let (frozen, rest) = frozen_prefix(&sched, t);
        // Adversarial order: reversed priority list.
        let reversed: Vec<(usize, usize)> = rest.iter().rev().copied().collect();
        let re = reschedule_suffix_with_windows(&inst, &frozen, &reversed, &[], t);
        re.validate_job(&inst).unwrap();
        let frozen_keys: Vec<(usize, usize)> = frozen.iter().map(|o| (o.job, o.op)).collect();
        for o in &re.ops {
            if !frozen_keys.contains(&(o.job, o.op)) {
                assert!(o.start >= t, "suffix op {o:?} starts before now={t}");
            }
        }
    }

    #[test]
    fn overflow_scale_events_are_rejected() {
        // Event-supplied numbers past the wire's 2^53-1 domain are
        // refused before any arithmetic can overflow (and a schedule
        // past the horizon refuses further events).
        let (inst, sched) = base();
        let huge = Event::Breakdown {
            machine: 0,
            from: 10,
            duration: u64::MAX - 5,
        };
        assert!(apply_event(&inst, &sched, &[], &huge).is_err());
        let late = Event::Breakdown {
            machine: 0,
            from: u64::MAX - 5,
            duration: 1,
        };
        assert!(apply_event(&inst, &sched, &[], &late).is_err());
        let heavy = Event::JobArrival {
            at: 0,
            route: vec![Op::new(0, u64::MAX / 2), Op::new(1, u64::MAX / 2)],
        };
        assert!(apply_event(&inst, &sched, &[], &heavy).is_err());
        let long = Event::Revision {
            at: sched.makespan(),
            job: 0,
            op: 2,
            duration: u64::MAX / 2,
        };
        assert!(apply_event(&inst, &sched, &[], &long).is_err());
        // In-range events on the same instance still work.
        let fine = Event::Breakdown {
            machine: 0,
            from: 10,
            duration: 5,
        };
        assert!(apply_event(&inst, &sched, &[], &fine).is_ok());
    }

    #[test]
    fn fold_rejects_a_time_travelling_event() {
        let (inst, sched) = base();
        let events = vec![
            Event::Breakdown {
                machine: 0,
                from: 50,
                duration: 5,
            },
            Event::Breakdown {
                machine: 0,
                from: 10,
                duration: 5,
            },
        ];
        assert!(fold_events(&inst, &sched, &events).is_err());
    }

    // ---- job arrivals ---------------------------------------------------

    #[test]
    fn job_arrival_extends_instance_and_schedule_feasibly() {
        let (inst, sched) = base();
        let at = sched.makespan() / 3;
        let route = vec![Op::new(0, 4), Op::new(2, 3), Op::new(1, 5)];
        let event = Event::JobArrival {
            at,
            route: route.clone(),
        };
        let (grown, _, appended) = apply_event(&inst, &sched, &[], &event).unwrap();
        assert_eq!(grown.n_jobs(), inst.n_jobs() + 1);
        assert_eq!(grown.release(inst.n_jobs()), at);
        assert_eq!(appended.ops.len(), sched.ops.len() + route.len());
        appended.validate_job(&grown).unwrap();
        // The new job's ops start no earlier than its release.
        for o in appended.ops.iter().filter(|o| o.job == inst.n_jobs()) {
            assert!(o.start >= at);
        }
        // Existing operations are untouched (repair is do-least).
        for o in &sched.ops {
            assert!(appended.ops.contains(o));
        }
    }

    #[test]
    fn job_arrival_validation_errors() {
        let (inst, sched) = base();
        let empty = Event::JobArrival {
            at: 0,
            route: vec![],
        };
        assert!(apply_event(&inst, &sched, &[], &empty).is_err());
        let bad_machine = Event::JobArrival {
            at: 0,
            route: vec![Op::new(inst.n_machines(), 3)],
        };
        assert!(apply_event(&inst, &sched, &[], &bad_machine).is_err());
    }

    #[test]
    fn arrival_then_breakdown_fold_reschedules_the_new_job_too() {
        let (inst, sched) = base();
        let mk = sched.makespan();
        let events = vec![
            Event::JobArrival {
                at: mk / 4,
                route: vec![Op::new(1, 6), Op::new(0, 2)],
            },
            Event::Breakdown {
                machine: 1,
                from: mk / 2,
                duration: mk / 3,
            },
        ];
        let (grown, windows, repaired) = fold_events(&inst, &sched, &events).unwrap();
        repaired.validate_job(&grown).unwrap();
        assert_eq!(windows.len(), 1);
        // The reschedule path covers the grown instance: suffix split
        // at the breakdown plus greedy dispatch stays feasible and
        // never loses to the fold's repair.
        let t = mk / 2;
        let (frozen, rest) = frozen_prefix(&repaired, t);
        let re = reschedule_suffix_with_windows(&grown, &frozen, &rest, &windows, t);
        re.validate_job(&grown).unwrap();
        assert!(re.makespan() <= repaired.makespan());
    }

    // ---- processing-time revisions --------------------------------------

    #[test]
    fn revision_of_an_unstarted_op_retimes_the_suffix() {
        let (inst, sched) = base();
        // Pick the last-starting op: certainly unstarted at t just
        // before it.
        let target = sched
            .ops
            .iter()
            .max_by_key(|o| o.start)
            .copied()
            .expect("non-empty schedule");
        let old = inst.op(target.job, target.op).duration;
        let event = Event::Revision {
            at: target.start,
            job: target.job,
            op: target.op,
            duration: old + 10,
        };
        let (revised, _, repaired) = apply_event(&inst, &sched, &[], &event).unwrap();
        assert_eq!(revised.op(target.job, target.op).duration, old + 10);
        repaired.validate_job(&revised).unwrap();
        let new_span = repaired
            .ops
            .iter()
            .find(|o| o.job == target.job && o.op == target.op)
            .unwrap();
        assert_eq!(new_span.end - new_span.start, old + 10);
    }

    #[test]
    fn revision_validation_errors() {
        let (inst, sched) = base();
        // Revising a started op is refused.
        let first = sched.ops.iter().min_by_key(|o| o.start).copied().unwrap();
        let started = Event::Revision {
            at: first.start + 1,
            job: first.job,
            op: first.op,
            duration: 99,
        };
        assert!(apply_event(&inst, &sched, &[], &started).is_err());
        // Unknown op and zero duration are refused.
        assert!(with_revision(&inst, inst.n_jobs(), 0, 5).is_err());
        assert!(with_revision(&inst, 0, 0, 0).is_err());
    }
}
