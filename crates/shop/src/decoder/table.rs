//! Data-oriented decoder hot path: struct-of-arrays operation tables
//! plus incremental re-decode.
//!
//! The family decoders in [`super::job`], [`super::flow`],
//! [`super::open`] and [`super::flexible`] index nested
//! `Vec<Vec<...>>` routes on every gene — fine for correctness work,
//! but a pointer chase per operation in the fitness loop that every
//! race, repair and session re-solve bottoms out in. This module is
//! the flat rebuild of that loop:
//!
//! * [`OpTable`] / [`FlexTable`] — the instance's operations flattened
//!   into dense-id-indexed `Vec`s (machine, duration, per-job prefix
//!   offsets; for flexible shops the eligible choices flattened the
//!   same way). Built **once per instance** and shared behind an
//!   `Arc` by every race member, instead of each member rebuilding a
//!   decoder inside its racer task.
//! * [`DecodeScratch`] — the entire per-decode state as two flat
//!   timestamp arrays (machine availability, job availability) plus a
//!   per-job next-stage cursor, reused across decodes so the hot loop
//!   performs **no per-op allocation**.
//! * [`IncrementalJob`] / [`IncrementalFlow`] / [`IncrementalOpenOrder`]
//!   / [`IncrementalFlex`] — incremental re-decode for mutation-local
//!   genome changes. A decode caches its genome and the end time of
//!   every position; the next decode finds the first genome position
//!   whose timing can have diverged ([`IncrementalJob::divergence`]),
//!   replays the unchanged prefix from the cached end times (two array
//!   writes per position — no availability maxing, no duration
//!   lookups) and re-times only the affected suffix. Results are
//!   bit-identical to the full decode for *any* pair of genomes; the
//!   win scales with how local the change is, which is exactly the
//!   mutated-clone traffic GA mutation evaluation and warm-started
//!   session re-solves generate.
//!
//! Every kernel here is makespan/total-completion only; materialising
//! a [`crate::schedule::Schedule`] for the final answer stays with the
//! reference decoders, which double as the cross-check in the
//! property suite (`decoder_incremental.rs`).

use crate::instance::{FlexibleInstance, FlowShopInstance, JobShopInstance, OpenShopInstance};
use crate::{Problem, Time};
use std::sync::Arc;

/// Flat struct-of-arrays view of a non-flexible instance's operations.
///
/// Dense op ids are job-major: operation `(j, s)` has id
/// `offsets[j] + s`. For flow and open shops the stage index doubles
/// as the machine index, so all three families share one layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTable {
    n_jobs: usize,
    n_machines: usize,
    /// `offsets[j]..offsets[j + 1]` = dense ids of job `j`'s ops.
    offsets: Vec<usize>,
    /// Job of each dense op (the inverse of `offsets`; lets id-keyed
    /// decodes skip the division that would otherwise recover it).
    job: Vec<usize>,
    /// Machine of each dense op.
    machine: Vec<usize>,
    /// Duration of each dense op.
    duration: Vec<Time>,
    /// Release time per job.
    release: Vec<Time>,
}

impl OpTable {
    fn build(
        n_jobs: usize,
        n_machines: usize,
        release: Vec<Time>,
        ops: impl Iterator<Item = (usize, Vec<(usize, Time)>)>,
    ) -> Self {
        let mut offsets = Vec::with_capacity(n_jobs + 1);
        offsets.push(0);
        let mut job = Vec::new();
        let mut machine = Vec::new();
        let mut duration = Vec::new();
        for (j, route) in ops {
            for (m, d) in route {
                job.push(j);
                machine.push(m);
                duration.push(d);
            }
            offsets.push(machine.len());
        }
        debug_assert_eq!(offsets.len(), n_jobs + 1);
        OpTable {
            n_jobs,
            n_machines,
            offsets,
            job,
            machine,
            duration,
            release,
        }
    }

    /// Flattens a job-shop instance.
    pub fn from_job(inst: &JobShopInstance) -> Self {
        Self::build(
            inst.n_jobs(),
            inst.n_machines(),
            (0..inst.n_jobs()).map(|j| inst.release(j)).collect(),
            (0..inst.n_jobs()).map(|j| {
                (
                    j,
                    inst.route(j)
                        .iter()
                        .map(|o| (o.machine, o.duration))
                        .collect(),
                )
            }),
        )
    }

    /// Flattens a flow-shop instance (op `(j, k)` runs on machine `k`).
    pub fn from_flow(inst: &FlowShopInstance) -> Self {
        Self::build(
            inst.n_jobs(),
            inst.n_machines(),
            (0..inst.n_jobs()).map(|j| inst.release(j)).collect(),
            (0..inst.n_jobs()).map(|j| {
                (
                    j,
                    inst.job_row(j)
                        .iter()
                        .enumerate()
                        .map(|(k, &d)| (k, d))
                        .collect(),
                )
            }),
        )
    }

    /// Flattens an open-shop instance (stage index == machine index,
    /// matching [`super::open::OpenDecoder::by_op_order`]).
    pub fn from_open(inst: &OpenShopInstance) -> Self {
        Self::build(
            inst.n_jobs(),
            inst.n_machines(),
            (0..inst.n_jobs()).map(|j| inst.release(j)).collect(),
            (0..inst.n_jobs()).map(|j| {
                (
                    j,
                    (0..inst.n_machines())
                        .map(|m| (m, inst.proc(j, m)))
                        .collect(),
                )
            }),
        )
    }

    /// Jobs in the table.
    #[inline]
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// Machines in the table.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    /// Total operation count (= genome length for op sequences).
    #[inline]
    pub fn total_ops(&self) -> usize {
        self.machine.len()
    }

    /// Job-major prefix offsets (`n_jobs + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Semi-active makespan of a job-shop operation sequence
    /// (bit-identical to
    /// [`super::job::JobDecoder::semi_active_makespan`]).
    pub fn job_makespan(&self, op_sequence: &[usize], scratch: &mut DecodeScratch) -> Time {
        debug_assert_eq!(op_sequence.len(), self.total_ops());
        scratch.reset(self);
        let mut mk = 0;
        for &j in op_sequence {
            let s = scratch.next_op[j];
            let id = self.offsets[j] + s;
            let m = self.machine[id];
            let start = scratch.job_free[j].max(scratch.machine_free[m]);
            let end = start + self.duration[id];
            scratch.job_free[j] = end;
            scratch.machine_free[m] = end;
            scratch.next_op[j] = s + 1;
            mk = mk.max(end);
        }
        mk
    }

    /// Sum of per-job completion times of a job-shop operation
    /// sequence (the `total_completion` objective).
    pub fn job_completion_sum(&self, op_sequence: &[usize], scratch: &mut DecodeScratch) -> Time {
        self.job_makespan(op_sequence, scratch);
        scratch.job_free.iter().sum()
    }

    /// Flow-shop makespan of a job permutation (bit-identical to
    /// [`super::flow::FlowDecoder::makespan`]). The frontier lives in
    /// `scratch.machine_free`.
    pub fn flow_makespan(&self, perm: &[usize], scratch: &mut DecodeScratch) -> Time {
        let m = self.n_machines;
        scratch.reset(self);
        let frontier = &mut scratch.machine_free;
        for &j in perm {
            let row = &self.duration[self.offsets[j]..self.offsets[j] + m];
            let mut prev = frontier[0].max(self.release[j]) + row[0];
            frontier[0] = prev;
            for k in 1..m {
                prev = prev.max(frontier[k]) + row[k];
                frontier[k] = prev;
            }
        }
        frontier[m - 1]
    }

    /// Sum of per-job completion times of a flow-shop permutation.
    pub fn flow_completion_sum(&self, perm: &[usize], scratch: &mut DecodeScratch) -> Time {
        let m = self.n_machines;
        scratch.reset(self);
        let mut sum = 0;
        for &j in perm {
            let row = &self.duration[self.offsets[j]..self.offsets[j] + m];
            let mut prev = scratch.machine_free[0].max(self.release[j]) + row[0];
            scratch.machine_free[0] = prev;
            for k in 1..m {
                prev = prev.max(scratch.machine_free[k]) + row[k];
                scratch.machine_free[k] = prev;
            }
            sum += prev;
        }
        sum
    }

    /// Open-shop makespan of a dense-op-id permutation: gene `v`
    /// schedules job `v / m` on machine `v % m` (the encoding
    /// `serve` races; bit-identical to
    /// [`super::open::OpenDecoder::by_op_order`] on the same order).
    pub fn open_order_makespan(&self, perm: &[usize], scratch: &mut DecodeScratch) -> Time {
        debug_assert_eq!(perm.len(), self.total_ops());
        scratch.reset(self);
        let mut mk = 0;
        // Open tables are uniform (`offsets[j] = j * m`, stage index ==
        // machine index), so gene `v` *is* the dense op id and the
        // `job` / `machine` arrays replace the `v / m`, `v % m`
        // divisions with two sequential loads.
        for &v in perm {
            let (j, mach) = (self.job[v], self.machine[v]);
            let start = scratch.job_free[j].max(scratch.machine_free[mach]);
            let end = start + self.duration[v];
            scratch.job_free[j] = end;
            scratch.machine_free[mach] = end;
            mk = mk.max(end);
        }
        mk
    }

    /// Sum of per-job completion times of a dense-op-id permutation.
    pub fn open_order_completion_sum(&self, perm: &[usize], scratch: &mut DecodeScratch) -> Time {
        self.open_order_makespan(perm, scratch);
        scratch.job_free.iter().sum()
    }
}

/// Flat struct-of-arrays view of a flexible instance: the per-op
/// eligible `(machine, duration)` choice lists flattened into one
/// flat pair array indexed through `choice_off` (machine and duration
/// are always read together, so they share a cache line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlexTable {
    n_jobs: usize,
    n_machines: usize,
    /// Job-major dense op offsets (`n_jobs + 1` entries).
    offsets: Vec<usize>,
    /// `choice_off[id]..choice_off[id + 1]` = flat choice range of op `id`.
    choice_off: Vec<usize>,
    choice: Vec<(usize, Time)>,
    release: Vec<Time>,
}

impl FlexTable {
    /// Flattens a flexible instance. Decode semantics match
    /// [`super::flexible::FlexDecoder::new`] (no setups, no machine
    /// constraints — the configuration the solver races).
    pub fn from_flexible(inst: &FlexibleInstance) -> Self {
        let n = inst.n_jobs();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut choice_off = vec![0usize];
        let mut choice = Vec::new();
        for j in 0..n {
            for s in 0..inst.n_ops(j) {
                choice.extend_from_slice(&inst.op(j, s).choices);
                choice_off.push(choice.len());
            }
            offsets.push(choice_off.len() - 1);
        }
        FlexTable {
            n_jobs: n,
            n_machines: inst.n_machines(),
            offsets,
            choice_off,
            choice,
            release: (0..n).map(|j| inst.release(j)).collect(),
        }
    }

    /// Jobs in the table.
    #[inline]
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// Machines in the table.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    /// Total operation count.
    #[inline]
    pub fn total_ops(&self) -> usize {
        self.choice_off.len() - 1
    }

    /// Resolved `(machine, duration)` of op `id` under an assignment
    /// gene (reduced modulo the choice count, as in
    /// [`super::flexible::FlexDecoder::decode`]).
    #[inline]
    fn resolve(&self, id: usize, gene: usize) -> (usize, Time) {
        let lo = self.choice_off[id];
        let k = lo + gene % (self.choice_off[id + 1] - lo);
        self.choice[k]
    }

    /// Makespan of a dual `(assignment, sequence)` genome
    /// (bit-identical to [`super::flexible::FlexDecoder::makespan`]
    /// without setups/constraints).
    pub fn makespan(
        &self,
        assignment: &[usize],
        sequence: &[usize],
        scratch: &mut DecodeScratch,
    ) -> Time {
        debug_assert_eq!(assignment.len(), self.total_ops());
        debug_assert_eq!(sequence.len(), self.total_ops());
        scratch.reset_dims(self.n_jobs, self.n_machines, &self.release);
        // The per-job cursor holds the *dense op id* directly (not the
        // stage), saving an `offsets` load per dispatched op.
        scratch
            .next_op
            .copy_from_slice(&self.offsets[..self.n_jobs]);
        let mut mk = 0;
        for &j in sequence {
            let id = scratch.next_op[j];
            let (m, d) = self.resolve(id, assignment[id]);
            let start = scratch.job_free[j].max(scratch.machine_free[m]);
            let end = start + d;
            scratch.job_free[j] = end;
            scratch.machine_free[m] = end;
            scratch.next_op[j] = id + 1;
            mk = mk.max(end);
        }
        mk
    }

    /// Sum of per-job completion times of a dual genome.
    pub fn completion_sum(
        &self,
        assignment: &[usize],
        sequence: &[usize],
        scratch: &mut DecodeScratch,
    ) -> Time {
        self.makespan(assignment, sequence, scratch);
        scratch.job_free.iter().sum()
    }
}

/// The whole per-decode state, reused across decodes: two flat
/// timestamp arrays (job and machine availability) plus the per-job
/// next-stage cursor. `reset` refills rather than reallocates, so a
/// decode performs no allocation after the first call.
#[derive(Debug, Default, Clone)]
pub struct DecodeScratch {
    /// Earliest time each job can start its next operation.
    job_free: Vec<Time>,
    /// Earliest time each machine is available.
    machine_free: Vec<Time>,
    /// Next unscheduled stage per job (`FlexTable::makespan` reuses it
    /// as a dense-op-id cursor instead).
    next_op: Vec<usize>,
}

impl DecodeScratch {
    /// Fresh, unsized scratch (sized lazily by the first `reset`).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset_dims(&mut self, n_jobs: usize, n_machines: usize, release: &[Time]) {
        self.job_free.clear();
        self.job_free.extend_from_slice(release);
        self.machine_free.clear();
        self.machine_free.resize(n_machines, 0);
        self.next_op.clear();
        self.next_op.resize(n_jobs, 0);
    }

    fn reset(&mut self, table: &OpTable) {
        self.reset_dims(table.n_jobs, table.n_machines, &table.release);
    }

    /// Per-job availability after the last decode (the completion time
    /// of each job's last scheduled operation).
    pub fn job_completions(&self) -> &[Time] {
        &self.job_free
    }
}

/// Checkpoint interval of the incremental decoders that replay by
/// dispatch state (job / open): the fold state is snapshotted every
/// `CKPT` positions during a re-time, so a later re-decode restores
/// the nearest snapshot with a handful of `memcpy`s and replays at
/// most `CKPT - 1` positions instead of the whole shared prefix.
const CKPT: usize = 32;

/// Finds the first index where two genomes differ (`len` when equal).
#[inline]
fn first_divergence(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Cumulative work counters of one incremental decoder — the
/// table-path numbers the serving layer surfaces in request traces
/// (how many chromosome decodes a race member ran, and how much of
/// that work the incremental cache actually had to re-time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCounters {
    /// `decode*` calls answered, including unchanged-genome cache hits.
    pub decodes: u64,
    /// Positions re-timed across all decodes (`len - divergence`,
    /// summed) — the suffix work the prefix cache could not skip. The
    /// ratio `retimed_positions / (decodes * len)` is the live
    /// counterpart of the d01 incremental-speedup lane.
    pub retimed_positions: u64,
}

/// Incremental re-decode of job-shop operation sequences.
///
/// Caches the last genome and the end time of every position. A
/// re-decode replays the shared prefix from the cache (the fold state
/// at position `p` is a pure function of positions `0..p`, so cached
/// end times reconstruct it exactly) and re-times only the suffix
/// from the first diverging position on. `decode` is bit-identical to
/// [`OpTable::job_makespan`] for any input.
#[derive(Debug, Clone)]
pub struct IncrementalJob {
    table: Arc<OpTable>,
    scratch: DecodeScratch,
    /// Last decoded genome (empty until the first decode).
    seq: Vec<usize>,
    /// End time of each position of the last decode.
    span_end: Vec<Time>,
    /// Machine dispatched at each position of the last decode.
    span_machine: Vec<usize>,
    /// Timestamp checkpoints: slot `k` holds `job_free`,
    /// `machine_free` and the running makespan after the first
    /// `k * CKPT` positions of the cached genome.
    ckpt_times: Vec<Time>,
    /// Cursor checkpoints: slot `k` holds `next_op` after the first
    /// `k * CKPT` positions.
    ckpt_next: Vec<usize>,
    makespan: Time,
    completion_sum: Time,
    divergence: usize,
    counters: DecodeCounters,
}

impl IncrementalJob {
    /// A cold decoder over `table`.
    pub fn new(table: Arc<OpTable>) -> Self {
        IncrementalJob {
            table,
            scratch: DecodeScratch::new(),
            seq: Vec::new(),
            span_end: Vec::new(),
            span_machine: Vec::new(),
            ckpt_times: Vec::new(),
            ckpt_next: Vec::new(),
            makespan: 0,
            completion_sum: 0,
            divergence: 0,
            counters: DecodeCounters::default(),
        }
    }

    /// First genome position whose timing diverged on the last
    /// `decode` (`genome length` when the genome was unchanged).
    pub fn divergence(&self) -> usize {
        self.divergence
    }

    /// Cumulative decode-work counters since construction.
    pub fn counters(&self) -> DecodeCounters {
        self.counters
    }

    fn redecode(&mut self, op_sequence: &[usize]) {
        let table = &*self.table;
        let n = op_sequence.len();
        debug_assert_eq!(n, table.total_ops());
        let d = if self.seq.len() == n {
            first_divergence(&self.seq, op_sequence)
        } else {
            0
        };
        self.divergence = d;
        self.counters.decodes += 1;
        if d == n && !self.seq.is_empty() {
            return; // Unchanged genome: the cached answer stands.
        }
        self.counters.retimed_positions += (n - d) as u64;
        let (nj, nm) = (table.n_jobs, table.n_machines);
        let stride = nj + nm + 1;
        self.span_end.resize(n, 0);
        self.span_machine.resize(n, 0);
        self.ckpt_times.resize((n / CKPT + 1) * stride, 0);
        self.ckpt_next.resize((n / CKPT + 1) * nj, 0);
        // Rebuild the fold state at the deepest checkpoint at or
        // before the divergence point (prefix checkpoints stay valid:
        // they cover positions the two genomes share), then replay
        // the remaining `< CKPT` prefix positions — two array writes
        // each, no availability maxing, no duration lookups.
        let k = d / CKPT;
        let mut mk = if k == 0 {
            self.scratch.reset(table);
            0
        } else {
            let t = &self.ckpt_times[k * stride..(k + 1) * stride];
            self.scratch.job_free.copy_from_slice(&t[..nj]);
            self.scratch.machine_free.copy_from_slice(&t[nj..nj + nm]);
            self.scratch
                .next_op
                .copy_from_slice(&self.ckpt_next[k * nj..(k + 1) * nj]);
            t[nj + nm]
        };
        for ((&j, &end), &m) in op_sequence[k * CKPT..d]
            .iter()
            .zip(&self.span_end[k * CKPT..d])
            .zip(&self.span_machine[k * CKPT..d])
        {
            self.scratch.job_free[j] = end;
            self.scratch.machine_free[m] = end;
            self.scratch.next_op[j] += 1;
            mk = mk.max(end);
        }
        // Re-time the suffix, refreshing the checkpoints it crosses
        // (all have index `> k`, so no live prefix slot is clobbered).
        for (i, &j) in op_sequence.iter().enumerate().skip(d) {
            let s = self.scratch.next_op[j];
            let id = table.offsets[j] + s;
            let m = table.machine[id];
            let start = self.scratch.job_free[j].max(self.scratch.machine_free[m]);
            let end = start + table.duration[id];
            self.scratch.job_free[j] = end;
            self.scratch.machine_free[m] = end;
            self.scratch.next_op[j] = s + 1;
            self.span_end[i] = end;
            self.span_machine[i] = m;
            mk = mk.max(end);
            if (i + 1) % CKPT == 0 {
                let base = (i + 1) / CKPT * stride;
                self.ckpt_times[base..base + nj].copy_from_slice(&self.scratch.job_free);
                self.ckpt_times[base + nj..base + nj + nm]
                    .copy_from_slice(&self.scratch.machine_free);
                self.ckpt_times[base + nj + nm] = mk;
                let nb = (i + 1) / CKPT * nj;
                self.ckpt_next[nb..nb + nj].copy_from_slice(&self.scratch.next_op);
            }
        }
        self.seq.clear();
        self.seq.extend_from_slice(op_sequence);
        self.makespan = mk;
        self.completion_sum = self.scratch.job_free.iter().sum();
    }

    /// Semi-active makespan of `op_sequence`.
    pub fn decode(&mut self, op_sequence: &[usize]) -> Time {
        self.redecode(op_sequence);
        self.makespan
    }

    /// Sum of per-job completion times of `op_sequence`.
    pub fn decode_completion_sum(&mut self, op_sequence: &[usize]) -> Time {
        self.redecode(op_sequence);
        self.completion_sum
    }
}

/// Incremental re-decode of flow-shop permutations. Caches the DP
/// frontier after every position, so a re-decode copies one frontier
/// row (`O(m)`) and runs the DP only over the changed suffix —
/// bit-identical to [`OpTable::flow_makespan`].
#[derive(Debug, Clone)]
pub struct IncrementalFlow {
    table: Arc<OpTable>,
    perm: Vec<usize>,
    /// `rows[p * m..(p + 1) * m]` = frontier after position `p`.
    rows: Vec<Time>,
    /// Per-job completion of the job at each position.
    span_completion: Vec<Time>,
    /// DP frontier scratch, reused across decodes.
    frontier: Vec<Time>,
    makespan: Time,
    completion_sum: Time,
    divergence: usize,
    counters: DecodeCounters,
}

impl IncrementalFlow {
    /// A cold decoder over `table`.
    pub fn new(table: Arc<OpTable>) -> Self {
        IncrementalFlow {
            table,
            perm: Vec::new(),
            rows: Vec::new(),
            span_completion: Vec::new(),
            frontier: Vec::new(),
            makespan: 0,
            completion_sum: 0,
            divergence: 0,
            counters: DecodeCounters::default(),
        }
    }

    /// First genome position whose timing diverged on the last
    /// `decode` (`genome length` when the genome was unchanged).
    pub fn divergence(&self) -> usize {
        self.divergence
    }

    /// Cumulative decode-work counters since construction.
    pub fn counters(&self) -> DecodeCounters {
        self.counters
    }

    fn redecode(&mut self, perm: &[usize]) {
        let table = &*self.table;
        let n = perm.len();
        let m = table.n_machines;
        let d = if self.perm.len() == n {
            first_divergence(&self.perm, perm)
        } else {
            0
        };
        self.divergence = d;
        self.counters.decodes += 1;
        if d == n && !self.perm.is_empty() {
            return;
        }
        self.counters.retimed_positions += (n - d) as u64;
        self.rows.resize(n * m, 0);
        self.span_completion.resize(n, 0);
        let frontier = &mut self.frontier;
        frontier.clear();
        match d {
            0 => frontier.resize(m, 0),
            _ => frontier.extend_from_slice(&self.rows[(d - 1) * m..d * m]),
        }
        for (p, &j) in perm.iter().enumerate().skip(d) {
            let row = &table.duration[table.offsets[j]..table.offsets[j] + m];
            let mut prev = frontier[0].max(table.release[j]) + row[0];
            frontier[0] = prev;
            for k in 1..m {
                prev = prev.max(frontier[k]) + row[k];
                frontier[k] = prev;
            }
            self.rows[p * m..(p + 1) * m].copy_from_slice(frontier);
            self.span_completion[p] = prev;
        }
        self.perm.clear();
        self.perm.extend_from_slice(perm);
        self.makespan = frontier[m - 1];
        self.completion_sum = self.span_completion.iter().sum();
    }

    /// Makespan of `perm`.
    pub fn decode(&mut self, perm: &[usize]) -> Time {
        self.redecode(perm);
        self.makespan
    }

    /// Sum of per-job completion times of `perm`.
    pub fn decode_completion_sum(&mut self, perm: &[usize]) -> Time {
        self.redecode(perm);
        self.completion_sum
    }
}

/// Incremental re-decode of open-shop dense-op-id permutations
/// (gene `v` = job `v / m` on machine `v % m`) — bit-identical to
/// [`OpTable::open_order_makespan`].
#[derive(Debug, Clone)]
pub struct IncrementalOpenOrder {
    table: Arc<OpTable>,
    scratch: DecodeScratch,
    perm: Vec<usize>,
    span_end: Vec<Time>,
    /// Job dispatched at each position of the last decode.
    span_job: Vec<usize>,
    /// Machine dispatched at each position of the last decode.
    span_machine: Vec<usize>,
    /// Checkpoints: slot `k` holds `job_free`, `machine_free` and the
    /// running makespan after the first `k * CKPT` positions.
    ckpt_times: Vec<Time>,
    makespan: Time,
    completion_sum: Time,
    divergence: usize,
    counters: DecodeCounters,
}

impl IncrementalOpenOrder {
    /// A cold decoder over `table`.
    pub fn new(table: Arc<OpTable>) -> Self {
        IncrementalOpenOrder {
            table,
            scratch: DecodeScratch::new(),
            perm: Vec::new(),
            span_end: Vec::new(),
            span_job: Vec::new(),
            span_machine: Vec::new(),
            ckpt_times: Vec::new(),
            makespan: 0,
            completion_sum: 0,
            divergence: 0,
            counters: DecodeCounters::default(),
        }
    }

    /// First genome position whose timing diverged on the last
    /// `decode` (`genome length` when the genome was unchanged).
    pub fn divergence(&self) -> usize {
        self.divergence
    }

    /// Cumulative decode-work counters since construction.
    pub fn counters(&self) -> DecodeCounters {
        self.counters
    }

    fn redecode(&mut self, perm: &[usize]) {
        let table = &*self.table;
        let n = perm.len();
        debug_assert_eq!(n, table.total_ops());
        let d = if self.perm.len() == n {
            first_divergence(&self.perm, perm)
        } else {
            0
        };
        self.divergence = d;
        self.counters.decodes += 1;
        if d == n && !self.perm.is_empty() {
            return;
        }
        self.counters.retimed_positions += (n - d) as u64;
        let (nj, nm) = (table.n_jobs, table.n_machines);
        let stride = nj + nm + 1;
        self.span_end.resize(n, 0);
        self.span_job.resize(n, 0);
        self.span_machine.resize(n, 0);
        self.ckpt_times.resize((n / CKPT + 1) * stride, 0);
        // Restore the deepest prefix checkpoint, replay the rest of
        // the shared prefix from the cached spans, re-time the suffix
        // (see `IncrementalJob::redecode` — same scheme, minus the
        // per-job cursor that open dispatch does not need).
        let k = d / CKPT;
        let mut mk = if k == 0 {
            self.scratch.reset(table);
            0
        } else {
            let t = &self.ckpt_times[k * stride..(k + 1) * stride];
            self.scratch.job_free.copy_from_slice(&t[..nj]);
            self.scratch.machine_free.copy_from_slice(&t[nj..nj + nm]);
            t[nj + nm]
        };
        for ((&end, &j), &mach) in self.span_end[k * CKPT..d]
            .iter()
            .zip(&self.span_job[k * CKPT..d])
            .zip(&self.span_machine[k * CKPT..d])
        {
            self.scratch.job_free[j] = end;
            self.scratch.machine_free[mach] = end;
            mk = mk.max(end);
        }
        for (i, &v) in perm.iter().enumerate().skip(d) {
            let (j, mach) = (table.job[v], table.machine[v]);
            let start = self.scratch.job_free[j].max(self.scratch.machine_free[mach]);
            let end = start + table.duration[v];
            self.scratch.job_free[j] = end;
            self.scratch.machine_free[mach] = end;
            self.span_end[i] = end;
            self.span_job[i] = j;
            self.span_machine[i] = mach;
            mk = mk.max(end);
            if (i + 1) % CKPT == 0 {
                let base = (i + 1) / CKPT * stride;
                self.ckpt_times[base..base + nj].copy_from_slice(&self.scratch.job_free);
                self.ckpt_times[base + nj..base + nj + nm]
                    .copy_from_slice(&self.scratch.machine_free);
                self.ckpt_times[base + nj + nm] = mk;
            }
        }
        self.perm.clear();
        self.perm.extend_from_slice(perm);
        self.makespan = mk;
        self.completion_sum = self.scratch.job_free.iter().sum();
    }

    /// Makespan of `perm`.
    pub fn decode(&mut self, perm: &[usize]) -> Time {
        self.redecode(perm);
        self.makespan
    }

    /// Sum of per-job completion times of `perm`.
    pub fn decode_completion_sum(&mut self, perm: &[usize]) -> Time {
        self.redecode(perm);
        self.completion_sum
    }
}

/// Incremental re-decode of flexible dual `(assignment, sequence)`
/// genomes — bit-identical to [`FlexTable::makespan`].
///
/// Divergence is the first sequence position whose timing can have
/// changed: either its job id differs, or the assignment gene of the
/// operation dispatched there differs (assignment genes are indexed
/// by op, not by position, so the cached per-position dense op ids
/// locate exactly the genes each position consumed).
#[derive(Debug, Clone)]
pub struct IncrementalFlex {
    table: Arc<FlexTable>,
    scratch: DecodeScratch,
    assign: Vec<usize>,
    seq: Vec<usize>,
    /// Position that dispatched each dense op id (locates the earliest
    /// position an assignment-gene mutation can affect without a
    /// per-position indirection scan).
    span_pos: Vec<usize>,
    /// Resolved machine of each position of the last decode (so the
    /// prefix replay never re-runs the choice-modulo resolution).
    span_machine: Vec<usize>,
    span_end: Vec<Time>,
    makespan: Time,
    completion_sum: Time,
    divergence: usize,
    counters: DecodeCounters,
}

impl IncrementalFlex {
    /// A cold decoder over `table`.
    pub fn new(table: Arc<FlexTable>) -> Self {
        IncrementalFlex {
            table,
            scratch: DecodeScratch::new(),
            assign: Vec::new(),
            seq: Vec::new(),
            span_pos: Vec::new(),
            span_machine: Vec::new(),
            span_end: Vec::new(),
            makespan: 0,
            completion_sum: 0,
            divergence: 0,
            counters: DecodeCounters::default(),
        }
    }

    /// First sequence position whose timing diverged on the last
    /// `decode` (`genome length` when nothing effective changed).
    pub fn divergence(&self) -> usize {
        self.divergence
    }

    /// Cumulative decode-work counters since construction.
    pub fn counters(&self) -> DecodeCounters {
        self.counters
    }

    fn redecode(&mut self, assignment: &[usize], sequence: &[usize]) {
        let n = sequence.len();
        debug_assert_eq!(n, self.table.total_ops());
        debug_assert_eq!(assignment.len(), self.table.total_ops());
        let d = if self.seq.len() == n {
            // Sequence divergence is a plain prefix scan; assignment
            // divergence short-circuits on the (common) slice-equal
            // fast path, else maps each changed gene to the position
            // that consumed it last decode and takes the minimum —
            // a complete decode dispatches every op exactly once, so
            // `span_pos` covers every id.
            let mut d = first_divergence(&self.seq, sequence);
            if assignment != self.assign.as_slice() {
                for (id, (a, b)) in assignment.iter().zip(&self.assign).enumerate() {
                    if a != b {
                        d = d.min(self.span_pos[id]);
                        if d == 0 {
                            break;
                        }
                    }
                }
            }
            d
        } else {
            0
        };
        self.divergence = d;
        self.counters.decodes += 1;
        if d == n && !self.seq.is_empty() {
            // The sequence matches and every consumed assignment gene
            // matches; untouched genes cannot affect timing.
            self.assign.clear();
            self.assign.extend_from_slice(assignment);
            return;
        }
        self.counters.retimed_positions += (n - d) as u64;
        let table = Arc::clone(&self.table);
        self.scratch
            .reset_dims(table.n_jobs, table.n_machines, &table.release);
        self.span_pos.resize(n, 0);
        self.span_machine.resize(n, 0);
        self.span_end.resize(n, 0);
        let mut mk = 0;
        // Replay the shared prefix from the cache: the assignment gene
        // of every consumed op is unchanged there, so the cached
        // machine and end time stand — three array writes per
        // position, no choice resolution.
        for ((&j, &end), &m) in sequence[..d]
            .iter()
            .zip(&self.span_end[..d])
            .zip(&self.span_machine[..d])
        {
            self.scratch.job_free[j] = end;
            self.scratch.machine_free[m] = end;
            self.scratch.next_op[j] += 1;
            mk = mk.max(end);
        }
        for (i, &j) in sequence.iter().enumerate().skip(d) {
            let s = self.scratch.next_op[j];
            let id = table.offsets[j] + s;
            let (m, dur) = table.resolve(id, assignment[id]);
            let start = self.scratch.job_free[j].max(self.scratch.machine_free[m]);
            let end = start + dur;
            self.scratch.job_free[j] = end;
            self.scratch.machine_free[m] = end;
            self.scratch.next_op[j] = s + 1;
            self.span_pos[id] = i;
            self.span_machine[i] = m;
            self.span_end[i] = end;
            mk = mk.max(end);
        }
        self.assign.clear();
        self.assign.extend_from_slice(assignment);
        self.seq.clear();
        self.seq.extend_from_slice(sequence);
        self.makespan = mk;
        self.completion_sum = self.scratch.job_free.iter().sum();
    }

    /// Makespan of the dual genome.
    pub fn decode(&mut self, assignment: &[usize], sequence: &[usize]) -> Time {
        self.redecode(assignment, sequence);
        self.makespan
    }

    /// Sum of per-job completion times of the dual genome.
    pub fn decode_completion_sum(&mut self, assignment: &[usize], sequence: &[usize]) -> Time {
        self.redecode(assignment, sequence);
        self.completion_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::flexible::FlexDecoder;
    use crate::decoder::flow::FlowDecoder;
    use crate::decoder::job::JobDecoder;
    use crate::decoder::open::OpenDecoder;
    use crate::instance::generate::{
        flexible_job_shop, flow_shop_taillard, job_shop_uniform, open_shop_uniform, GenConfig,
    };

    /// Repetition-permutation of jobs 0..n, each appearing m times, in
    /// a seed-dependent interleaving.
    fn rep_perm(n: usize, m: usize, salt: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n * m).collect();
        p.sort_by_key(|&i| {
            (2 * i as u64 + 1)
                .wrapping_mul(2 * salt as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        p.into_iter().map(|v| v % n).collect()
    }

    #[test]
    fn job_table_matches_reference_decoder() {
        let inst = job_shop_uniform(&GenConfig::new(6, 4, 11));
        let table = OpTable::from_job(&inst);
        let d = JobDecoder::new(&inst);
        let mut scratch = DecodeScratch::new();
        for salt in 0..5 {
            let seq = rep_perm(6, 4, salt);
            assert_eq!(
                table.job_makespan(&seq, &mut scratch),
                d.semi_active_makespan(&seq)
            );
            let sched = d.semi_active(&seq);
            let sum: Time = sched.completion_times(6).iter().sum();
            assert_eq!(table.job_completion_sum(&seq, &mut scratch), sum);
        }
    }

    #[test]
    fn flow_table_matches_reference_decoder() {
        let inst = flow_shop_taillard(&GenConfig::new(9, 5, 3));
        let table = OpTable::from_flow(&inst);
        let d = FlowDecoder::new(&inst);
        let mut scratch = DecodeScratch::new();
        let perm: Vec<usize> = (0..9).rev().collect();
        assert_eq!(table.flow_makespan(&perm, &mut scratch), d.makespan(&perm));
        let sum: Time = d.completion_times(&perm).iter().sum();
        assert_eq!(table.flow_completion_sum(&perm, &mut scratch), sum);
    }

    #[test]
    fn open_table_matches_reference_decoder() {
        let inst = open_shop_uniform(&GenConfig::new(5, 4, 8));
        let table = OpTable::from_open(&inst);
        let d = OpenDecoder::new(&inst);
        let mut scratch = DecodeScratch::new();
        let perm: Vec<usize> = (0..20).map(|i| (i * 3) % 20).collect();
        let order: Vec<(usize, usize)> = perm.iter().map(|&v| (v / 4, v % 4)).collect();
        let sched = d.by_op_order(&order);
        assert_eq!(
            table.open_order_makespan(&perm, &mut scratch),
            sched.makespan()
        );
        let sum: Time = sched.completion_times(5).iter().sum();
        assert_eq!(table.open_order_completion_sum(&perm, &mut scratch), sum);
    }

    #[test]
    fn flex_table_matches_reference_decoder() {
        let inst = flexible_job_shop(&GenConfig::new(5, 4, 9), 3, 2);
        let table = FlexTable::from_flexible(&inst);
        let d = FlexDecoder::new(&inst);
        let mut scratch = DecodeScratch::new();
        let assign: Vec<usize> = (0..table.total_ops()).map(|i| i * 5 % 7).collect();
        let seq = rep_perm(5, 3, 4);
        let sched = d.decode(&assign, &seq);
        assert_eq!(
            table.makespan(&assign, &seq, &mut scratch),
            sched.makespan()
        );
        let sum: Time = sched.completion_times(5).iter().sum();
        assert_eq!(table.completion_sum(&assign, &seq, &mut scratch), sum);
    }

    #[test]
    fn incremental_job_matches_full_after_any_mutation() {
        let inst = job_shop_uniform(&GenConfig::new(6, 4, 21));
        let table = Arc::new(OpTable::from_job(&inst));
        let mut scratch = DecodeScratch::new();
        let mut inc = IncrementalJob::new(Arc::clone(&table));
        let base = rep_perm(6, 4, 1);
        assert_eq!(inc.decode(&base), table.job_makespan(&base, &mut scratch));
        assert_eq!(inc.divergence(), 0);
        // Swap two adjacent equal-job-count positions at several points.
        for p in [0usize, 5, 11, 22] {
            let mut mutant = base.clone();
            mutant.swap(p, p + 1);
            assert_eq!(
                inc.decode(&mutant),
                table.job_makespan(&mutant, &mut scratch),
                "divergence at {p}"
            );
            // Back to base: divergence is again at p (if the swap changed it).
            assert_eq!(inc.decode(&base), table.job_makespan(&base, &mut scratch));
        }
    }

    #[test]
    fn incremental_noop_reports_divergence_past_the_end() {
        let inst = job_shop_uniform(&GenConfig::new(4, 3, 5));
        let table = Arc::new(OpTable::from_job(&inst));
        let mut inc = IncrementalJob::new(table);
        let seq = rep_perm(4, 3, 2);
        let mk = inc.decode(&seq);
        assert_eq!(inc.decode(&seq), mk);
        assert_eq!(inc.divergence(), seq.len());
    }

    #[test]
    fn incremental_flow_suffix_only() {
        let inst = flow_shop_taillard(&GenConfig::new(10, 4, 77));
        let table = Arc::new(OpTable::from_flow(&inst));
        let mut scratch = DecodeScratch::new();
        let mut inc = IncrementalFlow::new(Arc::clone(&table));
        let base: Vec<usize> = (0..10).collect();
        assert_eq!(inc.decode(&base), table.flow_makespan(&base, &mut scratch));
        let mut mutant = base.clone();
        mutant.swap(6, 9);
        assert_eq!(
            inc.decode(&mutant),
            table.flow_makespan(&mutant, &mut scratch)
        );
        assert_eq!(inc.divergence(), 6);
        assert_eq!(
            inc.decode_completion_sum(&mutant),
            table.flow_completion_sum(&mutant, &mut scratch)
        );
    }

    #[test]
    fn incremental_open_matches_full() {
        let inst = open_shop_uniform(&GenConfig::new(5, 4, 13));
        let table = Arc::new(OpTable::from_open(&inst));
        let mut scratch = DecodeScratch::new();
        let mut inc = IncrementalOpenOrder::new(Arc::clone(&table));
        let base: Vec<usize> = (0..20).map(|i| (i * 7) % 20).collect();
        assert_eq!(
            inc.decode(&base),
            table.open_order_makespan(&base, &mut scratch)
        );
        let mut mutant = base.clone();
        mutant.swap(3, 15);
        assert_eq!(
            inc.decode(&mutant),
            table.open_order_makespan(&mutant, &mut scratch)
        );
        assert_eq!(inc.divergence(), 3);
    }

    #[test]
    fn incremental_flex_sees_assignment_only_mutations() {
        let inst = flexible_job_shop(&GenConfig::new(5, 4, 31), 3, 3);
        let table = Arc::new(FlexTable::from_flexible(&inst));
        let mut scratch = DecodeScratch::new();
        let mut inc = IncrementalFlex::new(Arc::clone(&table));
        let seq = rep_perm(5, 3, 6);
        let assign: Vec<usize> = vec![0; table.total_ops()];
        assert_eq!(
            inc.decode(&assign, &seq),
            table.makespan(&assign, &seq, &mut scratch)
        );
        // Mutate one assignment gene only: the sequence is unchanged,
        // but the position consuming that gene must re-time.
        let mut mutated = assign.clone();
        mutated[7] = 1;
        assert_eq!(
            inc.decode(&mutated, &seq),
            table.makespan(&mutated, &seq, &mut scratch)
        );
        assert!(inc.divergence() <= seq.len());
    }
}
