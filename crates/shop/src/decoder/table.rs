//! Data-oriented decoder hot path: struct-of-arrays operation tables
//! and the per-member decoders the race evaluates through.
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
//!   / [`IncrementalFlex`] — one race member's decoder: the shared
//!   table and one scratch. Every call decodes the whole genome:
//!   consecutive genomes in a race batch are unrelated, so there is no
//!   shared prefix worth caching (DESIGN §9). The race that owns the
//!   decoder counts and times its calls (`serve::portfolio::race`).
//!   The `Incremental*` names are historical; they stay because the
//!   perfbench harness calls them by name.
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
            // `self.job[id]` is `j`, but reading it from the table puts
            // both availability loads at the same dependency depth, so
            // the compiler keeps the `max` branch-free; indexed by `j`
            // it becomes a data-dependent branch that mispredicts about
            // half the time and roughly halves decode throughput.
            let (jj, m) = (self.job[id], self.machine[id]);
            let start = scratch.job_free[jj].max(scratch.machine_free[m]);
            let end = start + self.duration[id];
            scratch.job_free[jj] = end;
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
}

/// The state every member decoder carries: the shared table and one
/// reusable scratch.
#[derive(Debug, Clone)]
struct Member<T> {
    table: Arc<T>,
    scratch: DecodeScratch,
}

impl<T> Member<T> {
    fn new(table: Arc<T>) -> Self {
        Member {
            table,
            scratch: DecodeScratch::new(),
        }
    }
}

/// Job-shop member decoder: every call decodes the whole operation
/// sequence through [`OpTable::job_makespan`] /
/// [`OpTable::job_completion_sum`] with one reusable scratch. The type
/// keeps its name for existing callers.
#[derive(Debug, Clone)]
pub struct IncrementalJob(Member<OpTable>);

impl IncrementalJob {
    /// A decoder over `table`.
    pub fn new(table: Arc<OpTable>) -> Self {
        IncrementalJob(Member::new(table))
    }

    /// Semi-active makespan of the operation sequence `seq`.
    pub fn decode(&mut self, seq: &[usize]) -> Time {
        self.0.table.job_makespan(seq, &mut self.0.scratch)
    }

    /// Sum of per-job completion times of `seq`.
    pub fn decode_completion_sum(&mut self, seq: &[usize]) -> Time {
        self.0.table.job_completion_sum(seq, &mut self.0.scratch)
    }
}

/// Flow-shop member decoder: every call decodes the whole permutation
/// through [`OpTable::flow_makespan`] / [`OpTable::flow_completion_sum`].
/// The type keeps its name for existing callers.
#[derive(Debug, Clone)]
pub struct IncrementalFlow(Member<OpTable>);

impl IncrementalFlow {
    /// A decoder over `table`.
    pub fn new(table: Arc<OpTable>) -> Self {
        IncrementalFlow(Member::new(table))
    }

    /// Makespan of `perm`.
    pub fn decode(&mut self, perm: &[usize]) -> Time {
        self.0.table.flow_makespan(perm, &mut self.0.scratch)
    }

    /// Sum of per-job completion times of `perm`.
    pub fn decode_completion_sum(&mut self, perm: &[usize]) -> Time {
        self.0.table.flow_completion_sum(perm, &mut self.0.scratch)
    }
}

/// Open-shop member decoder over dense-op-id permutations (gene `v` =
/// job `v / m` on machine `v % m`): every call decodes in full through
/// [`OpTable::open_order_makespan`] /
/// [`OpTable::open_order_completion_sum`]. The type keeps its name for
/// existing callers.
#[derive(Debug, Clone)]
pub struct IncrementalOpenOrder(Member<OpTable>);

impl IncrementalOpenOrder {
    /// A decoder over `table`.
    pub fn new(table: Arc<OpTable>) -> Self {
        IncrementalOpenOrder(Member::new(table))
    }

    /// Makespan of `perm`.
    pub fn decode(&mut self, perm: &[usize]) -> Time {
        self.0.table.open_order_makespan(perm, &mut self.0.scratch)
    }

    /// Sum of per-job completion times of `perm`.
    pub fn decode_completion_sum(&mut self, perm: &[usize]) -> Time {
        self.0
            .table
            .open_order_completion_sum(perm, &mut self.0.scratch)
    }
}

/// Flexible member decoder over dual `(assignment, sequence)` genomes:
/// every call decodes in full through [`FlexTable::makespan`] /
/// [`FlexTable::completion_sum`]. The type keeps its name for existing
/// callers.
#[derive(Debug, Clone)]
pub struct IncrementalFlex(Member<FlexTable>);

impl IncrementalFlex {
    /// A decoder over `table`.
    pub fn new(table: Arc<FlexTable>) -> Self {
        IncrementalFlex(Member::new(table))
    }

    /// Makespan of the dual genome.
    pub fn decode(&mut self, assign: &[usize], seq: &[usize]) -> Time {
        self.0.table.makespan(assign, seq, &mut self.0.scratch)
    }

    /// Sum of per-job completion times of the dual genome.
    pub fn decode_completion_sum(&mut self, assign: &[usize], seq: &[usize]) -> Time {
        self.0
            .table
            .completion_sum(assign, seq, &mut self.0.scratch)
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
}
