//! Disjunctive / alternative graph machinery for job shops.
//!
//! AitZai et al. \[14\]\[15\] model the *blocking* job shop (no intermediate
//! buffers — the survey's Table I condition 5 dropped) with an alternative
//! graph; Somani & Singh \[16\] compute makespans by topological sorting the
//! selected graph and running a longest-path pass. Both are implemented
//! here:
//!
//! * [`DisjunctiveGraph::from_machine_orders`] builds the arc set for a
//!   complete selection (fixed op order on each machine), classically or
//!   with blocking (alternative) arcs;
//! * [`DisjunctiveGraph::topological_order`] is the Kahn toposort of \[16\];
//! * [`DisjunctiveGraph::longest_path_schedule`] turns the selection into
//!   start times (the longest-path/"critical path" evaluation), detecting
//!   infeasible (cyclic) selections.

use crate::instance::JobShopInstance;
use crate::schedule::{Schedule, ScheduledOp};
use crate::{Problem, ShopError, ShopResult, Time};

/// Arc of the selected graph: `start(to) >= start(from) + weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arc {
    to: usize,
    weight: Time,
}

/// A directed graph over operations (flat-indexed) representing one
/// complete selection of the disjunctions.
#[derive(Debug, Clone)]
pub struct DisjunctiveGraph<'a> {
    inst: &'a JobShopInstance,
    offsets: Vec<usize>,
    adj: Vec<Vec<Arc>>,
}

impl<'a> DisjunctiveGraph<'a> {
    /// Builds the graph for the machine orders in `machine_orders[m]`
    /// (each a sequence of `(job, op_index)` on machine `m`).
    ///
    /// With `blocking = false` this is the classic disjunctive graph:
    /// conjunctive arcs along routes plus `weight = duration` arcs along
    /// each machine order. With `blocking = true` the machine arcs become
    /// *alternative* arcs implementing the no-buffer semantics: machine
    /// `m` is released only when its current job *starts* its next
    /// operation, so the successor on `m` waits for that start instead of
    /// the completion.
    pub fn from_machine_orders(
        inst: &'a JobShopInstance,
        machine_orders: &[Vec<(usize, usize)>],
        blocking: bool,
    ) -> Self {
        let n = inst.n_jobs();
        let mut offsets = vec![0usize; n + 1];
        for j in 0..n {
            offsets[j + 1] = offsets[j] + inst.n_ops(j);
        }
        let total = offsets[n];
        let mut adj: Vec<Vec<Arc>> = vec![Vec::new(); total];

        // Conjunctive arcs: route order within each job.
        for j in 0..n {
            for s in 1..inst.n_ops(j) {
                let from = offsets[j] + s - 1;
                let to = offsets[j] + s;
                adj[from].push(Arc {
                    to,
                    weight: inst.op(j, s - 1).duration,
                });
            }
        }

        // Machine arcs for the given selection.
        for order in machine_orders {
            for w in order.windows(2) {
                let (j1, s1) = w[0];
                let (j2, s2) = w[1];
                let from = offsets[j1] + s1;
                let to = offsets[j2] + s2;
                let last_op_of_job = s1 + 1 >= inst.n_ops(j1);
                if blocking && !last_op_of_job {
                    // Blocking: successor waits until job j1 *starts* its
                    // next operation (machine only then freed):
                    // start(to) >= start(next_in_job(from)).
                    let next_in_job = offsets[j1] + s1 + 1;
                    adj[next_in_job].push(Arc { to, weight: 0 });
                } else {
                    adj[from].push(Arc {
                        to,
                        weight: inst.op(j1, s1).duration,
                    });
                }
            }
        }

        DisjunctiveGraph { inst, offsets, adj }
    }

    /// Number of operation nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no operation nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Kahn topological sort; `Err(CyclicSelection)` when the selection is
    /// infeasible (the blocking variant can deadlock).
    pub fn topological_order(&self) -> ShopResult<Vec<usize>> {
        let total = self.len();
        let mut indeg = vec![0usize; total];
        for arcs in &self.adj {
            for a in arcs {
                indeg[a.to] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..total).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(total);
        while let Some(v) = queue.pop() {
            order.push(v);
            for a in &self.adj[v] {
                indeg[a.to] -= 1;
                if indeg[a.to] == 0 {
                    queue.push(a.to);
                }
            }
        }
        if order.len() != total {
            return Err(ShopError::CyclicSelection);
        }
        Ok(order)
    }

    /// Longest-path evaluation (Somani & Singh \[16\]): earliest start times
    /// honouring every arc, then the schedule they induce. Fails on
    /// cyclic selections.
    pub fn longest_path_schedule(&self) -> ShopResult<Schedule> {
        let order = self.topological_order()?;
        let mut start = vec![0 as Time; self.len()];
        // Release dates initialise the first op of each job.
        for j in 0..self.inst.n_jobs() {
            start[self.offsets[j]] = self.inst.release(j);
        }
        for &v in &order {
            for a in &self.adj[v] {
                start[a.to] = start[a.to].max(start[v] + a.weight);
            }
        }
        let mut ops = Vec::with_capacity(self.len());
        for j in 0..self.inst.n_jobs() {
            for s in 0..self.inst.n_ops(j) {
                let v = self.offsets[j] + s;
                let op = self.inst.op(j, s);
                ops.push(ScheduledOp {
                    job: j,
                    op: s,
                    machine: op.machine,
                    start: start[v],
                    end: start[v] + op.duration,
                });
            }
        }
        Ok(Schedule::new(ops))
    }

    /// Makespan of the selection, or `Err` when cyclic.
    pub fn makespan(&self) -> ShopResult<Time> {
        Ok(self.longest_path_schedule()?.makespan())
    }
}

/// Extracts per-machine `(job, op)` orders from an operation sequence
/// (permutation with repetition) — the bridge from GA chromosomes to
/// graph selections.
pub fn machine_orders_from_sequence(
    inst: &JobShopInstance,
    op_sequence: &[usize],
) -> Vec<Vec<(usize, usize)>> {
    let mut next_op = vec![0usize; inst.n_jobs()];
    let mut orders = vec![Vec::new(); inst.n_machines()];
    for &j in op_sequence {
        let s = next_op[j];
        let m = inst.op(j, s).machine;
        orders[m].push((j, s));
        next_op[j] = s + 1;
    }
    orders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::job::JobDecoder;
    use crate::instance::generate::{job_shop_uniform, GenConfig};
    use crate::instance::Op;

    fn tiny() -> JobShopInstance {
        JobShopInstance::new(vec![
            vec![Op::new(0, 3), Op::new(1, 2)],
            vec![Op::new(1, 2), Op::new(0, 4)],
        ])
        .unwrap()
    }

    #[test]
    fn classic_graph_matches_semi_active_makespan() {
        // For a fixed machine order (induced by a sequence), the longest
        // path start times give the same makespan as semi-active decoding.
        let inst = job_shop_uniform(&GenConfig::new(5, 4, 10));
        let d = JobDecoder::new(&inst);
        let seq: Vec<usize> = (0..4).flat_map(|_| 0..5).collect();
        let orders = machine_orders_from_sequence(&inst, &seq);
        let g = DisjunctiveGraph::from_machine_orders(&inst, &orders, false);
        let graph_mk = g.makespan().unwrap();
        let semi_mk = d.semi_active_makespan(&seq);
        assert_eq!(graph_mk, semi_mk);
        g.longest_path_schedule()
            .unwrap()
            .validate_job(&inst)
            .unwrap();
    }

    #[test]
    fn toposort_covers_all_nodes() {
        let inst = tiny();
        let orders = machine_orders_from_sequence(&inst, &[0, 1, 0, 1]);
        let g = DisjunctiveGraph::from_machine_orders(&inst, &orders, false);
        let order = g.topological_order().unwrap();
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn cyclic_selection_detected() {
        let inst = tiny();
        // Force a cycle: on M0 schedule J1 before J0, on M1 J0 before J1,
        // combined with routes J0: M0->M1 and J1: M1->M0 this is fine;
        // instead cross them the impossible way.
        let orders = vec![
            vec![(1, 1), (0, 0)], // M0: J1's 2nd op before J0's 1st
            vec![(0, 1), (1, 0)], // M1: J0's 2nd op before J1's 1st
        ];
        let g = DisjunctiveGraph::from_machine_orders(&inst, &orders, false);
        assert_eq!(g.topological_order(), Err(ShopError::CyclicSelection));
        assert!(g.makespan().is_err());
    }

    #[test]
    fn blocking_never_beats_classic() {
        // Blocking only adds constraints, so its makespan is >= classic.
        let inst = job_shop_uniform(&GenConfig::new(4, 3, 20));
        let seq: Vec<usize> = (0..3).flat_map(|_| 0..4).collect();
        let orders = machine_orders_from_sequence(&inst, &seq);
        let classic = DisjunctiveGraph::from_machine_orders(&inst, &orders, false)
            .makespan()
            .unwrap();
        let blocking = DisjunctiveGraph::from_machine_orders(&inst, &orders, true);
        match blocking.makespan() {
            Ok(mk) => assert!(mk >= classic),
            Err(ShopError::CyclicSelection) => {} // deadlock is legal here
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn blocking_hand_checked() {
        // J0: M0(3) -> M1(2); J1: M0(1) -> M1(4). Same route shape.
        let inst = JobShopInstance::new(vec![
            vec![Op::new(0, 3), Op::new(1, 2)],
            vec![Op::new(0, 1), Op::new(1, 4)],
        ])
        .unwrap();
        // Orders: M0: J0 then J1; M1: J0 then J1.
        let orders = vec![vec![(0, 0), (1, 0)], vec![(0, 1), (1, 1)]];
        let classic = DisjunctiveGraph::from_machine_orders(&inst, &orders, false)
            .makespan()
            .unwrap();
        // Classic: J0 M0 [0,3], M1 [3,5]; J1 M0 [3,4], M1 [5,9] -> 9.
        assert_eq!(classic, 9);
        let s = DisjunctiveGraph::from_machine_orders(&inst, &orders, true)
            .longest_path_schedule()
            .unwrap();
        // Blocking: J1 cannot enter M0 before J0 *starts* on M1 at t=3 —
        // same here; makespan still 9 but the arc structure differs.
        assert_eq!(s.makespan(), 9);
    }

    #[test]
    fn blocking_changes_makespan_when_buffer_needed() {
        // J0: M0(1) -> M1(10); J1: M0(1) -> M1(1).
        // Classic: J1 leaves M0 at t=2 and waits in buffer for M1.
        // Blocking: J1 still processes on M0 [1,2]; it then *blocks* M0,
        // which matters only for a third job — so add J2 on M0.
        let inst = JobShopInstance::new(vec![
            vec![Op::new(0, 1), Op::new(1, 10)],
            vec![Op::new(0, 1), Op::new(1, 1)],
            vec![Op::new(0, 5)],
        ])
        .unwrap();
        let orders = vec![
            vec![(0, 0), (1, 0), (2, 0)], // M0
            vec![(0, 1), (1, 1)],         // M1
        ];
        let classic = DisjunctiveGraph::from_machine_orders(&inst, &orders, false)
            .makespan()
            .unwrap();
        let blocking = DisjunctiveGraph::from_machine_orders(&inst, &orders, true)
            .makespan()
            .unwrap();
        // Classic: J2 starts on M0 at 2, done 7; J0 M1 [1,11], J1 M1 [11,12].
        assert_eq!(classic, 12);
        // Blocking: J1 occupies M0 until it can start on M1 at t=11, so J2
        // runs [11,16]; makespan 16.
        assert_eq!(blocking, 16);
        assert!(blocking > classic);
    }
}
