//! Classic benchmark instances embedded in the crate.
//!
//! Park et al. \[26\] evaluate on the MT (Fisher–Thompson), ORB and ABZ
//! families. We embed the Fisher–Thompson instances FT06 / FT10 / FT20 and
//! LA01 (transcribed from the OR-Library `jobshop1.txt` collection) and
//! provide seeded same-shape stand-ins for the ORB and ABZ families whose
//! exact data is not redistributed here (see DESIGN.md §4). FT06's optimum
//! (55) is small enough to verify in tests; the larger optima are recorded
//! for reference only.

use super::flexible::{FlexOp, FlexibleInstance};
use super::flow::FlowShopInstance;
use super::generate::{job_shop_uniform, GenConfig};
use super::job::JobShopInstance;
use super::open::OpenShopInstance;
use super::Op;

/// A named benchmark instance with its best-known makespan.
pub struct Benchmark {
    /// Conventional benchmark name (e.g. `ft06`).
    pub name: &'static str,
    /// The instance data.
    pub instance: JobShopInstance,
    /// Best-known (optimal where proven) makespan, for reporting.
    pub best_known: u64,
}

fn from_pairs(data: &[&[(usize, u64)]]) -> JobShopInstance {
    let jobs = data
        .iter()
        .map(|route| route.iter().map(|&(m, d)| Op::new(m, d)).collect())
        .collect();
    JobShopInstance::new(jobs).expect("embedded data is well-formed")
}

/// Fisher–Thompson 6×6 (optimum 55).
pub fn ft06() -> Benchmark {
    let data: &[&[(usize, u64)]] = &[
        &[(2, 1), (0, 3), (1, 6), (3, 7), (5, 3), (4, 6)],
        &[(1, 8), (2, 5), (4, 10), (5, 10), (0, 10), (3, 4)],
        &[(2, 5), (3, 4), (5, 8), (0, 9), (1, 1), (4, 7)],
        &[(1, 5), (0, 5), (2, 5), (3, 3), (4, 8), (5, 9)],
        &[(2, 9), (1, 3), (4, 5), (5, 4), (0, 3), (3, 1)],
        &[(1, 3), (3, 3), (5, 9), (0, 10), (4, 4), (2, 1)],
    ];
    Benchmark {
        name: "ft06",
        instance: from_pairs(data),
        best_known: 55,
    }
}

/// Fisher–Thompson 10×10 (optimum 930).
pub fn ft10() -> Benchmark {
    let data: &[&[(usize, u64)]] = &[
        &[
            (0, 29),
            (1, 78),
            (2, 9),
            (3, 36),
            (4, 49),
            (5, 11),
            (6, 62),
            (7, 56),
            (8, 44),
            (9, 21),
        ],
        &[
            (0, 43),
            (2, 90),
            (4, 75),
            (9, 11),
            (3, 69),
            (1, 28),
            (6, 46),
            (5, 46),
            (7, 72),
            (8, 30),
        ],
        &[
            (1, 91),
            (0, 85),
            (3, 39),
            (2, 74),
            (8, 90),
            (5, 10),
            (7, 12),
            (6, 89),
            (9, 45),
            (4, 33),
        ],
        &[
            (1, 81),
            (2, 95),
            (0, 71),
            (4, 99),
            (6, 9),
            (8, 52),
            (7, 85),
            (3, 98),
            (9, 22),
            (5, 43),
        ],
        &[
            (2, 14),
            (0, 6),
            (1, 22),
            (5, 61),
            (3, 26),
            (4, 69),
            (8, 21),
            (7, 49),
            (9, 72),
            (6, 53),
        ],
        &[
            (2, 84),
            (1, 2),
            (5, 52),
            (3, 95),
            (8, 48),
            (9, 72),
            (0, 47),
            (6, 65),
            (4, 6),
            (7, 25),
        ],
        &[
            (1, 46),
            (0, 37),
            (3, 61),
            (2, 13),
            (6, 32),
            (5, 21),
            (9, 32),
            (8, 89),
            (7, 30),
            (4, 55),
        ],
        &[
            (2, 31),
            (0, 86),
            (1, 46),
            (5, 74),
            (4, 32),
            (6, 88),
            (8, 19),
            (9, 48),
            (7, 36),
            (3, 79),
        ],
        &[
            (0, 76),
            (1, 69),
            (3, 76),
            (5, 51),
            (2, 85),
            (9, 11),
            (6, 40),
            (7, 89),
            (4, 26),
            (8, 74),
        ],
        &[
            (1, 85),
            (0, 13),
            (2, 61),
            (6, 7),
            (8, 64),
            (9, 76),
            (5, 47),
            (3, 52),
            (4, 90),
            (7, 45),
        ],
    ];
    Benchmark {
        name: "ft10",
        instance: from_pairs(data),
        best_known: 930,
    }
}

/// Fisher–Thompson 20×5 (optimum 1165).
pub fn ft20() -> Benchmark {
    let data: &[&[(usize, u64)]] = &[
        &[(0, 29), (1, 9), (2, 49), (3, 62), (4, 44)],
        &[(0, 43), (1, 75), (3, 69), (2, 46), (4, 72)],
        &[(1, 91), (0, 39), (2, 90), (4, 12), (3, 45)],
        &[(1, 81), (0, 71), (4, 9), (2, 85), (3, 22)],
        &[(2, 14), (1, 22), (0, 26), (3, 21), (4, 72)],
        &[(2, 84), (1, 52), (4, 48), (0, 47), (3, 6)],
        &[(1, 46), (0, 61), (2, 32), (3, 32), (4, 30)],
        &[(2, 31), (1, 46), (0, 19), (3, 36), (4, 79)],
        &[(0, 76), (3, 76), (2, 85), (1, 40), (4, 26)],
        &[(1, 85), (2, 61), (0, 64), (3, 47), (4, 90)],
        &[(1, 78), (3, 36), (0, 11), (4, 56), (2, 21)],
        &[(2, 90), (0, 11), (1, 28), (3, 46), (4, 30)],
        &[(0, 85), (2, 74), (1, 10), (3, 89), (4, 33)],
        &[(2, 95), (0, 99), (1, 52), (3, 98), (4, 43)],
        &[(0, 6), (1, 61), (4, 69), (2, 49), (3, 53)],
        &[(1, 2), (0, 95), (3, 72), (4, 65), (2, 25)],
        &[(0, 37), (2, 13), (1, 21), (3, 89), (4, 55)],
        &[(0, 86), (1, 74), (4, 88), (2, 48), (3, 79)],
        &[(1, 69), (2, 51), (0, 11), (3, 89), (4, 74)],
        &[(0, 13), (1, 7), (2, 76), (3, 52), (4, 45)],
    ];
    Benchmark {
        name: "ft20",
        instance: from_pairs(data),
        best_known: 1165,
    }
}

/// Lawrence LA01, 10×5 (optimum 666).
pub fn la01() -> Benchmark {
    let data: &[&[(usize, u64)]] = &[
        &[(1, 21), (0, 53), (4, 95), (3, 55), (2, 34)],
        &[(0, 21), (3, 52), (4, 16), (2, 26), (1, 71)],
        &[(3, 39), (4, 98), (1, 42), (2, 31), (0, 12)],
        &[(1, 77), (0, 55), (4, 79), (2, 66), (3, 77)],
        &[(0, 83), (3, 34), (2, 64), (1, 19), (4, 37)],
        &[(1, 54), (2, 43), (4, 79), (0, 92), (3, 62)],
        &[(3, 69), (4, 77), (1, 87), (2, 87), (0, 93)],
        &[(2, 38), (3, 60), (1, 41), (0, 24), (4, 83)],
        &[(3, 17), (1, 49), (4, 25), (0, 44), (2, 98)],
        &[(4, 77), (3, 79), (2, 43), (1, 75), (0, 96)],
    ];
    Benchmark {
        name: "la01",
        instance: from_pairs(data),
        best_known: 666,
    }
}

/// Seeded 10×10 stand-ins for the ORB family (exact data not embedded;
/// see DESIGN.md §4). Deterministic per index.
pub fn orb_like(index: u32) -> Benchmark {
    let inst = job_shop_uniform(&GenConfig::new(10, 10, 0x06B0_0000 + index as u64));
    Benchmark {
        name: "orb-like",
        instance: inst,
        best_known: 0,
    }
}

/// Seeded 10×10 stand-ins for the ABZ family.
pub fn abz_like(index: u32) -> Benchmark {
    let inst = job_shop_uniform(&GenConfig::new(10, 10, 0xAB2_0000 + index as u64));
    Benchmark {
        name: "abz-like",
        instance: inst,
        best_known: 0,
    }
}

/// Textbook 5×3 permutation flow shop. Small enough that the optimal
/// permutation makespan (46, over all 120 permutations) is verified by
/// exhaustive search in the decoder test suite, so it anchors both the
/// decoder and the heuristics (Johnson/CDS/Palmer/NEH) against ground
/// truth rather than a transcribed best-known value.
pub fn flow05() -> (FlowShopInstance, u64) {
    let proc: Vec<Vec<u64>> = vec![
        vec![5, 9, 8],
        vec![9, 3, 10],
        vec![9, 4, 5],
        vec![4, 8, 8],
        vec![3, 5, 6],
    ];
    let inst = FlowShopInstance::new(proc).expect("well-formed");
    (inst, 46)
}

/// The classic 3×3 Latin-square open shop: every job needs 1, 2 and 3
/// time units on some machine, arranged so each machine's load and each
/// job's load are both 6. Its optimum equals the lower bound 6 (achieved
/// by rotating jobs across machines in rounds), making it the standard
/// example that open-shop optimal schedules can saturate every machine.
pub fn open_latin3() -> (OpenShopInstance, u64) {
    let proc: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![2, 3, 1], vec![3, 1, 2]];
    let inst = OpenShopInstance::new(proc).expect("well-formed");
    (inst, 6)
}

/// Textbook 3-job flexible job shop on 3 machines, 2 operations per job
/// with two eligible machines each. Small enough that the decoder tests
/// can check feasibility for *every* assignment vector exhaustively.
pub fn flex03() -> FlexibleInstance {
    let job = |ops: Vec<Vec<(usize, u64)>>| -> Vec<FlexOp> {
        ops.into_iter()
            .map(|c| FlexOp::new(c).expect("well-formed"))
            .collect()
    };
    FlexibleInstance::new(vec![
        job(vec![vec![(0, 3), (1, 5)], vec![(1, 2), (2, 4)]]),
        job(vec![vec![(1, 4), (2, 2)], vec![(0, 3), (2, 5)]]),
        job(vec![vec![(0, 2), (2, 3)], vec![(0, 6), (1, 3)]]),
    ])
    .expect("well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;

    /// All embedded exact benchmarks.
    fn all_exact() -> Vec<Benchmark> {
        vec![ft06(), ft10(), ft20(), la01()]
    }

    #[test]
    fn shapes_are_correct() {
        let b = ft06();
        assert_eq!(b.instance.n_jobs(), 6);
        assert_eq!(b.instance.n_machines(), 6);
        assert_eq!(ft10().instance.n_jobs(), 10);
        assert_eq!(ft10().instance.n_machines(), 10);
        assert_eq!(ft20().instance.n_jobs(), 20);
        assert_eq!(ft20().instance.n_machines(), 5);
        assert_eq!(la01().instance.n_jobs(), 10);
        assert_eq!(la01().instance.n_machines(), 5);
    }

    #[test]
    fn each_job_visits_each_machine_once() {
        for b in all_exact() {
            let inst = &b.instance;
            for j in 0..inst.n_jobs() {
                let mut ms: Vec<usize> = inst.route(j).iter().map(|o| o.machine).collect();
                ms.sort_unstable();
                assert_eq!(ms, (0..inst.n_machines()).collect::<Vec<_>>(), "{}", b.name);
            }
        }
    }

    #[test]
    fn lower_bounds_do_not_exceed_best_known() {
        for b in all_exact() {
            assert!(
                b.instance.makespan_lower_bound() <= b.best_known,
                "{}: LB {} > best known {}",
                b.name,
                b.instance.makespan_lower_bound(),
                b.best_known
            );
        }
    }
}
