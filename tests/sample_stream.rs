//! The sample stream is a model's only per-generation record. These
//! tests pin it exactly (every field's bits, hashed) for the four
//! `Individual`-based models under each of the serve path's three
//! genome toolkits, built by the very `ga::engine::Toolkit`
//! constructors `serve::solver` races (job-order `repetition` over
//! operation sequences, OX `permutation`, `dual` assignment+sequence
//! genomes), so a change to a serve bundle moves these goldens. They
//! also check that a run whose observer does not ask for samples never
//! builds one — no sequence view, no diversity pass.

use ga::crossover::PermCrossover;
use ga::dual::DualGenome;
use ga::engine::{Engine, GaConfig, Model, Toolkit};
use ga::mutate::SeqMutation;
use ga::stats::{GenerationSample, History};
use ga::termination::Termination;
use ga::Evaluator;
use pga::{CellularConfig, CellularGa, IslandConfig, IslandGa, IslandsOfCellular, MigrationConfig};
use shop::decoder::flexible::FlexDecoder;
use shop::decoder::flow::FlowDecoder;
use shop::decoder::job::JobDecoder;
use shop::instance::classic;
use shop::instance::generate::{flexible_job_shop, flow_shop_taillard, GenConfig};
use shop::Problem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod common;
use common::opseq_toolkit;

#[derive(Debug, Clone, Copy)]
enum Kind {
    MasterSlave,
    Cellular,
    Island,
    IslandsOfCellular,
}

const KINDS: [Kind; 4] = [
    Kind::MasterSlave,
    Kind::Cellular,
    Kind::Island,
    Kind::IslandsOfCellular,
];

/// One small model of `kind`, every population built by `toolkit`. The
/// island model migrates (best-replace-worst on a ring) every third
/// generation, so migrants regularly improve an island.
fn model<'a, G: Clone + Send + Sync + 'static, E: Evaluator<G>>(
    kind: Kind,
    toolkit: &dyn Fn() -> Toolkit<G>,
    eval: &'a E,
) -> Box<dyn Model<G> + 'a> {
    let cfg = |pop_size, seed| GaConfig {
        pop_size,
        seed,
        ..GaConfig::default()
    };
    match kind {
        Kind::MasterSlave => Box::new(Engine::new(cfg(20, 41), toolkit(), eval)),
        Kind::Cellular => Box::new(CellularGa::new(
            CellularConfig::new(4, 4, 42),
            toolkit(),
            eval,
        )),
        Kind::Island => Box::new(IslandGa::homogeneous(
            cfg(10, 43),
            4,
            &|_| toolkit(),
            eval,
            IslandConfig::new(MigrationConfig::ring(3, 2)),
        )),
        Kind::IslandsOfCellular => Box::new(IslandsOfCellular::new(
            3,
            CellularConfig::new(3, 3, 44),
            &|_| toolkit(),
            eval,
            4,
            1,
        )),
    }
}

fn generations(kind: Kind) -> u64 {
    match kind {
        Kind::IslandsOfCellular => 12,
        _ => 15,
    }
}

/// FNV-1a over every field of every sample, floats by their bits.
fn fnv(samples: &[GenerationSample]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in samples {
        for word in [
            s.island.map_or(u64::MAX, u64::from),
            s.generation,
            s.evaluations,
            s.best_cost.to_bits(),
            s.mean_cost.to_bits(),
            s.diversity.to_bits(),
            s.since_improvement,
            u64::from(s.migration),
        ] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Runs every kind under `toolkit` with a `History` observer and checks
/// each sample stream's length and hash against `goldens`.
fn assert_goldens<G: Clone + Send + Sync + 'static, E: Evaluator<G>>(
    toolkit: &dyn Fn() -> Toolkit<G>,
    eval: &E,
    goldens: [(Kind, usize, u64); 4],
) {
    for (kind, len, hash) in goldens {
        let mut m = model(kind, toolkit, eval);
        let mut history = History::default();
        ga::run(
            &mut *m,
            &Termination::Generations(generations(kind)),
            &mut history,
        );
        assert_eq!(history.samples.len(), len, "{kind:?}: sample count");
        assert_eq!(
            fnv(&history.samples),
            hash,
            "{kind:?}: sample stream moved:\n{:#?}",
            history.samples
        );
        if let Kind::Island = kind {
            assert_migrant_resets_an_island(&history.samples);
        }
    }
}

#[test]
fn sample_streams_match_the_goldens() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let decoder = JobDecoder::new(inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let goldens: [(Kind, usize, u64); 4] = [
        (Kind::MasterSlave, 15, 0x2e32_7cb8_622d_6b88),
        (Kind::Cellular, 15, 0x21dc_fa23_dc99_38ae),
        (Kind::Island, 60, 0x8399_e5da_6583_fb9a),
        (Kind::IslandsOfCellular, 36, 0x8d5e_e272_c454_03f4),
    ];
    assert_goldens(&|| opseq_toolkit(inst), &eval, goldens);
}

#[test]
fn ox_sample_streams_match_the_goldens() {
    let inst = flow_shop_taillard(&GenConfig::new(12, 5, 7));
    let decoder = FlowDecoder::new(&inst);
    let eval = move |perm: &Vec<usize>| decoder.makespan(perm) as f64;
    let goldens: [(Kind, usize, u64); 4] = [
        (Kind::MasterSlave, 15, 0xaad6_4830_f7c8_ddcb),
        (Kind::Cellular, 15, 0xd70c_ae1d_7e1a_1a88),
        (Kind::Island, 60, 0x60e1_06a3_225a_44e2),
        (Kind::IslandsOfCellular, 36, 0x01cc_770e_0265_2d5f),
    ];
    assert_goldens(
        &|| Toolkit::permutation(inst.n_jobs(), PermCrossover::Order, SeqMutation::Swap),
        &eval,
        goldens,
    );
}

#[test]
fn dual_sample_streams_match_the_goldens() {
    let inst = flexible_job_shop(&GenConfig::new(6, 4, 9), 4, 3);
    let decoder = FlexDecoder::new(&inst);
    let eval = move |g: &DualGenome| decoder.makespan(&g.assign, &g.seq) as f64;
    let goldens: [(Kind, usize, u64); 4] = [
        (Kind::MasterSlave, 15, 0x91b1_b423_567d_0083),
        (Kind::Cellular, 15, 0x36d5_fd50_f7c9_ce2e),
        (Kind::Island, 60, 0xab96_317f_ee10_5aeb),
        (Kind::IslandsOfCellular, 36, 0x2e28_f583_10ac_6545),
    ];
    assert_goldens(
        &|| Toolkit::dual(inst.ops_per_job(), inst.max_choices()),
        &eval,
        goldens,
    );
}

/// The island golden must cover a migration generation in which a
/// migrant, not the island's own breeding, improved an island: its
/// best (taken before migration) did not move, yet its stagnation age
/// (taken after migration) is back to zero.
fn assert_migrant_resets_an_island(samples: &[GenerationSample]) {
    let by_migrant = samples.iter().any(|s| {
        s.migration
            && s.since_improvement == 0
            && samples.iter().any(|p| {
                p.island == s.island
                    && p.generation + 1 == s.generation
                    && p.best_cost == s.best_cost
            })
    });
    assert!(by_migrant, "no migration generation improved an island");
}

#[test]
fn only_a_sampling_observer_pays_for_sequence_views() {
    let bench = classic::ft06();
    let inst = &bench.instance;
    let decoder = JobDecoder::new(inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let calls = Arc::new(AtomicUsize::new(0));
    let counting = || {
        let calls = Arc::clone(&calls);
        Toolkit {
            seq_view: Some(Box::new(move |g: &Vec<usize>| {
                calls.fetch_add(1, Ordering::Relaxed);
                g.clone()
            })),
            ..opseq_toolkit(inst)
        }
    };
    for kind in KINDS {
        let t = Termination::Generations(generations(kind));
        calls.store(0, Ordering::Relaxed);
        ga::run(&mut *model(kind, &counting, &eval), &t, &mut ());
        assert_eq!(calls.load(Ordering::Relaxed), 0, "{kind:?}: bare run");

        let mut history = History::default();
        ga::run(&mut *model(kind, &counting, &eval), &t, &mut history);
        assert!(
            calls.load(Ordering::Relaxed) as u64 >= generations(kind),
            "{kind:?}: sampled run viewed {} genomes",
            calls.load(Ordering::Relaxed)
        );
    }
}
