//! Migration-topology study: runs the same job-shop island GA over every
//! interconnect the survey catalogues and reports quality, messages and
//! the predicted communication bill on an MPI cluster.
//!
//! Run with: `cargo run --release --example topology_study`

use ga::crossover::RepCrossover;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::{MigrationConfig, MigrationPolicy};
use pga::topology::Topology;
use shop::decoder::job::JobDecoder;
use shop::instance::generate::{job_shop_uniform, GenConfig};
use shop::Problem;

fn main() {
    let inst = job_shop_uniform(&GenConfig::new(12, 6, 77));
    let decoder = JobDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;
    let toolkit = |_: usize| {
        Toolkit::repetition(
            inst.ops_per_job(),
            RepCrossover::JobOrder,
            SeqMutation::Swap,
        )
    };

    let topologies: Vec<(&str, Topology)> = vec![
        ("ring", Topology::Ring),
        ("grid 2x4", Topology::Grid2D { cols: 4 }),
        ("torus 2x4", Topology::Torus2D { cols: 4 }),
        ("hypercube", Topology::Hypercube),
        ("star", Topology::Star),
        ("fully connected", Topology::FullyConnected),
        ("random/epoch", Topology::RandomEpoch { seed: 5 }),
    ];

    println!(
        "{:<16} {:>9} {:>10} {:>10}",
        "topology", "best", "messages", "migrants"
    );
    for (name, topo) in topologies {
        let base = ga::engine::GaConfig {
            pop_size: 12,
            seed: 9,
            ..Default::default()
        };
        let mig = MigrationConfig {
            interval: 10,
            count: 1,
            policy: MigrationPolicy::BestReplaceWorst,
            topology: topo,
        };
        let mut ig = IslandGa::homogeneous(base, 8, &toolkit, &eval, IslandConfig::new(mig));
        let best = ga::run(&mut ig, &Termination::Generations(150), &mut ());
        println!(
            "{:<16} {:>9.0} {:>10} {:>10}",
            name, best.cost, ig.telemetry.messages, ig.telemetry.migrants
        );
    }
}
