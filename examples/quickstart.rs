//! Quickstart: solve a flow-shop instance with an island GA in ~50 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use ga::crossover::PermCrossover;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::MigrationConfig;
use shop::decoder::flow::FlowDecoder;
use shop::instance::generate::{flow_shop_taillard, GenConfig};

fn main() {
    // 1. A seeded 20-job x 5-machine flow shop with Taillard U[1,99] times.
    let inst = flow_shop_taillard(&GenConfig::new(20, 5, 42));
    let decoder = FlowDecoder::new(&inst);

    // 2. The fitness function: decode a permutation to its makespan.
    let eval = move |perm: &Vec<usize>| decoder.makespan(perm) as f64;

    // 3. A genome toolkit: random permutations, order crossover, shift
    //    mutation.
    let toolkit = |_: usize| Toolkit {
        init: Box::new(|rng| {
            use rand::seq::SliceRandom;
            let mut p: Vec<usize> = (0..20).collect();
            p.shuffle(rng);
            p
        }),
        crossover: Box::new(|a, b, rng| PermCrossover::Order.apply(a, b, rng)),
        mutate: Box::new(|g, rng| SeqMutation::Shift.apply(g, rng)),
        seq_view: None,
    };

    // 4. Four islands on a ring, migrating their best 2 every 10
    //    generations (the survey's Table V model).
    let base = ga::engine::GaConfig {
        pop_size: 30,
        seed: 7,
        ..Default::default()
    };
    let mut islands = IslandGa::homogeneous(
        base,
        4,
        &toolkit,
        &eval,
        IslandConfig::new(MigrationConfig::ring(10, 2)),
    );

    let best = ga::run(&mut islands, &Termination::Generations(200), &mut ());
    let neh = decoder.makespan(&decoder.neh());
    println!("island GA best makespan: {}", best.cost);
    println!("NEH heuristic reference: {neh}");
    println!("lower bound:             {}", inst.makespan_lower_bound());
    println!(
        "migrations: {} messages / {} individuals",
        islands.telemetry.messages, islands.telemetry.migrants
    );
}
