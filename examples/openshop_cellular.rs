//! Fine-grained (cellular) GA on an open shop with LPT-Task decoding,
//! tracking the diversity trajectory that motivates the model (survey
//! Section III.C).
//!
//! Run with: `cargo run --release --example openshop_cellular`

use ga::crossover::rep::job_order;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use ga::stats::History;
use ga::termination::Termination;
use pga::cellular::{CellularConfig, CellularGa, NeighborhoodShape};
use shop::decoder::open::OpenDecoder;
use shop::instance::generate::{open_shop_uniform, GenConfig};

fn main() {
    let inst = open_shop_uniform(&GenConfig::new(12, 6, 5));
    let decoder = OpenDecoder::new(&inst);
    let eval = move |seq: &Vec<usize>| decoder.lpt_task_makespan(seq) as f64;

    let toolkit = Toolkit {
        init: Box::new(|rng| {
            use rand::seq::SliceRandom;
            let mut seq: Vec<usize> = (0..72).map(|i| i % 12).collect();
            seq.shuffle(rng);
            seq
        }),
        crossover: Box::new(|a, b, rng| (job_order(a, b, 12, rng), job_order(b, a, 12, rng))),
        mutate: Box::new(|g, rng| SeqMutation::Swap.apply(g, rng)),
        seq_view: Some(Box::new(|g: &Vec<usize>| g.clone())),
    };

    let mut cfg = CellularConfig::new(8, 8, 21);
    cfg.shape = NeighborhoodShape::Moore;
    let mut cga = CellularGa::new(cfg, toolkit, &eval);
    let mut history = History::default();
    let best = ga::run(&mut cga, &Termination::Generations(120), &mut history);

    println!("cellular GA best open-shop makespan: {}", best.cost);
    println!("lower bound: {}", inst.makespan_lower_bound());
    println!("\ngen   best   mean   diversity");
    for s in history.samples.iter().filter(|s| s.generation % 20 == 0) {
        println!(
            "{:>3}  {:>5.0}  {:>5.0}  {:.3}",
            s.generation, s.best_cost, s.mean_cost, s.diversity
        );
    }
}
