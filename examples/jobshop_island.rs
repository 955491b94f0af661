//! Job-shop scheduling on the classic FT06 / LA01 benchmarks with an
//! island GA over operation sequences, printing a Gantt chart of the best
//! schedule found.
//!
//! Run with: `cargo run --release --example jobshop_island`

use ga::crossover::RepCrossover;
use ga::engine::Toolkit;
use ga::mutate::SeqMutation;
use ga::termination::Termination;
use pga::island::{IslandConfig, IslandGa};
use pga::migration::MigrationConfig;
use shop::decoder::job::JobDecoder;
use shop::instance::classic;
use shop::Problem;

fn main() {
    for bench in [classic::ft06(), classic::la01()] {
        let inst = &bench.instance;
        let decoder = JobDecoder::new(inst);
        let eval = move |seq: &Vec<usize>| decoder.semi_active_makespan(seq) as f64;

        let base = ga::engine::GaConfig {
            pop_size: 40,
            selection: ga::select::Selection::Tournament(5),
            mutation_rate: 0.1,
            seed: 123,
            ..Default::default()
        };
        let mut islands = IslandGa::homogeneous(
            base,
            4,
            &|_| {
                Toolkit::repetition(
                    inst.ops_per_job(),
                    RepCrossover::JobOrder,
                    SeqMutation::Swap,
                )
            },
            &eval,
            IslandConfig::new(MigrationConfig::ring(10, 2)),
        );
        let best = ga::run(&mut islands, &Termination::Generations(300), &mut ());

        let schedule = JobDecoder::new(inst).semi_active(&best.genome);
        schedule
            .validate_job(inst)
            .expect("GA output must be feasible");
        println!(
            "{}: best {} (best known {}, gap {:+.1}%)",
            bench.name,
            best.cost,
            bench.best_known,
            100.0 * (best.cost - bench.best_known as f64) / bench.best_known as f64
        );
        println!("{}", schedule.gantt(inst.n_machines(), 72));
    }
}
