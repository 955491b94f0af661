//! Flexible flow shop with lot streaming and sequence-dependent setup
//! times (the Defersha & Chen model class), solved with the dual
//! assignment+sequencing genome.
//!
//! Run with: `cargo run --release --example flexible_lot_streaming`

use ga::dual::DualGenome;
use ga::engine::{Engine, GaConfig, Toolkit};
use ga::termination::Termination;
use shop::decoder::flexible::FlexDecoder;
use shop::instance::generate::{flexible_flow_shop, sdst_matrix, GenConfig};
use shop::instance::LotStreaming;
use shop::Problem;

fn main() {
    // 6 jobs through 3 stages with (2, 1, 2) unrelated parallel machines.
    let base = flexible_flow_shop(&GenConfig::new(6, 0, 99), &[2, 1, 2], false);

    // Each job is a batch of 30 items split into 3 unequal sublots.
    let lots = LotStreaming::uniform(6, 30, 3);
    let fractions = vec![vec![0.2, 0.3, 0.5]; 6];
    let (inst, origin) = lots.expand(&base, &fractions).expect("valid fractions");
    println!(
        "expanded {} jobs into {} sublots over {} machines",
        base.n_jobs(),
        inst.n_jobs(),
        inst.n_machines()
    );

    let setups = sdst_matrix(inst.n_jobs(), inst.n_machines(), 1, 8, 99);
    let decoder = FlexDecoder::new(&inst).with_setups(&setups);
    let eval = move |g: &DualGenome| decoder.makespan(&g.assign, &g.seq) as f64;

    let toolkit = Toolkit::dual(inst.ops_per_job(), inst.max_choices());

    let cfg = GaConfig {
        pop_size: 50,
        selection: ga::select::Selection::Tournament(4),
        seed: 1,
        ..Default::default()
    };
    let mut engine = Engine::new(cfg, toolkit, &eval);
    let best = ga::run(&mut engine, &Termination::Generations(250), &mut ());

    let decoder = FlexDecoder::new(&inst).with_setups(&setups);
    let schedule = decoder.decode(&best.genome.assign, &best.genome.seq);
    schedule
        .validate_flexible(&inst)
        .expect("feasible schedule");
    println!("best makespan with lot streaming + SDST: {}", best.cost);
    println!("sublot -> original job map: {origin:?}");
    println!("{}", schedule.gantt(inst.n_machines(), 72));
}
