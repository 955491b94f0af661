//! GA profiles and calibration helpers shared by the experiment
//! harnesses. The genome toolkits themselves are built by the
//! constructors on `ga::engine::Toolkit` (`permutation`, `repetition`,
//! `dual`, `random_keys`), the same ones the serve path runs.

use hpc::calibrate::measure_adaptive_s;
use hpc::model::RunShape;

/// GA profile for the quality-comparison experiments: strong selection
/// pressure (k=5 tournament) and modest mutation. This is the regime the
/// surveyed serial GAs operate in — fitness-proportional/elitist selection
/// with low mutation — where a panmictic population converges prematurely
/// and the island/cellular structure pays off, which is precisely the
/// diversity argument of the survey's Sections III.C/III.D.
pub fn pressure_config(pop_size: usize, seed: u64) -> ga::engine::GaConfig {
    ga::engine::GaConfig {
        pop_size,
        selection: ga::select::Selection::Tournament(5),
        mutation_rate: 0.10,
        elites: 1.max(pop_size / 24),
        seed,
        ..ga::engine::GaConfig::default()
    }
}

/// GA profile matching the surveyed serial baselines: roulette-wheel
/// selection on the survey's Eq. 2 reciprocal fitness with a small elite.
/// Roulette pressure on `1/F` is weak and scale-dependent, which is why
/// those serial GAs converge slowly / prematurely — and why migrating the
/// best individuals between islands (the surveyed island designs) visibly
/// improves both quality and convergence in this regime.
pub fn survey_config(pop_size: usize, seed: u64) -> ga::engine::GaConfig {
    ga::engine::GaConfig {
        pop_size,
        selection: ga::select::Selection::RouletteWheel,
        fitness: ga::fitness::FitnessTransform::Reciprocal,
        mutation_rate: 0.2,
        elites: 2.max(pop_size / 48),
        seed,
        ..ga::engine::GaConfig::default()
    }
}

/// Measures the host cost of one evaluation of `eval` on `sample` and
/// builds a [`RunShape`] for the cost models.
pub fn run_shape<G>(
    generations: u64,
    evals_per_gen: u64,
    genome_bytes: f64,
    sample: &G,
    eval: &dyn Fn(&G) -> f64,
) -> RunShape {
    let eval_s = measure_adaptive_s(2e-4, || {
        std::hint::black_box(eval(std::hint::black_box(sample)));
    });
    RunShape {
        generations,
        evals_per_gen,
        eval_s,
        // Serial operator work per generation: dominated by O(pop) genome
        // copies + selection; measured as a small multiple of one eval of
        // a light structure. Use 5% of one generation's eval work as a
        // conservative stand-in; experiments that need a sharper number
        // measure it directly.
        serial_gen_s: 0.05 * evals_per_gen as f64 * eval_s,
        genome_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_shape_measures_positive_cost() {
        let shape = run_shape(10, 20, 64.0, &5u64, &|&x| x as f64);
        assert!(shape.eval_s > 0.0);
        assert!(shape.serial_gen_s > 0.0);
        assert_eq!(shape.generations, 10);
    }
}
