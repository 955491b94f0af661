//! Quantum-inspired GA machinery (Gu, Gu & Gu \[28\]): Q-bit genomes,
//! measurement ("observation") into random keys, the rotation gate that
//! pulls the population towards the best observed solution, and the
//! Not-gate mutation. Gu et al. organise these into an island model with
//! a star topology; the islands live in `pga`, the quantum individual
//! lives here.

use crate::crossover::keys::keys_to_permutation;
use crate::engine::{Individual, Model, Observer, Status};
use crate::rng::root_rng;
use crate::stats::GenerationSample;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// One Q-bit: amplitudes `(alpha, beta)` with `alpha^2 + beta^2 = 1`;
/// observing yields `1` with probability `beta^2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Qbit {
    pub alpha: f64,
    pub beta: f64,
}

impl Qbit {
    /// The unbiased superposition `(1/sqrt2, 1/sqrt2)`.
    pub fn balanced() -> Self {
        let v = std::f64::consts::FRAC_1_SQRT_2;
        Qbit { alpha: v, beta: v }
    }

    /// Probability of observing 1.
    pub fn p_one(&self) -> f64 {
        self.beta * self.beta
    }

    /// Observes the bit.
    pub fn observe(&self, rng: &mut impl Rng) -> bool {
        rng.gen_bool(self.p_one().clamp(0.0, 1.0))
    }

    /// Rotation gate: rotates the amplitude vector by `delta` radians
    /// towards `target` (true = towards 1).
    pub fn rotate(&mut self, target: bool, delta: f64) {
        let theta = self.beta.atan2(self.alpha);
        let goal = if target {
            std::f64::consts::FRAC_PI_2
        } else {
            0.0
        };
        let step = (goal - theta).clamp(-delta, delta);
        let t = theta + step;
        self.alpha = t.cos();
        self.beta = t.sin();
    }

    /// Not-gate (the mutation of Gu et al.): swaps the amplitudes, i.e.
    /// inverts the observation bias.
    pub fn not_gate(&mut self) {
        std::mem::swap(&mut self.alpha, &mut self.beta);
    }
}

/// A quantum genome: `bits_per_gene` Q-bits per gene; observation turns
/// each gene's bits into an integer, normalised into a random key.
#[derive(Debug, Clone, PartialEq)]
pub struct QGenome {
    pub qbits: Vec<Qbit>,
    pub bits_per_gene: usize,
}

impl QGenome {
    pub fn balanced(genes: usize, bits_per_gene: usize) -> Self {
        assert!((1..=16).contains(&bits_per_gene));
        QGenome {
            qbits: vec![Qbit::balanced(); genes * bits_per_gene],
            bits_per_gene,
        }
    }

    pub fn genes(&self) -> usize {
        self.qbits.len() / self.bits_per_gene
    }

    /// Observes every Q-bit.
    pub fn observe_bits(&self, rng: &mut impl Rng) -> Vec<bool> {
        self.qbits.iter().map(|q| q.observe(rng)).collect()
    }

    /// Turns an observation into per-gene random keys in `[0, 1)`.
    pub fn bits_to_keys(&self, bits: &[bool]) -> Vec<f64> {
        let scale = (1u32 << self.bits_per_gene) as f64;
        bits.chunks(self.bits_per_gene)
            .map(|chunk| {
                let mut v = 0u32;
                for &b in chunk {
                    v = (v << 1) | u32::from(b);
                }
                v as f64 / scale
            })
            .collect()
    }

    /// Rotates every Q-bit towards the given observed bit string.
    pub fn rotate_toward(&mut self, bits: &[bool], delta: f64) {
        for (q, &b) in self.qbits.iter_mut().zip(bits) {
            q.rotate(b, delta);
        }
    }

    /// Applies the Not-gate to each Q-bit independently with probability
    /// `rate`.
    pub fn not_mutation(&mut self, rate: f64, rng: &mut impl Rng) {
        for q in self.qbits.iter_mut() {
            if rng.gen_bool(rate.clamp(0.0, 1.0)) {
                q.not_gate();
            }
        }
    }
}

/// A compact quantum-inspired evolutionary model over permutations: each
/// individual is a [`QGenome`]; observation produces keys whose sort order
/// is the candidate permutation; rotation pulls towards the best
/// observation so far. `cost` maps a permutation to the objective. Drive
/// it with [`crate::run`] like any other [`Model`].
pub struct QuantumGa<'a> {
    pub population: Vec<QGenome>,
    cost: &'a (dyn Fn(&[usize]) -> f64 + Sync),
    rng: ChaCha8Rng,
    /// The observation behind the incumbent (the rotation target).
    pub best_bits: Vec<bool>,
    /// The incumbent permutation and its cost.
    best: Individual<Vec<usize>>,
    rotation_delta: f64,
    not_rate: f64,
    generation: u64,
    since_improvement: u64,
}

impl<'a> QuantumGa<'a> {
    pub fn new(
        pop_size: usize,
        genes: usize,
        bits_per_gene: usize,
        seed: u64,
        cost: &'a (dyn Fn(&[usize]) -> f64 + Sync),
    ) -> Self {
        let mut rng = root_rng(seed);
        let population = vec![QGenome::balanced(genes, bits_per_gene); pop_size];
        // Evaluate one neutral observation to initialise the incumbent.
        let bits = population[0].observe_bits(&mut rng);
        let keys = population[0].bits_to_keys(&bits);
        let perm = keys_to_permutation(&keys);
        let best_cost = cost(&perm);
        QuantumGa {
            population,
            cost,
            rng,
            best_bits: bits,
            best: Individual {
                genome: perm,
                cost: best_cost,
            },
            rotation_delta: 0.05,
            not_rate: 0.01,
            generation: 0,
            since_improvement: 0,
        }
    }

    /// Tunes the rotation step and Not-gate rate.
    pub fn with_rates(mut self, rotation_delta: f64, not_rate: f64) -> Self {
        self.rotation_delta = rotation_delta;
        self.not_rate = not_rate;
        self
    }
}

impl Model<Vec<usize>> for QuantumGa<'_> {
    /// One generation: observe, evaluate, update incumbent, rotate,
    /// mutate. The sample's diversity is `0.0` (Q-bit genomes have no
    /// sequence view).
    fn step(&mut self, obs: &mut dyn Observer<Vec<usize>>) {
        self.generation += 1;
        let before = self.best.cost;
        let mut cost_sum = 0.0;
        for g in &self.population {
            let bits = g.observe_bits(&mut self.rng);
            let keys = g.bits_to_keys(&bits);
            let perm = keys_to_permutation(&keys);
            let c = (self.cost)(&perm);
            cost_sum += c;
            if c < self.best.cost {
                self.best = Individual {
                    genome: perm,
                    cost: c,
                };
                self.best_bits = bits;
            }
        }
        for g in self.population.iter_mut() {
            g.rotate_toward(&self.best_bits, self.rotation_delta);
            g.not_mutation(self.not_rate, &mut self.rng);
        }
        if self.best.cost < before {
            self.since_improvement = 0;
        } else {
            self.since_improvement += 1;
        }
        if obs.wants_samples() {
            obs.on_sample(GenerationSample {
                island: None,
                generation: self.generation,
                evaluations: self.status().evaluations,
                best_cost: self.best.cost,
                mean_cost: cost_sum / self.population.len().max(1) as f64,
                diversity: 0.0,
                since_improvement: self.since_improvement,
                migration: false,
            });
        }
    }

    fn status(&self) -> Status {
        // One evaluation seeds the incumbent, then one per individual.
        Status {
            generation: self.generation,
            evaluations: 1 + self.generation * self.population.len() as u64,
        }
    }

    fn best(&self) -> &Individual<Vec<usize>> {
        &self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::root_rng;
    use crate::stats::History;
    use crate::termination::Termination;

    #[test]
    fn qbit_normalisation_preserved_by_rotation() {
        let mut q = Qbit::balanced();
        q.rotate(true, 0.3);
        assert!((q.alpha * q.alpha + q.beta * q.beta - 1.0).abs() < 1e-12);
        assert!(q.p_one() > 0.5);
        q.not_gate();
        assert!(q.p_one() < 0.5);
    }

    #[test]
    fn repeated_rotation_converges_to_target() {
        let mut q = Qbit::balanced();
        for _ in 0..200 {
            q.rotate(true, 0.05);
        }
        assert!(q.p_one() > 0.999);
        for _ in 0..200 {
            q.rotate(false, 0.05);
        }
        assert!(q.p_one() < 0.001);
    }

    #[test]
    fn keys_cover_unit_interval() {
        let g = QGenome::balanced(4, 8);
        let mut rng = root_rng(2);
        let bits = g.observe_bits(&mut rng);
        let keys = g.bits_to_keys(&bits);
        assert_eq!(keys.len(), 4);
        assert!(keys.iter().all(|&k| (0.0..1.0).contains(&k)));
    }

    #[test]
    fn quantum_ga_improves_on_displacement() {
        let cost = |p: &[usize]| -> f64 {
            p.iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 - v as f64).abs())
                .sum()
        };
        let mut qga = QuantumGa::new(20, 8, 6, 77, &cost);
        let first = qga.best().cost;
        let mut history = History::default();
        let last = crate::run(&mut qga, &Termination::Generations(80), &mut history).cost;
        assert!(last <= first);
        assert_eq!(history.samples.len(), 80);
        assert_eq!(history.best_per_generation().last().copied(), Some(last));
        assert_eq!(qga.status().evaluations, 1 + 80 * 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let cost = |p: &[usize]| {
            p.iter()
                .map(|&v| v as f64)
                .rev()
                .enumerate()
                .map(|(i, v)| i as f64 * v)
                .sum()
        };
        let once = || {
            let mut q = QuantumGa::new(10, 6, 4, 9, &cost);
            crate::run(&mut q, &Termination::Generations(20), &mut ())
        };
        let (a, b) = (once(), once());
        assert_eq!((a.cost, a.genome), (b.cost, b.genome));
    }
}
