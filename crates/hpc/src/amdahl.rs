//! Amdahl analysis used by the Section IV synthesis figure
//! (model × platform suitability): the serial fraction of a GA generation
//! bounds the achievable speedup of the master-slave model, while island
//! models parallelise the serial part too.

/// Amdahl's law: speedup with serial fraction `s` on `n` workers.
pub fn amdahl(serial_fraction: f64, workers: usize) -> f64 {
    let s = serial_fraction.clamp(0.0, 1.0);
    1.0 / (s + (1.0 - s) / workers as f64)
}

/// Serial fraction of a master-slave GA generation given measured costs:
/// the operators stay on the master while evaluation parallelises.
pub fn master_slave_serial_fraction(serial_gen_s: f64, pop: u64, eval_s: f64) -> f64 {
    let total = serial_gen_s + pop as f64 * eval_s;
    if total <= 0.0 {
        return 0.0;
    }
    serial_gen_s / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_limits() {
        assert!((amdahl(0.0, 8) - 8.0).abs() < 1e-12);
        assert!((amdahl(1.0, 8) - 1.0).abs() < 1e-12);
        // 10% serial caps speedup below 10 regardless of workers.
        assert!(amdahl(0.1, 1_000_000) < 10.0);
    }

    #[test]
    fn serial_fraction_shrinks_with_expensive_evals() {
        let cheap = master_slave_serial_fraction(1e-3, 100, 1e-6);
        let costly = master_slave_serial_fraction(1e-3, 100, 1e-3);
        assert!(costly < cheap);
    }
}
