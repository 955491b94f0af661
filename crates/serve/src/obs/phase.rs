//! Race-level phase time accounting: a lock-free accumulator every
//! race member's [`ga::engine::Observer`] feeds, so one race's
//! select / breed / evaluate / migrate / decode nanoseconds land in a
//! handful of relaxed atomics instead of per-event allocations.
//!
//! One [`PhaseAcc`] lives for the duration of one cold solve race (all
//! members add into it concurrently); after the race the server folds the
//! totals into the per-family `serve_phase_us` histograms. The hot path
//! pays nothing when profiling is off (the models skip their clock
//! reads entirely unless the observer asks for phase timings); when it
//! is on, the engine reads the clock three times per pair of children,
//! each member twice per decode, and each generation adds five relaxed
//! `fetch_add`s.

use ga::engine::GaPhase;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The five phase families the profiler accounts for. `Decode` is
/// serve-side (timed inside the evaluation closures around the SoA
/// decoders); the other four are the models' [`GaPhase`] reports.
pub const PHASE_NAMES: [&str; 5] = ["select", "breed", "evaluate", "migrate", "decode"];

/// Accumulated nanoseconds per search phase for one race. All methods
/// are safe to call from any race-member thread concurrently.
#[derive(Debug, Default)]
pub struct PhaseAcc {
    select_ns: AtomicU64,
    breed_ns: AtomicU64,
    evaluate_ns: AtomicU64,
    migrate_ns: AtomicU64,
    decode_ns: AtomicU64,
}

impl PhaseAcc {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        PhaseAcc::default()
    }

    /// Adds one model phase observation (per the
    /// [`ga::engine::Observer::on_phase`] contract, an accumulated
    /// per-generation duration).
    pub fn add(&self, phase: GaPhase, d: Duration) {
        let ns = d.as_nanos() as u64;
        let cell = match phase {
            GaPhase::Select => &self.select_ns,
            GaPhase::Breed => &self.breed_ns,
            GaPhase::Evaluate => &self.evaluate_ns,
            GaPhase::Migrate => &self.migrate_ns,
        };
        cell.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds serve-side decode time (timed around the member's table
    /// decode inside the evaluation closure; a subset of the engine's
    /// `Evaluate` phase).
    pub fn add_decode(&self, d: Duration) {
        self.decode_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Totals in [`PHASE_NAMES`] order:
    /// `[select, breed, evaluate, migrate, decode]` nanoseconds.
    pub fn snapshot_ns(&self) -> [u64; 5] {
        [
            self.select_ns.load(Ordering::Relaxed),
            self.breed_ns.load(Ordering::Relaxed),
            self.evaluate_ns.load(Ordering::Relaxed),
            self.migrate_ns.load(Ordering::Relaxed),
            self.decode_ns.load(Ordering::Relaxed),
        ]
    }

    /// True when no phase recorded any time (profiling never ran).
    pub fn is_zero(&self) -> bool {
        self.snapshot_ns().iter().all(|&ns| ns == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn phases_accumulate_into_their_own_cells() {
        let acc = PhaseAcc::new();
        acc.add(GaPhase::Select, Duration::from_nanos(10));
        acc.add(GaPhase::Breed, Duration::from_nanos(20));
        acc.add(GaPhase::Evaluate, Duration::from_nanos(30));
        acc.add(GaPhase::Migrate, Duration::from_nanos(40));
        acc.add_decode(Duration::from_nanos(50));
        acc.add(GaPhase::Evaluate, Duration::from_nanos(5));
        assert_eq!(acc.snapshot_ns(), [10, 20, 35, 40, 50]);
        assert!(!acc.is_zero());
        assert!(PhaseAcc::new().is_zero());
    }

    #[test]
    fn concurrent_members_sum_without_loss() {
        let acc = Arc::new(PhaseAcc::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let acc = Arc::clone(&acc);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        acc.add(GaPhase::Evaluate, Duration::from_nanos(3));
                        acc.add_decode(Duration::from_nanos(2));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("phase writer panicked");
        }
        let [_, _, evaluate, _, decode] = acc.snapshot_ns();
        assert_eq!(evaluate, 4 * 1000 * 3);
        assert_eq!(decode, 4 * 1000 * 2);
    }
}
