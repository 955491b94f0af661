//! Termination criteria ("while termination criteria are not satisfied",
//! survey Tables II–V). Composable with [`Termination::Any`], which
//! evaluates its children left-to-right and stops at the first
//! satisfied one, so cheap criteria should be listed first.
//!
//! Clock handling: a whole criterion tree is evaluated against *one*
//! clock snapshot. [`Termination::should_stop`] reads `Instant::now()`
//! exactly once and hands it down to every nested
//! [`Deadline`](Termination::Deadline) check via
//! [`Termination::should_stop_at`],
//! so two deadlines in one combinator can never disagree about what
//! time it is — and tests can drive the clock by hand instead of
//! sleeping.

use std::time::Instant;

/// A stopping rule for a GA run.
#[derive(Debug, Clone)]
pub enum Termination {
    /// Stop after this many generations.
    Generations(u64),
    /// Stop after this many fitness evaluations.
    Evaluations(u64),
    /// Stop at an absolute wall-clock instant — the *anytime* criterion
    /// the solver service races against. The deadline is shared by
    /// every portfolio member regardless of when each one started.
    Deadline(Instant),
    /// Stop when the best cost reaches the target or below.
    TargetCost(f64),
    /// Stop after this many generations without best-cost improvement.
    Stagnation(u64),
    /// Stop when *any* inner criterion fires (false when empty).
    Any(Vec<Termination>),
}

/// Snapshot of run progress that criteria are checked against.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    pub generation: u64,
    pub evaluations: u64,
    pub best_cost: f64,
    pub generations_since_improvement: u64,
}

impl Termination {
    /// True when the run should stop, judged at clock instant `now`.
    /// `now` is threaded through combinators unchanged, so an entire
    /// criterion tree sees a single consistent clock reading.
    pub fn should_stop_at(&self, p: &Progress, now: Instant) -> bool {
        match self {
            Termination::Generations(g) => p.generation >= *g,
            Termination::Evaluations(e) => p.evaluations >= *e,
            Termination::Deadline(d) => now >= *d,
            Termination::TargetCost(c) => p.best_cost <= *c,
            Termination::Stagnation(s) => p.generations_since_improvement >= *s,
            Termination::Any(list) => list.iter().any(|t| t.should_stop_at(p, now)),
        }
    }

    /// True when the run should stop, judged at the current instant
    /// (one snapshot through the audited [`crate::clock`] portal).
    pub fn should_stop(&self, p: &Progress) -> bool {
        self.should_stop_at(p, crate::clock::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn progress() -> Progress {
        Progress {
            generation: 10,
            evaluations: 1000,
            best_cost: 42.0,
            generations_since_improvement: 3,
        }
    }

    #[test]
    fn individual_criteria() {
        let p = progress();
        assert!(Termination::Generations(10).should_stop(&p));
        assert!(!Termination::Generations(11).should_stop(&p));
        assert!(Termination::Evaluations(900).should_stop(&p));
        assert!(Termination::TargetCost(42.0).should_stop(&p));
        assert!(!Termination::TargetCost(41.0).should_stop(&p));
        assert!(Termination::Stagnation(3).should_stop(&p));
        assert!(!Termination::Stagnation(4).should_stop(&p));
    }

    #[test]
    fn any_combinator() {
        let p = progress();
        let t = Termination::Any(vec![
            Termination::Generations(100),
            Termination::TargetCost(50.0),
        ]);
        assert!(t.should_stop(&p));
        let t2 = Termination::Any(vec![Termination::Generations(100)]);
        assert!(!t2.should_stop(&p));
        assert!(!Termination::Any(vec![]).should_stop(&p));
    }

    // The Deadline tests drive the clock by hand through
    // `should_stop_at`: one base `Instant` plus offsets, no sleeping.
    #[test]
    fn deadline_with_mocked_clock() {
        let p = progress();
        let t0 = Instant::now();
        let d = Termination::Deadline(t0 + Duration::from_millis(100));
        assert!(!d.should_stop_at(&p, t0));
        assert!(!d.should_stop_at(&p, t0 + Duration::from_millis(99)));
        assert!(d.should_stop_at(&p, t0 + Duration::from_millis(100)));
        assert!(d.should_stop_at(&p, t0 + Duration::from_secs(10)));
    }

    #[test]
    fn combinators_share_one_clock_snapshot() {
        // Two identical deadlines inside one combinator must agree at
        // every instant — Any(d, d) is equivalent to d.
        let p = progress();
        let t0 = Instant::now();
        let d = Termination::Deadline(t0 + Duration::from_millis(50));
        let any = Termination::Any(vec![d.clone(), d.clone()]);
        for off_ms in [0u64, 49, 50, 51, 1000] {
            let now = t0 + Duration::from_millis(off_ms);
            let expect = d.should_stop_at(&p, now);
            assert_eq!(any.should_stop_at(&p, now), expect);
        }
    }

    #[test]
    fn nested_combinators_short_circuit_consistently() {
        let p = progress();
        let t0 = Instant::now();
        // Any(sat, unsat-deadline-in-the-future): must stop regardless of
        // the clock — the satisfied head short-circuits.
        let t = Termination::Any(vec![
            Termination::Generations(10),
            Termination::Deadline(t0 + Duration::from_secs(3600)),
        ]);
        assert!(t.should_stop_at(&p, t0));
        // Deep nesting mixes fine.
        let deep = Termination::Any(vec![
            Termination::Generations(11),
            Termination::Any(vec![
                Termination::Deadline(t0 + Duration::from_secs(1)),
                Termination::Stagnation(3),
            ]),
        ]);
        assert!(deep.should_stop_at(&p, t0));
    }
}
