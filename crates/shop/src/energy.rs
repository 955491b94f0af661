//! Energy-aware scheduling — the "new integrated factor" of the survey's
//! Section II (Xu et al. \[8\] minimise peak power alongside production
//! efficiency; Tang et al. \[9\] trade energy consumption against the
//! makespan in dynamic flexible flow shops).
//!
//! Machines have a processing power draw and an idle power draw; a
//! schedule's energy is the sum over machines of processing energy plus
//! idle energy inside the busy window, and its peak power is the maximum
//! simultaneous draw over time. Both integrate with the GA layers as
//! extra objective terms.

use crate::schedule::Schedule;
use crate::Time;

/// Power model of one machine (arbitrary power units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachinePower {
    /// Draw while processing an operation.
    pub processing: f64,
    /// Draw while switched on but idle (between first and last operation).
    pub idle: f64,
}

impl MachinePower {
    /// A profile drawing `processing` busy and `idle` (<= processing) idle.
    pub fn new(processing: f64, idle: f64) -> Self {
        assert!(processing >= 0.0 && idle >= 0.0 && idle <= processing);
        MachinePower { processing, idle }
    }
}

/// Power profile of the whole shop.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerProfile {
    /// Per-machine draw profiles, indexed by machine.
    pub machines: Vec<MachinePower>,
}

impl PowerProfile {
    /// Uniform profile: every machine draws `processing` / `idle`.
    pub fn uniform(n_machines: usize, processing: f64, idle: f64) -> Self {
        PowerProfile {
            machines: vec![MachinePower::new(processing, idle); n_machines],
        }
    }

    /// Number of machines the profile covers.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Total energy of `schedule`: processing energy for every operation
    /// plus idle energy for gaps between a machine's first start and last
    /// end (machines are off before their first and after their last
    /// operation — the usual turn-on/turn-off assumption).
    pub fn energy(&self, schedule: &Schedule) -> f64 {
        let mut total = 0.0;
        for (m, power) in self.machines.iter().enumerate() {
            let seq = schedule.machine_sequence(m);
            if seq.is_empty() {
                continue;
            }
            let busy: Time = seq.iter().map(|o| o.end - o.start).sum();
            let window = seq.last().unwrap().end - seq[0].start;
            let idle = window - busy;
            total += power.processing * busy as f64 + power.idle * idle as f64;
        }
        total
    }

    /// The Tang et al. \[9\] style bi-objective scalarisation:
    /// `w * makespan + (1 - w) * energy / energy_scale`.
    pub fn energy_makespan_cost(&self, schedule: &Schedule, w: f64, energy_scale: f64) -> f64 {
        assert!((0.0..=1.0).contains(&w) && energy_scale > 0.0);
        w * schedule.makespan() as f64 + (1.0 - w) * self.energy(schedule) / energy_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduledOp;

    fn sched() -> Schedule {
        // M0: [0,3] and [5,7] (idle 2 in between); M1: [1,4].
        Schedule::new(vec![
            ScheduledOp {
                job: 0,
                op: 0,
                machine: 0,
                start: 0,
                end: 3,
            },
            ScheduledOp {
                job: 1,
                op: 0,
                machine: 0,
                start: 5,
                end: 7,
            },
            ScheduledOp {
                job: 0,
                op: 1,
                machine: 1,
                start: 1,
                end: 4,
            },
        ])
    }

    #[test]
    fn energy_accounts_processing_and_idle() {
        let p = PowerProfile::uniform(2, 10.0, 2.0);
        // M0: busy 5, idle 2 -> 50 + 4; M1: busy 3, idle 0 -> 30.
        assert!((p.energy(&sched()) - 84.0).abs() < 1e-9);
    }

    #[test]
    fn empty_machines_cost_nothing() {
        let p = PowerProfile::uniform(4, 10.0, 1.0);
        assert!((p.energy(&sched()) - (50.0 + 2.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn scalarisation_interpolates() {
        let p = PowerProfile::uniform(2, 10.0, 2.0);
        let s = sched();
        let mk_only = p.energy_makespan_cost(&s, 1.0, 1.0);
        let en_only = p.energy_makespan_cost(&s, 0.0, 1.0);
        assert_eq!(mk_only, 7.0);
        assert!((en_only - 84.0).abs() < 1e-9);
        let mid = p.energy_makespan_cost(&s, 0.5, 1.0);
        assert!((mid - (7.0 + 84.0) / 2.0).abs() < 1e-9);
    }
}
