//! Order statistics over latency samples.

/// Samples that must lie beyond any reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples needed so that percentile `q` (0..1) keeps [`MIN_BEYOND`]
/// samples beyond it.
pub fn samples_needed(q: f64) -> usize {
    // The epsilon absorbs float error in `1 - q` (e.g. 1 - 0.9).
    (MIN_BEYOND as f64 / (1.0 - q) - 1e-6).ceil() as usize
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values`.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `q` (0..1); NaN when empty.
    pub fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1]
    }

    /// How many samples lie strictly after percentile `q`'s rank.
    pub fn beyond(&self, q: f64) -> usize {
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0.len().saturating_sub(rank)
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }

    /// Arithmetic mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.pct(0.5), 50.0);
        assert_eq!(s.pct(0.9), 90.0);
        assert_eq!(s.pct(0.99), 99.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
    }
}
