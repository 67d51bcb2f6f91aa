//! Summaries over repetitions and exact nearest-rank percentiles.

/// One reported number: the median over a phase's repetitions, with the
/// extremes and the number of repetitions beside it so a reader sees the
/// spread inside the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub samples: usize,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// A single exact reading (a count, a size).
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            samples: 1,
            min: value,
            max: value,
        }
    }

    /// The median over repetitions (mean of the middle two for an even
    /// count).
    pub fn median_of(reps: &[f64]) -> Self {
        assert!(!reps.is_empty(), "a metric needs at least one repetition");
        let mut sorted = reps.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let value = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Self {
            value,
            samples: sorted.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Exact nearest-rank percentile of an ascending slice: the smallest
/// sample with at least `pct` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts nanosecond samples and returns the percentile in microseconds.
pub fn percentile_us(samples: &mut [u64], pct: f64) -> f64 {
    samples.sort_unstable();
    nearest_rank(samples, pct) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_rank() {
        assert_eq!(Summary::median_of(&[3.0, 1.0, 2.0]).value, 2.0);
        assert_eq!(Summary::median_of(&[4.0, 1.0, 2.0, 3.0]).value, 2.5);
        assert_eq!(Summary::median_of(&[3.0, 1.0, 2.0]).min, 1.0);
        assert_eq!(Summary::median_of(&[3.0, 1.0, 2.0]).max, 3.0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 95.0), 95);
        assert_eq!(nearest_rank(&v[..10], 95.0), 10);
        assert_eq!(nearest_rank(&v[..1], 50.0), 1);
    }
}
