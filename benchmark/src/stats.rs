//! Order statistics for timings: percentiles that refuse to report a
//! tail the sample cannot support, medians, and quartiles.

use std::fmt;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// Why [`percentile`] refused.
#[derive(Clone, Debug, PartialEq)]
pub struct PercentileError {
    /// The requested percentile.
    pub p: f64,
    /// Samples given.
    pub samples: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples has only {} beyond it (need {MIN_BEYOND})",
            self.p, self.samples, self.beyond
        )
    }
}

impl std::error::Error for PercentileError {}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie above the rank:
/// p95 of 200 samples has 10 beyond it and passes, p99 has 2 and fails.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, PercentileError> {
    let n = samples.len();
    // Nearest rank, 1-based: the smallest rank covering p% of the sample.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(PercentileError { p, samples: n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median (mean of the middle pair for an even count); `NaN` when
/// empty, so an empty window reads as no number rather than as zero.
pub fn median(values: &[f64]) -> f64 {
    agentnet_engine::stats::median(values).unwrap_or(f64::NAN)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method),
/// so spreads read the same here and in any script that checks them.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let (j, delta) = ((i * m) / 4, (i * m) % 4);
        // Python indexes data[j - 1] with j == 0 as the last element;
        // clamping to the first is the intended extrapolation for tiny n.
        let lo = sorted[j.saturating_sub(1)];
        let hi = sorted[j.min(n - 1)];
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
    }
}
