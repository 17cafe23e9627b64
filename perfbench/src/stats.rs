//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its median plus the highest tail percentile
//! that has at least [`MIN_SAMPLES_ABOVE`] samples beyond it, always with
//! the sample count behind it. Percentiles use the nearest-rank rule.

/// Samples that must lie above a tail percentile for it to be reported.
pub const MIN_SAMPLES_ABOVE: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_PERCENTILES: [u32; 2] = [99, 90];

/// The 1-based nearest rank of percentile `q` among `n` samples.
fn rank(q: u32, n: usize) -> usize {
    ((q as usize * n).div_ceil(100)).clamp(1, n.max(1))
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `samples`; `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// How many samples lie above the nearest-rank percentile `q`.
pub fn samples_above(q: u32, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(q, n)
    }
}

/// The median, or 0.0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50).unwrap_or(0.0)
}

/// A timing's reportable summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (0.0 when `n` is 0).
    pub p50: f64,
    /// The highest tail percentile with at least [`MIN_SAMPLES_ABOVE`]
    /// samples above it, as `(percentile, value)`.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `samples`.
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        let tail = TAIL_PERCENTILES
            .iter()
            .find(|&&q| samples_above(q, n) >= MIN_SAMPLES_ABOVE)
            .and_then(|&q| percentile(samples, q).map(|v| (q, v)));
        Summary {
            n,
            p50: median(samples),
            tail,
        }
    }

    /// `p50 = … ms (n = …)` plus the tail, for the human-readable lines.
    pub fn describe(&self, unit: &str) -> String {
        let mut s = format!("p50 = {:.3} {unit}", self.p50);
        if let Some((q, v)) = self.tail {
            s.push_str(&format!(", p{q} = {v:.3} {unit}"));
        }
        s.push_str(&format!(" (n = {})", self.n));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), Some(5.0));
        assert_eq!(percentile(&samples, 90), Some(9.0));
        assert_eq!(percentile(&samples, 100), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_above_it() {
        // 100 samples: 10 lie above p90, only 1 above p99.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_above(90, 100), 10);
        let s = Summary::of(&samples);
        assert_eq!(s.tail, Some((90, 90.0)));
        // 99 samples: p90 has only 9 above it, so no tail is reported.
        let s = Summary::of(&samples[..99]);
        assert_eq!(samples_above(90, 99), 9);
        assert_eq!(s.tail, None);
        assert_eq!(s.n, 99);
        // 1000 samples: p99 has 10 above it and wins over p90.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&many).tail, Some((99, 990.0)));
    }
}
