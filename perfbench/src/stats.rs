//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule on per-mille levels with integer
//! arithmetic, so "how many samples lie beyond the percentile" is exact:
//! at level `p` over `n` samples the percentile is the sample of rank
//! `ceil(p·n)` and `n − ceil(p·n)` samples lie beyond it.

/// Tail levels tried by [`highest_tail_permille`], highest first.
const TAIL_LADDER_PERMILLE: [u32; 4] = [999, 990, 900, 500];

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle samples for even `n`).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank rank (1-based) of per-mille level `p` over `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    (permille as usize * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond the per-mille level `p` over `n` samples.
pub fn beyond(n: usize, permille: u32) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// Nearest-rank percentile at per-mille level `permille`, or `None` on
/// an empty sample.
pub fn percentile(xs: &[f64], permille: u32) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    Some(s[rank(s.len(), permille) - 1])
}

/// The highest per-mille level in the ladder (p99.9, p99, p90, p50) with
/// at least [`MIN_BEYOND`] samples beyond it.
pub fn highest_tail_permille(n: usize) -> Option<u32> {
    TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The p90, refused under 100 samples (fewer than [`MIN_BEYOND`] samples
/// would lie beyond it).
pub fn p90(xs: &[f64]) -> Result<f64, String> {
    if beyond(xs.len(), 900) < MIN_BEYOND {
        return Err(format!("p90 needs at least 100 samples, got {}", xs.len()));
    }
    percentile(xs, 900).ok_or_else(|| "empty sample".to_string())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_refused_under_100_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(p90(&xs).is_err());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90; samples 91..=100 lie beyond it.
        assert_eq!(p90(&xs).unwrap(), 90.0);
        assert_eq!(beyond(100, 900), 10);
    }

    #[test]
    fn highest_tail_needs_ten_samples_beyond() {
        assert_eq!(highest_tail_permille(19), None);
        assert_eq!(highest_tail_permille(20), Some(500));
        assert_eq!(highest_tail_permille(99), Some(500));
        assert_eq!(highest_tail_permille(100), Some(900));
        assert_eq!(highest_tail_permille(999), Some(900));
        assert_eq!(highest_tail_permille(1000), Some(990));
        assert_eq!(highest_tail_permille(10_000), Some(999));
        for n in 0..3000 {
            if let Some(p) = highest_tail_permille(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
