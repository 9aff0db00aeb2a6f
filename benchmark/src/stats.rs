//! Order statistics for the benchmark's medians and tails, and the
//! verdict rules `benchmark compare` applies to two sets of runs.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads match the ones the benchmark's
/// acceptance check computes. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    // Signed, as in Python: clamping `j` can make `delta` negative.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Nearest-rank percentile `p` (0–100] of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail percentile to report for `n` samples: the highest of the
/// candidates that still has at least ten samples beyond it, so the
/// tail is a measured value rather than one outlier. Below 20 samples
/// no tail qualifies and the median (50) is reported instead.
pub fn ptail(n: usize) -> f64 {
    // Per-mille, so "samples beyond" is exact integer arithmetic.
    const CANDIDATES: [usize; 5] = [999, 990, 900, 750, 500];
    let per_mille = CANDIDATES
        .into_iter()
        .find(|&p| n * (1000 - p) >= 10 * 1000)
        .unwrap_or(500);
    per_mille as f64 / 10.0
}

/// Outcome of comparing a change (B) against its parent (A) on one
/// metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fraction of index-paired runs in which B beats A (ties count for
/// neither side), over `min(|A|, |B|)` pairs.
pub fn pair_wins(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|&(&x, &y)| if lower_is_better { y < x } else { y > x })
        .count();
    wins as f64 / pairs as f64
}

/// Judges B against A for a metric whose median may worsen by at most
/// `bound` (a share of A's median):
///
/// - **better**: B wins at least nine tenths of the pairs and the
///   medians differ by more than A's own quartile spread;
/// - **worse**: B's median is worse than A's by more than the bound;
/// - **unresolved**: A's quartile spread is wider than the bound, so "no
///   worse" cannot be shown — unless every run of B beats every run of A;
/// - **unchanged**: otherwise.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let [a_q1, a_med, a_q3] = quartiles(a);
    let b_med = median(b);
    let spread = a_q3 - a_q1;
    // Positive = B is worse, in the metric's own units.
    let worsening = if lower_is_better {
        b_med - a_med
    } else {
        a_med - b_med
    };
    let beats_all = if lower_is_better {
        b.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().cloned().fold(f64::INFINITY, f64::min)
    } else {
        b.iter().cloned().fold(f64::INFINITY, f64::min)
            > a.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    };
    if pair_wins(a, b, lower_is_better) >= 0.9 && -worsening > spread {
        Verdict::Better
    } else if worsening > bound * a_med.abs() {
        Verdict::Worse
    } else if spread > bound * a_med.abs() && !beats_all {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ptail_keeps_ten_samples_beyond() {
        assert_eq!(ptail(1), 50.0);
        assert_eq!(ptail(19), 50.0);
        assert_eq!(ptail(20), 50.0);
        assert_eq!(ptail(40), 75.0);
        assert_eq!(ptail(99), 75.0);
        assert_eq!(ptail(100), 90.0);
        assert_eq!(ptail(224), 90.0);
        assert_eq!(ptail(1000), 99.0);
        assert_eq!(ptail(10_000), 99.9);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0];
        // Every run 20% faster: better.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &fast, 0.1, true), Verdict::Better);
        // 20% slower against a 10% bound: worse.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, 0.1, true), Verdict::Worse);
        // Within the bound, tight parent spread: unchanged.
        let same = [10.02, 9.98, 10.0, 10.03, 9.97, 10.01];
        assert_eq!(verdict(&a, &same, 0.1, true), Verdict::Unchanged);
        // Parent spread wider than the bound: unresolved...
        let noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 9.0];
        assert_eq!(verdict(&noisy, &same, 0.1, true), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let below = [6.5, 6.6, 6.7, 6.8, 6.9, 6.95];
        assert_eq!(verdict(&noisy, &below, 0.1, true), Verdict::Unchanged);
        // Higher-is-better metrics flip the direction.
        assert_eq!(verdict(&a, &fast, 0.1, false), Verdict::Worse);
    }

    #[test]
    fn pair_wins_ignore_ties() {
        assert_eq!(
            pair_wins(&[2.0, 2.0, 2.0, 2.0], &[1.0, 2.0, 3.0, 1.0], true),
            0.5
        );
        assert_eq!(pair_wins(&[1.0], &[], true), 0.0);
    }
}
