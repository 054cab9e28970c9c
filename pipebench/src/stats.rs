//! Order statistics for the harness: medians of repeated passes and tail
//! percentiles of per-call timings.
//!
//! A tail percentile is only *supported* when at least [`MIN_BEYOND`]
//! samples lie beyond it; with fewer, the number would be set by a
//! handful of outliers. Callers print the sample count with every
//! percentile they report.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// One percentile of a sample, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100)`.
    pub p: f64,
    /// The nearest-rank value, present only when supported.
    pub value: Option<f64>,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond the nearest-rank position.
    pub beyond: usize,
}

impl Percentile {
    /// The value, or 0 when the sample cannot support the percentile
    /// (the report line shows why).
    pub fn or_zero(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// `p=50 n=5000 beyond=2499 value=1.2` style annotation for report
    /// lines.
    pub fn note(&self) -> String {
        match self.value {
            Some(v) => format!(
                "p={:.2} n={} beyond={} value={v}",
                self.p, self.n, self.beyond
            ),
            None => format!(
                "n={} beyond={} unsupported (needs {MIN_BEYOND} beyond)",
                self.n, self.beyond
            ),
        }
    }
}

/// Nearest-rank percentile `p` of an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            p,
            value: None,
            n,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    let beyond = n - 1 - idx;
    let value = if beyond >= MIN_BEYOND {
        sorted.get(idx).copied()
    } else {
        None
    };
    Percentile {
        p,
        value,
        n,
        beyond,
    }
}

/// Nearest-rank percentile `p` of `values` (sorts a copy).
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// The tail of `values`: percentile `p` when the sample supports it,
/// otherwise the highest percentile that has [`MIN_BEYOND`] samples
/// beyond it (its `p` says which); unsupported only below
/// `MIN_BEYOND + 1` samples.
pub fn tail(values: &[f64], p: f64) -> Percentile {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let asked = percentile_sorted(&v, p);
    let n = v.len();
    if asked.value.is_some() || n <= MIN_BEYOND {
        return asked;
    }
    let idx = n - 1 - MIN_BEYOND;
    Percentile {
        p: 100.0 * (idx + 1) as f64 / n as f64,
        value: v.get(idx).copied(),
        n,
        beyond: MIN_BEYOND,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 sits at rank 990, with exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0);
        assert_eq!(p99.n, 1000);
        assert_eq!(p99.beyond, 10);
        assert_eq!(p99.value, Some(990.0));
        // 999 samples leave only 9 beyond p99: not reported.
        let p99 = percentile(&v[..999], 99.0);
        assert_eq!(p99.beyond, 9);
        assert_eq!(p99.value, None);
        assert_eq!(p99.or_zero(), 0.0);
        assert!(p99.note().contains("n=999") && p99.note().contains("unsupported"));
        // The median of 20 samples (rank 10) has exactly 10 beyond it;
        // of 19, only 9.
        let p50 = percentile(&v[..20], 50.0);
        assert_eq!((p50.value, p50.beyond), (Some(10.0), 10));
        assert_eq!(percentile(&v[..19], 50.0).value, None);
        assert_eq!(percentile(&[], 50.0).value, None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&v, 99.0);
        // 300 samples cannot support p99; rank 290 has exactly 10 beyond.
        assert_eq!((t.value, t.beyond, t.n), (Some(290.0), 10, 300));
        assert!((t.p - 96.666).abs() < 0.01, "{}", t.p);
        assert!(t.note().contains("p=96.67"));
        let full: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&full, 99.0), percentile(&full, 99.0));
        assert_eq!(tail(&v[..10], 99.0).value, None);
        assert_eq!(tail(&v[..11], 99.0).value, Some(1.0));
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut v: Vec<f64> = (0..500).map(|i| f64::from((i * 7919) % 500)).collect();
        let a = percentile(&v, 90.0);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, percentile_sorted(&v, 90.0));
        assert!(a.note().contains("n=500"));
    }
}
