//! Order statistics over raw samples (no bucketing, so no bucket error).

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 if empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A tail percentile kept for the report only: its value, the sample count
/// and how many samples lie beyond it.
pub struct Tail {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

pub fn p90(v: &[f64]) -> Tail {
    let value = quantile(v, 0.9);
    Tail {
        value,
        samples: v.len(),
        beyond: v.iter().filter(|&&x| x > value).count(),
    }
}
