//! Order statistics over timing samples.

/// The value at quantile `q` (nearest rank) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Tail quantiles, highest first; [`tail`] takes the first that leaves
/// at least ten samples beyond it.
const TAILS: [f64; 4] = [0.99, 0.95, 0.9, 0.75];

/// The highest quantile of [`TAILS`] with at least ten samples beyond
/// it, falling back to the median for tiny samples. Returns the value
/// and the quantile used.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let q = TAILS
        .into_iter()
        .find(|&q| n - ((q * n as f64).ceil() as usize).min(n) >= 10)
        .unwrap_or(0.5);
    (quantile(values, q), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(tail(&v), (90.0, 0.9));
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), (1980.0, 0.99));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 0.5));
    }
}
