//! Order statistics used by every workload: median, quartiles,
//! nearest-rank percentiles that refuse to report a tail the sample
//! cannot support, and the fast estimates the end-to-end metrics use.

/// Samples that must lie beyond a reported percentile, so that a tail
/// figure rests on more than a handful of outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the "exclusive" method (the
/// default of Python's `statistics.quantiles(values, n=4)`), so spreads
/// printed here match the ones computed over result files.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// [`tail`], or an error naming the metric and how many samples it
/// would have needed.
pub fn tail_or_err(values: &[f64], p: f64, what: &str) -> Result<f64, String> {
    tail(values, p).ok_or_else(|| {
        let need = (MIN_BEYOND as f64 / (1.0 - p / 100.0)).ceil();
        format!(
            "{what}: {} samples cannot support p{p} (needs about {need})",
            values.len()
        )
    })
}

/// Samples a fast estimate needs, so that it lies at or above the 90th
/// percentile.
const MIN_FAST_SAMPLES: usize = 10 * (MIN_BEYOND + 1);

/// The rate the fastest samples reach: of per-sample rates, the highest
/// percentile with [`MIN_BEYOND`] samples beyond it (the eleventh-highest).
///
/// On a shared host, neighbours now and then halve a vCPU's speed for
/// anything from milliseconds to tens of seconds (while a dependent
/// arithmetic chain keeps its speed, so it is contention for the core,
/// not a slower clock). The share of a run such stalls hit varies from
/// run to run, so a mean, a median or a fixed upper quartile over all
/// samples moves by tens of percent between runs of the same code. The
/// level the fastest samples reach moves far less, and a change to the
/// code moves it as it moves every sample.
pub fn fast_rate(rates: &[f64], what: &str) -> Result<f64, String> {
    let n = rates.len();
    if n < MIN_FAST_SAMPLES {
        return Err(format!(
            "{what}: {n} samples, a fast estimate needs {MIN_FAST_SAMPLES}"
        ));
    }
    Ok(sorted(rates)[n - 1 - MIN_BEYOND])
}

/// The time the fastest samples stay within: the mirror of [`fast_rate`]
/// for per-sample times (the eleventh-lowest).
pub fn fast_time(times: &[f64], what: &str) -> Result<f64, String> {
    let negated: Vec<f64> = times.iter().map(|t| -t).collect();
    fast_rate(&negated, what).map(|t| -t)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]
        assert_eq!(quartiles(&[7.0, 9.0]), (6.5, 8.0, 9.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank: ceil(0.99 * 1000) = 990, with 10 samples beyond.
        assert_eq!(tail(&v, 99.0), Some(990.0));
        // 999 samples leave only 9 beyond the 99th percentile.
        assert_eq!(tail(&v[..999], 99.0), None);
        assert_eq!(tail(&v[..100], 90.0), Some(90.0));
        assert_eq!(tail(&v[..99], 90.0), None);
        assert!(tail_or_err(&v[..50], 90.0, "x")
            .unwrap_err()
            .contains("x: 50"));
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn fast_estimates_keep_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(fast_rate(&v, "r"), Ok(990.0));
        assert_eq!(fast_time(&v, "t"), Ok(11.0));
        // Most samples at half speed leave the estimate where it was.
        let mixed: Vec<f64> = (0..1000)
            .map(|i| if i % 50 == 0 { 100.0 } else { 50.0 })
            .collect();
        assert_eq!(fast_rate(&mixed, "r"), Ok(100.0));
        let times: Vec<f64> = mixed.iter().map(|r| 1.0 / r).collect();
        assert_eq!(fast_time(&times, "t"), Ok(0.01));
        // The smallest sample it accepts puts the estimate at p90.
        assert_eq!(fast_rate(&v[890..], "r"), Ok(100.0));
        assert!(fast_rate(&v[..109], "r").unwrap_err().contains("r: 109"));
        assert!(fast_time(&v[..109], "t").unwrap_err().contains("t: 109"));
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
