//! Sample statistics: the paper reports 50-run averages with 95% confidence
//! intervals (§V-B).

/// Mean, standard deviation and 95% confidence half-width of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected).
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval (normal approximation,
    /// `1.96 · σ/√n`, as is customary for 50-run experiments).
    pub ci95: f64,
    /// Sample size.
    pub n: usize,
}

/// Summarizes a sample. Empty samples yield all-zero summaries.
pub fn summarize(samples: &[f64]) -> Summary {
    let n = samples.len();
    if n == 0 {
        return Summary { mean: 0.0, std_dev: 0.0, ci95: 0.0, n: 0 };
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Summary { mean, std_dev: 0.0, ci95: 0.0, n };
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
    let std_dev = var.sqrt();
    let ci95 = 1.96 * std_dev / (n as f64).sqrt();
    Summary { mean, std_dev, ci95, n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample() {
        let s = summarize(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = summarize(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_values() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev with Bessel correction: sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn constant_sample_has_zero_ci() {
        let s = summarize(&[3.0; 10]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }
}
