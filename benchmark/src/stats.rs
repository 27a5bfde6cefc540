//! Order statistics over timing samples.
//!
//! The workloads are closed-loop, single-client, deterministic compute, so
//! run-to-run noise on a shared box is additive: the fastest run is the
//! program, everything above it is the neighbour. The end-to-end timings
//! are therefore the minimum and the lower quartile (which catches a change
//! that only sometimes reaches the old floor); median and upper quartile
//! are kept beside them so a reader can see the spread.

/// `samples` in ascending order (NaNs are a bug upstream and sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, interpolating
/// linearly between the two closest ranks (`q·(n−1)`), so `q = 0` is the
/// minimum, `q = 1` the maximum and a single sample is every quantile.
///
/// # Panics
///
/// Panics on an empty slice — a benchmark with no samples measured nothing.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The sample count and five-number summary of a set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            p25: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_quartiles_of_a_known_sample() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.p25, s.median, s.p75, s.max), (5, 1.0, 2.0, 3.0, 4.0, 5.0));
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(quantile(&s, 0.25), 17.5);
        assert_eq!(quantile(&s, 0.5), 25.0);
        assert_eq!(quantile(&s, 0.0), 10.0);
        assert_eq!(quantile(&s, 1.0), 40.0);
    }

    #[test]
    fn one_sample_is_every_quantile() {
        let s = Summary::of(&[7.5]);
        assert_eq!((s.min, s.p25, s.median, s.p75, s.max), (7.5, 7.5, 7.5, 7.5, 7.5));
    }

    #[test]
    fn the_floor_ignores_a_noisy_neighbour() {
        // One slow outlier moves the mean by 10x and the minimum and lower
        // quartile not at all — why they are the gated estimators.
        let calm = Summary::of(&[100.0, 101.0, 102.0, 103.0, 104.0]);
        let noisy = Summary::of(&[100.0, 101.0, 102.0, 103.0, 5000.0]);
        assert_eq!(calm.min, noisy.min);
        assert_eq!(calm.p25, noisy.p25);
    }
}
