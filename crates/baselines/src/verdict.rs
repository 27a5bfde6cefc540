//! Baseline decision type.

/// What a (non-Byzantine-resilient) partition detector concludes.
///
/// Unlike NECTAR's `Verdict`, the baselines reason about the *current*
/// graph only: connected or partitioned, with no notion of potential
/// Byzantine cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineVerdict {
    /// Every process appears reachable.
    Connected,
    /// Some process appears unreachable.
    Partitioned,
}

impl std::fmt::Display for BaselineVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineVerdict::Connected => f.write_str("CONNECTED"),
            BaselineVerdict::Partitioned => f.write_str("PARTITIONED"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(BaselineVerdict::Connected.to_string(), "CONNECTED");
        assert_eq!(BaselineVerdict::Partitioned.to_string(), "PARTITIONED");
    }
}
