//! Protocol parameters and decision types.

/// NECTAR's two possible decisions (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// No placement of Byzantine nodes can disconnect correct nodes.
    NotPartitionable,
    /// Byzantine nodes might be able to disconnect correct nodes (but this
    /// is not certain).
    Partitionable,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::NotPartitionable => f.write_str("NOT_PARTITIONABLE"),
            Verdict::Partitionable => f.write_str("PARTITIONABLE"),
        }
    }
}

impl std::str::FromStr for Verdict {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "NOT_PARTITIONABLE" => Ok(Verdict::NotPartitionable),
            "PARTITIONABLE" => Ok(Verdict::Partitionable),
            other => Err(format!("unknown verdict {other}")),
        }
    }
}

/// The output of `decide()`: the verdict plus the indicative `confirmed`
/// flag (§IV-A). `confirmed = true` means an actual partition was detected
/// — some nodes were unreachable — which per the Validity property implies
/// the Byzantine nodes form a vertex cut of `G`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decision {
    /// PARTITIONABLE / NOT_PARTITIONABLE.
    pub verdict: Verdict,
    /// Whether an actual communication impossibility was observed.
    pub confirmed: bool,
    /// Number of nodes this node saw as reachable (`r` in Alg. 1).
    pub reachable: usize,
    /// The vertex-connectivity bound of the discovered graph that justified
    /// the verdict (`k` in Alg. 1). The reference path
    /// ([`NectarNode::decide`](crate::node::NectarNode::decide)) reports the
    /// exact `κ`; the oracle path
    /// ([`decide_with`](crate::node::NectarNode::decide_with)) reports a
    /// witness bound instead — `≤ t` for PARTITIONABLE (a cut of that size
    /// exists), `t + 1` for NOT_PARTITIONABLE (`κ` is at least that). The
    /// verdict-relevant comparison `connectivity > t` agrees between the two.
    pub connectivity: usize,
}

impl Decision {
    /// Applies the decision rule of Alg. 1 ll. 17–23 to a view summarized
    /// by its reachable count `r` and its connectivity (bound): decide
    /// NOT_PARTITIONABLE iff `k > t ∧ r = n`, PARTITIONABLE otherwise with
    /// `confirmed = (r ≠ n)`. Single home of the rule, shared by the exact
    /// and oracle paths of `NectarNode` and by the dolev detector.
    pub fn from_view(n: usize, t: usize, reachable: usize, connectivity: usize) -> Decision {
        let all_reachable = reachable == n;
        if connectivity > t && all_reachable {
            Decision {
                verdict: Verdict::NotPartitionable,
                confirmed: false,
                reachable,
                connectivity,
            }
        } else {
            Decision {
                verdict: Verdict::Partitionable,
                confirmed: !all_reachable,
                reachable,
                connectivity,
            }
        }
    }
}

/// The largest fleet a scenario may describe: node ids travel as `u16`
/// signer identities (`nectar_crypto::SignerId`).
pub const MAX_NODES: usize = 1 << 16;

/// NECTAR's parameters: the paper's inputs (`n`, `t`) plus reproduction
/// knobs whose defaults follow Algorithm 1 exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct NectarConfig {
    /// Total number of processes (`n`), known to all nodes (§II).
    pub n: usize,
    /// Maximum number of Byzantine nodes (`t`).
    pub t: usize,
    /// Number of propagation rounds `R`; `None` uses the paper's default
    /// `n − 1` (the chain-topology worst case, §IV-B). Choosing a different
    /// value trades liveness on high-diameter graphs for latency — the
    /// `ablation_rounds` bench explores this.
    pub rounds: Option<usize>,
    /// Reject chains whose length differs from the current round
    /// (Alg. 1 l. 14). Disabling this is unsafe and exists only for the
    /// ablation that demonstrates the stale-replay attack it prevents.
    pub check_chain_length: bool,
    /// Reject chains with repeated signers (the Dolev–Strong style sanity
    /// condition; correct relays never sign the same edge twice).
    pub require_distinct_signers: bool,
}

impl NectarConfig {
    /// Paper-faithful configuration for an `n`-node system tolerating `t`
    /// Byzantine nodes.
    pub fn new(n: usize, t: usize) -> Self {
        NectarConfig {
            n,
            t,
            rounds: None,
            check_chain_length: true,
            require_distinct_signers: true,
        }
    }

    /// The number of propagation rounds this configuration runs.
    pub fn effective_rounds(&self) -> usize {
        self.rounds.unwrap_or(self.n.saturating_sub(1))
    }

    /// Sets an explicit round count (builder style).
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = Some(rounds);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rounds_is_n_minus_one() {
        assert_eq!(NectarConfig::new(10, 2).effective_rounds(), 9);
        assert_eq!(NectarConfig::new(0, 0).effective_rounds(), 0);
        assert_eq!(NectarConfig::new(10, 2).with_rounds(4).effective_rounds(), 4);
    }

    #[test]
    fn defaults_are_paper_faithful() {
        let cfg = NectarConfig::new(5, 1);
        assert!(cfg.check_chain_length);
        assert!(cfg.require_distinct_signers);
    }

    #[test]
    fn verdict_displays_like_the_paper() {
        assert_eq!(Verdict::NotPartitionable.to_string(), "NOT_PARTITIONABLE");
        assert_eq!(Verdict::Partitionable.to_string(), "PARTITIONABLE");
    }

    #[test]
    fn verdict_names_round_trip() {
        for v in [Verdict::NotPartitionable, Verdict::Partitionable] {
            assert_eq!(v.to_string().parse::<Verdict>().unwrap(), v);
        }
        assert!("MAYBE".parse::<Verdict>().is_err());
    }
}
