//! Per-node network accounting.
//!
//! The evaluation's cost figures (Figs. 3–7) report *data sent per node* in
//! kilobytes; [`Metrics`] tracks bytes and message counts per sender, per
//! receiver and per round, plus protocol violations (messages addressed to
//! non-neighbors, which reliable channels cannot carry).

/// Byte and message counters collected by a runtime execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    bytes_sent: Vec<u64>,
    msgs_sent: Vec<u64>,
    bytes_received: Vec<u64>,
    msgs_received: Vec<u64>,
    bytes_per_round: Vec<u64>,
    illegal_sends: u64,
    schedule_drops: u64,
}

impl Metrics {
    /// Creates counters for an `n`-node system.
    pub fn new(n: usize) -> Self {
        Metrics {
            bytes_sent: vec![0; n],
            msgs_sent: vec![0; n],
            bytes_received: vec![0; n],
            msgs_received: vec![0; n],
            bytes_per_round: Vec::new(),
            illegal_sends: 0,
            schedule_drops: 0,
        }
    }

    /// Reassembles counters from their raw parts — the constructor behind
    /// deserialized run reports (`nectar_protocol`'s `RunReport` codec),
    /// which must rebuild the exact counters a runtime recorded.
    ///
    /// # Panics
    ///
    /// Panics unless the four per-node vectors have equal lengths.
    pub fn from_parts(
        bytes_sent: Vec<u64>,
        msgs_sent: Vec<u64>,
        bytes_received: Vec<u64>,
        msgs_received: Vec<u64>,
        bytes_per_round: Vec<u64>,
        illegal_sends: u64,
        schedule_drops: u64,
    ) -> Self {
        assert!(
            bytes_sent.len() == msgs_sent.len()
                && bytes_sent.len() == bytes_received.len()
                && bytes_sent.len() == msgs_received.len(),
            "per-node counter vectors must cover the same system"
        );
        Metrics {
            bytes_sent,
            msgs_sent,
            bytes_received,
            msgs_received,
            bytes_per_round,
            illegal_sends,
            schedule_drops,
        }
    }

    /// Records a successful transmission of `bytes` from `from` to `to`
    /// during `round` (1-based).
    pub fn record_send(&mut self, round: usize, from: usize, to: usize, bytes: usize) {
        self.bytes_sent[from] += bytes as u64;
        self.msgs_sent[from] += 1;
        self.bytes_received[to] += bytes as u64;
        self.msgs_received[to] += 1;
        if self.bytes_per_round.len() < round {
            self.bytes_per_round.resize(round, 0);
        }
        self.bytes_per_round[round - 1] += bytes as u64;
    }

    /// Records an attempted send along a non-existent channel.
    pub fn record_illegal_send(&mut self) {
        self.illegal_sends += 1;
    }

    /// Records `n` messages suppressed by a topology schedule (down edges
    /// and loss windows). Unlike illegal sends these are legitimate
    /// protocol traffic the *network* refused to carry, so they are counted
    /// apart from both the sent and the violation counters.
    pub fn record_schedule_drops(&mut self, n: u64) {
        self.schedule_drops += n;
    }

    /// Bytes sent, per node.
    pub fn bytes_sent(&self) -> &[u64] {
        &self.bytes_sent
    }

    /// Messages sent, per node.
    pub fn msgs_sent(&self) -> &[u64] {
        &self.msgs_sent
    }

    /// Bytes received, per node.
    pub fn bytes_received(&self) -> &[u64] {
        &self.bytes_received
    }

    /// Messages received, per node.
    pub fn msgs_received(&self) -> &[u64] {
        &self.msgs_received
    }

    /// Total bytes transmitted per round (index 0 = round 1).
    pub fn bytes_per_round(&self) -> &[u64] {
        &self.bytes_per_round
    }

    /// Number of sends attempted along non-existent channels.
    pub fn illegal_sends(&self) -> u64 {
        self.illegal_sends
    }

    /// Number of messages a topology schedule dropped.
    pub fn schedule_drops(&self) -> u64 {
        self.schedule_drops
    }

    /// Total bytes sent across all nodes.
    pub fn total_bytes_sent(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }

    /// Mean bytes sent per node — the y-axis of Figs. 3–7.
    pub fn mean_bytes_sent_per_node(&self) -> f64 {
        if self.bytes_sent.is_empty() {
            return 0.0;
        }
        self.total_bytes_sent() as f64 / self.bytes_sent.len() as f64
    }

    /// Maximum bytes sent by any single node.
    pub fn max_bytes_sent_per_node(&self) -> u64 {
        self.bytes_sent.iter().copied().max().unwrap_or(0)
    }
}

/// Wall-clock breakdown of one epoch's phases, in microseconds: the
/// dissemination rounds, then the decision phase.
///
/// Deliberately *not* part of [`Metrics`]: metrics are compared bit-for-bit
/// across runtimes by the determinism suite, while wall-clock readings are
/// inherently nondeterministic. Profiles therefore ride next to the metrics
/// as an opt-in `Option` (`Simulation::profile()` in `nectar_protocol`) and
/// are excluded from every cross-runtime equivalence check; two profiled
/// runs of the same scenario will not agree on these numbers, only on
/// everything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Participant construction plus the propagation rounds (Alg. 1
    /// ll. 5–15), all of them.
    pub disseminate_micros: u64,
    /// The decision phase (Alg. 1 ll. 16–23): every correct node's oracle
    /// query and decision.
    pub decide_micros: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_updates_all_counters() {
        let mut m = Metrics::new(3);
        m.record_send(1, 0, 2, 100);
        m.record_send(2, 0, 1, 50);
        assert_eq!(m.bytes_sent(), &[150, 0, 0]);
        assert_eq!(m.msgs_sent(), &[2, 0, 0]);
        assert_eq!(m.bytes_received(), &[0, 50, 100]);
        assert_eq!(m.msgs_received(), &[0, 1, 1]);
        assert_eq!(m.bytes_per_round(), &[100, 50]);
        assert_eq!(m.total_bytes_sent(), 150);
        assert_eq!(m.max_bytes_sent_per_node(), 150);
        assert!((m.mean_bytes_sent_per_node() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn rounds_may_arrive_out_of_order() {
        let mut m = Metrics::new(2);
        m.record_send(3, 0, 1, 10);
        m.record_send(1, 1, 0, 20);
        assert_eq!(m.bytes_per_round(), &[20, 0, 10]);
    }

    #[test]
    fn illegal_sends_are_counted_separately() {
        let mut m = Metrics::new(2);
        m.record_illegal_send();
        assert_eq!(m.illegal_sends(), 1);
        assert_eq!(m.total_bytes_sent(), 0);
    }

    #[test]
    fn empty_metrics_mean_is_zero() {
        assert_eq!(Metrics::new(0).mean_bytes_sent_per_node(), 0.0);
    }
}
