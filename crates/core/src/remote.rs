//! Running one scenario node over a real [`Transport`], and the portable
//! report it emits.
//!
//! A multi-process fleet (`nectar-cli node`) cannot hand `Decision`
//! structs across address spaces, so each node serializes a
//! [`NodeReport`] — verdict, accepted edges, traffic counters and the
//! node's delivered-message log — as versioned, line-oriented text on
//! stdout, in the [`text`] grammar that `.scn` files
//! and schedule scripts share. The log comes from the same place on both
//! sides of the conformance contract: the [`Recorded`] capture layer
//! around the participant, driven by a [`NodeDriver`] here and by the
//! deterministic sync engine in [`sync_fleet_reports`], which the harness
//! compares the union of the fleet's reports against. The participant
//! comes from the same place too: each process takes its node from
//! [`Scenario::build_participants`], the builder every in-memory engine
//! runs. Per
//! `docs/DETERMINISM.md` the socket path is pinned by delivered-message
//! equivalence, not bit-identity.

use std::collections::BTreeMap;

use nectar_graph::ConnectivityOracle;
use nectar_net::text::{self, Line, TextError};
use nectar_net::transport::{DeliveryLog, NodeDriver, Recorded, Transport, TransportError};
use nectar_net::{NodeId, SyncNetwork};

use crate::byzantine::Participant;
use crate::config::Decision;
use crate::runner::Scenario;

/// One node's portable summary of a detection run: everything the
/// conformance contract compares, in plain-old-data form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// The reporting node.
    pub node: NodeId,
    /// Its decision, taken the way every in-memory run takes it: through a
    /// [`ConnectivityOracle`] ([`decide_with`]), so `connectivity` is the
    /// oracle's witness bound, not the exact κ that the reference
    /// [`decide`] computes for tests to compare against.
    ///
    /// [`decide_with`]: crate::node::NectarNode::decide_with
    /// [`decide`]: crate::node::NectarNode::decide
    pub decision: Decision,
    /// The edges its discovered graph accepted, ascending.
    pub accepted_edges: Vec<(u16, u16)>,
    /// Bytes charged to this node's sends (accounting wire size).
    pub bytes_sent: u64,
    /// Messages this node sent.
    pub msgs_sent: u64,
    /// The `(from, to, digest)` triples delivered *to* this node.
    pub deliveries: DeliveryLog,
}

fn hex64(digest: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for b in digest {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn unhex64(s: &str) -> Result<[u8; 32], String> {
    let bytes = s.as_bytes();
    if bytes.len() != 64 {
        return Err(format!("digest must be 64 hex chars, got {}", bytes.len()));
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(format!("bad hex digit {:?}", c as char)),
        }
    };
    let mut out = [0u8; 32];
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        out[i] = (nibble(pair[0])? << 4) | nibble(pair[1])?;
    }
    Ok(out)
}

impl NodeReport {
    /// Serializes to the versioned line format (`nectar-node-report v1`
    /// ... `end`), self-delimiting so it can share a stream with other
    /// output.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "nectar-node-report v1");
        let _ = writeln!(s, "node {}", self.node);
        let _ = writeln!(s, "verdict {}", self.decision.verdict);
        let _ = writeln!(s, "confirmed {}", self.decision.confirmed);
        let _ = writeln!(s, "reachable {}", self.decision.reachable);
        let _ = writeln!(s, "connectivity {}", self.decision.connectivity);
        let _ = writeln!(s, "bytes-sent {}", self.bytes_sent);
        let _ = writeln!(s, "msgs-sent {}", self.msgs_sent);
        let _ = writeln!(s, "edges {}", self.accepted_edges.len());
        for (a, b) in &self.accepted_edges {
            let _ = writeln!(s, "edge {a} {b}");
        }
        let _ = writeln!(s, "deliveries {}", self.deliveries.len());
        for (from, to, digest) in self.deliveries.entries() {
            let _ = writeln!(s, "delivery {from} {to} {}", hex64(digest));
        }
        let _ = writeln!(s, "end");
        s
    }

    /// Parses the first `nectar-node-report` block found in `text`
    /// (surrounding output is ignored). The block is read in the shared
    /// [`text`] grammar: one `<key> <value…>` line per
    /// field, in [`to_text`](Self::to_text)'s order.
    ///
    /// # Errors
    ///
    /// The first malformed or missing line.
    pub fn parse(text: &str) -> Result<NodeReport, TextError> {
        let mut lines = text::lines(text)
            .skip_while(|l| (l.keyword, l.args.as_slice()) != ("nectar-node-report", &["v1"]));
        let whole = |reason: String| TextError { line: 0, reason };
        lines.next().ok_or_else(|| whole("no `nectar-node-report v1` header found".into()))?;
        let mut field = |key: &str| match lines.next() {
            Some(line) if line.keyword == key => Ok(line),
            Some(line) => Err(line.error(format!("expected `{key} ...`, got `{}`", line.keyword))),
            None => Err(whole(format!("report ended before `{key}`"))),
        };
        let node = one(&field("node")?)?;
        let decision = Decision {
            verdict: one(&field("verdict")?)?,
            confirmed: one(&field("confirmed")?)?,
            reachable: one(&field("reachable")?)?,
            connectivity: one(&field("connectivity")?)?,
        };
        let bytes_sent = one(&field("bytes-sent")?)?;
        let msgs_sent = one(&field("msgs-sent")?)?;
        // Counts are untrusted: read line by line, never preallocated.
        let mut accepted_edges = Vec::new();
        for _ in 0..one::<u64>(&field("edges")?)? {
            let line = field("edge")?;
            let [a, b] = line.args()?;
            accepted_edges.push((line.num(a, "edge endpoint")?, line.num(b, "edge endpoint")?));
        }
        let mut deliveries = DeliveryLog::new();
        for _ in 0..one::<u64>(&field("deliveries")?)? {
            let line = field("delivery")?;
            let [from, to, digest] = line.args()?;
            let digest = unhex64(digest).map_err(|e| line.error(e))?;
            deliveries.record(
                line.num(from, "delivery from")?,
                line.num(to, "delivery to")?,
                digest,
            );
        }
        field("end")?.args::<0>()?;
        Ok(NodeReport { node, decision, accepted_edges, bytes_sent, msgs_sent, deliveries })
    }
}

/// The single value of a `<key> <value>` report line.
fn one<T: std::str::FromStr>(line: &Line) -> Result<T, TextError> {
    line.num(line.args::<1>()?[0], line.keyword)
}

fn report_for(
    participant: &Participant,
    oracle: &mut ConnectivityOracle,
    deliveries: DeliveryLog,
    sent: (u64, u64),
) -> NodeReport {
    let nectar = participant.nectar();
    NodeReport {
        node: nectar.node_id(),
        decision: nectar.decide_with(oracle),
        accepted_edges: nectar.discovered_edge_key(),
        bytes_sent: sent.0,
        msgs_sent: sent.1,
        deliveries,
    }
}

/// Runs node `node` of `scenario` over `transport` — the body of
/// `nectar-cli node`. Builds the full participant cast locally with
/// [`Scenario::build_participants`] (the key universe is a pure function
/// of `n` and the key seed, so every process derives identical keys and
/// proofs) and keeps this node's, then drives it — behind the
/// [`Recorded`] layer, for the report's deliveries — for the scenario's
/// round count, then decides through a fresh [`ConnectivityOracle`].
///
/// # Errors
///
/// The first transport, codec or protocol failure.
///
/// # Panics
///
/// Panics if `node` is out of range or the transport's peer list does not
/// match the topology neighborhood.
pub fn run_scenario_node<T: Transport>(
    scenario: &Scenario,
    node: NodeId,
    transport: T,
) -> Result<NodeReport, TransportError> {
    let n = scenario.topology().node_count();
    assert!(node < n, "node {node} out of range for n = {n}");
    let mut expected = scenario.topology().neighborhood(node);
    expected.sort_unstable();
    assert_eq!(
        transport.peers(),
        expected.as_slice(),
        "transport peers must be node {node}'s topology neighborhood"
    );
    let participant = scenario.build_participants().swap_remove(node);
    let mut driver = NodeDriver::new(Recorded::new(participant), transport);
    driver.run(scenario.config().effective_rounds())?;
    let (recorded, sent, _illegal) = driver.into_parts();
    let (participant, log) = recorded.into_parts();
    let bytes: u64 = sent.iter().map(|r| r.wire_bytes as u64).sum();
    let msgs = sent.len() as u64;
    Ok(report_for(&participant, &mut ConnectivityOracle::new(), log, (bytes, msgs)))
}

/// The reference side of the conformance contract: runs `scenario` on the
/// deterministic sync engine with every participant behind the
/// [`Recorded`] capture layer, and summarizes each node as the
/// [`NodeReport`] a socket fleet member would emit, every node deciding
/// through one shared [`ConnectivityOracle`]. Also returns the fleet-wide
/// delivery log (the union of the per-node logs).
pub fn sync_fleet_reports(scenario: &Scenario) -> (BTreeMap<NodeId, NodeReport>, DeliveryLog) {
    let recorded: Vec<Recorded<Participant>> =
        scenario.build_participants().into_iter().map(Recorded::new).collect();
    let mut net = SyncNetwork::new(recorded, scenario.topology().clone());
    net.run_rounds(scenario.config().effective_rounds());
    let (recorded, metrics) = net.into_parts();
    let mut oracle = ConnectivityOracle::new();
    let mut fleet_log = DeliveryLog::new();
    let mut reports = BTreeMap::new();
    for (i, wrapped) in recorded.into_iter().enumerate() {
        let (participant, log) = wrapped.into_parts();
        fleet_log.merge(&log);
        let sent = (metrics.bytes_sent()[i], metrics.msgs_sent()[i]);
        reports.insert(i, report_for(&participant, &mut oracle, log, sent));
    }
    (reports, fleet_log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::ByzantineBehavior;
    use crate::config::Verdict;
    use nectar_graph::gen;

    fn cut_scenario() -> Scenario {
        // A 6-cycle with t = 2: κ = 2 ≤ t, so PARTITIONABLE everywhere.
        Scenario::new(gen::cycle(6), 2).with_key_seed(9)
    }

    #[test]
    fn report_text_round_trips() {
        let (reports, _) = sync_fleet_reports(&cut_scenario());
        for report in reports.values() {
            let text = report.to_text();
            assert_eq!(&NodeReport::parse(&text).unwrap(), report);
            // Self-delimiting: survives surrounding stream noise.
            let noisy = format!("starting up...\n{text}exiting\n");
            assert_eq!(&NodeReport::parse(&noisy).unwrap(), report);
        }
    }

    #[test]
    fn parse_rejects_malformed_reports() {
        let report = sync_fleet_reports(&cut_scenario()).0.remove(&0).unwrap();
        let text = report.to_text();
        assert!(NodeReport::parse("no header here").is_err());
        assert!(NodeReport::parse(&text.replace("verdict", "verdiet")).is_err());
        assert!(NodeReport::parse(&text.replace("confirmed false", "confirmed ?")).is_err());
        assert!(NodeReport::parse(text.strip_suffix("end\n").unwrap()).is_err());
        // A corrupted digest character.
        let bad = text.replacen("delivery 1 0 ", "delivery 1 0 zz", 1);
        assert!(NodeReport::parse(&bad).is_err());
        // Errors inside the block name their line of the whole stream.
        let noisy = format!("starting up...\n\n{}", text.replace("confirmed false", "confirmed ?"));
        assert_eq!(NodeReport::parse(&noisy).unwrap_err().to_string(), "line 6: bad confirmed ?");
    }

    #[test]
    fn sync_fleet_agrees_with_the_simulation() {
        let scenario = cut_scenario();
        let (reports, fleet_log) = sync_fleet_reports(&scenario);
        assert_eq!(reports.len(), 6);
        assert!(!fleet_log.is_empty());
        for report in reports.values() {
            assert_eq!(report.decision.verdict, Verdict::Partitionable);
            assert!(!report.decision.confirmed);
            assert_eq!(report.decision.reachable, 6);
        }
        // Every correct node's whole decision, `connectivity` included, is
        // the simulation's. On harary(4, 8) at t = 1 the exact κ (4) and
        // the oracle's witness bound (t + 1 = 2) differ.
        let harary = Scenario::new(gen::harary(4, 8).unwrap(), 1).with_key_seed(9);
        for scenario in [&scenario, &harary] {
            let simulated = scenario.sim().run();
            let reports = sync_fleet_reports(scenario).0;
            for (node, decision) in simulated.decisions() {
                assert_eq!(&reports[node].decision, decision, "node {node}");
            }
        }
        // The fleet log is exactly the union of the per-node logs, and
        // every per-node log only contains deliveries to that node.
        let mut union = DeliveryLog::new();
        for (node, report) in &reports {
            assert!(report.deliveries.entries().all(|(_, to, _)| to == node));
            union.merge(&report.deliveries);
        }
        assert_eq!(union, fleet_log);
    }

    #[test]
    fn loopback_node_matches_the_sync_reference() {
        use nectar_net::transport::LoopbackHub;

        let scenario = cut_scenario().with_byzantine(1, ByzantineBehavior::Silent).with_byzantine(
            4,
            ByzantineBehavior::TwoFaced { silent_toward: [3].into_iter().collect() },
        );
        let (reference, reference_log) = sync_fleet_reports(&scenario);
        let g = scenario.topology().clone();
        let hub = LoopbackHub::new(g.node_count());
        let mut drivers: Vec<_> = scenario
            .build_participants()
            .into_iter()
            .enumerate()
            .map(|(i, p)| NodeDriver::new(Recorded::new(p), hub.transport(i, g.neighborhood(i))))
            .collect();
        for round in 1..=scenario.config().effective_rounds() {
            for d in drivers.iter_mut() {
                d.begin_round(round).unwrap();
            }
            for d in drivers.iter_mut() {
                d.finish_round(round).unwrap();
            }
        }
        let mut oracle = ConnectivityOracle::new();
        let mut fleet_log = DeliveryLog::new();
        for (i, driver) in drivers.into_iter().enumerate() {
            let (recorded, sent, _) = driver.into_parts();
            let (participant, log) = recorded.into_parts();
            fleet_log.merge(&log);
            let bytes: u64 = sent.iter().map(|r| r.wire_bytes as u64).sum();
            let report = report_for(&participant, &mut oracle, log, (bytes, sent.len() as u64));
            assert_eq!(&report, &reference[&i], "node {i}");
        }
        assert_eq!(fleet_log, reference_log);
    }
}
