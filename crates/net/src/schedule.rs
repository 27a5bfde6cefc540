//! Scripted topology schedules: deterministic network-level fault injection.
//!
//! The paper's system model (§II) fixes the communication graph for the
//! duration of an epoch, and the three runtimes materialize that static
//! topology up front. Real deployments flap: links drop and heal, nodes
//! crash and rejoin, partitions open mid-epoch and close again. A
//! [`TopologySchedule`] scripts exactly those events — seed-driven, round
//! stamped, validated against the base graph — and a [`Scheduled`] wrapper
//! enforces them around any [`Process`], on any runtime, without the
//! engines knowing schedules exist.
//!
//! # Where the schedule is enforced
//!
//! Every scheduled effect is applied at the *sender's* edge of the wire,
//! when the process is polled for a round's sends — which on every engine
//! happens immediately after the previous round's commit barrier. Cutting
//! a link at the sender is observationally identical to cutting it in the
//! network (the message never arrives either way), and it keeps the
//! determinism contract of `docs/DETERMINISM.md` intact for free: a
//! message's fate is a pure function of `(round, from, to, k)` and the
//! compiled schedule, so no engine, worker count or poll order can change
//! it. A crashed node is modeled as all of its incident links being down
//! for the crash window — it neither delivers nor is delivered to, exactly
//! as if it were off.
//!
//! The schedule pipeline:
//!
//! 1. [`TopologySchedule`] — the builder/parser: raw round-stamped events
//!    (drop/heal, crash/rejoin, partition/heal-partition) plus per-link
//!    loss and delay windows, with a line-based text format for the CLI.
//! 2. [`TopologySchedule::compile`] — validates against the base graph and
//!    resolves overlapping causes (an edge is down while *any* cause holds:
//!    an unhealed drop, a cut partition, a crashed endpoint) into one
//!    per-round transition list, then buckets the transitions and the
//!    windows by endpoint into a per-node index, shared immutably by every
//!    node.
//! 3. [`Scheduled`] — the process wrapper: holds a cursor into its own
//!    node's row of that index and the incident peers currently down,
//!    nothing fleet-wide. At the round barrier it applies the due notices,
//!    notifies the wrapped process via [`Process::link_changed`], drops or
//!    delays outgoing messages per the compiled fate, and keeps the node
//!    schedulable (non-quiescent) until its last incident transition so
//!    the event/parallel engines deliver wake-ups on time.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::sync::Arc;

use nectar_graph::Graph;

use crate::process::{NodeId, Outgoing, Process};
use crate::text::{self, Line, TextError};

/// Why a schedule failed to parse or compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A line of the text format could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The schedule is inconsistent with itself or the base graph.
    Invalid {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Parse { line, reason } => {
                write!(f, "schedule parse error at line {line}: {reason}")
            }
            ScheduleError::Invalid { reason } => write!(f, "invalid schedule: {reason}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A discrete, round-stamped schedule event.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EdgeEvent {
    Drop { round: usize, u: NodeId, v: NodeId },
    Heal { round: usize, u: NodeId, v: NodeId },
    Crash { round: usize, node: NodeId },
    Rejoin { round: usize, node: NodeId },
    Partition { round: usize, side: Vec<NodeId> },
    HealPartition { round: usize, side: Vec<NodeId> },
}

impl EdgeEvent {
    fn round(&self) -> usize {
        match self {
            EdgeEvent::Drop { round, .. }
            | EdgeEvent::Heal { round, .. }
            | EdgeEvent::Crash { round, .. }
            | EdgeEvent::Rejoin { round, .. }
            | EdgeEvent::Partition { round, .. }
            | EdgeEvent::HealPartition { round, .. } => *round,
        }
    }
}

/// What a matching loss/delay window does to a message.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WindowEffect {
    /// Drop each message independently with probability `p` (seeded).
    Loss { p: f64 },
    /// Deliver each message `rounds` rounds late.
    Delay { rounds: usize },
}

/// A per-link loss or delay window over a half-open round range.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkWindow {
    a: NodeId,
    b: NodeId,
    /// Symmetric windows match both directions; one-way windows only a→b.
    symmetric: bool,
    /// First affected round (1-based, inclusive).
    start: usize,
    /// First unaffected round (exclusive).
    end: usize,
    effect: WindowEffect,
}

/// A scripted sequence of topology events, built programmatically or parsed
/// from the text format (see [`parse`](TopologySchedule::parse)). Rounds
/// are 1-based; an event at round `r` takes effect *before* the sends of
/// round `r` (i.e. at the commit barrier between rounds `r − 1` and `r`).
///
/// Compile against a base graph with
/// [`compile`](TopologySchedule::compile) before use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologySchedule {
    seed: u64,
    events: Vec<EdgeEvent>,
    windows: Vec<LinkWindow>,
}

impl TopologySchedule {
    /// An empty schedule (compiles to "nothing ever happens").
    pub fn new() -> Self {
        TopologySchedule::default()
    }

    /// Seeds the loss-window randomness (default 0). Runs with equal seeds
    /// are bit-identical on every runtime.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The loss-window seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the schedule contains no events and no windows.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.windows.is_empty()
    }

    /// Drops edge `{u, v}` at the start of `round`.
    pub fn drop_edge(mut self, round: usize, u: NodeId, v: NodeId) -> Self {
        self.events.push(EdgeEvent::Drop { round, u, v });
        self
    }

    /// Heals a previously dropped edge `{u, v}` at the start of `round`.
    pub fn heal_edge(mut self, round: usize, u: NodeId, v: NodeId) -> Self {
        self.events.push(EdgeEvent::Heal { round, u, v });
        self
    }

    /// Crashes `node` at the start of `round`: all its incident links go
    /// down until a matching [`rejoin`](Self::rejoin).
    pub fn crash(mut self, round: usize, node: NodeId) -> Self {
        self.events.push(EdgeEvent::Crash { round, node });
        self
    }

    /// Rejoins a crashed `node` at the start of `round`.
    pub fn rejoin(mut self, round: usize, node: NodeId) -> Self {
        self.events.push(EdgeEvent::Rejoin { round, node });
        self
    }

    /// Opens a partition at the start of `round`: every base edge crossing
    /// between `side` and the rest of the graph is dropped.
    pub fn partition(mut self, round: usize, side: impl IntoIterator<Item = NodeId>) -> Self {
        self.events.push(EdgeEvent::Partition { round, side: side.into_iter().collect() });
        self
    }

    /// Heals a partition previously opened over the same `side`.
    pub fn heal_partition(mut self, round: usize, side: impl IntoIterator<Item = NodeId>) -> Self {
        self.events.push(EdgeEvent::HealPartition { round, side: side.into_iter().collect() });
        self
    }

    /// During rounds `start..end`, messages on `{u, v}` (both directions)
    /// are each dropped with probability `p`.
    pub fn loss(mut self, u: NodeId, v: NodeId, rounds: std::ops::Range<usize>, p: f64) -> Self {
        self.windows.push(LinkWindow {
            a: u,
            b: v,
            symmetric: true,
            start: rounds.start,
            end: rounds.end,
            effect: WindowEffect::Loss { p },
        });
        self
    }

    /// [`loss`](Self::loss) applied to the `from → to` direction only —
    /// asymmetric loss.
    pub fn loss_one_way(
        mut self,
        from: NodeId,
        to: NodeId,
        rounds: std::ops::Range<usize>,
        p: f64,
    ) -> Self {
        self.windows.push(LinkWindow {
            a: from,
            b: to,
            symmetric: false,
            start: rounds.start,
            end: rounds.end,
            effect: WindowEffect::Loss { p },
        });
        self
    }

    /// During rounds `start..end`, messages on `{u, v}` (both directions)
    /// arrive `delay` rounds late. A message sent at round `r` is delivered
    /// with round `r + delay`'s traffic; its fate is sealed at send time
    /// (in-flight messages are immune to later drops), and messages still
    /// in flight when the horizon ends are lost.
    pub fn delay(
        mut self,
        u: NodeId,
        v: NodeId,
        rounds: std::ops::Range<usize>,
        delay: usize,
    ) -> Self {
        self.windows.push(LinkWindow {
            a: u,
            b: v,
            symmetric: true,
            start: rounds.start,
            end: rounds.end,
            effect: WindowEffect::Delay { rounds: delay },
        });
        self
    }

    /// [`delay`](Self::delay) applied to the `from → to` direction only.
    pub fn delay_one_way(
        mut self,
        from: NodeId,
        to: NodeId,
        rounds: std::ops::Range<usize>,
        delay: usize,
    ) -> Self {
        self.windows.push(LinkWindow {
            a: from,
            b: to,
            symmetric: false,
            start: rounds.start,
            end: rounds.end,
            effect: WindowEffect::Delay { rounds: delay },
        });
        self
    }

    /// Parses the line-based text format (the CLI's `--schedule` payload).
    ///
    /// One directive per line in the shared [`text`] grammar
    /// (blank lines and `#` comments are ignored):
    ///
    /// ```text
    /// seed 42                     # loss-window seed (optional)
    /// drop 2 0 1                  # round u v
    /// heal 4 0 1                  # round u v
    /// crash 3 5                   # round node
    /// rejoin 6 5                  # round node
    /// partition 2 0 1 2           # round node...
    /// heal-partition 5 0 1 2      # round node...
    /// loss 0 1 1..4 0.5           # u v rounds p      (both directions)
    /// loss-one-way 0 1 1..4 0.5   # from to rounds p
    /// delay 2 3 1..6 2            # u v rounds delay  (both directions)
    /// delay-one-way 2 3 1..6 2    # from to rounds delay
    /// ```
    ///
    /// Malformed input returns a [`ScheduleError::Parse`] naming the line;
    /// it never panics (a property test feeds this parser mutated
    /// documents).
    pub fn parse(text: &str) -> Result<Self, ScheduleError> {
        text::lines(text).try_fold(TopologySchedule::new(), |schedule, line| {
            schedule
                .directive(&line)
                .map_err(|e| ScheduleError::Parse { line: e.line, reason: e.reason })
        })
    }

    /// Applies one line of the text format.
    fn directive(self, line: &Line) -> Result<Self, TextError> {
        let node = |word: &str| line.num::<NodeId>(word, "node");
        let round = |word: &str| line.num::<usize>(word, "round");
        let range = |word: &str| match word.split_once("..") {
            Some((a, b)) => Ok(round(a)?..round(b)?),
            None => Err(line.error(format!("bad round range {word} (expected `start..end`)"))),
        };
        Ok(match line.keyword {
            "seed" => {
                let [s] = line.args()?;
                self.with_seed(line.num(s, "seed")?)
            }
            "drop" => {
                let [r, u, v] = line.args()?;
                self.drop_edge(round(r)?, node(u)?, node(v)?)
            }
            "heal" => {
                let [r, u, v] = line.args()?;
                self.heal_edge(round(r)?, node(u)?, node(v)?)
            }
            "crash" => {
                let [r, x] = line.args()?;
                self.crash(round(r)?, node(x)?)
            }
            "rejoin" => {
                let [r, x] = line.args()?;
                self.rejoin(round(r)?, node(x)?)
            }
            "partition" | "heal-partition" => match line.args.as_slice() {
                [r, side @ ..] if !side.is_empty() => {
                    let r = round(r)?;
                    let side = side.iter().map(|w| node(w)).collect::<Result<Vec<_>, _>>()?;
                    if line.keyword == "partition" {
                        self.partition(r, side)
                    } else {
                        self.heal_partition(r, side)
                    }
                }
                _ => {
                    let keyword = line.keyword;
                    return Err(
                        line.error(format!("{keyword} needs a round and at least one node"))
                    );
                }
            },
            "loss" | "loss-one-way" => {
                let [u, v, rounds, p] = line.args()?;
                let (u, v, rounds) = (node(u)?, node(v)?, range(rounds)?);
                let p = line.num(p, "probability")?;
                if line.keyword == "loss" {
                    self.loss(u, v, rounds, p)
                } else {
                    self.loss_one_way(u, v, rounds, p)
                }
            }
            "delay" | "delay-one-way" => {
                let [u, v, rounds, d] = line.args()?;
                let (u, v, rounds) = (node(u)?, node(v)?, range(rounds)?);
                let d = line.num(d, "delay")?;
                if line.keyword == "delay" {
                    self.delay(u, v, rounds, d)
                } else {
                    self.delay_one_way(u, v, rounds, d)
                }
            }
            other => return Err(line.error(format!("unknown directive `{other}`"))),
        })
    }

    /// Serializes back to the text format; `parse(to_script())` round-trips
    /// to an equal schedule.
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        self.write_script(&mut out).expect("writing to a String cannot fail");
        out
    }

    fn write_script(&self, out: &mut String) -> fmt::Result {
        if self.seed != 0 {
            writeln!(out, "seed {}", self.seed)?;
        }
        for event in &self.events {
            match event {
                EdgeEvent::Drop { round, u, v } => writeln!(out, "drop {round} {u} {v}")?,
                EdgeEvent::Heal { round, u, v } => writeln!(out, "heal {round} {u} {v}")?,
                EdgeEvent::Crash { round, node } => writeln!(out, "crash {round} {node}")?,
                EdgeEvent::Rejoin { round, node } => writeln!(out, "rejoin {round} {node}")?,
                EdgeEvent::Partition { round, side } | EdgeEvent::HealPartition { round, side } => {
                    let healing = matches!(event, EdgeEvent::HealPartition { .. });
                    write!(out, "{}partition {round}", if healing { "heal-" } else { "" })?;
                    for x in side {
                        write!(out, " {x}")?;
                    }
                    out.push('\n');
                }
            }
        }
        for w in &self.windows {
            let name = match (&w.effect, w.symmetric) {
                (WindowEffect::Loss { .. }, true) => "loss",
                (WindowEffect::Loss { .. }, false) => "loss-one-way",
                (WindowEffect::Delay { .. }, true) => "delay",
                (WindowEffect::Delay { .. }, false) => "delay-one-way",
            };
            write!(out, "{name} {} {} {}..{} ", w.a, w.b, w.start, w.end)?;
            match w.effect {
                WindowEffect::Loss { p } => writeln!(out, "{p}")?,
                WindowEffect::Delay { rounds } => writeln!(out, "{rounds}")?,
            }
        }
        Ok(())
    }

    /// Validates the schedule against `base` and resolves its events into
    /// per-round edge transitions.
    ///
    /// An edge is *down* while any cause holds: an unhealed `drop`, a
    /// partition that cut it, or a crashed endpoint. Heals are
    /// reference-counted against drops (healing an edge that was never
    /// dropped — or healing a partition twice — is an error), and a heal
    /// does not resurrect an edge that another cause still holds down: a
    /// dropped edge whose endpoint is also crashed stays down until the
    /// rejoin.
    pub fn compile(&self, base: &Graph) -> Result<CompiledSchedule, ScheduleError> {
        let n = base.node_count();
        let invalid = |reason: String| ScheduleError::Invalid { reason };
        let check_node = |x: NodeId| {
            (x < n).then_some(()).ok_or_else(|| invalid(format!("node {x} out of range (n = {n})")))
        };
        for w in &self.windows {
            check_node(w.a)?;
            check_node(w.b)?;
            if !base.has_edge(w.a, w.b) {
                return Err(invalid(format!("window names non-edge ({}, {})", w.a, w.b)));
            }
            if w.start == 0 || w.start >= w.end {
                return Err(invalid(format!(
                    "window rounds {}..{} must satisfy 1 <= start < end",
                    w.start, w.end
                )));
            }
            match w.effect {
                WindowEffect::Loss { p } => {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(invalid(format!("loss probability {p} outside [0, 1]")));
                    }
                }
                WindowEffect::Delay { rounds } => {
                    if rounds == 0 {
                        return Err(invalid("delay of 0 rounds is a no-op".into()));
                    }
                    // The window's last send round is `end − 1`; its
                    // delivery round must be representable.
                    if (w.end - 1).checked_add(rounds).is_none() {
                        return Err(invalid(format!(
                            "delay of {rounds} rounds overflows the round counter"
                        )));
                    }
                }
            }
        }

        // Group events by round (stable within a round), then walk rounds
        // in order tracking every cause of edge downness.
        let mut by_round: BTreeMap<usize, Vec<&EdgeEvent>> = BTreeMap::new();
        for event in &self.events {
            if event.round() == 0 {
                return Err(invalid("rounds are 1-based; round 0 never executes".into()));
            }
            by_round.entry(event.round()).or_default().push(event);
        }

        let norm = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
        let mut drop_refs: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
        let edge_up = |e: &(NodeId, NodeId),
                       drop_refs: &BTreeMap<(NodeId, NodeId), usize>,
                       crashed: &BTreeSet<NodeId>| {
            drop_refs.get(e).copied().unwrap_or(0) == 0
                && !crashed.contains(&e.0)
                && !crashed.contains(&e.1)
        };
        let mut transitions: BTreeMap<usize, Vec<(NodeId, NodeId, bool)>> = BTreeMap::new();
        for (&round, events) in &by_round {
            // Edges an event of this round touches, with their state before
            // the round; diffed after all of the round's events applied.
            let mut touched: BTreeMap<(NodeId, NodeId), bool> = BTreeMap::new();
            let touch = |e: (NodeId, NodeId),
                         drop_refs: &BTreeMap<(NodeId, NodeId), usize>,
                         crashed: &BTreeSet<NodeId>,
                         touched: &mut BTreeMap<(NodeId, NodeId), bool>| {
                touched.entry(e).or_insert_with(|| edge_up(&e, drop_refs, crashed));
            };
            for event in events {
                match event {
                    EdgeEvent::Drop { u, v, .. } | EdgeEvent::Heal { u, v, .. } => {
                        check_node(*u)?;
                        check_node(*v)?;
                        if !base.has_edge(*u, *v) {
                            return Err(invalid(format!("({u}, {v}) is not a base-graph edge")));
                        }
                        let e = norm(*u, *v);
                        touch(e, &drop_refs, &crashed, &mut touched);
                        if matches!(event, EdgeEvent::Drop { .. }) {
                            *drop_refs.entry(e).or_insert(0) += 1;
                        } else {
                            let refs = drop_refs.entry(e).or_insert(0);
                            if *refs == 0 {
                                return Err(invalid(format!(
                                    "heal of ({u}, {v}) at round {round} without a matching drop"
                                )));
                            }
                            *refs -= 1;
                        }
                    }
                    EdgeEvent::Crash { node, .. } => {
                        check_node(*node)?;
                        // Snapshot incident-edge state *before* the crash.
                        for nbr in base.neighbors(*node) {
                            touch(norm(*node, nbr), &drop_refs, &crashed, &mut touched);
                        }
                        if !crashed.insert(*node) {
                            return Err(invalid(format!(
                                "node {node} crashed twice without a rejoin"
                            )));
                        }
                    }
                    EdgeEvent::Rejoin { node, .. } => {
                        check_node(*node)?;
                        for nbr in base.neighbors(*node) {
                            touch(norm(*node, nbr), &drop_refs, &crashed, &mut touched);
                        }
                        if !crashed.remove(node) {
                            return Err(invalid(format!(
                                "rejoin of node {node} at round {round} without a crash"
                            )));
                        }
                    }
                    EdgeEvent::Partition { side, .. } | EdgeEvent::HealPartition { side, .. } => {
                        let side: BTreeSet<NodeId> = side.iter().copied().collect();
                        for &x in &side {
                            check_node(x)?;
                        }
                        if side.is_empty() || side.len() == n {
                            return Err(invalid(
                                "a partition side must be a non-empty proper subset".into(),
                            ));
                        }
                        let healing = matches!(event, EdgeEvent::HealPartition { .. });
                        for &u in &side {
                            for v in base.neighbors(u) {
                                if side.contains(&v) {
                                    continue;
                                }
                                let e = norm(u, v);
                                touch(e, &drop_refs, &crashed, &mut touched);
                                let refs = drop_refs.entry(e).or_insert(0);
                                if healing {
                                    if *refs == 0 {
                                        return Err(invalid(format!(
                                            "heal-partition at round {round} heals ({}, {}) \
                                             which is not down",
                                            e.0, e.1
                                        )));
                                    }
                                    *refs -= 1;
                                } else {
                                    *refs += 1;
                                }
                            }
                        }
                    }
                }
            }
            let mut flips: Vec<(NodeId, NodeId, bool)> = touched
                .into_iter()
                .filter_map(|(e, was_up)| {
                    let now_up = edge_up(&e, &drop_refs, &crashed);
                    (now_up != was_up).then_some((e.0, e.1, now_up))
                })
                .collect();
            flips.sort_unstable();
            if !flips.is_empty() {
                transitions.insert(round, flips);
            }
        }

        // Bucket by endpoint, once, so a wrapper reads only its own links:
        // notices ascending (round, peer); windows in declaration order (the
        // first matching `Delay` wins, `Loss` windows compose in order), a
        // symmetric one filed as two one-way windows, one under each sender.
        let notices = PerNode::build(
            n,
            transitions.iter().flat_map(|(&round, flips)| {
                flips.iter().flat_map(move |&(u, v, up)| [(u, (round, v, up)), (v, (round, u, up))])
            }),
        );
        let windows = PerNode::build(
            n,
            self.windows.iter().flat_map(|w| {
                let one_way = |a, b| (a, LinkWindow { a, b, symmetric: false, ..*w });
                [Some(one_way(w.a, w.b)), w.symmetric.then(|| one_way(w.b, w.a))]
                    .into_iter()
                    .flatten()
            }),
        );
        Ok(CompiledSchedule {
            schedule: self.clone(),
            base: base.clone(),
            transitions,
            notices,
            windows,
        })
    }
}

/// Rows of `T` bucketed by node in CSR form: node `i`'s row is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
struct PerNode<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> PerNode<T> {
    /// Buckets `(node, item)` pairs by node; a row keeps the iteration order.
    fn build(n: usize, pairs: impl Iterator<Item = (NodeId, T)>) -> Self {
        let mut pairs: Vec<(NodeId, T)> = pairs.collect();
        pairs.sort_by_key(|&(node, _)| node); // stable
        let mut offsets = vec![0; n + 1];
        for &(node, _) in &pairs {
            offsets[node + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        PerNode { offsets, items: pairs.into_iter().map(|(_, item)| item).collect() }
    }

    fn row(&self, node: NodeId) -> &[T] {
        &self.items[self.offsets[node]..self.offsets[node + 1]]
    }
}

/// What the schedule decides for one outgoing message.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Deliver normally this round.
    Deliver,
    /// Silently drop (down edge, or a loss window fired).
    Drop,
    /// Deliver this many rounds late.
    Delay(usize),
}

/// A validated schedule resolved against one base graph: the single source
/// of truth every node's [`Scheduled`] wrapper reads, shared via `Arc`.
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    /// The script this was compiled from (its seed drives the loss rolls).
    schedule: TopologySchedule,
    base: Graph,
    /// Round → edge flips `(u, v, up)` with `u < v`, sorted, taking effect
    /// before that round's sends.
    transitions: BTreeMap<usize, Vec<(NodeId, NodeId, bool)>>,
    /// `transitions` by endpoint: node `i`'s incident flips as
    /// `(round, peer, up)`, ascending round then peer.
    notices: PerNode<(usize, NodeId, bool)>,
    /// The windows by sender `a`, each one-way, declaration order in a row.
    windows: PerNode<LinkWindow>,
}

impl CompiledSchedule {
    /// The schedule this was compiled from.
    pub fn schedule(&self) -> &TopologySchedule {
        &self.schedule
    }

    /// The base graph the schedule was compiled against (shared with the
    /// caller's graph, not a copy of it).
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// The rounds at which at least one edge changes state, ascending.
    pub fn transition_rounds(&self) -> impl Iterator<Item = usize> + '_ {
        self.transitions.keys().copied()
    }

    /// The edge flips taking effect at the start of `round` (`(u, v, up)`
    /// with `u < v`, sorted), if any.
    pub fn transitions_at(&self, round: usize) -> &[(NodeId, NodeId, bool)] {
        self.transitions.get(&round).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The last round at which any edge changes state (0 when none do).
    pub fn last_transition_round(&self) -> usize {
        self.transitions.keys().next_back().copied().unwrap_or(0)
    }

    /// Ground truth: the live graph during `round` — the base graph with
    /// every transition up to and including `round` applied. Rebuilt by
    /// replay; callers walking many rounds should iterate
    /// [`transition_rounds`](Self::transition_rounds) and apply
    /// [`transitions_at`](Self::transitions_at) incrementally (the
    /// `ConnectivityOracle`'s XOR fingerprint absorbs exactly such
    /// incremental updates via `Fingerprint::toggle_edge`).
    pub fn graph_at(&self, round: usize) -> Graph {
        let mut g = self.base.clone();
        for (&r, flips) in &self.transitions {
            if r > round {
                break;
            }
            for &(u, v, up) in flips {
                if up {
                    g.add_edge(u, v).expect("compiled transitions stay in range");
                } else {
                    g.remove_edge(u, v);
                }
            }
        }
        g
    }

    /// The fate of the `k`-th message from `from` to `to` during `round`,
    /// `down` being `from`'s incident peers (ascending) whose link is down.
    /// Pure in `(round, from, to, k)` and the compiled schedule (`down` is a
    /// function of `round` and `from`'s notices) — no engine, worker count
    /// or poll order can change the answer. A non-neighbour in the base
    /// graph is never in `down` nor named by a window: `Deliver`.
    fn fate(&self, round: usize, from: NodeId, to: NodeId, k: u64, down: &[NodeId]) -> Fate {
        if down.binary_search(&to).is_ok() {
            return Fate::Drop;
        }
        for w in self.windows.row(from) {
            if w.b != to || round < w.start || round >= w.end {
                continue;
            }
            match w.effect {
                WindowEffect::Loss { p } => {
                    if loss_roll(self.schedule.seed, round, from, to, k) < p {
                        return Fate::Drop;
                    }
                }
                WindowEffect::Delay { rounds } => return Fate::Delay(rounds),
            }
        }
        Fate::Deliver
    }
}

/// Deterministic per-message loss roll in `[0, 1)`: a SplitMix64 finalize
/// over the seed and message coordinates. Stateless on purpose — a stateful
/// RNG would couple the outcome to poll order, which differs across
/// engines.
fn loss_roll(seed: u64, round: usize, from: NodeId, to: NodeId, k: u64) -> f64 {
    let mut x = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (from as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (to as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Wraps a [`Process`] so a [`CompiledSchedule`] governs its connectivity.
///
/// At each round's first poll the wrapper applies its node's due notices —
/// updating which incident links are down and telling the inner process
/// ([`Process::link_changed`]) — releases any delayed messages that
/// matured, and filters the inner process's fresh sends through the
/// compiled fate rule. Messages to non-neighbors of the *base* graph pass
/// through untouched so the engine's illegal-send accounting is unchanged.
///
/// The wrapper's state is a function of its own node's row of the compiled
/// index only: a flip elsewhere in the fleet costs it nothing.
///
/// The wrapper reports non-quiescent until its last incident transition has
/// been delivered and its delay buffer is empty — that is what re-wakes a
/// quiescent node on the event/parallel engines when an edge heals.
#[derive(Debug)]
pub struct Scheduled<P: Process> {
    inner: P,
    compiled: Arc<CompiledSchedule>,
    /// How many of this node's notices have been applied.
    cursor: usize,
    /// Incident peers whose link is currently down, ascending.
    down: Vec<NodeId>,
    /// Scratch of `send`, one slot per window of this node: messages emitted
    /// this poll to a peer, kept in the slot of the first window naming it.
    emitted: Vec<u64>,
    /// Delayed messages keyed by delivery round, in emission order.
    delayed: BTreeMap<usize, Vec<Outgoing<P::Msg>>>,
    drops: u64,
}

impl<P: Process> Scheduled<P> {
    /// Wraps `inner`, starting at the head of its node's notices: O(1).
    pub fn new(inner: P, compiled: &Arc<CompiledSchedule>) -> Self {
        Scheduled {
            inner,
            compiled: Arc::clone(compiled),
            cursor: 0,
            down: Vec::new(),
            emitted: Vec::new(),
            delayed: BTreeMap::new(),
            drops: 0,
        }
    }

    /// Wraps a whole fleet (node order preserved).
    pub fn wrap_all(procs: Vec<P>, compiled: &Arc<CompiledSchedule>) -> Vec<Scheduled<P>> {
        procs.into_iter().map(|p| Scheduled::new(p, compiled)).collect()
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Messages this node's schedule dropped (down edges + loss windows).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Messages still in the delay buffer (sent, never matured — lost to
    /// the horizon).
    pub fn in_flight(&self) -> usize {
        self.delayed.values().map(Vec::len).sum()
    }

    /// Unwraps the inner process.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Process> Process for Scheduled<P> {
    type Msg = P::Msg;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<Self::Msg>> {
        let Scheduled { inner, compiled, cursor, down, emitted, delayed, drops } = self;
        let id = inner.id();
        let notices = compiled.notices.row(id);
        while let Some(&(r, peer, up)) = notices.get(*cursor).filter(|notice| notice.0 <= round) {
            *cursor += 1;
            match down.binary_search(&peer) {
                Ok(at) if up => {
                    down.remove(at);
                }
                Err(at) if !up => down.insert(at, peer),
                _ => {}
            }
            inner.link_changed(r, peer, up);
        }
        // Matured delayed messages go out first (oldest first); because the
        // wrapper stays non-quiescent while the buffer is non-empty, it is
        // polled every round and nothing matures unobserved.
        let mut matured: Vec<Outgoing<Self::Msg>> = Vec::new();
        while let Some(entry) = delayed.first_entry().filter(|e| *e.key() <= round) {
            debug_assert_eq!(*entry.key(), round, "a delayed message matured unobserved");
            matured.extend(entry.remove());
        }
        // `k`, the per-link emission index, feeds only `loss_roll`, so only
        // peers a window names are counted — in the slot of the first one.
        let windows = compiled.windows.row(id);
        emitted.clear();
        emitted.resize(windows.len(), 0);
        let mut fresh = inner.send(round);
        fresh.retain(|o| {
            let k = windows.iter().position(|w| w.b == o.to).map_or(0, |slot| {
                emitted[slot] += 1;
                emitted[slot] - 1
            });
            match compiled.fate(round, id, o.to, k, down) {
                Fate::Deliver => return true,
                Fate::Drop => *drops += 1,
                Fate::Delay(d) => delayed.entry(round + d).or_default().push(o.clone()),
            }
            false
        });
        if matured.is_empty() {
            return fresh;
        }
        matured.append(&mut fresh);
        matured
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: Self::Msg) {
        self.inner.receive(round, from, msg);
    }

    fn quiescent(&self) -> bool {
        self.cursor == self.compiled.notices.row(self.inner.id()).len()
            && self.delayed.is_empty()
            && self.inner.quiescent()
    }

    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        self.inner.link_changed(round, peer, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::SyncNetwork;
    use crate::testkit::{floods, Flood};

    fn flood_fleet(g: &Graph, compiled: &Arc<CompiledSchedule>) -> Vec<Scheduled<Flood>> {
        Scheduled::wrap_all(floods(g), compiled)
    }

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn script_round_trips_through_parse() {
        let schedule = TopologySchedule::new()
            .with_seed(9)
            .drop_edge(2, 0, 1)
            .crash(3, 2)
            .rejoin(5, 2)
            .heal_edge(4, 0, 1)
            .partition(2, [0, 1])
            .heal_partition(6, [0, 1])
            .loss(0, 1, 1..4, 0.25)
            .loss_one_way(1, 2, 2..3, 1.0)
            .delay(2, 3, 1..6, 2)
            .delay_one_way(3, 2, 1..2, 1);
        let script = schedule.to_script();
        assert_eq!(TopologySchedule::parse(&script).unwrap(), schedule);
    }

    #[test]
    fn parse_rejects_malformed_lines_with_line_numbers() {
        for (text, line) in [
            ("warp 1 2", 1),
            ("drop 1 2", 1),
            ("\n\ndrop one 2 3", 3),
            ("seed 1\nloss 0 1 1-4 0.5", 2),
            ("crash 1 2 3", 1),
            ("partition 4", 1),
            ("delay 0 1 3..5 x", 1),
        ] {
            match TopologySchedule::parse(text) {
                Err(ScheduleError::Parse { line: l, .. }) => assert_eq!(l, line, "{text:?}"),
                other => panic!("{text:?} parsed as {other:?}"),
            }
        }
        // Comments and blank lines are fine.
        assert!(TopologySchedule::parse("# nothing\n\n  # here\n").unwrap().is_empty());
    }

    #[test]
    fn compile_validates_against_the_base_graph() {
        let g = path4();
        let bad = [
            TopologySchedule::new().drop_edge(1, 0, 3),
            TopologySchedule::new().drop_edge(1, 0, 9),
            TopologySchedule::new().drop_edge(0, 0, 1),
            TopologySchedule::new().heal_edge(2, 0, 1),
            TopologySchedule::new().crash(1, 2).crash(2, 2),
            TopologySchedule::new().rejoin(3, 1),
            TopologySchedule::new().partition(1, []),
            TopologySchedule::new().partition(1, [0, 1, 2, 3]),
            TopologySchedule::new().heal_partition(2, [0]),
            TopologySchedule::new().loss(0, 1, 1..4, 1.5),
            TopologySchedule::new().loss(0, 1, 4..4, 0.5),
            TopologySchedule::new().delay(0, 1, 1..4, 0),
        ];
        for schedule in bad {
            assert!(
                matches!(schedule.compile(&g), Err(ScheduleError::Invalid { .. })),
                "{schedule:?} compiled"
            );
        }
    }

    #[test]
    fn a_delay_that_overflows_the_round_counter_is_refused() {
        // Sent at round 2, a `usize::MAX` delay has no delivery round: the
        // wrapper's `round + delay` would panic in debug and wrap to round
        // 1 in release. Reachable from a script, so `compile` refuses it.
        let g = path4();
        let parsed = TopologySchedule::parse(&format!("delay 0 1 1..3 {}", usize::MAX))
            .expect("the count is a valid number");
        for schedule in [
            parsed,
            TopologySchedule::new().delay_one_way(0, 1, 1..3, usize::MAX),
            TopologySchedule::new().delay(0, 1, 2..3, usize::MAX - 1),
        ] {
            match schedule.compile(&g) {
                Err(ScheduleError::Invalid { reason }) => {
                    assert!(reason.contains("overflows"), "{reason}")
                }
                other => panic!("{schedule:?} compiled to {other:?}"),
            }
        }
        // The largest representable delivery round still compiles.
        assert!(TopologySchedule::new().delay(0, 1, 1..2, usize::MAX - 1).compile(&g).is_ok());
    }

    #[test]
    fn overlapping_causes_keep_an_edge_down_until_all_lift() {
        // Edge (1,2) is both dropped and crashed-at-2: the heal at round 4
        // must not resurrect it; only the rejoin at round 6 does.
        let g = path4();
        let compiled = TopologySchedule::new()
            .drop_edge(2, 1, 2)
            .crash(3, 2)
            .heal_edge(4, 1, 2)
            .rejoin(6, 2)
            .compile(&g)
            .unwrap();
        assert!(compiled.graph_at(1).has_edge(1, 2));
        assert!(!compiled.graph_at(2).has_edge(1, 2));
        assert!(!compiled.graph_at(3).has_edge(2, 3), "crash cuts all incident edges");
        assert!(!compiled.graph_at(4).has_edge(1, 2), "healed but endpoint still crashed");
        assert!(!compiled.graph_at(5).has_edge(1, 2));
        assert!(compiled.graph_at(6).has_edge(1, 2));
        assert!(compiled.graph_at(6).has_edge(2, 3));
        assert_eq!(compiled.last_transition_round(), 6);
        // Round 4's heal changes nothing observable: no transition emitted.
        assert_eq!(compiled.transition_rounds().collect::<Vec<_>>(), vec![2, 3, 6]);
    }

    #[test]
    fn partitions_cut_exactly_the_crossing_edges() {
        let g = nectar_graph::gen::cycle(6);
        let compiled = TopologySchedule::new()
            .partition(2, [0, 1, 2])
            .heal_partition(4, [0, 1, 2])
            .compile(&g)
            .unwrap();
        let during = compiled.graph_at(2);
        assert!(!during.has_edge(2, 3));
        assert!(!during.has_edge(5, 0));
        assert!(during.has_edge(0, 1));
        assert!(during.has_edge(3, 4));
        assert_eq!(compiled.graph_at(4), g, "heal restores the base graph");
    }

    #[test]
    fn scheduled_wrapper_drops_and_counts_messages_on_down_edges() {
        let g = path4();
        let compiled = Arc::new(TopologySchedule::new().drop_edge(1, 1, 2).compile(&g).unwrap());
        let mut net = SyncNetwork::new(flood_fleet(&g, &compiled), g.clone());
        net.run_rounds(3);
        let (procs, metrics) = net.into_parts();
        // The split is permanent: tokens never cross (1,2).
        assert_eq!(procs[0].inner().known, [0, 1].into());
        assert_eq!(procs[3].inner().known, [2, 3].into());
        assert_eq!(metrics.illegal_sends(), 0, "schedule drops are not protocol violations");
        let drops: u64 = procs.iter().map(|p| p.drops()).sum();
        assert!(drops > 0);
    }

    #[test]
    fn healed_link_re_floods_via_link_changed() {
        let g = path4();
        let compiled = Arc::new(
            TopologySchedule::new().drop_edge(1, 1, 2).heal_edge(4, 1, 2).compile(&g).unwrap(),
        );
        let mut net = SyncNetwork::new(flood_fleet(&g, &compiled), g.clone());
        net.run_rounds(7);
        let (procs, _) = net.into_parts();
        for p in &procs {
            assert_eq!(p.inner().known, [0, 1, 2, 3].into(), "node {}", p.inner().id);
        }
    }

    #[test]
    fn delayed_messages_arrive_late_and_in_flight_ones_die_at_the_horizon() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let compiled = Arc::new(TopologySchedule::new().delay(0, 1, 1..2, 2).compile(&g).unwrap());
        let mut net = SyncNetwork::new(flood_fleet(&g, &compiled), g.clone());
        net.run_rounds(2);
        {
            let procs = net.processes();
            assert_eq!(procs[0].inner().known, [0].into(), "round-1 tokens still in flight");
            assert_eq!(procs[1].inner().known, [1].into(), "round-1 tokens still in flight");
            assert_eq!(procs[0].in_flight() + procs[1].in_flight(), 2);
        }
        net.run_rounds(1);
        let (procs, metrics) = net.into_parts();
        assert_eq!(procs[0].inner().known, [0, 1].into(), "delayed token landed at round 3");
        assert_eq!(procs[1].inner().known, [0, 1].into(), "delayed token landed at round 3");
        // The delayed sends are charged to their delivery round.
        assert_eq!(metrics.bytes_per_round()[0], 0);
        assert!(metrics.bytes_per_round()[2] > 0);
    }

    #[test]
    fn windows_on_one_link_apply_in_declaration_order_and_per_direction() {
        // The per-sender window rows must keep declaration order (the first
        // matching `Delay` wins; a `Loss` declared before it rolls first)
        // and file a one-way window under its sender only.
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let run = |schedule: TopologySchedule| {
            let compiled = Arc::new(schedule.compile(&g).unwrap());
            let mut net = SyncNetwork::new(flood_fleet(&g, &compiled), g.clone());
            net.run_rounds(1);
            let (procs, _) = net.into_parts();
            procs.iter().map(|p| (p.drops(), p.in_flight())).collect::<Vec<_>>()
        };
        let s = TopologySchedule::new;
        assert_eq!(run(s().loss(0, 1, 1..2, 1.0).delay(0, 1, 1..2, 2)), [(1, 0), (1, 0)]);
        assert_eq!(run(s().delay(0, 1, 1..2, 2).loss(0, 1, 1..2, 1.0)), [(0, 1), (0, 1)]);
        assert_eq!(run(s().delay(0, 1, 1..2, 2).delay(0, 1, 1..2, 5)), [(0, 1), (0, 1)]);
        assert_eq!(run(s().loss_one_way(1, 0, 1..2, 1.0)), [(0, 0), (1, 0)]);
        assert_eq!(run(s().delay_one_way(0, 1, 1..2, 2)), [(0, 1), (0, 0)]);
        assert_eq!(run(s().loss(0, 1, 2..3, 1.0)), [(0, 0), (0, 0)], "window not yet open");
    }

    #[test]
    fn loss_windows_are_deterministic_and_probability_extremes_are_exact() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let run = |p: f64, seed: u64| {
            let compiled = Arc::new(
                TopologySchedule::new().with_seed(seed).loss(0, 1, 1..100, p).compile(&g).unwrap(),
            );
            let mut net = SyncNetwork::new(flood_fleet(&g, &compiled), g.clone());
            net.run_rounds(4);
            let (procs, metrics) = net.into_parts();
            (procs.iter().map(|p| p.drops()).sum::<u64>(), metrics.total_bytes_sent())
        };
        assert_eq!(run(1.0, 7).1, 0, "p = 1 drops everything");
        assert_eq!(run(0.0, 7).0, 0, "p = 0 drops nothing");
        assert_eq!(run(0.5, 7), run(0.5, 7), "same seed, same fate");
    }

    #[test]
    fn cross_engine_outcomes_are_identical_under_a_busy_schedule() {
        // Flap + churn + loss + delay on a cycle, run on every engine:
        // final protocol state, metrics and drop counters must match bit
        // for bit. This is the in-crate seed of the schedule suite,
        // tests/schedules.rs.
        let g = nectar_graph::gen::cycle(6);
        let schedule = TopologySchedule::new()
            .with_seed(11)
            .drop_edge(1, 0, 1)
            .heal_edge(3, 0, 1)
            .crash(2, 4)
            .rejoin(4, 4)
            .partition(5, [0, 1])
            .heal_partition(6, [0, 1])
            .loss(2, 3, 1..5, 0.5)
            .delay(1, 2, 2..4, 1);
        let compiled = Arc::new(schedule.compile(&g).unwrap());
        let rounds = 8;
        // Observable outcome only: a quiescent node's schedule cursor may
        // lag on the engines that stop polling it, and that is fine.
        let snapshot = |procs: &[Scheduled<Flood>], m: &crate::metrics::Metrics| {
            let states: Vec<(String, u64, usize)> = procs
                .iter()
                .map(|p| (format!("{:?}", p.inner()), p.drops(), p.in_flight()))
                .collect();
            (states, m.clone())
        };
        let mut sync_net = SyncNetwork::new(flood_fleet(&g, &compiled), g.clone());
        sync_net.run_rounds(rounds);
        let (sync_procs, sync_metrics) = sync_net.into_parts();
        let reference = snapshot(&sync_procs, &sync_metrics);
        assert!(sync_procs.iter().map(|p| p.drops()).sum::<u64>() > 0, "schedule must bite");

        let (procs, metrics) =
            crate::event::run_event_driven(flood_fleet(&g, &compiled), &g, rounds);
        assert_eq!(snapshot(&procs, &metrics), reference, "event drifted");

        for workers in [0, 2, 3, 7] {
            let mut net = crate::event::EventNetwork::with_workers(
                flood_fleet(&g, &compiled),
                g.clone(),
                workers,
            );
            net.run_rounds(rounds);
            let (procs, metrics) = net.into_parts();
            assert_eq!(snapshot(&procs, &metrics), reference, "parallel/{workers} drifted");
        }
    }

    #[test]
    fn wrapper_keeps_nodes_schedulable_until_their_last_transition() {
        let g = path4();
        let compiled = Arc::new(
            TopologySchedule::new().drop_edge(2, 0, 1).heal_edge(5, 0, 1).compile(&g).unwrap(),
        );
        let mut node = Scheduled::new(Flood::new(0, &g), &compiled);
        let _ = node.send(1);
        assert!(!node.quiescent(), "transitions pending at rounds 2 and 5");
        let _ = node.send(2);
        assert!(!node.quiescent(), "heal still pending");
        let _ = node.send(3);
        let _ = node.send(4);
        assert!(!node.quiescent());
        let out = node.send(5);
        assert!(!out.is_empty(), "link-up re-announce fires at the heal round");
        let _ = node.send(6);
        assert!(node.quiescent(), "schedule exhausted, outbox drained");
    }
}
