//! The process abstraction executed by both runtimes.
//!
//! The paper's system model (§II): processes are interconnected by a static
//! undirected graph, channels are reliable, and communication proceeds in
//! synchronous rounds — a message sent at round `R` is received before round
//! `R + 1`. A [`Process`] therefore exposes two phases per round: `send`
//! (collect this round's outgoing messages) and `receive` (handle the
//! messages delivered during the round).

use std::fmt;

/// Node identity: dense indices `0..n`, shared with
/// [`nectar_graph::Graph`] vertices.
pub type NodeId = usize;

/// Anything that can report its serialized size, for the evaluation's
/// data-sent-per-node accounting.
pub trait WireSized {
    /// Size of this value on the wire, in bytes.
    fn wire_bytes(&self) -> usize;
}

/// An outgoing message: destination plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// Destination node.
    pub to: NodeId,
    /// Message payload.
    pub msg: M,
}

impl<M> Outgoing<M> {
    /// Convenience constructor.
    pub fn new(to: NodeId, msg: M) -> Self {
        Outgoing { to, msg }
    }
}

/// Forward the implementation through boxes so heterogeneous systems
/// (correct nodes next to Byzantine variants) can run as
/// `Box<dyn Process<Msg = M>>`.
impl<M, P> Process for Box<P>
where
    M: Clone + fmt::Debug + WireSized,
    P: Process<Msg = M> + ?Sized,
{
    type Msg = M;

    fn id(&self) -> NodeId {
        (**self).id()
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<M>> {
        (**self).send(round)
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: M) {
        (**self).receive(round, from, msg)
    }

    fn quiescent(&self) -> bool {
        (**self).quiescent()
    }

    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        (**self).link_changed(round, peer, up)
    }
}

/// A protocol participant driven by a synchronous runtime.
///
/// The runtime calls, for every round `r = 1, 2, …`:
/// 1. [`send`](Process::send) on every process, collecting outgoing
///    messages;
/// 2. [`receive`](Process::receive) on every destination, once per delivered
///    message, in increasing sender order (deterministic).
///
/// Messages to non-neighbors are discarded by the runtime (channels only
/// exist along graph edges) and recorded as violations.
pub trait Process {
    /// Message type exchanged by the protocol.
    type Msg: Clone + fmt::Debug + WireSized;

    /// This process's node id.
    fn id(&self) -> NodeId;

    /// Produces the messages to transmit during round `round` (1-based).
    fn send(&mut self, round: usize) -> Vec<Outgoing<Self::Msg>>;

    /// Handles a message delivered during round `round`, sent by `from`.
    fn receive(&mut self, round: usize, from: NodeId, msg: Self::Msg);

    /// Whether this process is *certain* to stay silent — every future
    /// [`send`](Process::send) returning an empty vector with no state
    /// change — until it next receives a message.
    ///
    /// This is a scheduling hint for the event-driven runtime
    /// ([`crate::event::EventNetwork`]), which skips quiescent nodes
    /// entirely instead of polling every node every round. The contract is
    /// one-sided: answering `false` for a silent node only costs an empty
    /// poll, but answering `true` while a spontaneous send is still pending
    /// (a timed reveal, an epoch gossip) would silently lose those messages
    /// and break the bit-identical equivalence with
    /// [`crate::sync::SyncNetwork`]. The default is therefore the
    /// conservative `false`; purely reactive protocols (NECTAR relays, the
    /// dolev detector) override it with an "outbox empty" check.
    fn quiescent(&self) -> bool {
        false
    }

    /// Notifies the process that its channel to `peer` changed availability
    /// at the start of `round` (1-based): `up = false` when a topology
    /// schedule takes the link down, `up = true` when it heals.
    ///
    /// Only executions driven by a [`crate::schedule::TopologySchedule`]
    /// ever call this; on a static topology it never fires. The call
    /// arrives at the round-commit barrier — before the round's sends — in
    /// ascending round order, and it is a legal *un-quiescing* point: a
    /// process may react to a healed link by queueing new messages even if
    /// it reported [`quiescent`](Process::quiescent) beforehand, extending
    /// the hint's contract to "silent until the next `receive` *or*
    /// `link_changed`" (the [`crate::schedule::Scheduled`] wrapper keeps
    /// such nodes schedulable so no engine misses the wake-up). The default
    /// ignores the notification, which is the correct behaviour for NECTAR
    /// itself: mid-epoch re-announcement is cryptographically blocked by
    /// the chain-length rule (a relay at round `r` needs `r` distinct
    /// signatures), so healed links are only exploited by traffic that is
    /// still flooding — or by the next epoch.
    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        let _ = (round, peer, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping(u32);

    impl WireSized for Ping {
        fn wire_bytes(&self) -> usize {
            4
        }
    }

    #[test]
    fn outgoing_is_a_simple_pair() {
        let o = Outgoing::new(3, Ping(7));
        assert_eq!(o.to, 3);
        assert_eq!(o.msg, Ping(7));
        assert_eq!(o.msg.wire_bytes(), 4);
    }
}

#[cfg(test)]
mod box_tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Unit;
    impl WireSized for Unit {
        fn wire_bytes(&self) -> usize {
            1
        }
    }

    #[derive(Debug)]
    struct Echo {
        id: usize,
        got: usize,
    }
    impl Process for Echo {
        type Msg = Unit;
        fn id(&self) -> usize {
            self.id
        }
        fn send(&mut self, _round: usize) -> Vec<Outgoing<Unit>> {
            vec![Outgoing::new(1 - self.id, Unit)]
        }
        fn receive(&mut self, _round: usize, _from: usize, _msg: Unit) {
            self.got += 1;
        }
    }

    #[test]
    fn boxed_trait_objects_run_in_the_engine() {
        // Heterogeneous systems can run as Box<dyn Process<Msg = M>>.
        let procs: Vec<Box<dyn Process<Msg = Unit>>> =
            vec![Box::new(Echo { id: 0, got: 0 }), Box::new(Echo { id: 1, got: 0 })];
        let g = nectar_graph::Graph::from_edges(2, [(0, 1)]).expect("valid edge");
        let mut net = crate::sync::SyncNetwork::new(procs, g);
        net.run_rounds(3);
        assert_eq!(net.metrics().total_bytes_sent(), 6);
    }
}
