//! Byzantine silence: wrap a correct process and mute part of what it sends.
//!
//! The traffic-shaped Byzantine behaviours of the evaluation (§V-D) —
//! staying silent, crashing mid-run, playing dead toward one side of the
//! network — never touch what a node *receives*: a crashed node stops
//! sending, nothing more. [`Mute`] names the part of the outgoing traffic
//! that is dropped and [`Muted`] applies it around any [`Process`], so a
//! fleet with a few such nodes is still one homogeneous `Vec<Muted<P>>`.
//! Protocol-specific deviations (lying about neighborhoods, forging
//! chains) live next to each protocol instead.

use std::collections::BTreeSet;

use crate::process::{NodeId, Outgoing, Process};

/// Which of a process's outgoing messages are dropped before they reach the
/// network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mute {
    /// Nothing is dropped: the wrapped process is correct.
    Never,
    /// Crash: everything is dropped from `round` onwards (`round = 1` is a
    /// node that is silent for the whole execution).
    From {
        /// First silent round.
        round: usize,
    },
    /// The paper's bridge attack (§V-D): correct toward everyone else,
    /// crashed toward these nodes. Only the messages *to* them are dropped —
    /// the node keeps hearing the silenced side and relays what it learns
    /// to the favoured side, which is exactly what splits correct nodes'
    /// views in Fig. 8.
    Toward(BTreeSet<NodeId>),
}

impl Mute {
    /// Drops the muted part of round `round`'s outgoing batch.
    pub fn apply<M>(&self, round: usize, out: &mut Vec<Outgoing<M>>) {
        match self {
            Mute::Never => {}
            Mute::From { round: first } => {
                if round >= *first {
                    out.clear();
                }
            }
            Mute::Toward(silenced) => out.retain(|o| !silenced.contains(&o.to)),
        }
    }
}

/// A process whose outgoing traffic passes through a [`Mute`]. Incoming
/// traffic and link notices reach the wrapped process untouched.
#[derive(Debug)]
pub struct Muted<P> {
    inner: P,
    mute: Mute,
}

impl<P> Muted<P> {
    /// Wraps `inner`; with [`Mute::Never`] the wrapper is transparent.
    pub fn new(inner: P, mute: Mute) -> Self {
        Muted { inner, mute }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Process> Process for Muted<P> {
    type Msg = P::Msg;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<P::Msg>> {
        let mut out = self.inner.send(round);
        self.mute.apply(round, &mut out);
        out
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: P::Msg) {
        self.inner.receive(round, from, msg);
    }

    /// A muting wrapper keeps the conservative `false`: its node is one of
    /// at most `t`, so polling it every round costs the event and parallel
    /// engines `O(t · rounds)` empty polls, and no reasoning about what the
    /// inner hint means once its sends are being dropped is needed.
    fn quiescent(&self) -> bool {
        matches!(self.mute, Mute::Never) && self.inner.quiescent()
    }

    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        self.inner.link_changed(round, peer, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{Flood, IdMsg};
    use nectar_graph::gen;

    /// Node 0 of a 3-star: two peers, one id to flood.
    fn hub(mute: Mute) -> Muted<Flood> {
        Muted::new(Flood::new(0, &gen::star(3)), mute)
    }

    #[test]
    fn crash_silences_from_given_round() {
        let mut f = hub(Mute::From { round: 2 });
        assert_eq!(f.send(1).len(), 2);
        // A fresh id refills the outbox before each later poll, so the
        // empty batches are the mute's doing.
        for round in [2, 3] {
            f.receive(round - 1, 1, IdMsg(10 + round));
            assert!(!f.inner().outbox.is_empty());
            assert_eq!(f.send(round).len(), 0);
        }
    }

    #[test]
    fn two_faced_silences_outgoing_but_keeps_listening() {
        let mut f = hub(Mute::Toward([2].into()));
        let out = f.send(1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, 1);
        // A crashed node still receives: traffic from the silenced side is
        // processed (and can be leaked to the favoured side).
        f.receive(1, 2, IdMsg(2));
        f.receive(1, 1, IdMsg(1));
        assert_eq!(f.inner().received, vec![(1, 2, 2), (1, 1, 1)]);
        let leaked = f.send(2);
        assert_eq!(leaked.iter().map(|o| (o.to, o.msg.0)).collect::<Vec<_>>(), [(1, 2), (1, 1)]);
    }

    #[test]
    fn never_is_transparent_and_muting_stays_schedulable() {
        let mut correct = hub(Mute::Never);
        assert_eq!(correct.send(1).len(), 2);
        assert!(correct.quiescent(), "the inner hint shows through");
        let mut silent = hub(Mute::From { round: 1 });
        assert!(silent.send(1).is_empty());
        assert!(silent.inner().quiescent() && !silent.quiescent());
    }
}
