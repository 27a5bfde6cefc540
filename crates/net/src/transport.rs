//! The transport layer: driving unchanged [`Process`] state machines over
//! real byte streams.
//!
//! The three in-memory engines hand messages across as values. This module
//! is the step from simulator to system: the same `Process` code runs
//! behind a [`Transport`] — an exchanger of codec-encoded
//! [`Frame`]s — with a [`NodeDriver`] event loop providing round pacing.
//! Three transports exist:
//!
//! * [`LoopbackTransport`] (via [`LoopbackHub`]): in-process queues with
//!   deterministic ordering, every message still round-tripped through
//!   the wire codec — the bridge that proves the framed path reproduces
//!   the sync engine bit for bit ([`run_over_loopback`]);
//! * [`SocketTransport`] over Unix-domain sockets or TCP: one OS process
//!   per node, peer connect/accept with retry-and-backoff
//!   (`nectar-cli node` launches one).
//!
//! **Round pacing.** Sockets have no global scheduler, so the driver
//! implements the synchronous-round model end-to-end: each round it emits
//! the process's messages as `Data` frames, closes the round with a
//! `RoundEnd` marker to every peer, then blocks until every peer's marker
//! for that round has arrived. Buffered `Data` frames are then delivered
//! in ascending sender order — the canonical order of
//! `docs/DETERMINISM.md` — so a fleet of drivers feeds every process the
//! exact delivery sequence the in-memory engines would. (A peer can run
//! at most one round ahead — it cannot close round `r + 1` before our own
//! `RoundEnd(r)` reaches it — which the per-round buffers absorb; a frame
//! from further ahead than that is a protocol violation, not something to
//! buffer.) The driver does pacing, ordering and decode, and nothing else.
//!
//! **Conformance contract.** Socket scheduling is still wall-clock
//! nondeterministic, so the socket path is pinned by *delivered-message
//! equivalence* rather than bit-identity: a [`DeliveryLog`] records the
//! set of delivered `(from, to, SHA-256 of the payload)` triples. One layer
//! captures it on every execution path — the [`Recorded`] process wrapper,
//! around the processes an in-memory engine runs and around the one a
//! `NodeDriver` drives alike; the driver itself keeps no log and hashes
//! nothing. `tests/transport_conformance.rs` asserts fleet-level equality
//! of logs, verdicts and accepted-edge sets. (`Recorded` hashes the
//! canonical re-encoding of what was delivered; `tests/parser_fuzz.rs`
//! pins that the decoders accept canonical bytes only, so that digest is
//! the digest of the bytes that crossed the wire.)

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use nectar_crypto::codec::{CodecError, Decode, Encode};
use nectar_crypto::frame::{Frame, FrameBuffer};
use nectar_graph::Graph;

use crate::metrics::Metrics;
use crate::process::{NodeId, Process, WireSized};

/// Errors surfaced by transports and the [`NodeDriver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A frame or payload failed to decode.
    Codec(CodecError),
    /// An OS-level send/receive/connect failure.
    Io {
        /// What was being attempted.
        context: &'static str,
        /// The underlying error rendering.
        detail: String,
    },
    /// No frame arrived within the receive deadline.
    Timeout {
        /// What the receiver was waiting for.
        waiting_for: String,
    },
    /// Every inbound connection has closed.
    Disconnected,
    /// A send was addressed to a node this transport has no channel to.
    UnknownPeer {
        /// The unreachable node.
        peer: NodeId,
    },
    /// A peer violated the framing protocol (bad sender id, trailing
    /// bytes after a payload, ...).
    Protocol {
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Codec(e) => write!(f, "codec: {e}"),
            TransportError::Io { context, detail } => write!(f, "{context}: {detail}"),
            TransportError::Timeout { waiting_for } => {
                write!(f, "timed out waiting for {waiting_for}")
            }
            TransportError::Disconnected => f.write_str("all inbound connections closed"),
            TransportError::UnknownPeer { peer } => write!(f, "no channel to node {peer}"),
            TransportError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

/// A bidirectional frame channel connecting one node to its peers.
///
/// Implementations only move frames; everything protocol-shaped — round
/// pacing, delivery ordering, payload decoding — lives in [`NodeDriver`],
/// so every transport drives processes identically.
pub trait Transport {
    /// This node's id.
    fn local(&self) -> NodeId;

    /// The peers this transport has channels to, ascending.
    fn peers(&self) -> &[NodeId];

    /// Sends one frame toward `to`, as its wire bytes
    /// ([`Encode::to_wire_bytes`] of a [`Frame`], or
    /// [`Frame::data_wire_bytes`]): the buffer the sender encoded into is
    /// the buffer that travels.
    ///
    /// # Errors
    ///
    /// [`TransportError::UnknownPeer`] for nodes outside
    /// [`peers`](Self::peers); I/O errors from the underlying channel.
    fn send(&mut self, to: NodeId, frame: Vec<u8>) -> Result<(), TransportError>;

    /// Receives the next inbound frame (any peer), blocking up to the
    /// transport's receive deadline.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when nothing arrives in time;
    /// [`TransportError::Disconnected`] when no sender remains.
    fn recv(&mut self) -> Result<Frame, TransportError>;
}

/// The set of delivered `(from, to, SHA-256 of the payload)` triples — the
/// socket path's correctness currency. Two executions that deliver the
/// same message sets to the same nodes are *delivered-message equivalent*
/// regardless of wall-clock interleaving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryLog {
    entries: BTreeSet<(NodeId, NodeId, [u8; 32])>,
}

impl DeliveryLog {
    /// An empty log.
    pub fn new() -> Self {
        DeliveryLog::default()
    }

    /// Records one delivery of the message hashing to `digest`.
    pub fn record(&mut self, from: NodeId, to: NodeId, digest: [u8; 32]) {
        self.entries.insert((from, to, digest));
    }

    /// Absorbs another log (set union).
    pub fn merge(&mut self, other: &DeliveryLog) {
        self.entries.extend(other.entries.iter().copied());
    }

    /// Number of distinct delivered triples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The triples, ascending.
    pub fn entries(&self) -> impl Iterator<Item = &(NodeId, NodeId, [u8; 32])> {
        self.entries.iter()
    }
}

/// Wraps a [`Process`] so every delivered message is recorded in a
/// [`DeliveryLog`] before the process sees it — the one capture layer,
/// on every execution path: wrap the processes handed to an in-memory
/// engine, to [`run_over_loopback`] or to a [`NodeDriver`] and read the
/// logs back. The wrapper is transparent (id, sends, quiescence and link
/// events all forward), so a `Recorded` fleet produces bit-identical
/// outcomes to the bare one.
#[derive(Debug)]
pub struct Recorded<P> {
    inner: P,
    log: DeliveryLog,
}

impl<P> Recorded<P> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: P) -> Self {
        Recorded { inner, log: DeliveryLog::new() }
    }

    /// The log so far.
    pub fn delivery_log(&self) -> &DeliveryLog {
        &self.log
    }

    /// Unwraps into the process and its log.
    pub fn into_parts(self) -> (P, DeliveryLog) {
        (self.inner, self.log)
    }
}

impl<P: Process> Process for Recorded<P>
where
    P::Msg: Encode,
{
    type Msg = P::Msg;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&mut self, round: usize) -> Vec<crate::process::Outgoing<P::Msg>> {
        self.inner.send(round)
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: P::Msg) {
        let digest = nectar_crypto::sha256::sha256(&msg.to_wire_bytes());
        self.log.record(from, self.inner.id(), digest);
        self.inner.receive(round, from, msg);
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        self.inner.link_changed(round, peer, up);
    }
}

/// One successful send, as charged to traffic metrics: the destination
/// and the message's accounting size ([`WireSized`]),
/// which is what the in-memory engines charge too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRecord {
    /// Round the message was sent in (1-based).
    pub round: usize,
    /// Destination node.
    pub to: NodeId,
    /// Accounting size in bytes.
    pub wire_bytes: usize,
}

/// The per-node event loop: runs one [`Process`] over a [`Transport`]
/// with synchronous-round pacing (see the module docs for the barrier
/// protocol).
#[derive(Debug)]
pub struct NodeDriver<P: Process, T: Transport> {
    process: P,
    transport: T,
    peers: Vec<NodeId>,
    peer_set: BTreeSet<NodeId>,
    /// Data payloads buffered per round, per sender, in arrival order.
    buffered: BTreeMap<u32, BTreeMap<NodeId, Vec<Vec<u8>>>>,
    /// Peers whose `RoundEnd` marker has arrived, per round.
    ended: BTreeMap<u32, BTreeSet<NodeId>>,
    delivered_through: u32,
    sent: Vec<SendRecord>,
    illegal_sends: u64,
}

impl<P, T> NodeDriver<P, T>
where
    P: Process,
    P::Msg: Encode + Decode,
    T: Transport,
{
    /// Couples `process` to `transport`.
    ///
    /// # Panics
    ///
    /// Panics if the process and transport disagree on the local id.
    pub fn new(process: P, transport: T) -> Self {
        assert_eq!(
            process.id(),
            transport.local(),
            "process and transport must agree on the local node id"
        );
        let peers = transport.peers().to_vec();
        let peer_set = peers.iter().copied().collect();
        NodeDriver {
            process,
            transport,
            peers,
            peer_set,
            buffered: BTreeMap::new(),
            ended: BTreeMap::new(),
            delivered_through: 0,
            sent: Vec::new(),
            illegal_sends: 0,
        }
    }

    /// Emits this round's messages as `Data` frames, then closes the
    /// round toward every peer with a `RoundEnd` marker. Sends addressed
    /// outside the peer set are counted as illegal (the channels do not
    /// exist) and dropped, exactly as the in-memory engines do.
    ///
    /// # Errors
    ///
    /// Transport send failures.
    pub fn begin_round(&mut self, round: usize) -> Result<(), TransportError> {
        let (from, r) = (self.process.id() as u16, round as u32);
        for out in self.process.send(round) {
            if !self.peer_set.contains(&out.to) {
                self.illegal_sends += 1;
                continue;
            }
            self.sent.push(SendRecord { round, to: out.to, wire_bytes: out.msg.wire_bytes() });
            self.transport.send(out.to, Frame::data_wire_bytes(from, r, &out.msg))?;
        }
        let end = Frame::RoundEnd { from, round: r }.to_wire_bytes();
        for i in 0..self.peers.len() {
            self.transport.send(self.peers[i], end.clone())?;
        }
        Ok(())
    }

    /// Blocks until every peer has closed `round`, then delivers the
    /// round's buffered messages in ascending sender order.
    ///
    /// # Errors
    ///
    /// Transport receive failures, payload decode failures, and framing
    /// protocol violations.
    pub fn finish_round(&mut self, round: usize) -> Result<(), TransportError> {
        let r = round as u32;
        let goal = self.peers.len();
        while self.ended.get(&r).map_or(0, BTreeSet::len) < goal {
            let frame = self.transport.recv()?;
            self.absorb(frame)?;
        }
        let ready = self.buffered.remove(&r).unwrap_or_default();
        for (from, payloads) in ready {
            for payload in payloads {
                let mut slice = payload.as_slice();
                let msg = P::Msg::decode(&mut slice)?;
                if !slice.is_empty() {
                    return Err(TransportError::Protocol {
                        detail: format!(
                            "{} trailing bytes after round {round} payload from node {from}",
                            slice.len()
                        ),
                    });
                }
                self.process.receive(round, from, msg);
            }
        }
        self.ended.remove(&r);
        self.delivered_through = r;
        Ok(())
    }

    /// Runs rounds `1..=rounds` to completion.
    ///
    /// # Errors
    ///
    /// The first transport, codec or protocol failure.
    pub fn run(&mut self, rounds: usize) -> Result<(), TransportError> {
        for round in 1..=rounds {
            self.begin_round(round)?;
            self.finish_round(round)?;
        }
        Ok(())
    }

    fn absorb(&mut self, frame: Frame) -> Result<(), TransportError> {
        match frame {
            // Handshake frames carry no protocol content.
            Frame::Hello { .. } => {}
            Frame::Data { from, round, payload } => {
                if self.admits("data", from as NodeId, round)? {
                    let senders = self.buffered.entry(round).or_default();
                    senders.entry(from as NodeId).or_default().push(payload);
                }
            }
            Frame::RoundEnd { from, round } => {
                if self.admits("round-end", from as NodeId, round)? {
                    self.ended.entry(round).or_default().insert(from as NodeId);
                }
            }
        }
        Ok(())
    }

    /// Whether a `kind` frame from `from` for `round` is to be kept.
    /// `Ok(false)` for an already-delivered round: it arrived after its
    /// barrier closed — only a misbehaving transport produces this; the
    /// round's delivery set is final, so the frame is dropped.
    ///
    /// # Errors
    ///
    /// [`TransportError::Protocol`] for a non-peer sender, and for a round
    /// later than `delivered_through + 2`: a peer runs at most one round
    /// ahead of the round being collected (module docs), so such a frame
    /// is a violation, and buffering it would let one peer grow this
    /// node's memory without bound.
    fn admits(&self, kind: &str, from: NodeId, round: u32) -> Result<bool, TransportError> {
        if !self.peer_set.contains(&from) {
            return Err(TransportError::Protocol {
                detail: format!("{kind} frame from non-peer node {from}"),
            });
        }
        if round > self.delivered_through.saturating_add(2) {
            return Err(TransportError::Protocol {
                detail: format!(
                    "{kind} frame from node {from} for round {round}, but only round {} has \
                     been delivered: a peer runs at most one round ahead",
                    self.delivered_through
                ),
            });
        }
        Ok(round > self.delivered_through)
    }

    /// The driven process.
    pub fn process(&self) -> &P {
        &self.process
    }

    /// Successful sends so far, in emission order.
    pub fn sent(&self) -> &[SendRecord] {
        &self.sent
    }

    /// Sends addressed outside the peer set (dropped).
    pub fn illegal_sends(&self) -> u64 {
        self.illegal_sends
    }

    /// Decomposes the driver: process, send records, illegal-send count.
    pub fn into_parts(self) -> (P, Vec<SendRecord>, u64) {
        (self.process, self.sent, self.illegal_sends)
    }
}

// ---------------------------------------------------------------------------
// Loopback: in-process, deterministic, still framed.
// ---------------------------------------------------------------------------

/// Shared mailboxes connecting [`LoopbackTransport`]s inside one process.
///
/// Every frame is still encoded to wire bytes on send and reassembled
/// through a [`FrameBuffer`] on receive, so the loopback path exercises
/// the exact byte-level stack the socket path runs — minus the kernel.
#[derive(Debug, Clone)]
pub struct LoopbackHub {
    mailboxes: Arc<Vec<Mutex<VecDeque<Vec<u8>>>>>,
}

impl LoopbackHub {
    /// A hub for nodes `0..n`.
    pub fn new(n: usize) -> Self {
        LoopbackHub { mailboxes: Arc::new((0..n).map(|_| Mutex::new(VecDeque::new())).collect()) }
    }

    /// A transport endpoint for `local`, reaching `peers`.
    ///
    /// # Panics
    ///
    /// Panics if `local` or any peer is outside the hub.
    pub fn transport(&self, local: NodeId, mut peers: Vec<NodeId>) -> LoopbackTransport {
        assert!(local < self.mailboxes.len(), "local node outside the hub");
        assert!(peers.iter().all(|&p| p < self.mailboxes.len()), "peer outside the hub");
        peers.sort_unstable();
        peers.dedup();
        LoopbackTransport {
            local,
            peers,
            mailboxes: Arc::clone(&self.mailboxes),
            decoder: FrameBuffer::new(),
        }
    }
}

/// In-process [`Transport`] endpoint handed out by [`LoopbackHub`].
#[derive(Debug)]
pub struct LoopbackTransport {
    local: NodeId,
    peers: Vec<NodeId>,
    mailboxes: Arc<Vec<Mutex<VecDeque<Vec<u8>>>>>,
    decoder: FrameBuffer,
}

impl Transport for LoopbackTransport {
    fn local(&self) -> NodeId {
        self.local
    }

    fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    fn send(&mut self, to: NodeId, frame: Vec<u8>) -> Result<(), TransportError> {
        if !self.peers.contains(&to) {
            return Err(TransportError::UnknownPeer { peer: to });
        }
        // A poisoned mailbox is still a whole queue: push and pop cannot
        // tear it.
        self.mailboxes[to].lock().unwrap_or_else(PoisonError::into_inner).push_back(frame);
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            match self.mailboxes[self.local]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
            {
                Some(chunk) => self.decoder.extend(&chunk),
                // Loopback fleets run in lock-step: an empty mailbox
                // means the barrier logic asked for a frame that was
                // never sent. Surface it rather than spinning.
                None => {
                    return Err(TransportError::Timeout {
                        waiting_for: format!("a frame for node {}", self.local),
                    });
                }
            }
        }
    }
}

/// Runs a fleet of processes over loopback transports for `rounds`
/// rounds, returning the final processes and traffic metrics. A caller
/// that wants the fleet's [`DeliveryLog`] passes [`Recorded`] processes
/// and reads them back, as with any engine. (The third slot of the result
/// is vestigial — it held a log the driver no longer keeps — and leaves
/// with the next `benchmark/` PR, whose frozen code destructures three.)
///
/// Drivers advance in lock-step (everyone sends round `r`, then everyone
/// delivers round `r`), which together with the driver's
/// ascending-sender delivery makes the result *bit-identical* to
/// [`SyncNetwork`](crate::sync::SyncNetwork) on the same processes —
/// while every message pays full wire encode/decode. A proptest in
/// `tests/transport_conformance.rs` pins that equivalence across the
/// topology and behaviour zoos.
///
/// # Errors
///
/// The first codec or protocol failure from any driver.
///
/// # Panics
///
/// Panics if `processes` are not ids `0..n` in order, matching the
/// topology.
pub fn run_over_loopback<P>(
    processes: Vec<P>,
    topology: &Graph,
    rounds: usize,
) -> Result<(Vec<P>, Metrics, ()), TransportError>
where
    P: Process,
    P::Msg: Encode + Decode,
{
    let n = topology.node_count();
    assert_eq!(processes.len(), n, "one process per topology node");
    let hub = LoopbackHub::new(n);
    let mut drivers: Vec<NodeDriver<P, LoopbackTransport>> = processes
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            assert_eq!(p.id(), i, "processes must be ids 0..n in order");
            NodeDriver::new(p, hub.transport(i, topology.neighborhood(i)))
        })
        .collect();
    for round in 1..=rounds {
        for driver in drivers.iter_mut() {
            driver.begin_round(round)?;
        }
        for driver in drivers.iter_mut() {
            driver.finish_round(round)?;
        }
    }
    let mut metrics = Metrics::new(n);
    let mut out = Vec::with_capacity(n);
    for (i, driver) in drivers.into_iter().enumerate() {
        let (process, sent, illegal) = driver.into_parts();
        for record in &sent {
            metrics.record_send(record.round, i, record.to, record.wire_bytes);
        }
        for _ in 0..illegal {
            metrics.record_illegal_send();
        }
        out.push(process);
    }
    Ok((out, metrics, ()))
}

// ---------------------------------------------------------------------------
// Sockets: UDS / TCP, one OS process per node.
// ---------------------------------------------------------------------------

/// Connection-establishment and receive deadlines for [`SocketTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectConfig {
    /// Total budget for dialing every peer and accepting every inbound
    /// connection (retry-and-backoff runs inside this window).
    pub connect_timeout: Duration,
    /// How long one [`Transport::recv`] may block.
    pub recv_timeout: Duration,
}

impl Default for ConnectConfig {
    fn default() -> Self {
        ConnectConfig {
            connect_timeout: Duration::from_secs(30),
            recv_timeout: Duration::from_secs(30),
        }
    }
}

/// A [`Transport`] over real sockets: one duplex pair of connections per
/// peer (we dial their listener for our outbound frames; they dial ours
/// for theirs), a reader thread per inbound connection feeding one
/// channel, and retry-with-backoff dialing so fleet members may start in
/// any order.
///
/// Peer identity is taken from the frames themselves (every frame carries
/// its sender id, and the payloads are signed at the protocol layer);
/// the `Hello` handshake frame exists to version-check the link early.
pub struct SocketTransport {
    local: NodeId,
    peers: Vec<NodeId>,
    writers: BTreeMap<NodeId, Box<dyn Write + Send>>,
    rx: mpsc::Receiver<Result<Frame, TransportError>>,
    recv_timeout: Duration,
    /// Socket file to unlink on drop (UDS only).
    cleanup: Option<std::path::PathBuf>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("local", &self.local)
            .field("peers", &self.peers)
            .finish_non_exhaustive()
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if let Some(path) = self.cleanup.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn io_err(context: &'static str, e: &std::io::Error) -> TransportError {
    TransportError::Io { context, detail: e.to_string() }
}

/// Reads frames off one inbound connection into the shared channel until
/// EOF (peer finished and closed) or a hard error.
fn spawn_reader<R: Read + Send + 'static>(
    mut stream: R,
    tx: mpsc::Sender<Result<Frame, TransportError>>,
) {
    std::thread::spawn(move || {
        let mut decoder = FrameBuffer::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            loop {
                match decoder.next_frame() {
                    Ok(Some(frame)) => {
                        if tx.send(Ok(frame)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let _ = tx.send(Err(TransportError::Codec(e)));
                        return;
                    }
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(k) => decoder.extend(&chunk[..k]),
                Err(e) => {
                    let _ = tx.send(Err(io_err("socket read", &e)));
                    return;
                }
            }
        }
    });
}

/// Dials until `connect` succeeds or the deadline passes, doubling the
/// backoff between attempts — fleet members may start in any order, so
/// the first attempts routinely race the peer's bind.
fn dial_with_backoff<S>(
    mut connect: impl FnMut() -> std::io::Result<S>,
    deadline: Instant,
) -> Result<S, TransportError> {
    const INITIAL_BACKOFF: Duration = Duration::from_millis(5);
    const MAX_BACKOFF: Duration = Duration::from_millis(500);
    let mut backoff = INITIAL_BACKOFF;
    loop {
        match connect() {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() + backoff >= deadline {
                    return Err(io_err("dialing peer", &e));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

/// Accept loop: takes exactly `expected` inbound connections off
/// `accept`, spawning a reader for each, and reports completion (or
/// timeout) through `ready_tx`.
fn accept_all<S: Read + Send + 'static>(
    mut accept: impl FnMut() -> std::io::Result<S>,
    expected: usize,
    deadline: Instant,
    tx: mpsc::Sender<Result<Frame, TransportError>>,
    ready_tx: mpsc::Sender<Result<(), TransportError>>,
) {
    let mut accepted = 0;
    while accepted < expected {
        if Instant::now() >= deadline {
            let _ = ready_tx.send(Err(TransportError::Timeout {
                waiting_for: format!("inbound connections ({accepted} of {expected} accepted)"),
            }));
            return;
        }
        match accept() {
            Ok(stream) => {
                spawn_reader(stream, tx.clone());
                accepted += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                let _ = ready_tx.send(Err(io_err("accepting peer", &e)));
                return;
            }
        }
    }
    let _ = ready_tx.send(Ok(()));
}

impl SocketTransport {
    /// Connects a Unix-domain-socket transport: binds (and on drop
    /// unlinks) `listen`, dials every peer's socket path with
    /// retry-and-backoff, and waits until every peer has dialed us.
    ///
    /// # Errors
    ///
    /// Bind/dial/accept failures and connect-phase timeouts.
    #[cfg(unix)]
    pub fn uds(
        local: NodeId,
        listen: &std::path::Path,
        peers: &[(NodeId, std::path::PathBuf)],
        config: &ConnectConfig,
    ) -> Result<SocketTransport, TransportError> {
        use std::os::unix::net::{UnixListener, UnixStream};

        // A stale socket file from a crashed predecessor blocks bind.
        let _ = std::fs::remove_file(listen);
        let listener = UnixListener::bind(listen).map_err(|e| io_err("binding socket", &e))?;
        listener.set_nonblocking(true).map_err(|e| io_err("binding socket", &e))?;
        let accept = move || {
            listener.accept().map(|(stream, _)| {
                let _ = stream.set_nonblocking(false);
                stream
            })
        };
        let mut transport =
            Self::connect(local, accept, |path| UnixStream::connect(path), peers, config)?;
        transport.cleanup = Some(listen.to_path_buf());
        Ok(transport)
    }

    /// Connects a TCP transport on loopback/LAN addresses: binds
    /// `listen`, dials every peer with retry-and-backoff, waits for every
    /// peer to dial us.
    ///
    /// # Errors
    ///
    /// Bind/dial/accept failures and connect-phase timeouts.
    pub fn tcp(
        local: NodeId,
        listen: std::net::SocketAddr,
        peers: &[(NodeId, std::net::SocketAddr)],
        config: &ConnectConfig,
    ) -> Result<SocketTransport, TransportError> {
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind(listen).map_err(|e| io_err("binding socket", &e))?;
        listener.set_nonblocking(true).map_err(|e| io_err("binding socket", &e))?;
        let accept = move || {
            listener.accept().map(|(stream, _)| {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                stream
            })
        };
        let dial = |addr: &std::net::SocketAddr| {
            let stream = TcpStream::connect(addr)?;
            let _ = stream.set_nodelay(true);
            Ok(stream)
        };
        Self::connect(local, accept, dial, peers, config)
    }

    /// The bring-up both constructors share, over any stream type: accept
    /// every peer on a background thread, dial every peer's address with
    /// backoff, send the `Hello` handshake on every outbound link, then
    /// wait for the accept loop to confirm every peer dialed us.
    fn connect<S: Read + Write + Send + 'static, A>(
        local: NodeId,
        accept: impl FnMut() -> std::io::Result<S> + Send + 'static,
        mut dial: impl FnMut(&A) -> std::io::Result<S>,
        peers: &[(NodeId, A)],
        config: &ConnectConfig,
    ) -> Result<SocketTransport, TransportError> {
        let deadline = Instant::now() + config.connect_timeout;
        let (tx, rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel();
        {
            let tx = tx.clone();
            let expected = peers.len();
            std::thread::spawn(move || accept_all(accept, expected, deadline, tx, ready_tx));
        }
        let mut writers: BTreeMap<NodeId, Box<dyn Write + Send>> = BTreeMap::new();
        for (peer, addr) in peers {
            let stream = dial_with_backoff(|| dial(addr), deadline)?;
            writers.insert(*peer, Box::new(stream));
        }
        let hello = Frame::Hello { from: local as u16 }.to_wire_bytes();
        for writer in writers.values_mut() {
            writer.write_all(&hello).map_err(|e| io_err("socket write", &e))?;
            writer.flush().map_err(|e| io_err("socket write", &e))?;
        }
        let ready_wait =
            deadline.saturating_duration_since(Instant::now()) + Duration::from_secs(1);
        match ready_rx.recv_timeout(ready_wait) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                return Err(TransportError::Timeout {
                    waiting_for: "the accept loop to finish".into(),
                });
            }
        }
        let mut peers: Vec<NodeId> = peers.iter().map(|(p, _)| *p).collect();
        peers.sort_unstable();
        peers.dedup();
        Ok(SocketTransport {
            local,
            peers,
            writers,
            rx,
            recv_timeout: config.recv_timeout,
            cleanup: None,
        })
    }
}

impl Transport for SocketTransport {
    fn local(&self) -> NodeId {
        self.local
    }

    fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    fn send(&mut self, to: NodeId, frame: Vec<u8>) -> Result<(), TransportError> {
        let writer = self.writers.get_mut(&to).ok_or(TransportError::UnknownPeer { peer: to })?;
        writer.write_all(&frame).map_err(|e| io_err("socket write", &e))?;
        writer.flush().map_err(|e| io_err("socket write", &e))
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        match self.rx.recv_timeout(self.recv_timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout {
                waiting_for: format!("a frame for node {}", self.local),
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Outgoing, WireSized};
    use nectar_graph::gen;

    /// A one-byte test message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping(u8);

    impl WireSized for Ping {
        fn wire_bytes(&self) -> usize {
            // Deliberately different from the encoded length, like
            // NectarMsg's accounting size: metrics must charge this.
            3
        }
    }

    impl Encode for Ping {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.push(self.0);
        }

        fn encoded_len(&self) -> usize {
            1
        }
    }

    impl Decode for Ping {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            let (&value, tail) =
                buf.split_first().ok_or(CodecError::UnexpectedEnd { decoding: "ping" })?;
            *buf = tail;
            Ok(Ping(value))
        }
    }

    /// Sends its id to every peer each round; remembers what it saw.
    #[derive(Debug)]
    struct Chatter {
        id: NodeId,
        peers: Vec<NodeId>,
        seen: Vec<(usize, NodeId, u8)>,
    }

    impl Process for Chatter {
        type Msg = Ping;

        fn id(&self) -> NodeId {
            self.id
        }

        fn send(&mut self, _round: usize) -> Vec<Outgoing<Ping>> {
            self.peers.iter().map(|&to| Outgoing::new(to, Ping(self.id as u8))).collect()
        }

        fn receive(&mut self, round: usize, from: NodeId, msg: Ping) {
            self.seen.push((round, from, msg.0));
        }
    }

    fn chatter_fleet(g: &Graph) -> Vec<Chatter> {
        (0..g.node_count())
            .map(|i| Chatter { id: i, peers: g.neighborhood(i), seen: Vec::new() })
            .collect()
    }

    /// The loopback run of the chatter fleet behind the capture layer:
    /// the bare processes back, the metrics, and the fleet's merged log.
    fn recorded_loopback(g: &Graph, rounds: usize) -> (Vec<Chatter>, Metrics, DeliveryLog) {
        let wrapped: Vec<_> = chatter_fleet(g).into_iter().map(Recorded::new).collect();
        let (wrapped, metrics, ()) = run_over_loopback(wrapped, g, rounds).unwrap();
        let mut fleet_log = DeliveryLog::new();
        let fleet = wrapped
            .into_iter()
            .map(|w| {
                let (process, log) = w.into_parts();
                fleet_log.merge(&log);
                process
            })
            .collect();
        (fleet, metrics, fleet_log)
    }

    #[test]
    fn loopback_delivers_in_ascending_sender_order() {
        let g = gen::complete(4);
        let (fleet, metrics, log) = recorded_loopback(&g, 2);
        for node in &fleet {
            let expect: Vec<(usize, NodeId, u8)> = (1..=2usize)
                .flat_map(|r| node.peers.iter().map(move |&p| (r, p, p as u8)))
                .collect();
            assert_eq!(node.seen, expect, "node {}", node.id);
        }
        // 4 nodes × 3 peers × 2 rounds, 3 accounting bytes each.
        assert_eq!(metrics.msgs_sent().iter().sum::<u64>(), 24);
        assert_eq!(metrics.total_bytes_sent(), 72);
        assert_eq!(metrics.bytes_per_round(), &[36, 36]);
        // Distinct digests: one per (from, to) pair — payloads repeat
        // across rounds, and the log is a set.
        assert_eq!(log.len(), 12);
    }

    #[test]
    fn loopback_matches_the_sync_engine_bit_for_bit() {
        let g = gen::cycle(6);
        let (_, loop_metrics, _) = run_over_loopback(chatter_fleet(&g), &g, 3).unwrap();
        let mut net = crate::sync::SyncNetwork::new(chatter_fleet(&g), g);
        net.run_rounds(3);
        let (_, sync_metrics) = net.into_parts();
        assert_eq!(loop_metrics, sync_metrics);
    }

    #[test]
    fn illegal_sends_are_counted_and_dropped() {
        // Node 0 tries to message node 2 across a path 0-1-2: no channel.
        let g = gen::path(3);
        let mut fleet = chatter_fleet(&g);
        fleet[0].peers = vec![1, 2];
        let (fleet, metrics, _) = run_over_loopback(fleet, &g, 1).unwrap();
        assert_eq!(metrics.illegal_sends(), 1);
        assert_eq!(fleet[2].seen, vec![(1, 1, 1)]);
    }

    #[test]
    fn recorded_wrapper_captures_deliveries_transparently() {
        let g = gen::complete(3);
        let wrapped: Vec<Recorded<Chatter>> =
            chatter_fleet(&g).into_iter().map(Recorded::new).collect();
        let mut net = crate::sync::SyncNetwork::new(wrapped, g.clone());
        net.run_rounds(1);
        let (wrapped, _) = net.into_parts();
        let mut fleet_log = DeliveryLog::new();
        for w in &wrapped {
            assert_eq!(w.delivery_log().len(), 2);
            fleet_log.merge(w.delivery_log());
        }
        // The loopback fleet — drivers around the same wrapper — must
        // produce the identical delivery set.
        let (_, _, loop_log) = recorded_loopback(&g, 1);
        assert_eq!(fleet_log, loop_log);
    }

    #[test]
    fn a_frame_from_more_than_one_round_ahead_is_a_protocol_error() {
        let hub = LoopbackHub::new(2);
        let node = Chatter { id: 0, peers: vec![1], seen: Vec::new() };
        let mut driver = NodeDriver::new(node, hub.transport(0, vec![1]));
        let mut peer = hub.transport(1, vec![0]);
        let mut push = |frame: Frame| peer.send(0, frame.to_wire_bytes()).unwrap();
        // One round ahead is legal: the peer closed round 1 and already
        // sent for round 2 while we still collect round 1.
        push(Frame::Data { from: 1, round: 2, payload: vec![7] });
        push(Frame::RoundEnd { from: 1, round: 1 });
        push(Frame::RoundEnd { from: 1, round: 2 });
        driver.run(2).unwrap();
        assert_eq!(driver.process().seen, vec![(2, 1, 7)]);
        // Round 5 while round 3 is being collected is not: an error
        // naming the peer and both rounds, not a buffer that grows.
        for frame in [
            Frame::Data { from: 1, round: 5, payload: vec![7] },
            Frame::RoundEnd { from: 1, round: 5 },
        ] {
            push(frame);
            driver.begin_round(3).unwrap();
            match driver.finish_round(3) {
                Err(TransportError::Protocol { detail }) => {
                    for part in ["node 1", "round 5", "round 2"] {
                        assert!(detail.contains(part), "{detail:?} lacks {part:?}");
                    }
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
        assert!(driver.buffered.is_empty() && driver.ended.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn uds_pair_exchanges_rounds() {
        let dir = std::env::temp_dir().join(format!("nectar-uds-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |i: usize| dir.join(format!("node-{i}.sock"));
        let config = ConnectConfig::default();
        let g = gen::path(2);
        let mut handles = Vec::new();
        for i in 0..2 {
            let listen = path(i);
            let peer = (1 - i, path(1 - i));
            let fleet = chatter_fleet(&g);
            let config = config;
            handles.push(std::thread::spawn(move || {
                let transport =
                    SocketTransport::uds(i, &listen, &[peer], &config).expect("connect");
                let node = Recorded::new(fleet.into_iter().nth(i).unwrap());
                let mut driver = NodeDriver::new(node, transport);
                driver.run(2).expect("run");
                let (recorded, sent, illegal) = driver.into_parts();
                let (process, log) = recorded.into_parts();
                assert_eq!(illegal, 0);
                assert_eq!(sent.len(), 2);
                assert_eq!(process.seen.len(), 2);
                log
            }));
        }
        let mut fleet_log = DeliveryLog::new();
        for h in handles {
            fleet_log.merge(&h.join().unwrap());
        }
        let (_, _, loop_log) = recorded_loopback(&g, 2);
        assert_eq!(fleet_log, loop_log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_pair_exchanges_rounds() {
        // Fixed loopback ports chosen high; retry/backoff absorbs the
        // listener race between the two threads.
        let base = 42710 + (std::process::id() % 1000) as u16;
        let addr = |i: usize| -> std::net::SocketAddr {
            format!("127.0.0.1:{}", base + i as u16).parse().unwrap()
        };
        let g = gen::path(2);
        let config = ConnectConfig::default();
        let mut handles = Vec::new();
        for i in 0..2 {
            let fleet = chatter_fleet(&g);
            let peer = (1 - i, addr(1 - i));
            let listen = addr(i);
            handles.push(std::thread::spawn(move || {
                let transport = SocketTransport::tcp(i, listen, &[peer], &config).expect("connect");
                let mut driver = NodeDriver::new(fleet.into_iter().nth(i).unwrap(), transport);
                driver.run(1).expect("run");
                driver.process().seen.clone()
            }));
        }
        let seen: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(seen[0], vec![(1, 1, 1)]);
        assert_eq!(seen[1], vec![(1, 0, 0)]);
    }

    #[test]
    fn driver_rejects_mismatched_ids() {
        let g = gen::path(2);
        let hub = LoopbackHub::new(2);
        let fleet = chatter_fleet(&g);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            NodeDriver::new(fleet.into_iter().nth(1).unwrap(), hub.transport(0, vec![1]))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn loopback_send_to_unknown_peer_errors() {
        let hub = LoopbackHub::new(3);
        let mut t = hub.transport(0, vec![1]);
        assert_eq!(
            t.send(2, Frame::Hello { from: 0 }.to_wire_bytes()),
            Err(TransportError::UnknownPeer { peer: 2 })
        );
    }

    #[test]
    fn transport_errors_render() {
        for e in [
            TransportError::Codec(CodecError::BadPadding),
            TransportError::Io { context: "socket read", detail: "boom".into() },
            TransportError::Timeout { waiting_for: "frames".into() },
            TransportError::Disconnected,
            TransportError::UnknownPeer { peer: 9 },
            TransportError::Protocol { detail: "late frame".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
