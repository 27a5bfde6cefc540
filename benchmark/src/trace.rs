//! Tracing from the outside in: spans around the public calls into each
//! layer, and a [`Timed`] process wrapper for the one boundary that is
//! crossed too often to span (an engine calling `send`/`receive`).
//!
//! Nothing here reaches inside the product crates — spans inside the
//! program are a later change. Spans are kept in memory and written out
//! after the run; a layer's self time is its span minus its child spans.

use nectar_net::{NodeId, Outgoing, Process};
use nectar_protocol::NectarMsg;
use std::time::Instant;

use crate::json;

/// One timed interval: a stage of a run, caused by the span `parent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(usize);

/// The spans of one traced run, in opening order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes `span`.
    ///
    /// # Panics
    ///
    /// Panics unless `span` is the innermost open span: spans nest.
    pub fn end(&mut self, span: Open) {
        assert_eq!(self.open.pop(), Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in milliseconds, of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum();
        ns as f64 / 1e6
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of span `idx`: its duration minus its direct children's.
    pub fn self_ns(&self, idx: usize) -> u64 {
        self.spans[idx].duration_ns().saturating_sub(self.children_ns(idx))
    }

    fn children_ns(&self, idx: usize) -> u64 {
        self.spans.iter().filter(|s| s.parent == Some(idx)).map(Span::duration_ns).sum()
    }

    /// Summed duration, in milliseconds, of the direct children of span
    /// `idx`.
    pub fn children_ms(&self, idx: usize) -> f64 {
        self.children_ns(idx) as f64 / 1e6
    }

    /// The spans as a JSON array; every span carries the workload and the
    /// index of the traced run it belongs to, which is what spans of one
    /// request share.
    pub fn to_json(&self, workload: &str, run: usize) -> String {
        json::array(self.spans.iter().enumerate().map(|(idx, s)| {
            json::object([
                ("name", json::string(s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
                ("self_ns", self.self_ns(idx).to_string()),
                ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                ("workload", json::string(workload)),
                ("run", run.to_string()),
            ])
        }))
    }
}

/// What a [`Timed`] wrapper saw of its process.
#[derive(Debug, Default)]
pub struct Observed {
    /// `send` calls and the time the wrapped process spent in them.
    pub sends: u64,
    pub send_ns: u64,
    /// `receive` calls (one per delivered message) and the time in them.
    pub receives: u64,
    pub receive_ns: u64,
    /// Relayed edges and chain links delivered (tapping wrappers only).
    pub edges: u64,
    pub links: u64,
    /// A 1-in-[`SAMPLE_EVERY`] sample of the delivered messages, for the
    /// crypto and codec replays (tapping wrappers only).
    pub sample: Vec<NectarMsg>,
}

impl Observed {
    pub fn busy_ns(&self) -> u64 {
        self.send_ns + self.receive_ns
    }

    /// Folds another wrapper's observations into this one.
    pub fn absorb(&mut self, other: Observed) {
        self.sends += other.sends;
        self.send_ns += other.send_ns;
        self.receives += other.receives;
        self.receive_ns += other.receive_ns;
        self.edges += other.edges;
        self.links += other.links;
        self.sample.extend(other.sample);
    }
}

/// One delivered message in this many is kept for the replays.
pub const SAMPLE_EVERY: u64 = 16;

/// A transparent [`Process`] wrapper that accumulates the time and call
/// counts of `send` and `receive`. Everything forwards, so a `Timed` fleet
/// produces bit-identical outcomes to the bare one (the traced run's report
/// is checked against the untraced one's). With `tap` set it also counts
/// delivered edges and chain links and keeps a sample of the messages —
/// done before the clock starts, so the tap is charged to whatever sits
/// outside this wrapper, never to the wrapped process.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    tap: bool,
    seen: Observed,
}

impl<P: Process<Msg = NectarMsg>> Timed<P> {
    /// Wraps a whole fleet (node order preserved).
    pub fn wrap_all(procs: Vec<P>, tap: bool) -> Vec<Timed<P>> {
        procs.into_iter().map(|inner| Timed { inner, tap, seen: Observed::default() }).collect()
    }

    /// Unwraps into the process and what was observed of it.
    pub fn into_parts(self) -> (P, Observed) {
        (self.inner, self.seen)
    }
}

impl<P: Process<Msg = NectarMsg>> Process for Timed<P> {
    type Msg = NectarMsg;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<NectarMsg>> {
        let start = Instant::now();
        let out = self.inner.send(round);
        self.seen.send_ns += start.elapsed().as_nanos() as u64;
        self.seen.sends += 1;
        out
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: NectarMsg) {
        if self.tap {
            self.seen.edges += msg.edges.len() as u64;
            self.seen.links += msg.edges.iter().map(|e| e.chain.len() as u64).sum::<u64>();
            // Offset by the node id so the sample is not every node's
            // first (round-1, chain-length-1) message.
            if (self.seen.receives + self.inner.id() as u64) % SAMPLE_EVERY == 0 {
                self.seen.sample.push(msg.clone());
            }
        }
        let start = Instant::now();
        self.inner.receive(round, from, msg);
        self.seen.receive_ns += start.elapsed().as_nanos() as u64;
        self.seen.receives += 1;
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        self.inner.link_changed(round, peer, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer { origin: Instant::now(), spans, open: Vec::new() }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let t = fixed(vec![
            span("run", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("engine", 10, 90, Some(0)),
            span("inside", 20, 50, Some(2)),
        ]);
        assert_eq!(t.self_ns(0), 10); // 100 − (10 + 80); the grandchild is not subtracted twice
        assert_eq!(t.self_ns(2), 50);
        assert_eq!(t.self_ns(3), 30);
        assert_eq!(t.total_ms("engine"), 80.0 / 1e6);
        assert_eq!(t.children_ms(0), 90.0 / 1e6);
        assert_eq!(t.children_ms(3), 0.0);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_one() {
        let mut t = Tracer::new();
        let run = t.begin("run");
        t.span("a", || ());
        let b = t.begin("b");
        t.span("c", || ());
        t.end(b);
        t.end(run);
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(parents, [("run", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!((t.count("a"), t.count("zzz")), (1, 0));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer);
    }

    #[test]
    fn the_span_dump_is_json_with_the_documented_keys() {
        let t = fixed(vec![span("run", 5, 25, None), span("parse", 5, 10, Some(0))]);
        let parsed = json::parse(&t.to_json("paper_harary", 3)).unwrap();
        let spans = parsed.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        let keys: Vec<&str> = spans[1].as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "start_ns", "end_ns", "self_ns", "parent", "workload", "run"]);
        assert_eq!(spans[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(spans[0].get("self_ns").unwrap().as_f64(), Some(15.0));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("workload").unwrap().as_str(), Some("paper_harary"));
    }
}
