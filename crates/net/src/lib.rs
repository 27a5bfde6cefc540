//! Synchronous message-passing runtime for the NECTAR reproduction.
//!
//! Implements the paper's system model (§II): processes on a static
//! undirected topology of reliable channels, communicating in synchronous
//! rounds. Two interchangeable in-memory engines execute the same
//! [`Process`] code and produce bit-identical results:
//!
//! * [`sync::SyncNetwork`]: deterministic, single-threaded, polls every
//!   node every round (tests, small sweeps, the equivalence reference),
//! * [`event::EventNetwork`]: an active-set loop multiplexing all nodes as
//!   state machines, committing each round as one sorted delivery vector —
//!   `O(active nodes + messages)` scheduling via the
//!   [`Process::quiescent`] hint, hosting 10k+-node topologies in one
//!   process. Built [`with_workers`](event::EventNetwork::with_workers),
//!   it fans each round's polls and deliveries out over the
//!   [`parallel::parallel_map`] pool, committing in the same canonical
//!   order (see `docs/DETERMINISM.md` for the contract).
//!
//! Traffic is charged to per-node counters ([`metrics::Metrics`]) using each
//! message's wire size, which is how the evaluation's data-sent-per-node
//! figures are produced. Byzantine *silence* (crash, two-faced) is one
//! value, [`fault::Mute`], applied by wrapping any process in
//! [`fault::Muted`].
//!
//! # Example
//!
//! ```
//! use nectar_net::process::{Outgoing, Process, WireSized};
//! use nectar_net::sync::SyncNetwork;
//!
//! #[derive(Debug, Clone)]
//! struct Hello(u8);
//! impl WireSized for Hello {
//!     fn wire_bytes(&self) -> usize { 1 }
//! }
//!
//! #[derive(Debug)]
//! struct Greeter { id: usize, peers: Vec<usize>, greeted: usize }
//! impl Process for Greeter {
//!     type Msg = Hello;
//!     fn id(&self) -> usize { self.id }
//!     fn send(&mut self, round: usize) -> Vec<Outgoing<Hello>> {
//!         if round == 1 {
//!             self.peers.iter().map(|&to| Outgoing::new(to, Hello(42))).collect()
//!         } else {
//!             Vec::new()
//!         }
//!     }
//!     fn receive(&mut self, _round: usize, _from: usize, _msg: Hello) {
//!         self.greeted += 1;
//!     }
//! }
//!
//! let g = nectar_graph::gen::complete(3);
//! let procs = (0..3)
//!     .map(|i| Greeter { id: i, peers: g.neighborhood(i), greeted: 0 })
//!     .collect();
//! let mut net = SyncNetwork::new(procs, g);
//! net.run_rounds(1);
//! assert!(net.processes().iter().all(|p| p.greeted == 2));
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod fault;
pub mod metrics;
pub mod parallel;
pub mod process;
pub mod schedule;
pub mod sync;
#[cfg(test)]
pub(crate) mod testkit;
pub mod transport;

pub use event::{run_event_driven, EventNetwork};
pub use fault::{Mute, Muted};
pub use metrics::{Metrics, PhaseProfile};
pub use parallel::{parallel_map, resolve_workers};
pub use process::{NodeId, Outgoing, Process, WireSized};
pub use schedule::{CompiledSchedule, ScheduleError, Scheduled, TopologySchedule};
pub use sync::SyncNetwork;
pub use transport::{
    run_over_loopback, ConnectConfig, DeliveryLog, LoopbackHub, LoopbackTransport, NodeDriver,
    Recorded, SendRecord, SocketTransport, Transport, TransportError,
};
