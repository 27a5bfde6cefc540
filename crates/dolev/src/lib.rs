//! Signature-free partition detection à la Dolev.
//!
//! **Place in the runtime stack:** a sibling protocol layer. [`UnsignedNode`]
//! implements the same `nectar_net::Process` contract as NECTAR's nodes
//! (including the quiescence hint the event-driven runtime schedules by),
//! so the signature-free detector runs unchanged on all three runtimes and
//! decides through the same `ConnectivityOracle`.
//!
//! NECTAR's conclusion (§VII) speculates that Byzantine partition detection
//! "can be accomplished without signatures in synchronous networks, albeit
//! at a significant cost". This crate explores that conjecture
//! constructively, using the path-vector reliable-communication idea of
//! Dolev (FOCS 1981) that the paper surveys in §VI-B:
//!
//! * every flooded message carries the **path of nodes it traversed**;
//! * point-to-point channels authenticate only the *immediate* sender, so a
//!   Byzantine relay can fabricate everything about a path except its own
//!   final position in it;
//! * a receiver *delivers* a claim once the paths collected for it contain
//!   **t + 1 internally vertex-disjoint** routes from the claim's origin —
//!   with at most `t` Byzantine nodes, at least one of those routes is
//!   all-correct (Menger, as in the paper's Lemma 1).
//!
//! [`UnsignedNode`] runs NECTAR's edge-dissemination/decision skeleton on
//! top of this primitive ([`dissemination`]), accepting an edge only when
//! **both** endpoints' announcements were reliably delivered (without
//! signatures there are no neighborhood proofs, so one correct endpoint can
//! no longer vouch for an edge on its own).
//!
//! The experiment in `nectar-bench` (`unsigned_cost`) quantifies the
//! conjecture's "significant cost": the number of transported paths grows
//! with the number of simple paths in the graph (`O(n!)` worst case, as the
//! paper notes), against NECTAR's `O(n⁴)` total messages. The trade-offs in
//! assumptions are equally sharp — see [`detector`] for the exact
//! guarantees this variant retains and loses.

#![forbid(unsafe_code)]

pub mod detector;
pub mod dissemination;

pub use detector::{UnsignedConfig, UnsignedNode};
pub use dissemination::{ClaimId, PathMsg, PathStore};
