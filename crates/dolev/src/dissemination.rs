//! Dolev-style path-vector dissemination (the §VI-B related-work
//! primitive, FOCS 1981).
//!
//! A *claim* (here: "edge `(u, v)` exists", announced by endpoint `origin`)
//! floods through the network inside [`PathMsg`]s that record the exact
//! sequence of nodes traversed. Receivers accumulate paths per claim in a
//! [`PathStore`] and deliver once the paths witness `t + 1` internally
//! vertex-disjoint routes from the origin — computed with the same
//! max-flow/Menger machinery as NECTAR's decision phase.

use std::collections::{BTreeMap, BTreeSet};

use nectar_net::{NodeId, WireSized};

/// Identifies a claim: the undirected edge being announced plus the
/// announcing endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClaimId {
    /// Announcing endpoint (must be one of the edge endpoints).
    pub origin: NodeId,
    /// The undirected edge, endpoints normalized (`min, max`).
    pub edge: (u16, u16),
}

impl ClaimId {
    /// Builds the claim id with normalized endpoints.
    pub fn new(origin: NodeId, a: u16, b: u16) -> Self {
        ClaimId { origin, edge: (a.min(b), a.max(b)) }
    }
}

/// A path-vector message: the claim plus the node sequence it traversed,
/// starting at the origin and ending with the latest relay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathMsg {
    /// What is being claimed.
    pub claim: ClaimId,
    /// Traversal path, `path[0] == claim.origin`, `path.last()` = sender.
    pub path: Vec<NodeId>,
}

/// Per-message framing overhead (claim id, edge, length prefix).
pub const PATH_MSG_HEADER_BYTES: usize = 8;

impl WireSized for PathMsg {
    fn wire_bytes(&self) -> usize {
        PATH_MSG_HEADER_BYTES + 2 * self.path.len()
    }
}

impl PathMsg {
    /// Structural sanity from the point of view of node `me` receiving the
    /// message from direct neighbor `from`:
    ///
    /// * the claimed origin is an endpoint of the claimed edge (the only
    ///   shape a correct announcer produces),
    /// * the path starts at the claim's origin,
    /// * the path ends with `from` (channels authenticate the immediate
    ///   sender; everything earlier may be Byzantine fiction),
    /// * the path is simple and does not already contain `me`.
    pub fn plausible_for(&self, me: NodeId, from: NodeId) -> bool {
        let origin = self.claim.origin;
        let (a, b) = self.claim.edge;
        if origin != a as NodeId && origin != b as NodeId {
            return false;
        }
        if self.path.first() != Some(&origin) || self.path.last() != Some(&from) {
            return false;
        }
        if self.path.contains(&me) {
            return false;
        }
        let mut seen = BTreeSet::new();
        self.path.iter().all(|&n| seen.insert(n))
    }

    /// The message a relay forwards: same claim, path extended by `me`.
    pub fn extended_by(&self, me: NodeId) -> PathMsg {
        let mut path = self.path.clone();
        path.push(me);
        PathMsg { claim: self.claim, path }
    }
}

/// Collects paths per claim and decides delivery.
#[derive(Debug, Clone, Default)]
pub struct PathStore {
    /// All distinct accepted paths, per claim.
    paths: BTreeMap<ClaimId, BTreeSet<Vec<NodeId>>>,
}

impl PathStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PathStore::default()
    }

    /// Records a path for a claim; returns `true` if it was new.
    pub fn insert(&mut self, claim: ClaimId, path: Vec<NodeId>) -> bool {
        self.paths.entry(claim).or_default().insert(path)
    }

    /// Number of distinct paths stored for a claim.
    pub fn path_count(&self, claim: &ClaimId) -> usize {
        self.paths.get(claim).map_or(0, BTreeSet::len)
    }

    /// Whether node `me` delivers the claim: `true` once the stored paths
    /// contain `t + 1` pairwise internally-disjoint *received paths* from
    /// the origin. Recomputed on every call; the predicate is monotone in
    /// the stored paths.
    ///
    /// The disjointness test deliberately works over whole received paths,
    /// **not** over the union graph of their edges: in the union, a
    /// Byzantine relay could splice a fabricated prefix (fake edges between
    /// correct nodes) onto the real suffix of another path and mint a
    /// phantom Byzantine-free route — the `fabricated_prefixes_cannot_splice`
    /// test demonstrates the attack. Over whole paths, every path carrying a
    /// false claim contains at least one Byzantine relay, so `t` Byzantine
    /// nodes can never populate `t + 1` disjoint ones (pigeonhole — Dolev's
    /// original argument).
    pub fn deliverable(&self, claim: ClaimId, me: NodeId, t: usize) -> bool {
        if claim.origin == me {
            return false;
        }
        let Some(paths) = self.paths.get(&claim) else {
            return false;
        };
        // Direct reception from the origin is a route with no interior
        // nodes: nothing can sever it, deliver immediately (Dolev's base
        // case).
        if paths.contains(&vec![claim.origin]) {
            return true;
        }
        let interiors: Vec<BTreeSet<NodeId>> =
            paths.iter().map(|p| p.iter().copied().skip(1).collect()).collect();
        find_disjoint(&interiors, t + 1)
    }

    /// All claims for which at least one path was stored.
    pub fn claims(&self) -> impl Iterator<Item = &ClaimId> {
        self.paths.keys()
    }

    /// Total number of stored paths across claims (cost diagnostics).
    pub fn total_paths(&self) -> usize {
        self.paths.values().map(BTreeSet::len).sum()
    }
}

/// Backtracking search for `needed` pairwise-disjoint interior sets.
///
/// Deciding the *maximum* number of pairwise-disjoint paths in a list is
/// NP-hard in general, but we only need to know whether `t + 1` exist, with
/// small `t` — the search picks/skips each path with a remaining-count
/// prune, which is instantaneous at the path-count caps the store enforces.
fn find_disjoint(interiors: &[BTreeSet<NodeId>], needed: usize) -> bool {
    fn rec(
        interiors: &[BTreeSet<NodeId>],
        idx: usize,
        used: &mut BTreeSet<NodeId>,
        left: usize,
    ) -> bool {
        if left == 0 {
            return true;
        }
        if interiors.len() - idx < left {
            return false;
        }
        // Skip this path.
        if rec(interiors, idx + 1, used, left) {
            return true;
        }
        // Or take it, if disjoint from the selection so far.
        if interiors[idx].iter().all(|v| !used.contains(v)) {
            let added: Vec<NodeId> = interiors[idx].iter().copied().collect();
            used.extend(added.iter().copied());
            if rec(interiors, idx + 1, used, left - 1) {
                return true;
            }
            for v in added {
                used.remove(&v);
            }
        }
        false
    }
    let mut used = BTreeSet::new();
    rec(interiors, 0, &mut used, needed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plausibility_checks_all_invariants() {
        let claim = ClaimId::new(0, 0, 1);
        let good = PathMsg { claim, path: vec![0, 2, 3] };
        assert!(good.plausible_for(4, 3));
        // Wrong sender at the tail.
        assert!(!good.plausible_for(4, 2));
        // Receiver already on the path.
        assert!(!good.plausible_for(2, 3));
        // Path must start at the origin.
        let bad_start = PathMsg { claim, path: vec![2, 3] };
        assert!(!bad_start.plausible_for(4, 3));
        // The origin must be an endpoint of the claimed edge, even when
        // the path is otherwise well-shaped.
        let bad_origin = PathMsg { claim: ClaimId::new(5, 0, 1), path: vec![5, 2, 3] };
        assert!(!bad_origin.plausible_for(4, 3));
        // Paths must be simple.
        let looped = PathMsg { claim, path: vec![0, 2, 0, 3] };
        assert!(!looped.plausible_for(4, 3));
    }

    #[test]
    fn extension_appends_self() {
        let claim = ClaimId::new(0, 0, 1);
        let msg = PathMsg { claim, path: vec![0, 2] };
        assert_eq!(msg.extended_by(7).path, vec![0, 2, 7]);
    }

    #[test]
    fn direct_reception_delivers_immediately() {
        let claim = ClaimId::new(0, 0, 1);
        let mut store = PathStore::new();
        store.insert(claim, vec![0]);
        assert!(store.deliverable(claim, 5, 3));
    }

    #[test]
    fn delivery_requires_t_plus_one_disjoint_paths() {
        let claim = ClaimId::new(0, 0, 1);
        let mut store = PathStore::new();
        // Two paths sharing interior node 2: only 1 disjoint route.
        store.insert(claim, vec![0, 2, 3]);
        store.insert(claim, vec![0, 2, 4]);
        assert!(!store.deliverable(claim, 5, 1));
        // A second, disjoint route arrives: delivers at t = 1.
        store.insert(claim, vec![0, 3]);
        assert!(store.deliverable(claim, 5, 1));
    }

    #[test]
    fn byzantine_fabricated_paths_through_one_relay_do_not_deliver() {
        // Byzantine node 9 fabricates many "different" paths — but all end
        // with 9 (it cannot forge its immediate-sender position), so they
        // share the interior vertex 9 and never witness 2 disjoint routes.
        let claim = ClaimId::new(0, 0, 1);
        let mut store = PathStore::new();
        for mid in [2usize, 3, 4, 5] {
            store.insert(claim, vec![0, mid, 9]);
        }
        assert_eq!(store.path_count(&claim), 4);
        assert!(!store.deliverable(claim, 7, 1));
    }

    #[test]
    fn fabricated_prefixes_cannot_splice() {
        // The attack that defeats a union-graph disjointness check: the
        // Byzantine relay 9 fabricates the prefix edge (0, 5) in path
        // [0,5,9], while correct node 5 relays [0,9,5] (which it received
        // from 9). In the union of edges those paths contain two
        // vertex-disjoint routes 0-5-me and 0-9-me — but as *whole paths*
        // they share the Byzantine interior node 9, so Dolev's criterion
        // correctly refuses delivery at t = 1.
        let claim = ClaimId::new(0, 0, 1);
        let mut store = PathStore::new();
        store.insert(claim, vec![0, 5, 9]);
        store.insert(claim, vec![0, 9, 5]);
        assert!(!store.deliverable(claim, 7, 1));
    }

    #[test]
    fn three_disjoint_paths_deliver_at_t_two() {
        let claim = ClaimId::new(0, 0, 1);
        let mut store = PathStore::new();
        store.insert(claim, vec![0, 2]);
        store.insert(claim, vec![0, 3]);
        store.insert(claim, vec![0, 4, 5]);
        // Overlapping decoys should not confuse the search.
        store.insert(claim, vec![0, 2, 3]);
        store.insert(claim, vec![0, 5, 2]);
        assert!(!store.deliverable(claim, 7, 3), "only 3 disjoint paths, t+1 = 4");
        assert!(store.deliverable(claim, 7, 2));
    }

    #[test]
    fn wire_size_scales_with_path_length() {
        let claim = ClaimId::new(0, 0, 1);
        let short = PathMsg { claim, path: vec![0] };
        let long = PathMsg { claim, path: vec![0, 1, 2, 3] };
        assert_eq!(short.wire_bytes(), PATH_MSG_HEADER_BYTES + 2);
        assert_eq!(long.wire_bytes(), PATH_MSG_HEADER_BYTES + 8);
    }

    #[test]
    fn duplicate_paths_are_not_stored_twice() {
        let claim = ClaimId::new(0, 0, 1);
        let mut store = PathStore::new();
        assert!(store.insert(claim, vec![0, 2]));
        assert!(!store.insert(claim, vec![0, 2]));
        assert_eq!(store.total_paths(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random path sets where every path contains at least one node from a
    /// designated Byzantine set of size `t` — the shape of every path that
    /// can exist for a *false* claim.
    fn byz_tainted_paths(t: usize) -> impl Strategy<Value = (Vec<Vec<NodeId>>, usize)> {
        let byz: Vec<NodeId> = (100..100 + t).collect();
        proptest::collection::vec(
            (
                proptest::collection::vec(1usize..60, 0..4),
                0..t.max(1),
                proptest::collection::vec(1usize..60, 0..4),
            ),
            1..12,
        )
        .prop_map(move |specs| {
            let paths = specs
                .into_iter()
                .map(|(pre, byz_idx, post)| {
                    // origin 0, then a prefix, one Byzantine node, a suffix.
                    let mut path = vec![0usize];
                    path.extend(pre);
                    path.push(byz[byz_idx.min(byz.len() - 1)]);
                    path.extend(post);
                    // Make the path simple by deduplicating in order.
                    let mut seen = BTreeSet::new();
                    path.retain(|&v| seen.insert(v));
                    path
                })
                .collect();
            (paths, t)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Soundness: if every stored path passes through one of `t`
        /// Byzantine nodes, delivery at budget `t` is impossible — no false
        /// claim can ever be delivered (Dolev's pigeonhole argument).
        #[test]
        fn tainted_path_sets_never_deliver((paths, t) in byz_tainted_paths(3)) {
            let claim = ClaimId::new(0, 0, 1);
            let mut store = PathStore::new();
            for p in paths {
                store.insert(claim, p);
            }
            prop_assert!(!store.deliverable(claim, 99, t));
        }

        /// Completeness: t + 1 constructed disjoint paths always deliver, no
        /// matter how many overlapping decoys accompany them.
        #[test]
        fn disjoint_paths_always_deliver(
            t in 0usize..4,
            decoys in proptest::collection::vec(proptest::collection::vec(10usize..30, 1..5), 0..8),
        ) {
            let claim = ClaimId::new(0, 0, 1);
            let mut store = PathStore::new();
            // t + 1 pairwise-disjoint paths: interiors {10i+1, 10i+2}.
            for i in 0..=t {
                store.insert(claim, vec![0, 100 + 10 * i, 101 + 10 * i]);
            }
            for d in decoys {
                let mut path = vec![0usize];
                let mut seen = BTreeSet::from([0usize]);
                for v in d {
                    if seen.insert(v) {
                        path.push(v);
                    }
                }
                store.insert(claim, path);
            }
            prop_assert!(store.deliverable(claim, 9999, t));
        }

        /// Delivery is monotone: adding paths never undoes deliverability.
        #[test]
        fn delivery_is_monotone(
            extra in proptest::collection::vec(proptest::collection::vec(1usize..50, 1..4), 0..6),
        ) {
            let claim = ClaimId::new(0, 0, 1);
            let mut store = PathStore::new();
            store.insert(claim, vec![0, 2]);
            store.insert(claim, vec![0, 3]);
            prop_assert!(store.deliverable(claim, 60, 1));
            for e in extra {
                let mut path = vec![0usize];
                let mut seen = BTreeSet::from([0usize]);
                for v in e {
                    if seen.insert(v) {
                        path.push(v);
                    }
                }
                store.insert(claim, path);
            }
            prop_assert!(store.deliverable(claim, 60, 1));
        }
    }
}
