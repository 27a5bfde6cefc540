//! Mobility generators: dynamic-network scenarios as *emitted*
//! [`TopologySchedule`]s.
//!
//! The scenario layer (`crate::scenario`) makes large dynamic networks
//! expressible in one config line because everything here is a **pure
//! seeded function**: the same `(spec, seed)` always yields the same base
//! graph and the same schedule, on every machine and every runtime — the
//! same determinism leg the multi-process fleet stands on (topologies and
//! keys as pure functions of the seed, `docs/DETERMINISM.md` §7). Three
//! generator families:
//!
//! * [`waypoint`] — random-waypoint motion over a geometric graph (the
//!   drone-swarm regime of §V-D, set moving): nodes walk toward random
//!   waypoints, the radio graph at each round is the in-range pairs, and
//!   the emitted schedule toggles exactly the edges whose range membership
//!   changes between rounds. The *base* graph is the union of every
//!   round's radio graph, so the schedule only ever touches base edges —
//!   the invariant [`TopologySchedule::compile`] enforces.
//! * [`rolling_churn`] — a staggered drop/heal wave over the base graph's
//!   edge list (shuffled by the seed), the "always something down, never
//!   everything" regime.
//! * [`split_heal`] — the canonical two-cluster experiment: partition the
//!   first half of the node ids away at one round, heal the cut at a
//!   later one.
//!
//! Every generator returns a schedule that compiles against its base
//! graph (pinned by `tests/scenario_conformance.rs`).

use std::collections::BTreeSet;

use nectar_graph::rng::Rng;
use nectar_graph::Graph;
use nectar_net::{NodeId, TopologySchedule};

/// A declarative mobility preset, as written in a scenario file
/// (`mobility waypoint nodes=100 ...`). Parameters that are lengths or
/// speeds are in **milli-units** (integers), so scenario text round-trips
/// exactly — no float formatting in the config format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MobilitySpec {
    /// Random-waypoint motion over a geometric graph. Supplies its own
    /// topology (a scenario using it must not also declare one).
    Waypoint {
        /// Number of nodes.
        nodes: usize,
        /// Radio range, milli-units.
        radius_milli: u64,
        /// Distance walked per round, milli-units.
        speed_milli: u64,
        /// Target mean degree of the round-1 radio graph, milli-nodes
        /// (6000 = 6 neighbors); sizes the arena.
        density_milli: u64,
        /// Rounds of simulated motion; the topology freezes afterwards.
        rounds: usize,
    },
    /// Staggered drop/heal wave over the scenario topology's edges.
    Churn {
        /// Rounds between consecutive edges starting their outage.
        period: usize,
        /// Rounds each edge stays down.
        down: usize,
        /// Last round at which a new outage may start.
        rounds: usize,
    },
    /// Partition the first ⌈n/2⌉ node ids away, then heal the cut.
    SplitHeal {
        /// Round the partition opens (before that round's sends).
        split_round: usize,
        /// Round the partition heals; must exceed `split_round`.
        heal_round: usize,
    },
}

impl MobilitySpec {
    /// Parses the argument words of a `mobility` directive (everything
    /// after the keyword): a preset name followed by `key=value` pairs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending word on malformed input.
    pub fn parse(words: &[&str]) -> Result<MobilitySpec, String> {
        let (preset, rest) = words.split_first().ok_or("mobility needs a preset name")?;
        let mut spec = match *preset {
            "waypoint" => MobilitySpec::Waypoint {
                nodes: 100,
                radius_milli: 2000,
                speed_milli: 400,
                density_milli: 6000,
                rounds: 8,
            },
            "churn" => MobilitySpec::Churn { period: 1, down: 2, rounds: 8 },
            "split-heal" => MobilitySpec::SplitHeal { split_round: 1, heal_round: 3 },
            other => {
                return Err(format!(
                    "unknown mobility preset {other}; expected waypoint, churn or split-heal"
                ));
            }
        };
        for word in rest {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| format!("bad mobility parameter {word}: expected key=value"))?;
            let num = |what: &str| {
                value.parse::<u64>().map_err(|_| format!("bad mobility {what} {value}"))
            };
            match (&mut spec, key) {
                (MobilitySpec::Waypoint { nodes, .. }, "nodes") => *nodes = num("nodes")? as usize,
                (MobilitySpec::Waypoint { radius_milli, .. }, "radius") => {
                    *radius_milli = num("radius")?;
                }
                (MobilitySpec::Waypoint { speed_milli, .. }, "speed") => {
                    *speed_milli = num("speed")?;
                }
                (MobilitySpec::Waypoint { density_milli, .. }, "density") => {
                    *density_milli = num("density")?;
                }
                (MobilitySpec::Waypoint { rounds, .. }, "rounds")
                | (MobilitySpec::Churn { rounds, .. }, "rounds") => {
                    *rounds = num("rounds")? as usize
                }
                (MobilitySpec::Churn { period, .. }, "period") => *period = num("period")? as usize,
                (MobilitySpec::Churn { down, .. }, "down") => *down = num("down")? as usize,
                (MobilitySpec::SplitHeal { split_round, .. }, "at") => {
                    *split_round = num("at")? as usize;
                }
                (MobilitySpec::SplitHeal { heal_round, .. }, "heal") => {
                    *heal_round = num("heal")? as usize;
                }
                _ => return Err(format!("unknown mobility parameter {key} for preset {preset}")),
            }
        }
        Ok(spec)
    }

    /// The directive text after the `mobility` keyword — canonical form,
    /// round-tripping through [`MobilitySpec::parse`].
    pub fn to_directive(&self) -> String {
        match self {
            MobilitySpec::Waypoint { nodes, radius_milli, speed_milli, density_milli, rounds } => {
                format!(
                    "waypoint nodes={nodes} radius={radius_milli} speed={speed_milli} \
                     density={density_milli} rounds={rounds}"
                )
            }
            MobilitySpec::Churn { period, down, rounds } => {
                format!("churn period={period} down={down} rounds={rounds}")
            }
            MobilitySpec::SplitHeal { split_round, heal_round } => {
                format!("split-heal at={split_round} heal={heal_round}")
            }
        }
    }

    /// Whether this preset generates its own base topology (waypoint) or
    /// derives a schedule from the scenario's declared one.
    pub fn supplies_topology(&self) -> bool {
        matches!(self, MobilitySpec::Waypoint { .. })
    }

    /// Generates the schedule (and, for waypoint, the base graph) for
    /// this preset. `base` must be `None` exactly when
    /// [`supplies_topology`](Self::supplies_topology) is true.
    ///
    /// # Errors
    ///
    /// Returns a message on out-of-domain parameters.
    ///
    /// # Panics
    ///
    /// Panics if `base` disagrees with `supplies_topology`.
    pub fn generate(
        &self,
        base: Option<&Graph>,
        seed: u64,
    ) -> Result<(Option<Graph>, TopologySchedule), String> {
        match self {
            MobilitySpec::Waypoint { nodes, radius_milli, speed_milli, density_milli, rounds } => {
                assert!(base.is_none(), "waypoint supplies its own topology");
                let (graph, schedule) = waypoint(
                    *nodes,
                    *radius_milli as f64 / 1000.0,
                    *speed_milli as f64 / 1000.0,
                    *density_milli as f64 / 1000.0,
                    *rounds,
                    seed,
                )?;
                Ok((Some(graph), schedule))
            }
            MobilitySpec::Churn { period, down, rounds } => {
                let base = base.expect("churn derives its schedule from the scenario topology");
                Ok((None, rolling_churn(base, *period, *down, *rounds, seed)?))
            }
            MobilitySpec::SplitHeal { split_round, heal_round } => {
                let base =
                    base.expect("split-heal derives its schedule from the scenario topology");
                Ok((None, split_heal(base, *split_round, *heal_round)?))
            }
        }
    }
}

/// Random-waypoint mobility: `n` nodes placed uniformly in a square arena
/// sized for a mean degree of `density`, each walking `speed` units per
/// round toward a uniformly drawn waypoint (redrawn on arrival). Returns
/// the **base graph** — the union of every round's in-range pairs — and
/// the schedule that replays the motion on it: edges out of range at
/// round 1 open dropped, and every later range-membership flip becomes a
/// `drop`/`heal` at its round. After `rounds` the topology freezes in its
/// last state.
///
/// Pure in `(n, radius, speed, density, rounds, seed)`; the emitted
/// schedule always compiles against the returned base graph.
///
/// # Errors
///
/// Returns a message when `n < 2`, `rounds` is 0 or beyond the `n − 1`
/// round horizon of the scenario the graph supplies (motion past it is
/// never run), or `radius`/`density` is not positive.
pub fn waypoint(
    n: usize,
    radius: f64,
    speed: f64,
    density: f64,
    rounds: usize,
    seed: u64,
) -> Result<(Graph, TopologySchedule), String> {
    if n < 2 {
        return Err(format!("waypoint needs at least 2 nodes, got {n}"));
    }
    if rounds == 0 || rounds > n - 1 {
        return Err(format!(
            "waypoint rounds must be 1 ..= n − 1 = {}, the run's horizon; got {rounds}",
            n - 1
        ));
    }
    if !(radius > 0.0) || !(density > 0.0) || !(speed >= 0.0) {
        return Err(format!(
            "waypoint parameters must be positive (radius {radius}, density {density}, \
             speed {speed})"
        ));
    }
    // Mean degree ≈ n·πr²/side² = density  ⇒  side = r·√(πn/density).
    let side = radius * (std::f64::consts::PI * n as f64 / density).sqrt();
    let mut rng = Rng::seed_from_u64(seed);
    let mut positions: Vec<(f64, f64)> =
        (0..n).map(|_| (rng.next_f64() * side, rng.next_f64() * side)).collect();
    let mut targets: Vec<(f64, f64)> =
        (0..n).map(|_| (rng.next_f64() * side, rng.next_f64() * side)).collect();

    let mut per_round: Vec<BTreeSet<(NodeId, NodeId)>> = Vec::with_capacity(rounds);
    for round in 0..rounds {
        per_round.push(in_range_pairs(&positions, radius, side));
        if round + 1 == rounds {
            break;
        }
        // Walk every node toward its waypoint, in node-id order so the
        // RNG draws for redrawn targets stay a pure function of the seed.
        for i in 0..n {
            let (px, py) = positions[i];
            let (tx, ty) = targets[i];
            let (dx, dy) = (tx - px, ty - py);
            let dist = (dx * dx + dy * dy).sqrt();
            if dist <= speed {
                positions[i] = (tx, ty);
                targets[i] = (rng.next_f64() * side, rng.next_f64() * side);
            } else {
                positions[i] = (px + dx / dist * speed, py + dy / dist * speed);
            }
        }
    }

    let mut base_edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for pairs in &per_round {
        base_edges.extend(pairs.iter().copied());
    }
    let mut graph = Graph::empty(n);
    for &(u, v) in &base_edges {
        graph.add_edge(u, v).expect("in-range pairs are in range");
    }
    let mut schedule = TopologySchedule::new().with_seed(seed);
    for &(u, v) in &base_edges {
        // A base edge starts up; replay its membership flips round by
        // round (round 1 drops model edges not yet in range).
        let mut up = true;
        for (idx, pairs) in per_round.iter().enumerate() {
            let round = idx + 1;
            let present = pairs.contains(&(u, v));
            if present != up {
                schedule = if present {
                    schedule.heal_edge(round, u, v)
                } else {
                    schedule.drop_edge(round, u, v)
                };
                up = present;
            }
        }
    }
    Ok((graph, schedule))
}

/// The in-range pairs of a placement, via grid binning (cells of side
/// `radius`, 9-cell neighborhoods) so large fleets stay `O(n + m)` per
/// round instead of `O(n²)`.
fn in_range_pairs(positions: &[(f64, f64)], radius: f64, side: f64) -> BTreeSet<(NodeId, NodeId)> {
    let cells_per_side = (side / radius).ceil().max(1.0) as i64;
    let cell_of = |x: f64, y: f64| -> (i64, i64) {
        (
            ((x / radius) as i64).clamp(0, cells_per_side - 1),
            ((y / radius) as i64).clamp(0, cells_per_side - 1),
        )
    };
    let mut bins: std::collections::BTreeMap<(i64, i64), Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for (i, &(x, y)) in positions.iter().enumerate() {
        bins.entry(cell_of(x, y)).or_default().push(i);
    }
    let r2 = radius * radius;
    let mut pairs = BTreeSet::new();
    for (&(cx, cy), members) in &bins {
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(neighbors) = bins.get(&(cx + dx, cy + dy)) else { continue };
                for &i in members {
                    for &j in neighbors {
                        if i < j {
                            let (xi, yi) = positions[i];
                            let (xj, yj) = positions[j];
                            let (ex, ey) = (xi - xj, yi - yj);
                            if ex * ex + ey * ey <= r2 {
                                pairs.insert((i, j));
                            }
                        }
                    }
                }
            }
        }
    }
    pairs
}

/// Rolling churn over `base`'s edges: the seed shuffles the edge list,
/// then the `k`-th edge goes down at round `1 + k·period` (while that is
/// `≤ rounds`) and comes back `down` rounds later. Always something is
/// down, never everything — the sustained-flap regime.
///
/// # Errors
///
/// Returns a message when `period`/`down`/`rounds` is zero, `base` has
/// no edges, or an outage would end past the last round a `usize` counts.
pub fn rolling_churn(
    base: &Graph,
    period: usize,
    down: usize,
    rounds: usize,
    seed: u64,
) -> Result<TopologySchedule, String> {
    if period == 0 || down == 0 || rounds == 0 {
        return Err(format!(
            "churn parameters must be at least 1 (period {period}, down {down}, rounds {rounds})"
        ));
    }
    let mut edges: Vec<(NodeId, NodeId)> = base.edges().collect();
    if edges.is_empty() {
        return Err("churn needs a topology with at least one edge".into());
    }
    edges.sort_unstable();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut edges);
    let mut schedule = TopologySchedule::new().with_seed(seed);
    for (k, &(u, v)) in edges.iter().enumerate() {
        // A start round past `usize::MAX` is past `rounds` too.
        let Some(drop_round) = k.checked_mul(period).and_then(|r| r.checked_add(1)) else { break };
        if drop_round > rounds {
            break;
        }
        let heal_round = drop_round.checked_add(down).ok_or_else(|| {
            format!("churn outage from round {drop_round} lasting {down} rounds overflows")
        })?;
        schedule = schedule.drop_edge(drop_round, u, v).heal_edge(heal_round, u, v);
    }
    Ok(schedule)
}

/// The split-heal preset: every edge crossing the `{0, …, ⌈n/2⌉−1}` /
/// rest split goes down at `split_round` and comes back at `heal_round` —
/// the two-cluster partition-then-merge experiment as a schedule.
///
/// # Errors
///
/// Returns a message when the rounds are out of order, `base` is too
/// small, or no edge crosses the split (the halves were never connected,
/// so there is nothing to cut).
pub fn split_heal(
    base: &Graph,
    split_round: usize,
    heal_round: usize,
) -> Result<TopologySchedule, String> {
    let n = base.node_count();
    if n < 2 {
        return Err(format!("split-heal needs at least 2 nodes, got {n}"));
    }
    if split_round == 0 || heal_round <= split_round {
        return Err(format!(
            "split-heal needs 1 ≤ at < heal, got at={split_round} heal={heal_round}"
        ));
    }
    let half = n.div_ceil(2);
    let crossing = base.edges().any(|(u, v)| (u < half) != (v < half));
    if !crossing {
        return Err("split-heal: no edge crosses the first-half split".into());
    }
    Ok(TopologySchedule::new().partition(split_round, 0..half).heal_partition(heal_round, 0..half))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_graph::gen;

    #[test]
    fn waypoint_is_seeded_deterministic_and_compiles() {
        let (g1, s1) = waypoint(40, 2.0, 0.5, 6.0, 10, 7).unwrap();
        let (g2, s2) = waypoint(40, 2.0, 0.5, 6.0, 10, 7).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(s1.to_script(), s2.to_script());
        // The emitted schedule always validates against its base graph.
        let compiled = s1.compile(&g1).expect("waypoint schedule compiles against its base");
        assert_eq!(compiled.base(), &g1);
        // A different seed moves differently.
        let (g3, s3) = waypoint(40, 2.0, 0.5, 6.0, 10, 8).unwrap();
        assert!(g3 != g1 || s3.to_script() != s1.to_script());
    }

    #[test]
    fn waypoint_motion_actually_toggles_edges() {
        // Fast motion in a small arena must flip at least one edge.
        let (_, schedule) = waypoint(24, 1.5, 1.0, 5.0, 12, 3).unwrap();
        assert!(
            schedule.to_script().lines().any(|l| l.starts_with("drop") || l.starts_with("heal")),
            "no membership flip in 12 rounds of fast motion:\n{}",
            schedule.to_script()
        );
    }

    #[test]
    fn waypoint_round_one_graph_is_the_base_minus_round_one_drops() {
        let (base, schedule) = waypoint(30, 2.0, 0.8, 6.0, 6, 11).unwrap();
        let compiled = schedule.compile(&base).unwrap();
        // Every transition the schedule makes touches a base edge, and
        // the round-1 graph is a subgraph of the base.
        let at_one = compiled.graph_at(1);
        for (u, v) in at_one.edges() {
            assert!(base.has_edge(u, v));
        }
    }

    #[test]
    fn waypoint_rejects_out_of_domain_parameters() {
        assert!(waypoint(1, 2.0, 0.5, 6.0, 4, 0).is_err());
        assert!(waypoint(10, 0.0, 0.5, 6.0, 4, 0).is_err());
        assert!(waypoint(10, 2.0, 0.5, 0.0, 4, 0).is_err());
        assert!(waypoint(10, 2.0, 0.5, 6.0, 0, 0).is_err());
        // Motion stops at the n − 1 round horizon of the run.
        assert!(waypoint(10, 2.0, 0.5, 6.0, 9, 0).is_ok());
        assert!(waypoint(10, 2.0, 0.5, 6.0, 10, 0).unwrap_err().contains("n − 1 = 9"));
    }

    #[test]
    fn churn_staggers_and_compiles() {
        let g = gen::harary(4, 12).unwrap();
        let s = rolling_churn(&g, 2, 3, 9, 5).unwrap();
        let compiled = s.compile(&g).expect("churn compiles against its base");
        // Outages start at rounds 1, 3, 5, 7, 9 (period 2, rounds 9).
        let rounds: Vec<usize> = compiled.transition_rounds().collect();
        assert_eq!(rounds.first(), Some(&1));
        assert!(rounds.contains(&3));
        // Deterministic in the seed; different seeds shuffle differently.
        assert_eq!(rolling_churn(&g, 2, 3, 9, 5).unwrap().to_script(), s.to_script());
        assert_ne!(rolling_churn(&g, 2, 3, 9, 6).unwrap().to_script(), s.to_script());
        // Domain errors.
        assert!(rolling_churn(&g, 0, 3, 9, 5).is_err());
        assert!(rolling_churn(&Graph::empty(4), 1, 1, 4, 0).is_err());
        // Round arithmetic never wraps: an outage ending past usize::MAX
        // is an error, a start past it is past `rounds` and never starts.
        assert!(rolling_churn(&g, 1, usize::MAX, 4, 5).unwrap_err().contains("overflows"));
        let sparse = rolling_churn(&g, usize::MAX, 3, 9, 5).unwrap().compile(&g).unwrap();
        assert_eq!(sparse.transition_rounds().collect::<Vec<_>>(), [1, 4]);
    }

    #[test]
    fn split_heal_cuts_the_crossing_edges_and_heals_them() {
        let g = gen::harary(4, 16).unwrap();
        let s = split_heal(&g, 2, 5).unwrap();
        let compiled = s.compile(&g).expect("split-heal compiles against its base");
        // At the split round the halves are disconnected...
        let split = compiled.graph_at(2);
        assert!(split.edges().all(|(u, v)| (u < 8) == (v < 8)));
        // ...and the heal restores the base graph exactly.
        assert_eq!(compiled.graph_at(5), g);
        // Domain errors: inverted rounds, disconnected halves.
        assert!(split_heal(&g, 3, 3).is_err());
        assert!(split_heal(&gen::disjoint_cliques(2, 3), 1, 2).is_err());
    }

    #[test]
    fn mobility_spec_parses_and_round_trips() {
        for spec in [
            MobilitySpec::Waypoint {
                nodes: 48,
                radius_milli: 1500,
                speed_milli: 400,
                density_milli: 6000,
                rounds: 12,
            },
            MobilitySpec::Churn { period: 2, down: 3, rounds: 9 },
            MobilitySpec::SplitHeal { split_round: 1, heal_round: 4 },
        ] {
            let text = spec.to_directive();
            let words: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(MobilitySpec::parse(&words).unwrap(), spec, "{text}");
        }
        // Defaults fill unnamed parameters.
        assert_eq!(
            MobilitySpec::parse(&["churn", "down=4"]).unwrap(),
            MobilitySpec::Churn { period: 1, down: 4, rounds: 8 }
        );
        // Malformed input errors.
        assert!(MobilitySpec::parse(&[]).is_err());
        assert!(MobilitySpec::parse(&["teleport"]).is_err());
        assert!(MobilitySpec::parse(&["churn", "period"]).is_err());
        assert!(MobilitySpec::parse(&["churn", "period=x"]).is_err());
        assert!(MobilitySpec::parse(&["churn", "radius=2"]).is_err());
    }

    #[test]
    fn generate_dispatches_per_preset() {
        let g = gen::harary(4, 10).unwrap();
        let spec = MobilitySpec::Churn { period: 1, down: 1, rounds: 4 };
        let (none, schedule) = spec.generate(Some(&g), 3).unwrap();
        assert!(none.is_none());
        assert!(schedule.compile(&g).is_ok());
        let spec = MobilitySpec::Waypoint {
            nodes: 20,
            radius_milli: 2000,
            speed_milli: 500,
            density_milli: 6000,
            rounds: 5,
        };
        let (base, schedule) = spec.generate(None, 3).unwrap();
        let base = base.expect("waypoint supplies a topology");
        assert!(schedule.compile(&base).is_ok());
        assert!(spec.supplies_topology());
    }
}
