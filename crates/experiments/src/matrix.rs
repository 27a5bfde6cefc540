//! The topology-zoo × attack-zoo experiment matrix (the ROADMAP's
//! "scenario diversity" item).
//!
//! The paper validates NECTAR's claims one hand-picked scenario at a time;
//! this module sweeps them systematically, in the style of the DRFE-R
//! five-family experiments: a declarative [`MatrixSpec`] crosses topology
//! families × system sizes × adversary casts × seeds, runs every trial
//! through the [`Simulation`](nectar_protocol::Simulation) builder (one
//! shared [`ConnectivityOracle`] across the whole sweep, any runtime), and
//! aggregates each cell into [`CellStats`]: detection and
//! false-positive/false-negative counts against per-trial ground truth
//! (`κ(G) ≤ t`, computed on the *real* topology by a private oracle so the
//! protocol's counters stay untouched), the median rounds-to-verdict,
//! message/byte cost and oracle counters. The result is a [`MatrixReport`]
//! that persists exactly like
//! [`RunReport`](nectar_protocol::RunReport) — hand-rolled JSON
//! ([`MatrixReport::to_json`] / [`MatrixReport::from_json`], reusing the
//! protocol crate's recursive-descent reader) — plus a per-cell CSV export
//! ([`MatrixReport::to_csv`], written, never read back), behind the
//! `nectar-cli matrix` subcommand.
//!
//! Every input is derived from `(base_seed, trial)` alone, so a sweep is
//! bit-identical across the sync, event and parallel runtimes at any
//! worker count — `tests/matrix_conformance.rs` pins that, along with the
//! paper-predicted per-cell invariants (zero false positives on `κ > t`
//! cells, detection rate 1.0 on persistent cuts).

use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

use nectar_graph::rng::Rng;
use nectar_graph::{gen, ConnectivityOracle, Graph};
use nectar_net::NodeId;
use nectar_protocol::report::json::{self, Fields};
use nectar_protocol::{ByzantineBehavior, Runtime, Scenario, Verdict, MAX_NODES};

use crate::placements::{
    articulation_byzantine_placement, articulation_falsifier_cast, cut_byzantine_placement,
    random_byzantine_placement,
};

/// Version tag of the persisted matrix-report formats (bumped on
/// incompatible changes; the JSON form carries it).
pub const MATRIX_CODEC_VERSION: u16 = 1;

/// Header of the per-cell CSV stream — one row per matrix cell, the
/// machine-readable form sweep analyses consume.
pub const MATRIX_CSV_HEADER: &str = "family,n,cast,trials,truth_partitionable,detected,\
                                     false_positives,false_negatives,confirmed,\
                                     agreement_failures,median_rounds,total_msgs,total_bytes,\
                                     oracle_queries,oracle_cache_hits";

/// One topology family of the generator zoo, with the parameters that
/// stay fixed while the sweep varies `n` — the only name → generator table
/// in the workspace: scenario files (`topology <family> <n>`), `nectar-cli
/// detect --topology`, `matrix --families` and the §V experiment runners
/// all build their graphs here. Randomized families (BA, WS,
/// random-regular, two-cluster geometric) draw from a per-trial seeded
/// stream, so every cell is reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilySpec {
    /// Harary graph `H_{k,n}` (κ = k exactly).
    Harary {
        /// Connectivity parameter.
        k: usize,
    },
    /// Generalized wheel: `k − 2` hubs over a cycle (κ = k).
    Wheel {
        /// Connectivity parameter (≥ 3).
        k: usize,
    },
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert {
        /// Edges added per arriving node.
        m: usize,
    },
    /// Watts–Strogatz small world.
    WattsStrogatz {
        /// Even ring degree.
        k: usize,
        /// Rewiring probability in per-mille (kept integral so specs stay
        /// `Eq` and the JSON form stays integer-only).
        p_per_mille: u16,
    },
    /// Near-square `rows × cols` grid (the sweep size rounds to the
    /// closest factorization; the cell records the actual `n`).
    Grid,
    /// Near-square torus (wrap-around grid).
    Torus,
    /// Connected random `d`-regular graph.
    RandomRegular {
        /// Node degree.
        d: usize,
    },
    /// Two geometric clusters of drones bridged by proximity.
    TwoCluster,
    /// Logarithmic-Harary `k`-pasted-tree (κ = k, logarithmic diameter).
    PastedTree {
        /// Connectivity parameter.
        k: usize,
    },
    /// Logarithmic-Harary `k`-diamond: two pasted trees sharing leaves.
    Diamond {
        /// Connectivity parameter.
        k: usize,
    },
    /// Generalized wheel whose `k − 2` hubs form a complete bipartite
    /// graph (κ = k, the paper's "few paths" worst case).
    MultipartiteWheel {
        /// Connectivity parameter (≥ 4).
        k: usize,
    },
    /// Cycle `C_n` (Fig. 1a's ring).
    Cycle,
    /// Path `P_n` — the round-count worst case of §IV-B.
    Path,
    /// Star with hub 0 (Fig. 1b's 1-partitionable example).
    Star,
    /// Complete graph `K_n`.
    Complete,
    /// Disjoint 4-cliques (`n` a positive multiple of 4): a maximally
    /// partitioned fleet, the large-n workload of the event runtime.
    Cliques,
}

/// The `topology <family>` / `--families` / `--topology` vocabulary, as
/// quoted by unknown-name errors.
const FAMILY_VOCABULARY: &str = "harary[-kK] | wheel[-kK] | pasted-tree[-kK] | diamond[-kK] | \
     multipartite-wheel[-kK] | random-regular[-dD] | scale-free[-mM] | small-world[-kK-pP] | \
     grid | torus | two-cluster | cycle | path | star | complete | cliques";

impl FamilySpec {
    /// The five connectivity-parameterized families of the paper's §V-B
    /// evaluation at connectivity `k` — the one list behind the §V-C/§V-D
    /// in-text studies and `nectar-cli families`.
    pub fn paper_families(k: usize) -> [FamilySpec; 5] {
        [
            FamilySpec::Harary { k },
            FamilySpec::PastedTree { k },
            FamilySpec::Diamond { k },
            FamilySpec::Wheel { k },
            FamilySpec::MultipartiteWheel { k },
        ]
    }

    /// Stable identifier used in reports, CSV rows and the CLI.
    pub fn name(&self) -> String {
        match self {
            FamilySpec::Harary { k } => format!("harary-k{k}"),
            FamilySpec::Wheel { k } => format!("wheel-k{k}"),
            FamilySpec::BarabasiAlbert { m } => format!("scale-free-m{m}"),
            FamilySpec::WattsStrogatz { k, p_per_mille } => {
                format!("small-world-k{k}-p{p_per_mille}")
            }
            FamilySpec::Grid => "grid".into(),
            FamilySpec::Torus => "torus".into(),
            FamilySpec::RandomRegular { d } => format!("random-regular-d{d}"),
            FamilySpec::TwoCluster => "two-cluster".into(),
            FamilySpec::PastedTree { k } => format!("pasted-tree-k{k}"),
            FamilySpec::Diamond { k } => format!("diamond-k{k}"),
            FamilySpec::MultipartiteWheel { k } => format!("multipartite-wheel-k{k}"),
            FamilySpec::Cycle => "cycle".into(),
            FamilySpec::Path => "path".into(),
            FamilySpec::Star => "star".into(),
            FamilySpec::Complete => "complete".into(),
            FamilySpec::Cliques => "cliques".into(),
        }
    }

    /// Parses an identifier back into its spec — the inverse of
    /// [`name`](Self::name), also accepting the bare family name with its
    /// default parameters (`harary` ≡ `harary-k4`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the vocabulary on unknown names.
    pub fn parse(name: &str) -> Result<FamilySpec, String> {
        let num =
            |s: &str| s.parse::<usize>().map_err(|_| format!("bad parameter {s} in family {name}"));
        // `<base>` alone takes the default parameter, `<base>-<letter><N>`
        // sets it; `None` when `name` is some other family.
        let param = |base: &str, letter: char, default: usize| {
            let tail = name.strip_prefix(base)?;
            if tail.is_empty() {
                return Some(Ok(default));
            }
            tail.strip_prefix('-')?.strip_prefix(letter).map(num)
        };
        if let Some(params) = name.strip_prefix("small-world-k") {
            let (k, p) = params
                .split_once("-p")
                .ok_or_else(|| format!("family {name}: expected small-world-k<K>-p<P>"))?;
            return Ok(FamilySpec::WattsStrogatz { k: num(k)?, p_per_mille: per_mille(p, name)? });
        }
        type Make = fn(usize) -> FamilySpec;
        let parameterized: [(&str, char, usize, Make); 7] = [
            ("harary", 'k', 4, |k| FamilySpec::Harary { k }),
            ("wheel", 'k', 4, |k| FamilySpec::Wheel { k }),
            ("pasted-tree", 'k', 4, |k| FamilySpec::PastedTree { k }),
            ("diamond", 'k', 4, |k| FamilySpec::Diamond { k }),
            ("multipartite-wheel", 'k', 4, |k| FamilySpec::MultipartiteWheel { k }),
            ("random-regular", 'd', 4, |d| FamilySpec::RandomRegular { d }),
            ("scale-free", 'm', 2, |m| FamilySpec::BarabasiAlbert { m }),
        ];
        for (base, letter, default, make) in parameterized {
            if let Some(value) = param(base, letter, default) {
                return Ok(make(value?));
            }
        }
        match name {
            "small-world" => Ok(FamilySpec::WattsStrogatz { k: 4, p_per_mille: 100 }),
            "grid" => Ok(FamilySpec::Grid),
            "torus" => Ok(FamilySpec::Torus),
            "two-cluster" => Ok(FamilySpec::TwoCluster),
            "cycle" => Ok(FamilySpec::Cycle),
            "path" => Ok(FamilySpec::Path),
            "star" => Ok(FamilySpec::Star),
            "complete" => Ok(FamilySpec::Complete),
            "cliques" => Ok(FamilySpec::Cliques),
            _ => Err(format!("unknown family {name}; expected {FAMILY_VOCABULARY}")),
        }
    }

    /// Materializes the family at (approximately) `n` nodes from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the generator's parameter validation as a message (a
    /// family/size combination outside the generator's domain).
    pub fn build(&self, n: usize, seed: u64) -> Result<Graph, String> {
        let mut rng = Rng::seed_from_u64(seed);
        let err = |e: nectar_graph::GraphError| format!("{}: {e}", self.name());
        match self {
            FamilySpec::Harary { k } => gen::harary(*k, n).map_err(err),
            FamilySpec::Wheel { k } => gen::generalized_wheel(*k, n).map_err(err),
            FamilySpec::BarabasiAlbert { m } => gen::barabasi_albert(n, *m, &mut rng).map_err(err),
            FamilySpec::WattsStrogatz { k, p_per_mille } => {
                gen::watts_strogatz(n, *k, *p_per_mille as f64 / 1000.0, &mut rng).map_err(err)
            }
            FamilySpec::Grid => {
                let (rows, cols) = near_square(n);
                Ok(gen::grid(rows, cols))
            }
            FamilySpec::Torus => {
                let (rows, cols) = near_square(n.max(9));
                gen::torus(rows.max(3), cols.max(3)).map_err(err)
            }
            FamilySpec::RandomRegular { d } => {
                // d·n must be even; absorb odd combinations by one node.
                let n = if (*d * n) % 2 == 0 { n } else { n + 1 };
                gen::random_regular_connected(*d, n, &mut rng, 64).map_err(err)
            }
            FamilySpec::TwoCluster => {
                // Close enough (d = 3) that proximity bridges the clusters
                // for most seeds; trials where it does not are exactly the
                // confirmed-partition ground truth the cell counts.
                gen::two_cluster_geometric(n, 3.0, 2.0, 1.5, &mut rng)
                    .map(|placement| placement.graph)
                    .map_err(err)
            }
            FamilySpec::PastedTree { k } => gen::k_pasted_tree(*k, n).map_err(err),
            FamilySpec::Diamond { k } => gen::k_diamond(*k, n).map_err(err),
            FamilySpec::MultipartiteWheel { k } => gen::multipartite_wheel(*k, n, 2).map_err(err),
            FamilySpec::Cycle => Ok(gen::cycle(n)),
            FamilySpec::Path => Ok(gen::path(n)),
            FamilySpec::Star => Ok(gen::star(n)),
            FamilySpec::Complete => Ok(gen::complete(n)),
            FamilySpec::Cliques if n == 0 || n % 4 != 0 => {
                Err(format!("cliques: n must be a positive multiple of 4 (got {n})"))
            }
            FamilySpec::Cliques => Ok(gen::disjoint_cliques(n / 4, 4)),
        }
    }
}

/// The refusal of an `n`-node topology above [`MAX_NODES`], shared by
/// [`MatrixSpec::run`] and the scenario compiler.
pub(crate) fn over_node_limit(n: usize) -> String {
    format!("{n} nodes exceed the {MAX_NODES}-node limit (node ids are u16 on the wire)")
}

/// Near-square factorization `rows × cols` with `rows · cols ≥ n` and both
/// sides ≥ 2 — the grid/torus size adapter.
fn near_square(n: usize) -> (usize, usize) {
    let rows = (1..).take_while(|r| r * r <= n.max(4)).last().unwrap_or(2).max(2);
    (rows, n.max(4).div_ceil(rows))
}

/// One adversary cast of the attack zoo, as placed per trial. Placements
/// use the full Byzantine budget `t` of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CastSpec {
    /// No adversary — the baseline column.
    Honest,
    /// `t` silent nodes on a random placement.
    SilentRandom,
    /// `t` silent nodes on the min-cut placement (they *are* the cut when
    /// one of size ≤ t exists).
    SilentCut,
    /// `t` equivocators on a random placement, starving every neighbor.
    EquivocateRandom,
    /// `t` partner-free data falsifiers on the articulation placement:
    /// measurements flip "down" only, so the view can only shrink.
    FalsifyArticulation {
        /// Per-measurement flip probability in per-mille.
        flips_per_mille: u16,
    },
    /// `t` colluding data falsifiers on the articulation placement: "down"
    /// flips plus fabricated "up" measurements among the cast.
    FalsifyColluding {
        /// Per-measurement flip probability in per-mille.
        flips_per_mille: u16,
    },
}

/// A `-p<P>` parameter in per mille: `0..=1000`, refused (never clamped)
/// above, so a name always means the rate it spells.
fn per_mille(p: &str, name: &str) -> Result<u16, String> {
    match p.parse::<u16>() {
        Ok(value) if value <= 1000 => Ok(value),
        _ => Err(format!("bad parameter p{p} in {name}: expected a per-mille rate in 0..=1000")),
    }
}

impl CastSpec {
    /// Stable identifier used in reports, CSV rows and the CLI.
    pub fn name(&self) -> String {
        match self {
            CastSpec::Honest => "honest".into(),
            CastSpec::SilentRandom => "silent-random".into(),
            CastSpec::SilentCut => "silent-cut".into(),
            CastSpec::EquivocateRandom => "equivocate-random".into(),
            CastSpec::FalsifyArticulation { flips_per_mille } => {
                format!("falsify-articulation-p{flips_per_mille}")
            }
            CastSpec::FalsifyColluding { flips_per_mille } => {
                format!("falsify-colluding-p{flips_per_mille}")
            }
        }
    }

    /// Parses an identifier back into its spec — the inverse of
    /// [`name`](Self::name), also accepting the bare cast name with its
    /// default flip rate (`falsify-articulation` ≡
    /// `falsify-articulation-p800`). This is the `nectar-cli matrix
    /// --casts` vocabulary.
    ///
    /// # Errors
    ///
    /// Returns a message listing the vocabulary on unknown names.
    pub fn parse(name: &str) -> Result<CastSpec, String> {
        match name {
            "honest" => Ok(CastSpec::Honest),
            "silent-random" => Ok(CastSpec::SilentRandom),
            "silent-cut" => Ok(CastSpec::SilentCut),
            "equivocate-random" => Ok(CastSpec::EquivocateRandom),
            "falsify-articulation" => Ok(CastSpec::FalsifyArticulation { flips_per_mille: 800 }),
            "falsify-colluding" => Ok(CastSpec::FalsifyColluding { flips_per_mille: 800 }),
            _ => {
                if let Some(p) = name.strip_prefix("falsify-articulation-p") {
                    return Ok(CastSpec::FalsifyArticulation {
                        flips_per_mille: per_mille(p, name)?,
                    });
                }
                if let Some(p) = name.strip_prefix("falsify-colluding-p") {
                    return Ok(CastSpec::FalsifyColluding { flips_per_mille: per_mille(p, name)? });
                }
                Err(format!(
                    "unknown cast {name}; expected honest | silent-random | silent-cut | \
                     equivocate-random | falsify-articulation[-pP] | falsify-colluding[-pP]"
                ))
            }
        }
    }

    /// Places this cast on `g` with budget `t` from `seed`.
    pub fn cast(&self, g: &Graph, t: usize, seed: u64) -> Vec<(NodeId, ByzantineBehavior)> {
        let t = t.min(g.node_count());
        match self {
            CastSpec::Honest => Vec::new(),
            CastSpec::SilentRandom => random_byzantine_placement(g, t, seed)
                .into_iter()
                .map(|node| (node, ByzantineBehavior::Silent))
                .collect(),
            CastSpec::SilentCut => cut_byzantine_placement(g, t, seed)
                .into_iter()
                .map(|node| (node, ByzantineBehavior::Silent))
                .collect(),
            CastSpec::EquivocateRandom => random_byzantine_placement(g, t, seed)
                .into_iter()
                .map(|node| {
                    let victims: BTreeSet<NodeId> = g.neighbors(node).collect();
                    (node, ByzantineBehavior::Equivocate { victims })
                })
                .collect(),
            CastSpec::FalsifyArticulation { flips_per_mille } => {
                articulation_byzantine_placement(g, t, seed)
                    .into_iter()
                    .map(|node| {
                        (
                            node,
                            ByzantineBehavior::FalsifyData {
                                flips_per_mille: *flips_per_mille,
                                seed,
                                partners: vec![],
                            },
                        )
                    })
                    .collect()
            }
            CastSpec::FalsifyColluding { flips_per_mille } => {
                articulation_falsifier_cast(g, t, *flips_per_mille, seed)
            }
        }
    }
}

/// The declarative sweep: families × sizes × casts, each cell sampled over
/// `trials` seeded trials with Byzantine budget `t`, executed on `runtime`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixSpec {
    /// Topology-family axis.
    pub families: Vec<FamilySpec>,
    /// System-size axis (approximate for grid/torus — see
    /// [`FamilySpec::build`]).
    pub sizes: Vec<usize>,
    /// Adversary-cast axis.
    pub casts: Vec<CastSpec>,
    /// Byzantine budget per trial.
    pub t: usize,
    /// Trials per cell (trial `i` everywhere derives from seed
    /// `base_seed + i`, wrapping at `u64::MAX`).
    pub trials: usize,
    /// Base seed of every per-trial stream (graph, placement, keys).
    pub base_seed: u64,
    /// The engine all trials run on (results are bit-identical across
    /// engines; this is recorded for provenance).
    pub runtime: Runtime,
}

impl MatrixSpec {
    /// A small but representative default: three families × two sizes ×
    /// three casts at `t = 2`, 100 trials per cell.
    pub fn reduced() -> MatrixSpec {
        MatrixSpec {
            families: vec![
                FamilySpec::Harary { k: 4 },
                FamilySpec::Wheel { k: 4 },
                FamilySpec::WattsStrogatz { k: 4, p_per_mille: 100 },
            ],
            sizes: vec![12, 16],
            casts: vec![
                CastSpec::Honest,
                CastSpec::SilentCut,
                CastSpec::FalsifyArticulation { flips_per_mille: 800 },
            ],
            t: 2,
            trials: 100,
            base_seed: 0x4D41_5452,
            runtime: Runtime::Sync,
        }
    }

    /// Runs the full sweep: every cell in (family, size, cast) order, every
    /// trial through the `Simulation` builder with one shared oracle.
    ///
    /// # Errors
    ///
    /// Returns a message when a size exceeds [`MAX_NODES`] (before any
    /// graph that large is built), when a family/size combination is
    /// outside its generator's domain or builds more than [`MAX_NODES`]
    /// nodes, or when `t` leaves no correct node on one of the built
    /// graphs (no partial sweeps: all are checked before any trial runs).
    pub fn run(&self) -> Result<MatrixReport, String> {
        if let Some(&n) = self.sizes.iter().find(|&&n| n > MAX_NODES) {
            return Err(over_node_limit(n));
        }
        // The scenario compiler's node-limit and budget checks, on each
        // built graph: grid, torus and random-regular round n, so the size
        // axis alone cannot decide them.
        for family in &self.families {
            for &n in &self.sizes {
                let nodes = family.build(n, self.base_seed)?.node_count();
                if nodes > MAX_NODES {
                    return Err(format!("{}: {}", family.name(), over_node_limit(nodes)));
                }
                if self.t >= nodes {
                    return Err(format!("t = {} needs fewer than the n = {nodes} nodes", self.t));
                }
            }
        }
        // One oracle for the whole sweep: repeated views across trials and
        // cells answer from cache (the counters land in each cell's stats).
        let mut oracle = ConnectivityOracle::new();
        // Ground truth is computed on the *real* topology by a private
        // oracle, so protocol-side counters stay clean.
        let mut truth_oracle = ConnectivityOracle::new();
        let mut cells = Vec::new();
        for family in &self.families {
            for &n in &self.sizes {
                for cast_spec in &self.casts {
                    let stats =
                        self.run_cell(family, n, cast_spec, &mut oracle, &mut truth_oracle)?;
                    cells.push(MatrixCell {
                        family: family.name(),
                        n,
                        cast: cast_spec.name(),
                        stats,
                    });
                }
            }
        }
        Ok(MatrixReport {
            runtime: self.runtime,
            t: self.t,
            trials: self.trials,
            base_seed: self.base_seed,
            cells,
        })
    }

    /// Runs the `trials` trials of one cell.
    fn run_cell(
        &self,
        family: &FamilySpec,
        n: usize,
        cast_spec: &CastSpec,
        oracle: &mut ConnectivityOracle,
        truth_oracle: &mut ConnectivityOracle,
    ) -> Result<CellStats, String> {
        let mut stats = CellStats::default();
        let mut rounds = Vec::with_capacity(self.trials);
        for trial in 0..self.trials {
            let seed = self.base_seed.wrapping_add(trial as u64);
            let g = family.build(n, seed)?;
            let truth_partitionable = truth_oracle.is_t_partitionable(&g, self.t);
            let mut scenario = Scenario::new(g.clone(), self.t).with_key_seed(seed);
            for (node, behavior) in cast_spec.cast(&g, self.t, seed) {
                scenario = scenario.with_byzantine(node, behavior);
            }
            let report = scenario.sim().runtime(self.runtime).oracle(oracle).run();
            stats.trials += 1;
            if truth_partitionable {
                stats.truth_partitionable += 1;
            }
            if !report.agreement() {
                stats.agreement_failures += 1;
            }
            let any = |verdict: Verdict| report.decisions().values().any(|d| d.verdict == verdict);
            if truth_partitionable && report.unanimous_verdict() == Some(Verdict::Partitionable) {
                stats.detected += 1;
            }
            if !truth_partitionable && any(Verdict::Partitionable) {
                stats.false_positives += 1;
            }
            if truth_partitionable && any(Verdict::NotPartitionable) {
                stats.false_negatives += 1;
            }
            if report.last().any_confirmed() {
                stats.confirmed += 1;
            }
            rounds.push(report.metrics().bytes_per_round().len());
            stats.total_msgs += report.metrics().msgs_sent().iter().sum::<u64>();
            stats.total_bytes += report.metrics().total_bytes_sent();
            stats.oracle_queries += report.oracle().queries;
            stats.oracle_cache_hits += report.oracle().cache_hits;
        }
        rounds.sort_unstable();
        stats.median_rounds = rounds.get(rounds.len() / 2).copied().unwrap_or(0);
        Ok(stats)
    }
}

/// Aggregated counters of one matrix cell. Everything is integral, so cell
/// stats are `Eq`-comparable bit for bit across runtimes and round-trip
/// through the integer-only JSON grammar; [`CellStats::detection_rate`]
/// derives the paper-style ratio on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Trials run in this cell.
    pub trials: usize,
    /// Trials whose real topology satisfies `κ(G) ≤ t` (ground truth:
    /// t-Byzantine partitionable, Corollary 1).
    pub truth_partitionable: usize,
    /// Ground-truth-partitionable trials unanimously reported
    /// `PARTITIONABLE`.
    pub detected: usize,
    /// `κ > t` trials where *any* correct node reported `PARTITIONABLE`.
    pub false_positives: usize,
    /// `κ ≤ t` trials where *any* correct node reported
    /// `NOT_PARTITIONABLE`.
    pub false_negatives: usize,
    /// Trials where some correct node confirmed an actual partition.
    pub confirmed: usize,
    /// Trials where correct nodes disagreed (must stay 0: Agreement).
    pub agreement_failures: usize,
    /// Median over trials of the active-round count — the
    /// rounds-to-verdict proxy (dissemination quiesces when no new edge
    /// moves).
    pub median_rounds: usize,
    /// Messages sent across all trials (all nodes, Byzantine included).
    pub total_msgs: u64,
    /// Bytes sent across all trials.
    pub total_bytes: u64,
    /// Connectivity-oracle queries across all trials' decision phases.
    pub oracle_queries: u64,
    /// Oracle cache hits across all trials' decision phases.
    pub oracle_cache_hits: u64,
}

impl CellStats {
    /// Detected fraction of the ground-truth-partitionable trials (1.0
    /// when the cell has none — nothing to miss).
    pub fn detection_rate(&self) -> f64 {
        if self.truth_partitionable == 0 {
            return 1.0;
        }
        self.detected as f64 / self.truth_partitionable as f64
    }
}

/// One cell of the persisted matrix: the axes it sits on plus its stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Family identifier ([`FamilySpec::name`]).
    pub family: String,
    /// Requested system size (grid/torus cells may have run at the nearest
    /// factorization).
    pub n: usize,
    /// Cast identifier ([`CastSpec::name`]).
    pub cast: String,
    /// Aggregated counters.
    pub stats: CellStats,
}

/// The persisted result of one matrix sweep: provenance (runtime, budget,
/// trials, base seed) plus one [`MatrixCell`] per (family, size, cast)
/// combination, in sweep order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixReport {
    /// The engine the sweep ran on.
    pub runtime: Runtime,
    /// Byzantine budget per trial.
    pub t: usize,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed of the per-trial streams.
    pub base_seed: u64,
    /// Per-cell results.
    pub cells: Vec<MatrixCell>,
}

impl MatrixReport {
    // ---- JSON ----------------------------------------------------------

    /// Serializes the report as a JSON document (loss-free; parsed back by
    /// [`from_json`](Self::from_json)).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        writeln!(w, "{{").expect("writing to String cannot fail");
        writeln!(w, "  \"version\": {MATRIX_CODEC_VERSION},").expect("infallible");
        let workers = match self.runtime {
            Runtime::Parallel { workers } => workers,
            _ => 0,
        };
        writeln!(w, "  \"runtime\": \"{}\", \"workers\": {workers},", self.runtime)
            .expect("infallible");
        writeln!(
            w,
            "  \"t\": {}, \"trials\": {}, \"base_seed\": {},",
            self.t, self.trials, self.base_seed
        )
        .expect("infallible");
        writeln!(w, "  \"cells\": [").expect("infallible");
        for (i, cell) in self.cells.iter().enumerate() {
            let sep = if i + 1 == self.cells.len() { "" } else { "," };
            let s = &cell.stats;
            writeln!(
                w,
                "    {{\"family\": \"{}\", \"n\": {}, \"cast\": \"{}\",",
                json::escape(&cell.family),
                cell.n,
                json::escape(&cell.cast)
            )
            .expect("infallible");
            writeln!(
                w,
                "     \"stats\": {{\"trials\": {}, \"truth_partitionable\": {}, \
                 \"detected\": {}, \"false_positives\": {}, \"false_negatives\": {}, \
                 \"confirmed\": {}, \"agreement_failures\": {}, \"median_rounds\": {}, \
                 \"total_msgs\": {}, \"total_bytes\": {}, \"oracle_queries\": {}, \
                 \"oracle_cache_hits\": {}}}}}{sep}",
                s.trials,
                s.truth_partitionable,
                s.detected,
                s.false_positives,
                s.false_negatives,
                s.confirmed,
                s.agreement_failures,
                s.median_rounds,
                s.total_msgs,
                s.total_bytes,
                s.oracle_queries,
                s.oracle_cache_hits
            )
            .expect("infallible");
        }
        writeln!(w, "  ]").expect("infallible");
        writeln!(w, "}}").expect("infallible");
        out
    }

    /// Parses a report back from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed or version-skewed
    /// input.
    pub fn from_json(input: &str) -> Result<MatrixReport, String> {
        let value = json::parse(input)?;
        let obj = value.as_obj("matrix report")?;
        let version = obj.field("version")?.as_u64("version")?;
        if version != MATRIX_CODEC_VERSION as u64 {
            return Err(format!("unsupported matrix report version {version}"));
        }
        let workers = obj.field("workers")?.as_u64("workers")? as usize;
        let runtime = match obj.field("runtime")?.as_str("runtime")? {
            "parallel" => Runtime::Parallel { workers },
            name => name.parse::<Runtime>()?,
        };
        let t = obj.field("t")?.as_u64("t")? as usize;
        let trials = obj.field("trials")?.as_u64("trials")? as usize;
        let base_seed = obj.field("base_seed")?.as_u64("base_seed")?;
        let mut cells = Vec::new();
        for cell in obj.field("cells")?.as_arr("cells")? {
            let cell = cell.as_obj("cell")?;
            let s = cell.field("stats")?.as_obj("stats")?;
            let count = |key: &str| -> Result<usize, String> {
                s.field(key)?.as_u64(key).map(|v| v as usize)
            };
            let wide = |key: &str| -> Result<u64, String> { s.field(key)?.as_u64(key) };
            cells.push(MatrixCell {
                family: cell.field("family")?.as_str("family")?.to_string(),
                n: cell.field("n")?.as_u64("n")? as usize,
                cast: cell.field("cast")?.as_str("cast")?.to_string(),
                stats: CellStats {
                    trials: count("trials")?,
                    truth_partitionable: count("truth_partitionable")?,
                    detected: count("detected")?,
                    false_positives: count("false_positives")?,
                    false_negatives: count("false_negatives")?,
                    confirmed: count("confirmed")?,
                    agreement_failures: count("agreement_failures")?,
                    median_rounds: count("median_rounds")?,
                    total_msgs: wide("total_msgs")?,
                    total_bytes: wide("total_bytes")?,
                    oracle_queries: wide("oracle_queries")?,
                    oracle_cache_hits: wide("oracle_cache_hits")?,
                },
            });
        }
        Ok(MatrixReport { runtime, t, trials, base_seed, cells })
    }

    /// Writes [`to_json`](Self::to_json) to `path` — the persistence hook
    /// behind `nectar-cli matrix --json <path>`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a report persisted by [`save_json`](Self::save_json).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on I/O or parse failure.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<MatrixReport, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
        Self::from_json(&text)
    }

    // ---- CSV -----------------------------------------------------------

    /// The per-cell stream as CSV: [`MATRIX_CSV_HEADER`], one row per cell
    /// in sweep order. Loss-free for the cells (provenance lives in the
    /// JSON form).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(MATRIX_CSV_HEADER);
        out.push('\n');
        for cell in &self.cells {
            let s = &cell.stats;
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                cell.family,
                cell.n,
                cell.cast,
                s.trials,
                s.truth_partitionable,
                s.detected,
                s.false_positives,
                s.false_negatives,
                s.confirmed,
                s.agreement_failures,
                s.median_rounds,
                s.total_msgs,
                s.total_bytes,
                s.oracle_queries,
                s.oracle_cache_hits
            )
            .expect("writing to String cannot fail");
        }
        out
    }
}

impl fmt::Display for MatrixReport {
    /// A human-readable per-cell summary table (the CLI's default output).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "matrix: {} cells × {} trials, t = {}, runtime {}, seed {}",
            self.cells.len(),
            self.trials,
            self.t,
            self.runtime,
            self.base_seed
        )?;
        writeln!(
            f,
            "{:<24} {:>5} {:<26} {:>6} {:>5} {:>5} {:>7} {:>8}",
            "family", "n", "cast", "detect", "fp", "fn", "rounds", "kB"
        )?;
        for cell in &self.cells {
            let s = &cell.stats;
            writeln!(
                f,
                "{:<24} {:>5} {:<26} {:>6.2} {:>5} {:>5} {:>7} {:>8.1}",
                cell.family,
                cell.n,
                cell.cast,
                s.detection_rate(),
                s.false_positives,
                s.false_negatives,
                s.median_rounds,
                s.total_bytes as f64 / 1024.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec {
            families: vec![FamilySpec::Harary { k: 4 }, FamilySpec::Grid],
            sizes: vec![9],
            casts: vec![CastSpec::Honest, CastSpec::SilentCut],
            t: 1,
            trials: 3,
            base_seed: 5,
            runtime: Runtime::Sync,
        }
    }

    #[test]
    fn sweep_covers_every_cell_in_order() {
        let report = tiny_spec().run().expect("valid spec");
        let keys: Vec<(String, usize, String)> =
            report.cells.iter().map(|c| (c.family.clone(), c.n, c.cast.clone())).collect();
        assert_eq!(
            keys,
            vec![
                ("harary-k4".into(), 9, "honest".into()),
                ("harary-k4".into(), 9, "silent-cut".into()),
                ("grid".into(), 9, "honest".into()),
                ("grid".into(), 9, "silent-cut".into()),
            ]
        );
        for cell in &report.cells {
            assert_eq!(cell.stats.trials, 3);
            assert_eq!(cell.stats.agreement_failures, 0);
            assert!(cell.stats.median_rounds > 0);
            assert!(cell.stats.total_bytes > 0);
        }
    }

    #[test]
    fn trial_seeds_wrap_at_the_top_of_u64() {
        let spec = MatrixSpec { trials: 2, base_seed: u64::MAX, ..tiny_spec() };
        assert_eq!(spec.run().expect("trial 1 runs on seed 0").cells[0].stats.trials, 2);
    }

    #[test]
    fn harary_cells_have_zero_false_positives_and_grids_detect() {
        let report = tiny_spec().run().expect("valid spec");
        // κ(H_{4,9}) = 4 > 1 = t: never partitionable, never a false alarm.
        let harary_silent = &report.cells[1];
        assert_eq!(harary_silent.stats.truth_partitionable, 0);
        assert_eq!(harary_silent.stats.false_positives, 0);
        // κ(grid) = 2 > 1 as well — but the honest column shows it too.
        let grid_honest = &report.cells[2];
        assert_eq!(grid_honest.stats.false_positives, 0);
    }

    #[test]
    fn a_budget_leaving_no_correct_node_is_refused_before_any_trial() {
        let cycle = MatrixSpec {
            families: vec![FamilySpec::Cycle],
            sizes: vec![3],
            t: 5,
            trials: 1,
            ..tiny_spec()
        };
        assert_eq!(cycle.run().unwrap_err(), "t = 5 needs fewer than the n = 3 nodes");
        // The check reads the built graph: a grid rounds n = 3 up to 2 × 2.
        let grid = MatrixSpec {
            families: vec![FamilySpec::Grid],
            casts: vec![CastSpec::Honest],
            t: 3,
            ..cycle
        };
        assert_eq!(grid.run().expect("t = 3 leaves one correct node").cells.len(), 1);
        let grid = MatrixSpec { t: 4, ..grid };
        assert_eq!(grid.run().unwrap_err(), "t = 4 needs fewer than the n = 4 nodes");
    }

    #[test]
    fn sweeps_are_seed_deterministic() {
        let a = tiny_spec().run().expect("valid spec");
        let b = tiny_spec().run().expect("valid spec");
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trips_loss_free() {
        let report = tiny_spec().run().expect("valid spec");
        let parsed = MatrixReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_rejects_version_skew_and_damage() {
        let report = tiny_spec().run().expect("valid spec");
        let json = report.to_json();
        let skewed = json.replace("\"version\": 1", "\"version\": 99");
        assert!(MatrixReport::from_json(&skewed).is_err());
        assert!(MatrixReport::from_json("").is_err());
        assert!(MatrixReport::from_json("{").is_err());
        assert!(MatrixReport::from_json(&json[..json.len() / 2]).is_err());
        let renamed = json.replace("\"cells\"", "\"cels\"");
        assert!(MatrixReport::from_json(&renamed).is_err());
    }

    #[test]
    fn csv_is_the_header_then_one_row_per_cell_in_sweep_order() {
        let golden = format!(
            "{MATRIX_CSV_HEADER}\n\
             harary-k4,9,honest,3,0,0,0,0,0,0,3,324,414234,27,26\n\
             harary-k4,9,silent-cut,3,0,0,0,0,0,0,4,306,373104,24,24\n\
             grid,9,honest,3,0,0,0,0,0,0,4,213,162480,27,26\n\
             grid,9,silent-cut,3,0,0,0,0,0,0,4,212,150064,24,24\n"
        );
        assert_eq!(tiny_spec().run().expect("valid spec").to_csv(), golden);
    }

    #[test]
    fn sizes_past_the_node_limit_are_refused_before_any_graph_is_built() {
        let spec = MatrixSpec {
            families: vec![FamilySpec::Cliques],
            sizes: vec![8, MAX_NODES + 4],
            casts: vec![CastSpec::Honest],
            t: 1,
            trials: 1,
            base_seed: 0,
            runtime: Runtime::Sync,
        };
        let err = spec.run().unwrap_err();
        assert_eq!(
            err,
            format!(
                "{} nodes exceed the {MAX_NODES}-node limit (node ids are u16 on the wire)",
                MAX_NODES + 4
            )
        );
    }

    #[test]
    fn family_names_and_builders_agree_with_the_zoo() {
        let combos = [
            (FamilySpec::Harary { k: 4 }, "harary-k4"),
            (FamilySpec::Wheel { k: 4 }, "wheel-k4"),
            (FamilySpec::BarabasiAlbert { m: 2 }, "scale-free-m2"),
            (FamilySpec::WattsStrogatz { k: 4, p_per_mille: 100 }, "small-world-k4-p100"),
            (FamilySpec::Grid, "grid"),
            (FamilySpec::Torus, "torus"),
            (FamilySpec::RandomRegular { d: 4 }, "random-regular-d4"),
            (FamilySpec::TwoCluster, "two-cluster"),
            (FamilySpec::PastedTree { k: 4 }, "pasted-tree-k4"),
            (FamilySpec::Diamond { k: 4 }, "diamond-k4"),
            (FamilySpec::MultipartiteWheel { k: 4 }, "multipartite-wheel-k4"),
            (FamilySpec::Cycle, "cycle"),
            (FamilySpec::Path, "path"),
            (FamilySpec::Star, "star"),
            (FamilySpec::Complete, "complete"),
            (FamilySpec::Cliques, "cliques"),
        ];
        for (family, name) in combos {
            assert_eq!(family.name(), name);
            let g = family.build(12, 7).expect("12 nodes is in every domain");
            assert!(g.node_count() >= 12, "{name} shrank below the requested size");
            // Randomized families must be seed-deterministic.
            assert_eq!(family.build(12, 7).expect("same domain"), g, "{name} not deterministic");
        }
        // Domain errors surface as messages, not panics.
        assert!(FamilySpec::Harary { k: 4 }.build(3, 0).is_err());
        assert!(FamilySpec::WattsStrogatz { k: 5, p_per_mille: 0 }.build(12, 0).is_err());
        assert!(FamilySpec::PastedTree { k: 3 }.build(4, 0).is_err());
        // cliques must not silently truncate or degenerate to 0 nodes.
        for n in [0, 3, 10] {
            assert!(FamilySpec::Cliques.build(n, 0).is_err(), "cliques {n}");
        }
    }

    #[test]
    fn names_parse_back_to_their_specs() {
        let families = [
            FamilySpec::Harary { k: 5 },
            FamilySpec::Wheel { k: 3 },
            FamilySpec::BarabasiAlbert { m: 3 },
            FamilySpec::WattsStrogatz { k: 6, p_per_mille: 250 },
            FamilySpec::Grid,
            FamilySpec::Torus,
            FamilySpec::RandomRegular { d: 5 },
            FamilySpec::TwoCluster,
            FamilySpec::PastedTree { k: 3 },
            FamilySpec::Diamond { k: 5 },
            FamilySpec::MultipartiteWheel { k: 6 },
            FamilySpec::Cycle,
            FamilySpec::Path,
            FamilySpec::Star,
            FamilySpec::Complete,
            FamilySpec::Cliques,
        ];
        for family in families {
            assert_eq!(FamilySpec::parse(&family.name()).unwrap(), family);
        }
        assert_eq!(FamilySpec::parse("harary").unwrap(), FamilySpec::Harary { k: 4 });
        assert_eq!(FamilySpec::parse("diamond").unwrap(), FamilySpec::Diamond { k: 4 });
        assert_eq!(FamilySpec::paper_families(4)[4], FamilySpec::MultipartiteWheel { k: 4 });
        for bad in ["klein-bottle", "harary-kX", "harary-m4", "wheelbarrow", "small-world-k4"] {
            assert!(FamilySpec::parse(bad).is_err(), "{bad}");
        }
        // A per-mille parameter above 1000 is refused, not clamped to p1000.
        let p1000 = FamilySpec::WattsStrogatz { k: 4, p_per_mille: 1000 };
        assert_eq!(FamilySpec::parse(&p1000.name()).unwrap(), p1000);
        let err = FamilySpec::parse("small-world-k4-p2000").unwrap_err();
        assert!(err.contains("0..=1000"), "{err}");
        let err = CastSpec::parse("falsify-colluding-p5000").unwrap_err();
        assert!(err.contains("0..=1000"), "{err}");
        let casts = [
            CastSpec::Honest,
            CastSpec::SilentRandom,
            CastSpec::SilentCut,
            CastSpec::EquivocateRandom,
            CastSpec::FalsifyArticulation { flips_per_mille: 125 },
            CastSpec::FalsifyColluding { flips_per_mille: 1000 },
        ];
        for cast in casts {
            assert_eq!(CastSpec::parse(&cast.name()).unwrap(), cast);
        }
        assert_eq!(
            CastSpec::parse("falsify-articulation").unwrap(),
            CastSpec::FalsifyArticulation { flips_per_mille: 800 }
        );
        assert!(CastSpec::parse("gaslight").is_err());
    }

    #[test]
    fn casts_place_within_budget_and_name_themselves() {
        let g = gen::harary(4, 12).unwrap();
        let specs = [
            (CastSpec::Honest, "honest", 0usize),
            (CastSpec::SilentRandom, "silent-random", 2),
            (CastSpec::SilentCut, "silent-cut", 2),
            (CastSpec::EquivocateRandom, "equivocate-random", 2),
            (
                CastSpec::FalsifyArticulation { flips_per_mille: 500 },
                "falsify-articulation-p500",
                2,
            ),
            (CastSpec::FalsifyColluding { flips_per_mille: 500 }, "falsify-colluding-p500", 2),
        ];
        for (spec, name, expected) in specs {
            assert_eq!(spec.name(), name);
            let cast = spec.cast(&g, 2, 3);
            assert_eq!(cast.len(), expected, "{name}");
            for (node, _) in &cast {
                assert!(*node < 12);
            }
        }
    }
}
