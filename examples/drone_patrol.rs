//! Drone patrol: the paper's motivating scenario (Fig. 2).
//!
//! ```text
//! cargo run -p nectar --example drone_patrol
//! ```
//!
//! Two drone squadrons patrol around two barycenters that drift apart.
//! At every step the squadrons run NECTAR to learn whether their mesh
//! network *could* be severed by `t` compromised drones — and fall back to
//! a rally order before the split actually happens.

use nectar::graph::gen;
use nectar::graph::rng::Rng;
use nectar::prelude::*;

fn main() -> Result<(), nectar::graph::GraphError> {
    let n = 20;
    let radius = 2.4;
    let t = 1;
    let mut rng = Rng::seed_from_u64(42);

    println!("drone patrol: {n} drones, scope {radius}, tolerating t = {t} compromised drone\n");
    println!("{:>5} {:>7} {:>6} {:>20} {:>10}", "d", "edges", "κ", "verdict", "confirmed");

    // One swarm, sampled once; the second squadron then drifts away step by
    // step (rather than re-sampling a fresh swarm at every distance).
    let base = gen::drone_scenario(n, 0.0, radius, &mut rng)?;
    for step in 0..=12 {
        let d = step as f64 * 0.5;
        let placement = base.with_second_cluster_shift(d);
        let graph = placement.graph.clone();
        let edges = graph.edge_count();
        let kappa = connectivity::vertex_connectivity(&graph);
        let outcome = Scenario::new(graph, t).sim().run();
        let verdict = outcome.unanimous_verdict().expect("correct nodes agree");
        let confirmed = outcome.decisions().values().next().expect("non-empty").confirmed;
        println!("{d:>5.1} {edges:>7} {kappa:>6} {verdict:>20} {confirmed:>10}");
        if confirmed {
            println!("\n>>> partition confirmed at d = {d}: issuing rally order, both");
            println!(">>> squadrons return to base on their own side.");
            break;
        }
    }
    println!(
        "\nNote how PARTITIONABLE appears well before the actual split: as the\n\
         squadrons drift apart the mesh thins to κ ≤ t long before it breaks,\n\
         which is exactly the early warning NECTAR is designed to give."
    );
    Ok(())
}
