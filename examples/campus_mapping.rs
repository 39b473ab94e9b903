//! Campus sensor-field mapping: which agent algorithm should survey an
//! unknown deployment, and how many agents are worth dispatching?
//!
//! The scenario from the paper's introduction: a fresh wireless
//! deployment (here, a campus sensor field) whose topology nobody knows.
//! Mobile agents hop between sensors and cooperatively build the map
//! every higher-order service depends on.
//!
//! ```text
//! cargo run --release --example campus_mapping
//! ```

use agentnet::core::mapping::{MappingConfig, MappingSim};
use agentnet::core::policy::MappingPolicy;
use agentnet::engine::rng::SeedSequence;
use agentnet::engine::table::Table;
use agentnet::engine::{Executor, Summary};
use agentnet::graph::generators::GeometricConfig;
use agentnet::graph::geometry::Rect;
use agentnet::graph::DiGraph;

fn survey(graph: &DiGraph, policy: MappingPolicy, team: usize, stigmergic: bool) -> Summary {
    let samples =
        Executor::new(0).run_cells("campus_mapping", 0, 10, SeedSequence::new(99), |_, seeds| {
            let config = MappingConfig::new(policy, team).stigmergic(stigmergic);
            let mut sim =
                MappingSim::new(graph.clone(), config, seeds.seed()).expect("valid survey config");
            let out = sim.run(1_000_000);
            assert!(out.finished, "survey did not finish");
            out.finishing_time.as_f64()
        });
    Summary::from_samples(samples).expect("replicates ran")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 200-sensor deployment over a 800 m x 500 m campus.
    let net = GeometricConfig::new(200, 1400).with_arena(Rect::new(800.0, 500.0)).generate(2024)?;
    println!(
        "campus deployment: {} sensors, {} directed radio links\n",
        net.graph.node_count(),
        net.graph.edge_count()
    );

    let mut table = Table::new(["team", "algorithm", "survey time (steps)", "spread (std)"]);
    for team in [1usize, 4, 12, 24] {
        for (name, policy, stig) in [
            ("random", MappingPolicy::Random, false),
            ("conscientious", MappingPolicy::Conscientious, false),
            ("conscientious + footprints", MappingPolicy::Conscientious, true),
            ("super-conscientious + footprints", MappingPolicy::SuperConscientious, true),
        ] {
            let s = survey(&net.graph, policy, team, stig);
            table.push_row([
                team.to_string(),
                name.to_string(),
                format!("{:.0}", s.mean),
                format!("{:.0}", s.std),
            ]);
        }
    }
    println!("{}", table.to_markdown());
    println!(
        "Reading the table: footprints let the team spread out, so the survey\n\
         time keeps dropping as you add agents — dispatch a dozen stigmergic\n\
         super-conscientious agents rather than one sophisticated one."
    );
    Ok(())
}
