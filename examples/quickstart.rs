//! Quickstart: map a small wireless network with a team of stigmergic
//! agents, then keep a mobile ad-hoc network routable with oldest-node
//! agents.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use agentnet::core::mapping::{MappingConfig, MappingSim};
use agentnet::core::policy::{MappingPolicy, RoutingPolicy};
use agentnet::core::routing::{RoutingConfig, RoutingProtocol, RoutingSim};
use agentnet::graph::generators::GeometricConfig;
use agentnet::radio::NetworkBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Scenario 1: map an unknown static wireless network. ----------
    // 80 sensors scattered over a square kilometre; heterogeneous radio
    // ranges make the link graph directed.
    let net = GeometricConfig::new(80, 560).generate(7)?;
    println!(
        "generated network: {} nodes, {} directed links, base range {:.0} m",
        net.graph.node_count(),
        net.graph.edge_count(),
        net.base_range
    );

    // Five conscientious agents that leave footprints so they spread out.
    let config = MappingConfig::new(MappingPolicy::Conscientious, 5).stigmergic(true);
    let mut sim = MappingSim::new(net.graph.clone(), config, 1)?;
    let outcome = sim.run(100_000);
    println!(
        "mapping finished: {} (in {} steps; every agent now holds all {} links)",
        outcome.finished,
        outcome.finishing_time,
        net.graph.edge_count()
    );

    // --- Scenario 2: keep a mobile ad-hoc network routable. -----------
    // 120 nodes, 6 internet gateways, half the nodes wander on battery.
    let manet = NetworkBuilder::new(120).gateways(6).target_edges(960).build(11)?;
    let config = RoutingConfig::new(RoutingPolicy::OldestNode, 40);
    let mut sim = RoutingSim::new(manet, config, 2)?;
    let outcome = sim.run(300);
    println!(
        "routing converged: connectivity {:.1}% of nodes hold a live gateway route \
         (mean over steps 150-300)",
        100.0 * outcome.mean_connectivity(150..300).unwrap_or(0.0)
    );
    Ok(())
}
