//! Disaster-relief MANET: laptops, handhelds and two satellite uplinks
//! form an ad-hoc network; mobile agents keep every node's route to an
//! uplink fresh while responders move around.
//!
//! Demonstrates the routing study end to end: connectivity over time,
//! the oldest-node vs random comparison, and why letting oldest-node
//! agents gossip (visiting) backfires unless they also leave footprints.
//!
//! ```text
//! cargo run --release --example manet_routing
//! ```

use agentnet::core::policy::RoutingPolicy;
use agentnet::core::routing::{RoutingConfig, RoutingProtocol, RoutingSim};
use agentnet::engine::rng::SeedSequence;
use agentnet::engine::table::Table;
use agentnet::engine::{Executor, Summary};
use agentnet::radio::NetworkBuilder;

const STEPS: u64 = 300;
const WINDOW: std::ops::Range<usize> = 150..300;

fn field_network() -> NetworkBuilder {
    // 150 devices, 4 satellite uplinks, most responders on foot (slow),
    // batteries draining over the shift.
    NetworkBuilder::new(150)
        .gateways(4)
        .target_edges(1350)
        .mobile_fraction(0.6)
        .speed_range(1.0, 5.0)
}

fn connectivity(config: &RoutingConfig) -> Summary {
    let samples =
        Executor::new(0).run_cells("manet_routing", 0, 10, SeedSequence::new(5), |_, seeds| {
            let net = field_network().build(33).expect("field network builds");
            let mut sim =
                RoutingSim::new(net, config.clone(), seeds.seed()).expect("valid routing config");
            sim.run(STEPS).mean_connectivity(WINDOW).expect("window inside run")
        });
    Summary::from_samples(samples).expect("replicates ran")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One run in detail: watch connectivity build up from nothing.
    let net = field_network().build(33)?;
    println!(
        "field network: {} devices, {} uplinks, {} mobile",
        net.node_count(),
        net.gateways().len(),
        net.nodes().iter().filter(|n| n.kind.is_mobile()).count()
    );
    let mut sim = RoutingSim::new(net, RoutingConfig::new(RoutingPolicy::OldestNode, 60), 1)?;
    let out = sim.run(STEPS);
    println!("\nconnectivity over time (one run, 60 oldest-node agents):");
    for step in [0usize, 10, 25, 50, 100, 200, 299] {
        let c = out.connectivity.values()[step];
        let bar = "#".repeat((c * 40.0) as usize);
        println!("  t={step:>3} {c:>5.2} {bar}");
    }

    // The deployment decision table.
    println!("\nwhich agent fleet keeps the field online? (10 runs each)");
    let mut table = Table::new(["fleet", "connectivity (steps 150-300)"]);
    let fleets: [(&str, RoutingConfig); 5] = [
        ("60 random", RoutingConfig::new(RoutingPolicy::Random, 60)),
        ("60 oldest-node", RoutingConfig::new(RoutingPolicy::OldestNode, 60)),
        (
            "60 oldest-node, gossiping",
            RoutingConfig::new(RoutingPolicy::OldestNode, 60).communication(true),
        ),
        (
            "60 oldest-node, gossiping + footprints",
            RoutingConfig::new(RoutingPolicy::OldestNode, 60).communication(true).stigmergic(true),
        ),
        (
            "60 oldest-node, footprints",
            RoutingConfig::new(RoutingPolicy::OldestNode, 60).stigmergic(true),
        ),
    ];
    for (name, config) in &fleets {
        table.push_row([name.to_string(), connectivity(config).mean_ci_string(3)]);
    }
    println!("{}", table.to_markdown());
    println!(
        "Gossip alone makes oldest-node agents chase each other (the paper's\n\
         Fig. 11); adding footprints restores the dispersion and keeps the\n\
         best of both."
    );
    Ok(())
}
