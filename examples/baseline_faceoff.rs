//! Baseline face-off: the paper's oldest-node agents vs an ant colony
//! vs a node-run distance-vector protocol, on the *same* dynamic
//! wireless network and the *same* connectivity metric.
//!
//! Three design points on the decentralization/bandwidth spectrum:
//!
//! * distance-vector — every node broadcasts every step (maximum
//!   bandwidth, near-ideal connectivity, nodes must run code);
//! * oldest-node agents — nodes run nothing, a fixed fleet of agents
//!   carries all routing state;
//! * ant colony — nodes store only pheromone, ants sample paths.
//!
//! ```text
//! cargo run --release --example baseline_faceoff
//! ```

use agentnet::core::policy::RoutingPolicy;
use agentnet::core::routing::{RoutingConfig, RoutingProtocol, RoutingSim};
use agentnet::engine::plot::sparkline;
use agentnet::engine::table::Table;
use agentnet::radio::NetworkBuilder;
use agentnet_baselines::{AcoConfig, AcoSim, DvConfig, DvSim};

const STEPS: u64 = 300;
const WINDOW: std::ops::Range<usize> = 150..300;

fn network() -> agentnet::radio::WirelessNetwork {
    NetworkBuilder::new(200)
        .gateways(10)
        .target_edges(1600)
        .build(77)
        .expect("face-off network builds")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(["system", "connectivity (150-300)", "traffic / step", "curve"]);

    // The paper's agents.
    let mut agents =
        RoutingSim::new(network(), RoutingConfig::new(RoutingPolicy::OldestNode, 80), 1)?;
    let out = agents.run(STEPS);
    table.push_row([
        "80 oldest-node agents".to_string(),
        format!("{:.3}", out.mean_connectivity(WINDOW).unwrap()),
        format!("{} migrations", agents.overhead().migrations / STEPS),
        sparkline(&out.connectivity, 30),
    ]);

    // Ant colony.
    let mut colony = AcoSim::new(network(), AcoConfig::new(80), 2)?;
    let series = colony.run(STEPS);
    table.push_row([
        "80 ACO ants".to_string(),
        format!("{:.3}", series.window_mean(WINDOW).unwrap()),
        format!("{} ant moves", colony.ant_moves() / STEPS),
        sparkline(&series, 30),
    ]);

    // Distance vector.
    let mut dv = DvSim::new(network(), DvConfig::default())?;
    let series = dv.run(STEPS);
    table.push_row([
        "distance-vector protocol".to_string(),
        format!("{:.3}", series.window_mean(WINDOW).unwrap()),
        format!("{} receptions", dv.receptions() / STEPS),
        sparkline(&series, 30),
    ]);

    println!("{}", table.to_markdown());
    println!(
        "The protocol buys its extra connectivity with an order of magnitude\n\
         more traffic — and requires every node to run code, which is exactly\n\
         the assumption the mobile-agent design removes."
    );
    Ok(())
}
