//! Stigmergy design-space ablation: how footprint board capacity and
//! recency window shape team dispersal.
//!
//! DESIGN.md marks the footprint semantics as an ablation target: the
//! paper only says agents "imprint their next target node in the current
//! node". This example sweeps the two knobs of our realization — how many
//! imprints a node keeps, and how quickly they expire — for a mapping
//! team and for the stigmergic-routing extension.
//!
//! ```text
//! cargo run --release --example stigmergy_ablation
//! ```

use agentnet::core::mapping::{MappingConfig, MappingSim};
use agentnet::core::policy::{MappingPolicy, RoutingPolicy};
use agentnet::core::routing::{RoutingConfig, RoutingProtocol, RoutingSim};
use agentnet::engine::rng::SeedSequence;
use agentnet::engine::table::Table;
use agentnet::engine::{Executor, Summary};
use agentnet::graph::generators::GeometricConfig;
use agentnet::graph::DiGraph;
use agentnet::radio::NetworkBuilder;

fn mapping_time(graph: &DiGraph, capacity: usize, window: u64) -> Summary {
    let samples =
        Executor::new(0).run_cells("mapping_time", 0, 8, SeedSequence::new(3), |_, seeds| {
            let config = MappingConfig::new(MappingPolicy::Conscientious, 15)
                .stigmergic(true)
                .footprint_capacity(capacity)
                .footprint_window(window);
            let mut sim =
                MappingSim::new(graph.clone(), config, seeds.seed()).expect("valid config");
            let out = sim.run(1_000_000);
            assert!(out.finished);
            out.finishing_time.as_f64()
        });
    Summary::from_samples(samples).expect("replicates ran")
}

fn routing_conn(capacity: usize, window: u64) -> Summary {
    let samples =
        Executor::new(0).run_cells("routing_conn", 0, 8, SeedSequence::new(4), |_, seeds| {
            let net = NetworkBuilder::new(150)
                .gateways(6)
                .target_edges(1200)
                .build(17)
                .expect("network builds");
            let config = RoutingConfig::new(RoutingPolicy::OldestNode, 60)
                .communication(true)
                .stigmergic(true)
                .footprint_capacity(capacity)
                .footprint_window(window);
            let mut sim = RoutingSim::new(net, config, seeds.seed()).expect("valid config");
            sim.run(300).mean_connectivity(150..300).expect("window inside run")
        });
    Summary::from_samples(samples).expect("replicates ran")
}

fn window_label(window: u64) -> String {
    if window == u64::MAX {
        "inf".into()
    } else {
        window.to_string()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = GeometricConfig::new(200, 1400).generate(2024)?.graph;

    println!("mapping: finishing time of 15 stigmergic conscientious agents");
    let mut table = Table::new(["capacity", "window", "finishing time"]);
    for &capacity in &[1usize, 2, 4, 8] {
        for &window in &[8u64, 32, u64::MAX] {
            let s = mapping_time(&graph, capacity, window);
            table.push_row([capacity.to_string(), window_label(window), s.mean_ci_string(0)]);
        }
    }
    println!("{}", table.to_markdown());

    println!("routing extension: gossiping oldest-node agents + footprints");
    let mut table = Table::new(["capacity", "window", "connectivity"]);
    for &capacity in &[1usize, 2, 4] {
        for &window in &[8u64, u64::MAX] {
            let s = routing_conn(capacity, window);
            table.push_row([capacity.to_string(), window_label(window), s.mean_ci_string(3)]);
        }
    }
    println!("{}", table.to_markdown());
    println!(
        "Takeaway: a single never-expiring footprint per node (the paper's\n\
         minimal semantics) captures nearly all of the benefit; larger boards\n\
         mainly help crowded teams."
    );
    Ok(())
}
