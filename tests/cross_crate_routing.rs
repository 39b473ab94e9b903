//! Integration tests spanning radio → core for the routing study,
//! including the key cross-crate invariant: routed connectivity can
//! never exceed the instantaneous graph reachability of the gateways.

use agentnet::core::policy::RoutingPolicy;
use agentnet::core::routing::{RoutingConfig, RoutingProtocol, RoutingSim};
use agentnet::engine::rng::SeedSequence;
use agentnet::engine::sim::{Step, TimeStepSim};
use agentnet::engine::Executor;
use agentnet::radio::NetworkBuilder;

fn builder() -> NetworkBuilder {
    NetworkBuilder::new(60).gateways(4).target_edges(480)
}

#[test]
fn routed_connectivity_never_exceeds_graph_reachability() {
    let net = builder().build(3).expect("network builds");
    let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 25);
    let mut sim = RoutingSim::new(net, cfg, 7).expect("valid config");
    for s in 0..120 {
        sim.step(Step::new(s));
        let routed = sim.connectivity();
        let upper = sim.network().reachability_upper_bound();
        assert!(
            routed <= upper + 1e-9,
            "step {s}: routed {routed:.3} exceeded reachability {upper:.3}"
        );
    }
}

#[test]
fn connectivity_is_always_a_valid_fraction() {
    let net = builder().build(5).expect("network builds");
    let cfg = RoutingConfig::new(RoutingPolicy::Random, 15).communication(true);
    let mut sim = RoutingSim::new(net, cfg, 2).expect("valid config");
    let out = sim.run(100);
    for (i, &v) in out.connectivity.values().iter().enumerate() {
        assert!((0.0..=1.0).contains(&v), "step {i}: connectivity {v} out of range");
    }
}

#[test]
fn replicated_routing_is_deterministic_and_varied() {
    let job = |_: usize, seeds: SeedSequence| {
        let net = builder().build(11).expect("network builds");
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 20).communication(true);
        let mut sim = RoutingSim::new(net, cfg, seeds.seed()).expect("valid config");
        sim.run(80).mean_connectivity(40..80).unwrap()
    };
    let a = Executor::new(0).run_cells("routing", 0, 5, SeedSequence::new(31), job);
    let b = Executor::new(0).run_cells("routing", 0, 5, SeedSequence::new(31), job);
    assert_eq!(a, b);
    assert!(a.windows(2).any(|w| w[0] != w[1]), "replicates identical: {a:?}");
}

#[test]
fn static_network_with_agents_reaches_high_connectivity() {
    // No mobility, no battery decay: agents should eventually give almost
    // every reachable node a permanently valid chain.
    let net = builder().mobile_fraction(0.0).build(13).expect("network builds");
    let upper = net.reachability_upper_bound();
    let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 25);
    let mut sim = RoutingSim::new(net, cfg, 3).expect("valid config");
    let out = sim.run(200);
    // Routed connectivity stays below raw reachability even on a static
    // network (bounded history expires claims; fresher agents overwrite
    // mid-chain entries), but it should capture most of it.
    let late = out.mean_connectivity(150..200).unwrap();
    assert!(
        late > 0.6 * upper,
        "static-network connectivity {late:.3} far below reachability {upper:.3}"
    );
}

#[test]
fn gateways_are_connected_from_step_one() {
    let net = builder().build(17).expect("network builds");
    let gw_fraction = net.gateways().len() as f64 / net.node_count() as f64;
    let cfg = RoutingConfig::new(RoutingPolicy::Random, 5);
    let mut sim = RoutingSim::new(net, cfg, 1).expect("valid config");
    let out = sim.run(10);
    for &v in out.connectivity.values() {
        assert!(v >= gw_fraction - 1e-12);
    }
}

#[test]
fn mobility_makes_connectivity_fluctuate() {
    let net = builder().build(19).expect("network builds");
    let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 25);
    let mut sim = RoutingSim::new(net, cfg, 5).expect("valid config");
    let out = sim.run(150);
    let window = &out.connectivity.values()[100..150];
    let distinct: std::collections::BTreeSet<u64> =
        window.iter().map(|v| (v * 1e6) as u64).collect();
    assert!(distinct.len() > 5, "connectivity suspiciously constant: {window:?}");
}

#[test]
fn installed_tables_stay_consistent_with_network_ids() {
    let net = builder().build(23).expect("network builds");
    let n = net.node_count();
    let gws: std::collections::HashSet<_> = net.gateways().iter().copied().collect();
    let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 20).history_size(8);
    let mut sim = RoutingSim::new(net, cfg, 9).expect("valid config");
    let _ = sim.run(60);
    for i in 0..n {
        let node = agentnet::graph::NodeId::new(i);
        for e in sim.table(node).entries() {
            assert!(gws.contains(&e.gateway), "entry points at non-gateway");
            assert!(e.next_hop.index() < n);
            assert!(e.hops >= 1 && e.hops <= 8, "hops {} outside history bound", e.hops);
        }
    }
}
