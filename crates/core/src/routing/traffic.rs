//! Packet-level traffic on top of agent-maintained routing tables.
//!
//! The connectivity metric asks whether a route *exists*; this module
//! asks whether routes actually *deliver*. Every step, packets are
//! injected at random non-gateway nodes addressed to "the outside
//! world"; each in-flight packet advances one hop per step by following
//! the current node's best live routing entry. Delivery ratio, latency
//! and hop stretch (vs. the instantaneous shortest path at send time)
//! quantify the quality of the tables the agents maintain — "an average
//! packet will use a multi-hop path to reach one of those gateways".

use crate::routing::protocol::RoutingProtocol;
use crate::routing::sim::RoutingSim;
use agentnet_engine::sim::{Step, TimeStepSim};
use agentnet_graph::paths::bfs_distances;
use agentnet_graph::NodeId;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Traffic-generation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Packets injected per simulation step.
    pub packets_per_step: usize,
    /// Hops (= steps) before an undelivered packet is dropped.
    pub ttl: u32,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig { packets_per_step: 5, ttl: 64 }
    }
}

#[derive(Clone, Debug)]
struct Packet {
    at: NodeId,
    age: u32,
    hops: u32,
    /// Shortest hop distance to any gateway when the packet was sent
    /// (`None` = unreachable at send time; excluded from stretch).
    ideal: Option<u32>,
}

/// Aggregate traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Packets injected.
    pub sent: u64,
    /// Packets that reached a gateway.
    pub delivered: u64,
    /// Packets dropped on TTL expiry.
    pub dropped: u64,
    /// Sum of hops over delivered packets.
    pub delivered_hops: u64,
    /// Sum of ideal (shortest-path-at-send-time) hops over delivered
    /// packets that were reachable at send time.
    pub delivered_ideal_hops: u64,
    /// Delivered packets included in the stretch denominator.
    pub stretch_samples: u64,
}

impl TrafficStats {
    /// Fraction of injected packets delivered (counting still-in-flight
    /// packets as undelivered).
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    /// Mean hops per delivered packet.
    pub fn mean_latency(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.delivered_hops as f64 / self.delivered as f64)
    }

    /// Mean ratio of actual hops to the shortest possible at send time
    /// (≥ 1 in expectation; slightly <1 is possible when topology drift
    /// shortens paths mid-flight).
    pub fn mean_stretch(&self) -> Option<f64> {
        (self.stretch_samples > 0 && self.delivered_ideal_hops > 0).then(|| {
            self.delivered_hops as f64 * self.stretch_samples as f64
                / (self.delivered as f64 * self.delivered_ideal_hops as f64)
        })
    }
}

/// A routing simulation with packet traffic layered on top.
///
/// Wraps a [`RoutingSim`]; each step advances the network + agents, then
/// injects and forwards packets along the freshly updated tables.
///
/// ```no_run
/// use agentnet_core::policy::RoutingPolicy;
/// use agentnet_core::routing::{RoutingConfig, RoutingSim};
/// use agentnet_core::routing::traffic::{TrafficConfig, TrafficSim};
/// use agentnet_radio::NetworkBuilder;
///
/// let net = NetworkBuilder::new(60).gateways(4).build(1).unwrap();
/// let sim = RoutingSim::new(net, RoutingConfig::new(RoutingPolicy::OldestNode, 20), 2).unwrap();
/// let mut traffic = TrafficSim::new(sim, TrafficConfig::default(), 3);
/// traffic.run(200);
/// println!("delivered {:.1}%", 100.0 * traffic.stats().delivery_ratio());
/// ```
#[derive(Clone, Debug)]
pub struct TrafficSim {
    sim: RoutingSim,
    config: TrafficConfig,
    rng: SmallRng,
    in_flight: Vec<Packet>,
    stats: TrafficStats,
}

impl TrafficSim {
    /// Wraps a routing simulation with traffic generation.
    pub fn new(sim: RoutingSim, config: TrafficConfig, seed: u64) -> Self {
        TrafficSim {
            sim,
            config,
            rng: SmallRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            stats: TrafficStats::default(),
        }
    }

    /// The wrapped routing simulation.
    pub fn routing(&self) -> &RoutingSim {
        &self.sim
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Runs for exactly `steps` steps.
    pub fn run(&mut self, steps: u64) -> TrafficStats {
        let mut now = Step::ZERO;
        for _ in 0..steps {
            self.step(now);
            now = now.next();
        }
        self.stats
    }

    fn inject(&mut self) {
        let n = self.sim.network().node_count();
        let links = self.sim.network().links();
        let gateways = self.sim.network().gateways();
        // Gateways are distinct nodes: with every node a gateway there is
        // no source to draw, and the rejection loop below would spin.
        if gateways.len() >= n {
            return;
        }
        for _ in 0..self.config.packets_per_step {
            // Source: a uniformly random non-gateway node.
            let at = loop {
                let candidate = NodeId::new(self.rng.random_range(0..n));
                if !gateways.contains(&candidate) {
                    break candidate;
                }
            };
            let dist = bfs_distances(links, at);
            let ideal = gateways
                .iter()
                .map(|g| dist[g.index()])
                .min()
                .filter(|&d| d != usize::MAX)
                .map(|d| d as u32);
            self.in_flight.push(Packet { at, age: 0, hops: 0, ideal });
            self.stats.sent += 1;
        }
    }

    fn forward(&mut self) {
        let links = self.sim.network().links();
        let mut keep = Vec::with_capacity(self.in_flight.len());
        for mut packet in self.in_flight.drain(..) {
            packet.age += 1;
            // Forward along the freshest viable entry: fewest claimed
            // hops among entries whose link is currently live.
            let next =
                self.sim.table(packet.at).best_live_entry(packet.at, links).map(|e| e.next_hop);
            if let Some(next) = next {
                packet.at = next;
                packet.hops += 1;
            }
            if self.sim.network().gateways().contains(&packet.at) {
                self.stats.delivered += 1;
                self.stats.delivered_hops += u64::from(packet.hops);
                if let Some(ideal) = packet.ideal {
                    self.stats.delivered_ideal_hops += u64::from(ideal);
                    self.stats.stretch_samples += 1;
                }
            } else if packet.age >= self.config.ttl {
                self.stats.dropped += 1;
            } else {
                keep.push(packet);
            }
        }
        self.in_flight = keep;
    }
}

impl TimeStepSim for TrafficSim {
    fn step(&mut self, now: Step) {
        self.sim.step(now);
        self.inject();
        self.forward();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RoutingPolicy;
    use crate::routing::RoutingConfig;
    use agentnet_radio::NetworkBuilder;

    fn traffic(policy: RoutingPolicy, seed: u64) -> TrafficSim {
        let net = NetworkBuilder::new(50)
            .gateways(4)
            .target_edges(400)
            .mobile_fraction(0.3)
            .build(9)
            .unwrap();
        let sim = RoutingSim::new(net, RoutingConfig::new(policy, 20), seed).unwrap();
        TrafficSim::new(sim, TrafficConfig { packets_per_step: 4, ttl: 40 }, seed)
    }

    #[test]
    fn packets_are_injected_and_resolved() {
        let mut t = traffic(RoutingPolicy::OldestNode, 1);
        let stats = t.run(150);
        assert_eq!(stats.sent, 150 * 4);
        assert_eq!(stats.sent, stats.delivered + stats.dropped + t.in_flight() as u64);
        assert!(stats.delivered > 0, "no packet ever delivered");
    }

    #[test]
    fn delivery_ratio_is_a_fraction_and_latency_positive() {
        let mut t = traffic(RoutingPolicy::OldestNode, 2);
        let stats = t.run(150);
        let ratio = stats.delivery_ratio();
        assert!((0.0..=1.0).contains(&ratio));
        let latency = stats.mean_latency().expect("some deliveries");
        assert!(latency >= 1.0, "gateway delivery takes at least one hop, got {latency}");
    }

    #[test]
    fn stretch_is_at_least_one_ish() {
        let mut t = traffic(RoutingPolicy::OldestNode, 3);
        let stats = t.run(200);
        if let Some(stretch) = stats.mean_stretch() {
            assert!(stretch > 0.8, "stretch {stretch} implausibly low");
            assert!(stretch < 20.0, "stretch {stretch} implausibly high");
        }
    }

    #[test]
    fn better_tables_deliver_more() {
        let oldest = traffic(RoutingPolicy::OldestNode, 4).run(200).delivery_ratio();
        let random = traffic(RoutingPolicy::Random, 4).run(200).delivery_ratio();
        assert!(
            oldest > random,
            "oldest-node tables ({oldest:.3}) should deliver more than random ({random:.3})"
        );
    }

    #[test]
    fn empty_traffic_config_sends_nothing() {
        let net = NetworkBuilder::new(30).gateways(2).build(3).unwrap();
        let sim = RoutingSim::new(net, RoutingConfig::new(RoutingPolicy::Random, 5), 1).unwrap();
        let mut t = TrafficSim::new(sim, TrafficConfig { packets_per_step: 0, ttl: 10 }, 1);
        let stats = t.run(20);
        assert_eq!(stats.sent, 0);
        assert_eq!(stats.delivery_ratio(), 0.0);
        assert!(stats.mean_latency().is_none());
    }

    #[test]
    fn all_gateway_network_sends_nothing_and_terminates() {
        let net = NetworkBuilder::new(4).gateways(4).build(1).unwrap();
        let sim = RoutingSim::new(net, RoutingConfig::new(RoutingPolicy::Random, 2), 1).unwrap();
        let mut t = TrafficSim::new(sim, TrafficConfig::default(), 1);
        let stats = t.run(5);
        assert_eq!(stats.sent, 0);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn traffic_is_deterministic() {
        let a = traffic(RoutingPolicy::OldestNode, 7).run(100);
        let b = traffic(RoutingPolicy::OldestNode, 7).run(100);
        assert_eq!(a, b);
    }
}
