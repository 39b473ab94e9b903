//! Stigmergic routing: the paper's deferred future-work arm.
//!
//! The paper uses footprints only to spread *mapping* agents apart and
//! explicitly defers stigmergy-for-routing. This arm supplies that
//! extension on the existing [`FootprintBoard`] substrate: wandering
//! agents leave repulsive footprints so the swarm disperses along
//! freshest-footprint gradients, and every agent carries a hop-counted
//! gateway claim that it renews at gateways and lays down as a route
//! trail while walking away — so routes form along the *reverse* of the
//! dispersal gradient, pointing back toward the freshest gateway
//! contact.
//!
//! Protocol-zoo boundaries ([`RoutingProtocol`]):
//! * **Construction** — a trail entry `RouteEntry { gateway, next_hop:
//!   previous node, hops }` installed at each node the claim-carrying
//!   agent enters, while the claim is at most `trail_length` hops old.
//! * **Meeting state** — nothing agent-to-agent; the only exchange is
//!   indirect, through footprints on the node itself.
//! * **Decay** — footprints expire out of the `footprint_window`;
//!   route entries older than `route_ttl` are evicted every step.

use crate::agent::AgentId;
use crate::error::CoreError;
use crate::overhead::Overhead;
use crate::routing::index::RouteBook;
use crate::routing::protocol::{ProtocolKind, RoutingProtocol};
use crate::routing::table::RouteEntry;
use crate::stigmergy::FootprintBoard;
use agentnet_engine::sim::{Step, TimeStepSim};
use agentnet_graph::NodeId;
use agentnet_radio::WirelessNetwork;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Serialized size of a stigmergic agent's mobile state: the carried
/// gateway claim (gateway id + hop count), nothing else — the arm's
/// whole pitch is that dispersal knowledge lives on the nodes.
const AGENT_STATE_BYTES: u64 = 12;

/// Configuration for [`StigRouteSim`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StigRouteConfig {
    /// Number of wandering agents.
    pub population: usize,
    /// Footprints each node's board retains.
    pub footprint_capacity: usize,
    /// Steps a footprint repels followers.
    pub footprint_window: u64,
    /// Maximum hop count a carried claim may reach before it is dropped
    /// — the length of the route trail laid from each gateway contact.
    /// This is the arm's cache-size knob.
    pub trail_length: u32,
    /// Route entries older than this many steps are evicted.
    pub route_ttl: u64,
}

impl StigRouteConfig {
    /// Defaults tuned for the paper's 250-node routing network.
    pub fn new(population: usize) -> Self {
        StigRouteConfig {
            population,
            footprint_capacity: 4,
            footprint_window: 30,
            trail_length: 20,
            route_ttl: 120,
        }
    }

    /// Sets the route-trail length (the cache-size knob).
    pub fn trail_length(mut self, hops: u32) -> Self {
        self.trail_length = hops;
        self
    }

    /// Sets the footprint repulsion window in steps.
    pub fn footprint_window(mut self, window: u64) -> Self {
        self.footprint_window = window;
        self
    }

    /// Sets the per-node footprint board capacity.
    pub fn footprint_capacity(mut self, capacity: usize) -> Self {
        self.footprint_capacity = capacity;
        self
    }

    /// Sets the route-entry eviction age in steps.
    pub fn route_ttl(mut self, ttl: u64) -> Self {
        self.route_ttl = ttl;
        self
    }
}

/// A hop-counted gateway claim carried by a wandering agent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Claim {
    gateway: NodeId,
    hops: u32,
}

#[derive(Clone, Debug)]
struct StigAgent {
    at: NodeId,
    claim: Option<Claim>,
}

/// The stigmergic routing arm. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct StigRouteSim {
    net: WirelessNetwork,
    config: StigRouteConfig,
    agents: Vec<StigAgent>,
    routes: RouteBook,
    boards: Vec<FootprintBoard>,
    rng: SmallRng,
    overhead: Overhead,
    // Per-step scratch, reused across steps to keep the kernel
    // allocation-free.
    pool: Vec<NodeId>,
    fresh: Vec<NodeId>,
    avoid: Vec<NodeId>,
}

impl StigRouteSim {
    /// Creates the stigmergic arm over a wireless network. Agents start
    /// on uniformly random nodes; one starting on a gateway immediately
    /// carries a zero-hop claim — the same spawn rule (and RNG stream
    /// shape) as the legacy agent arm.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty population,
    /// zero trail length / footprint capacity / route TTL, an empty
    /// network, or a network without gateways.
    pub fn new(
        net: WirelessNetwork,
        config: StigRouteConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if config.population == 0 {
            return Err(CoreError::invalid("stigmergic routing needs at least one agent"));
        }
        if config.footprint_capacity == 0 {
            return Err(CoreError::invalid("footprint capacity must be positive"));
        }
        if config.trail_length == 0 {
            return Err(CoreError::invalid("trail length must be positive"));
        }
        if config.route_ttl == 0 {
            return Err(CoreError::invalid("route ttl must be positive"));
        }
        let n = net.node_count();
        if n == 0 {
            return Err(CoreError::invalid("stigmergic routing needs a nonempty network"));
        }
        if net.gateways().is_empty() {
            return Err(CoreError::invalid("stigmergic routing needs at least one gateway"));
        }
        let routes = RouteBook::new(&net);
        let mut rng = SmallRng::seed_from_u64(seed);
        let agents = (0..config.population)
            .map(|_| {
                let at = NodeId::new(rng.random_range(0..n));
                let claim = routes.is_gateway(at).then_some(Claim { gateway: at, hops: 0 });
                StigAgent { at, claim }
            })
            .collect();
        let boards = (0..n).map(|_| FootprintBoard::new(config.footprint_capacity)).collect();
        Ok(StigRouteSim {
            net,
            config,
            agents,
            routes,
            boards,
            rng,
            overhead: Overhead::default(),
            pool: Vec::new(),
            fresh: Vec::new(),
            avoid: Vec::new(),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &StigRouteConfig {
        &self.config
    }

    /// Current node of each agent, in agent order.
    pub fn positions(&self) -> Vec<NodeId> {
        self.agents.iter().map(|a| a.at).collect()
    }

    /// Per-node footprint boards, indexed by node id.
    pub fn boards(&self) -> &[FootprintBoard] {
        &self.boards
    }

    /// Walks every agent one hop along the anti-footprint gradient,
    /// imprinting its exit and laying the route trail on arrival.
    #[agentnet::hot_path]
    fn advance_agents(&mut self, now: Step) {
        for i in 0..self.agents.len() {
            let Some(agent) = self.agents.get(i) else {
                continue;
            };
            let at = agent.at;
            self.pool.clear();
            self.pool.extend(self.net.links().out_neighbors(at));
            if self.pool.is_empty() {
                // Isolated node: wait for the radio to reconnect.
                continue;
            }
            // Repulsion: drop exits a recent footprint already points at,
            // unless that would strand the agent.
            if let Some(board) = self.boards.get(at.index()) {
                board.marked_targets_into(now, self.config.footprint_window, &mut self.avoid);
            } else {
                self.avoid.clear();
            }
            self.fresh.clear();
            for &cand in &self.pool {
                // `avoid` is sorted+deduped by marked_targets_into.
                if self.avoid.binary_search(&cand).is_err() {
                    self.fresh.push(cand);
                }
            }
            let pool = if self.fresh.is_empty() { &self.pool } else { &self.fresh };
            let pick = self.rng.random_range(0..pool.len());
            let Some(&target) = pool.get(pick) else {
                continue;
            };
            if let Some(board) = self.boards.get_mut(at.index()) {
                board.imprint(AgentId::new(i), target, now);
                self.overhead.footprint_writes += 1;
            }
            self.overhead.migrations += 1;
            self.overhead.migrated_bytes += AGENT_STATE_BYTES;
            let Some(agent) = self.agents.get_mut(i) else {
                continue;
            };
            agent.at = target;
            if self.routes.is_gateway(target) {
                // Fresh gateway contact: restart the trail at zero hops.
                agent.claim = Some(Claim { gateway: target, hops: 0 });
            } else if let Some(claim) = agent.claim.as_mut() {
                claim.hops = claim.hops.saturating_add(1);
                if claim.hops <= self.config.trail_length {
                    self.routes
                        .install(target, RouteEntry::new(claim.gateway, at, claim.hops, now));
                    self.overhead.table_writes += 1;
                } else {
                    // Trail exhausted; wander claimless until the next
                    // gateway contact.
                    agent.claim = None;
                }
            }
        }
    }
}

impl TimeStepSim for StigRouteSim {
    fn step(&mut self, now: Step) {
        // The world changes first: nodes move, batteries decay.
        self.net.advance();
        self.advance_agents(now);
        self.routes.evict_older_than(now, self.config.route_ttl);
        self.routes.revalidate(&self.net);
    }
}

impl RoutingProtocol for StigRouteSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Stigmergic
    }

    fn network(&self) -> &WirelessNetwork {
        &self.net
    }

    fn routes(&self) -> &RouteBook {
        &self.routes
    }

    fn overhead(&self) -> Overhead {
        self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentnet_radio::NetworkBuilder;

    fn net(seed: u64) -> WirelessNetwork {
        NetworkBuilder::new(40).gateways(3).target_edges(320).build(seed).unwrap()
    }

    fn sim(seed: u64) -> StigRouteSim {
        StigRouteSim::new(net(seed), StigRouteConfig::new(12), seed ^ 0xabcd).unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            StigRouteConfig { population: 0, ..StigRouteConfig::new(5) },
            StigRouteConfig::new(5).trail_length(0),
            StigRouteConfig::new(5).footprint_capacity(0),
            StigRouteConfig::new(5).route_ttl(0),
        ] {
            assert!(StigRouteSim::new(net(1), bad, 1).is_err());
        }
        let empty = NetworkBuilder::new(10).gateways(0).build(1).unwrap();
        assert!(StigRouteSim::new(empty, StigRouteConfig::new(5), 1).is_err());
    }

    #[test]
    fn trails_form_and_connectivity_rises() {
        let mut s = sim(3);
        let outcome = RoutingProtocol::run(&mut s, 80);
        assert!(RoutingProtocol::route_entries(&s) > 0, "no trail entries installed");
        let late = outcome.mean_connectivity(40..80).unwrap();
        assert!(late > 0.0, "no node ever routed to a gateway (late mean {late})");
        assert!(s.validate_tables(Step::new(80)).is_ok());
    }

    #[test]
    fn trail_length_bounds_installed_hops() {
        let mut s =
            StigRouteSim::new(net(5), StigRouteConfig::new(12).trail_length(3), 99).unwrap();
        let _ = RoutingProtocol::run(&mut s, 60);
        for table in RoutingProtocol::tables(&s) {
            for e in table.entries() {
                assert!(e.hops >= 1 && e.hops <= 3, "hops {} escaped the trail bound", e.hops);
            }
        }
    }

    #[test]
    fn route_ttl_evicts_stale_entries() {
        let mut s = sim(7);
        let _ = RoutingProtocol::run(&mut s, 100);
        let now = Step::new(100);
        for table in RoutingProtocol::tables(&s) {
            for e in table.entries() {
                assert!(e.age(now) <= s.config().route_ttl, "stale entry survived decay");
            }
        }
    }

    #[test]
    fn footprints_are_actually_written() {
        let mut s = sim(9);
        let _ = RoutingProtocol::run(&mut s, 20);
        assert!(RoutingProtocol::overhead(&s).footprint_writes > 0);
        assert!(RoutingProtocol::overhead(&s).migrations > 0);
        assert!(s.boards().iter().any(|b| !b.is_empty()));
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let mut s = StigRouteSim::new(net(2), StigRouteConfig::new(10), seed).unwrap();
            let out = RoutingProtocol::run(&mut s, 50);
            (out, s.routes.tables().to_vec(), s.overhead)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn recorded_connectivity_matches_from_scratch_reference() {
        let mut s = sim(11);
        let _ = RoutingProtocol::run(&mut s, 60);
        let last = s.routes.connectivity_series().values().last().copied().unwrap();
        assert_eq!(last, RoutingProtocol::connectivity(&s));
    }
}
