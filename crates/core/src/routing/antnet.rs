//! AntNet-style probabilistic routing (Di Caro & Dorigo, *AntNet*).
//!
//! Forward ants random-walk from their spawn node, biased by per-node
//! pheromone tables; when one reaches a gateway, a backward ant
//! retraces the recorded path, depositing pheromone on every walked
//! link and installing hop-counted route entries at each node along
//! the way. Pheromone evaporates multiplicatively each step, so the
//! tables track the *current* topology rather than its history.
//!
//! Protocol-zoo boundaries ([`RoutingProtocol`]):
//! * **Construction** — backward-ant retracing installs `RouteEntry {
//!   gateway, next_hop: the walked direction, hops: distance along the
//!   retraced path }` at each intermediate node.
//! * **Meeting state** — a forward ant carries only its partial path;
//!   a backward ant carries the completed path plus deposit budget.
//! * **Decay** — pheromone evaporates by `evaporation` per step (dry
//!   trails are dropped below `1e-6`); route entries older than
//!   `route_ttl` are evicted.
//!
//! Determinism note (ordered-iteration audit): pheromone lives in
//! [`BTreeMap`]s keyed `(gateway, neighbour)` precisely so every
//! iteration — evaporation, weight sums, strongest-trail queries — is
//! in key order, independent of insertion history.

use crate::error::CoreError;
use crate::overhead::Overhead;
use crate::routing::index::RouteBook;
use crate::routing::protocol::{ProtocolKind, RoutingProtocol};
use crate::routing::table::RouteEntry;
use agentnet_engine::sim::{Step, TimeStepSim};
use agentnet_graph::NodeId;
use agentnet_radio::WirelessNetwork;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-node pheromone: trail strength keyed by `(gateway, neighbour)`.
/// A `BTreeMap` (not `HashMap`) so all iteration is deterministic.
pub type PheromoneTable = BTreeMap<(NodeId, NodeId), f64>;

/// Serialized bytes per path entry a forward/backward ant drags along.
const ANT_NODE_BYTES: u64 = 8;

/// Trails weaker than this are dropped entirely.
const MIN_TRAIL: f64 = 1e-6;

/// Configuration for [`AntNetSim`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AntNetConfig {
    /// Number of concurrent forward ants.
    pub population: usize,
    /// Exponent biasing hop choice toward stronger trails.
    pub beta: f64,
    /// Fraction of every trail evaporating per step (in `[0, 1)`).
    pub evaporation: f64,
    /// Total pheromone a backward ant spreads over its path.
    pub deposit: f64,
    /// Baseline attractiveness of an unmarked link.
    pub tau0: f64,
    /// Maximum forward-path length before the ant gives up and
    /// respawns. This is the arm's cache-size knob.
    pub ttl: usize,
    /// Route entries older than this many steps are evicted.
    pub route_ttl: u64,
}

impl AntNetConfig {
    /// Defaults tuned for the paper's 250-node routing network.
    pub fn new(population: usize) -> Self {
        AntNetConfig {
            population,
            beta: 2.0,
            evaporation: 0.05,
            deposit: 1.0,
            tau0: 0.05,
            ttl: 50,
            route_ttl: 150,
        }
    }

    /// Sets the forward-ant path budget (the cache-size knob).
    pub fn ttl(mut self, ttl: usize) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the per-step evaporation fraction.
    pub fn evaporation(mut self, rho: f64) -> Self {
        self.evaporation = rho;
        self
    }

    /// Sets the trail-strength exponent.
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the route-entry eviction age in steps.
    pub fn route_ttl(mut self, ttl: u64) -> Self {
        self.route_ttl = ttl;
        self
    }
}

#[derive(Clone, Debug)]
struct Ant {
    /// Nodes visited so far, spawn first, current node last. Never
    /// empty.
    path: Vec<NodeId>,
}

/// The AntNet-style routing arm. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct AntNetSim {
    net: WirelessNetwork,
    config: AntNetConfig,
    ants: Vec<Ant>,
    pheromone: Vec<PheromoneTable>,
    routes: RouteBook,
    rng: SmallRng,
    overhead: Overhead,
    // Per-step scratch, reused to keep the kernels allocation-free.
    pool: Vec<NodeId>,
    weights: Vec<f64>,
}

impl AntNetSim {
    /// Creates the AntNet arm over a wireless network. Ants spawn on
    /// uniformly random nodes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty population,
    /// out-of-range `evaporation`, non-positive `deposit`/`tau0`, a
    /// zero `ttl`/`route_ttl`, an empty network, or a network without
    /// gateways.
    pub fn new(net: WirelessNetwork, config: AntNetConfig, seed: u64) -> Result<Self, CoreError> {
        if config.population == 0 {
            return Err(CoreError::invalid("antnet needs at least one ant"));
        }
        if !(0.0..1.0).contains(&config.evaporation) {
            return Err(CoreError::invalid("evaporation must be in [0, 1)"));
        }
        // NaN knobs fail these positive checks, so they are rejected too.
        let weights_valid = config.deposit > 0.0 && config.tau0 > 0.0 && config.beta >= 0.0;
        if !weights_valid {
            return Err(CoreError::invalid(
                "deposit and tau0 must be positive and beta non-negative",
            ));
        }
        if config.ttl == 0 {
            return Err(CoreError::invalid("ant ttl must be positive"));
        }
        if config.route_ttl == 0 {
            return Err(CoreError::invalid("route ttl must be positive"));
        }
        let n = net.node_count();
        if n == 0 {
            return Err(CoreError::invalid("antnet needs a nonempty network"));
        }
        if net.gateways().is_empty() {
            return Err(CoreError::invalid("antnet needs at least one gateway"));
        }
        let routes = RouteBook::new(&net);
        let mut rng = SmallRng::seed_from_u64(seed);
        let ants = (0..config.population)
            .map(|_| Ant { path: vec![NodeId::new(rng.random_range(0..n))] })
            .collect();
        Ok(AntNetSim {
            net,
            config,
            ants,
            pheromone: vec![PheromoneTable::new(); n],
            routes,
            rng,
            overhead: Overhead::default(),
            pool: Vec::new(),
            weights: Vec::new(),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &AntNetConfig {
        &self.config
    }

    /// Per-node pheromone tables, indexed by node id.
    pub fn pheromone_tables(&self) -> &[PheromoneTable] {
        &self.pheromone
    }

    /// Evaporates every trail and drops the ones that dried out.
    #[agentnet::hot_path]
    fn evaporate(&mut self) {
        let keep = 1.0 - self.config.evaporation;
        for table in &mut self.pheromone {
            for tau in table.values_mut() {
                *tau *= keep;
            }
            table.retain(|_, tau| *tau > MIN_TRAIL);
        }
    }

    /// Picks the next hop for ant `i`: unvisited neighbours weighted
    /// `(tau0 + Σ_gw τ)^beta`, falling back to any neighbour when
    /// surrounded by its own path, `None` when isolated.
    #[agentnet::hot_path]
    fn choose_hop_for(&mut self, i: usize) -> Option<NodeId> {
        // Destructure for disjoint field borrows: the ant's path is
        // read while pool/weights/rng are written.
        let AntNetSim { net, config, ants, pheromone, rng, pool, weights, .. } = self;
        let ant = ants.get(i)?;
        let at = *ant.path.last()?;
        pool.clear();
        for &next in net.links().out_neighbors(at) {
            if !ant.path.contains(&next) {
                pool.push(next);
            }
        }
        if pool.is_empty() {
            // Surrounded by its own path: allow revisits rather than
            // stranding the ant.
            pool.extend(net.links().out_neighbors(at));
        }
        if pool.is_empty() {
            return None;
        }
        weights.clear();
        let mut total = 0.0;
        if let Some(trails) = pheromone.get(at.index()) {
            for &cand in pool.iter() {
                let tau: f64 =
                    trails.iter().filter(|((_, nb), _)| *nb == cand).map(|(_, t)| *t).sum();
                let w = (config.tau0 + tau).powf(config.beta);
                weights.push(w);
                total += w;
            }
        }
        let has_mass = total > 0.0; // NaN weights count as massless
        if !has_mass {
            // Degenerate weights (e.g. beta drove them to zero):
            // uniform choice keeps the walk alive.
            let pick = rng.random_range(0..pool.len());
            return pool.get(pick).copied();
        }
        let mut r = rng.random_range(0.0..total);
        for (idx, &w) in weights.iter().enumerate() {
            if r < w {
                return pool.get(idx).copied();
            }
            r -= w;
        }
        pool.last().copied()
    }

    /// The backward ant: retraces `self.ants[i].path` (which ends on
    /// the gateway), deposits pheromone on every walked link, and
    /// installs a route entry at each intermediate node.
    #[agentnet::hot_path]
    fn deliver(&mut self, i: usize, now: Step) {
        let Some(ant) = self.ants.get(i) else {
            return;
        };
        let len = ant.path.len();
        let Some(&gateway) = ant.path.last() else {
            return;
        };
        for (j, (&a, &b)) in ant.path.iter().zip(ant.path.iter().skip(1)).enumerate() {
            // Hops from `a` to the gateway along the retraced path.
            let remaining = len - 1 - j;
            if let Some(trails) = self.pheromone.get_mut(a.index()) {
                let amount = self.config.deposit / remaining as f64;
                *trails.entry((gateway, b)).or_insert(0.0) += amount;
                self.overhead.footprint_writes += 1;
            }
            if !self.routes.is_gateway(a) {
                let hops = u32::try_from(remaining).unwrap_or(u32::MAX);
                self.routes.install(a, RouteEntry::new(gateway, b, hops, now));
                self.overhead.table_writes += 1;
            }
        }
    }

    /// Clears the ant's path and respawns it on a random node.
    #[agentnet::hot_path]
    fn respawn(&mut self, i: usize) {
        let n = self.net.node_count();
        let at = NodeId::new(self.rng.random_range(0..n));
        if let Some(ant) = self.ants.get_mut(i) {
            ant.path.clear();
            ant.path.push(at);
        }
    }

    /// One forward step for every ant, in index order.
    #[agentnet::hot_path]
    fn move_ants(&mut self, now: Step) {
        for i in 0..self.ants.len() {
            let Some(next) = self.choose_hop_for(i) else {
                // Isolated node: the ant waits for the radio to
                // reconnect.
                continue;
            };
            let mut path_len = 0;
            if let Some(ant) = self.ants.get_mut(i) {
                ant.path.push(next);
                path_len = ant.path.len();
            }
            self.overhead.migrations += 1;
            self.overhead.migrated_bytes += path_len as u64 * ANT_NODE_BYTES;
            if self.routes.is_gateway(next) {
                self.deliver(i, now);
                self.respawn(i);
            } else if path_len > self.config.ttl {
                self.respawn(i);
            }
        }
    }
}

impl TimeStepSim for AntNetSim {
    fn step(&mut self, now: Step) {
        // The world changes first: nodes move, batteries decay.
        self.net.advance();
        self.evaporate();
        self.move_ants(now);
        self.routes.evict_older_than(now, self.config.route_ttl);
        self.routes.revalidate(&self.net);
    }
}

impl RoutingProtocol for AntNetSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::AntNet
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

    fn sim(seed: u64) -> AntNetSim {
        AntNetSim::new(net(seed), AntNetConfig::new(12), seed ^ 0x5eed).unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            AntNetConfig { population: 0, ..AntNetConfig::new(5) },
            AntNetConfig { evaporation: 1.0, ..AntNetConfig::new(5) },
            AntNetConfig { evaporation: -0.1, ..AntNetConfig::new(5) },
            AntNetConfig { deposit: 0.0, ..AntNetConfig::new(5) },
            AntNetConfig { tau0: 0.0, ..AntNetConfig::new(5) },
            AntNetConfig { beta: -1.0, ..AntNetConfig::new(5) },
            AntNetConfig::new(5).ttl(0),
            AntNetConfig::new(5).route_ttl(0),
        ] {
            assert!(AntNetSim::new(net(1), bad, 1).is_err());
        }
        let empty = NetworkBuilder::new(10).gateways(0).build(1).unwrap();
        assert!(AntNetSim::new(empty, AntNetConfig::new(5), 1).is_err());
    }

    #[test]
    fn backward_ants_install_routes_and_connectivity_rises() {
        let mut s = sim(3);
        let outcome = RoutingProtocol::run(&mut s, 80);
        assert!(RoutingProtocol::route_entries(&s) > 0, "no backward ant ever delivered");
        assert!(outcome.mean_connectivity(40..80).unwrap() > 0.0);
        assert!(s.validate_tables(Step::new(80)).is_ok());
        assert!(s.pheromone_tables().iter().any(|t| !t.is_empty()), "no pheromone deposited");
    }

    #[test]
    fn pheromone_keys_reference_real_gateways() {
        let mut s = sim(5);
        let _ = RoutingProtocol::run(&mut s, 60);
        let gws = s.net.gateways();
        for trails in s.pheromone_tables() {
            for ((gw, _), tau) in trails {
                assert!(gws.contains(gw), "pheromone toward non-gateway {gw}");
                assert!(*tau > 0.0 && tau.is_finite());
            }
        }
    }

    #[test]
    fn evaporation_dries_untended_trails() {
        let mut s = sim(7);
        let _ = RoutingProtocol::run(&mut s, 40);
        let before: f64 = s.pheromone_tables().iter().flat_map(|t| t.values()).copied().sum();
        assert!(before > 0.0);
        // Evaporate with no deposits: total strength strictly decays.
        s.evaporate();
        let after: f64 = s.pheromone_tables().iter().flat_map(|t| t.values()).copied().sum();
        assert!(after < before);
    }

    #[test]
    fn ttl_bounds_forward_paths() {
        let mut s = AntNetSim::new(net(9), AntNetConfig::new(10).ttl(5), 17).unwrap();
        let _ = RoutingProtocol::run(&mut s, 60);
        for ant in &s.ants {
            assert!(ant.path.len() <= 6, "path {} escaped ttl+1", ant.path.len());
        }
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let mut s = AntNetSim::new(net(2), AntNetConfig::new(10), seed).unwrap();
            let out = RoutingProtocol::run(&mut s, 50);
            (out, s.routes.tables().to_vec(), s.pheromone.clone(), s.overhead)
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
