//! The dynamic-routing simulation.
//!
//! Per step (paper §III.C), every agent: (1) looks at the neighbours of
//! its node and decides where to go; (2) optionally shares knowledge with
//! co-located agents; (3) moves, learning the edge it travels; (4) updates
//! the routing table of the node it now occupies from its own recent
//! knowledge. The network itself advances first — nodes move, batteries
//! decay, links break and reform.
//!
//! # Routing model
//!
//! Agents carry the distance to the gateway they most recently visited
//! (bounded by their *history size*). Walking away from a gateway, an
//! agent installs at every node it lands on a [`RouteEntry`] pointing
//! *back the way it came*. A node is **connected** iff following next-hop
//! entries over currently-live links reaches some gateway — the chain is
//! re-validated every step, so link churn silently invalidates routes
//! until agents re-repair them.

#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

use crate::agent::AgentId;
use crate::comm::GroupScratch;
use crate::error::CoreError;
use crate::history::VisitMemory;
use crate::overhead::{routing_agent_state_bytes, Overhead};
use crate::policy::{choose_move, RoutingPolicy, TieBreak};
use crate::routing::index::RouteBook;
use crate::routing::protocol::{ProtocolKind, RoutingProtocol};
use crate::routing::table::{RouteEntry, RoutingTable};
use crate::stigmergy::FootprintBoard;
use crate::trace::{TraceEvent, TraceLog};
use agentnet_engine::invariant::{run_until_checked, InvariantSet, InvariantViolation};
use agentnet_engine::sim::{Step, TimeStepSim};
use agentnet_engine::TimeSeries;
use agentnet_graph::NodeId;
use agentnet_radio::WirelessNetwork;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a routing run.
///
/// ```
/// use agentnet_core::routing::RoutingConfig;
/// use agentnet_core::policy::RoutingPolicy;
///
/// let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 100)
///     .history_size(20)
///     .communication(true);
/// assert_eq!(cfg.population, 100);
/// assert!(cfg.communication);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoutingConfig {
    /// Movement algorithm shared by the whole team.
    pub policy: RoutingPolicy,
    /// Number of agents.
    pub population: usize,
    /// Bounded history: caps how many hops from a gateway an agent keeps
    /// claiming a route, and the size of the visit memory the oldest-node
    /// policy steers by.
    pub history_size: usize,
    /// Direct communication: co-located agents exchange their best route
    /// claim and merge visit memories ("visiting").
    pub communication: bool,
    /// Stigmergy: agents avoid footprint-marked exits (the paper's
    /// future-work extension for routing).
    pub stigmergic: bool,
    /// Tie-breaking rule for equally-preferred neighbours.
    pub tie_break: TieBreak,
    /// Footprints kept per node board.
    pub footprint_capacity: usize,
    /// Footprint recency window in steps.
    pub footprint_window: u64,
    /// Ablation: run the sharing phase *before* the movement decision
    /// (the paper's order is decide-then-share).
    pub share_before_decide: bool,
    /// Trace ring capacity; 0 disables event tracing (the default).
    pub trace_capacity: usize,
}

impl RoutingConfig {
    /// Defaults: history 20, no communication, no stigmergy, random
    /// tie-break, paper phase order.
    pub fn new(policy: RoutingPolicy, population: usize) -> Self {
        RoutingConfig {
            policy,
            population,
            history_size: 20,
            communication: false,
            stigmergic: false,
            tie_break: TieBreak::default(),
            footprint_capacity: FootprintBoard::DEFAULT_CAPACITY,
            footprint_window: u64::MAX,
            share_before_decide: false,
            trace_capacity: 0,
        }
    }

    /// Sets the bounded history size.
    pub fn history_size(mut self, size: usize) -> Self {
        self.history_size = size;
        self
    }

    /// Enables or disables direct communication (visiting).
    pub fn communication(mut self, on: bool) -> Self {
        self.communication = on;
        self
    }

    /// Enables or disables stigmergy.
    pub fn stigmergic(mut self, on: bool) -> Self {
        self.stigmergic = on;
        self
    }

    /// Sets the tie-breaking rule.
    pub fn tie_break(mut self, tie: TieBreak) -> Self {
        self.tie_break = tie;
        self
    }

    /// Sets the per-node footprint board capacity.
    pub fn footprint_capacity(mut self, capacity: usize) -> Self {
        self.footprint_capacity = capacity;
        self
    }

    /// Sets the footprint recency window.
    pub fn footprint_window(mut self, window: u64) -> Self {
        self.footprint_window = window;
        self
    }

    /// Sets the share/decide phase order ablation.
    pub fn share_before_decide(mut self, on: bool) -> Self {
        self.share_before_decide = on;
        self
    }

    /// Enables event tracing with the given ring capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

/// A route claim carried by an agent: "`hops` hops ago I was at (or
/// learned a route to) `gateway`".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Carried {
    gateway: NodeId,
    hops: u32,
}

#[derive(Clone, Debug)]
struct RoutingAgent {
    at: NodeId,
    carried: Option<Carried>,
    memory: VisitMemory,
}

/// Result of a routing run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoutingOutcome {
    /// Fraction of nodes with a valid gateway route, per step.
    pub connectivity: TimeSeries,
}

impl RoutingOutcome {
    /// Mean connectivity over the half-open step window (the paper uses
    /// steps 150–300 after convergence). `None` if the window is empty or
    /// out of range.
    pub fn mean_connectivity(&self, window: std::ops::Range<usize>) -> Option<f64> {
        self.connectivity.window_mean(window)
    }
}

/// The dynamic-routing simulation.
#[derive(Clone, Debug)]
pub struct RoutingSim {
    net: WirelessNetwork,
    config: RoutingConfig,
    agents: Vec<RoutingAgent>,
    routes: RouteBook,
    boards: Vec<FootprintBoard>,
    rng: SmallRng,
    overhead: Overhead,
    trace: TraceLog,
    groups: GroupScratch,
    pending: Vec<Option<NodeId>>,
    avoid: Vec<NodeId>,
}

impl RoutingSim {
    /// Creates a routing simulation over a (typically dynamic) wireless
    /// network. Agents start on uniformly random nodes; one starting on a
    /// gateway immediately carries a zero-hop route claim.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty population, zero
    /// history, an empty network, or a network without gateways.
    pub fn new(net: WirelessNetwork, config: RoutingConfig, seed: u64) -> Result<Self, CoreError> {
        if config.population == 0 {
            return Err(CoreError::invalid("routing needs at least one agent"));
        }
        if config.history_size == 0 {
            return Err(CoreError::invalid("history size must be positive"));
        }
        if config.footprint_capacity == 0 {
            return Err(CoreError::invalid("footprint capacity must be positive"));
        }
        let n = net.node_count();
        if n == 0 {
            return Err(CoreError::invalid("routing needs a nonempty network"));
        }
        if net.gateways().is_empty() {
            return Err(CoreError::invalid("routing needs at least one gateway"));
        }
        let routes = RouteBook::new(&net);
        let mut rng = SmallRng::seed_from_u64(seed);
        let agents = (0..config.population)
            .map(|_| {
                let at = NodeId::new(rng.random_range(0..n));
                let mut memory = VisitMemory::new(config.history_size);
                memory.record(at, Step::ZERO);
                let carried = routes.is_gateway(at).then_some(Carried { gateway: at, hops: 0 });
                RoutingAgent { at, carried, memory }
            })
            .collect();
        let boards = (0..n).map(|_| FootprintBoard::new(config.footprint_capacity)).collect();
        let trace = TraceLog::new(config.trace_capacity);
        Ok(RoutingSim {
            net,
            config,
            agents,
            routes,
            boards,
            rng,
            overhead: Overhead::default(),
            trace,
            groups: GroupScratch::new(),
            pending: Vec::new(),
            avoid: Vec::new(),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// Mutable access to the network for fault-injection scenarios
    /// (e.g. draining a node's battery mid-run). Changes take effect
    /// at the next step's [`WirelessNetwork::advance`].
    pub fn network_mut(&mut self) -> &mut WirelessNetwork {
        &mut self.net
    }

    /// Fails a gateway's uplink: the node keeps its radio (agents can
    /// still traverse it) but no longer counts as an exit to the outside
    /// world — agents stop resetting route claims there and the
    /// connectivity metric stops accepting chains that end on it.
    /// Returns `false` if `id` was not a live gateway.
    pub fn fail_gateway(&mut self, id: NodeId) -> bool {
        self.routes.fail_gateway(id)
    }

    /// The routing table of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[allow(clippy::indexing_slicing)] // the documented panic above
    pub fn table(&self, node: NodeId) -> &RoutingTable {
        // Documented panic on an out-of-range node; inspection-only
        // accessor, never on the step path.
        // agentlint::allow(no-panic-in-kernel)
        &self.routes.tables()[node.index()]
    }

    /// Current node of each agent, in agent order.
    pub fn positions(&self) -> Vec<NodeId> {
        self.agents.iter().map(|a| a.at).collect()
    }

    /// Per-node footprint boards, indexed by node id.
    pub fn boards(&self) -> &[FootprintBoard] {
        &self.boards
    }

    /// Size of each agent's visit memory, in agent order.
    pub fn memory_sizes(&self) -> Vec<usize> {
        self.agents.iter().map(|a| a.memory.len()).collect()
    }

    /// Hop count of each agent's carried route claim (`None` when the
    /// agent holds no claim), in agent order.
    pub fn carried_hops(&self) -> Vec<Option<u32>> {
        self.agents.iter().map(|a| a.carried.map(|c| c.hops)).collect()
    }

    /// The event trace (empty unless
    /// [`RoutingConfig::trace_capacity`] is nonzero).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Like [`RoutingProtocol::run`], but validates `checks` after every
    /// step (see [`crate::validate::routing_invariants`] for the
    /// standard set).
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`]; the simulation is left
    /// in the violating state for inspection.
    pub fn run_checked(
        &mut self,
        steps: u64,
        checks: &mut InvariantSet<Self>,
    ) -> Result<RoutingOutcome, InvariantViolation> {
        run_until_checked(self, Step::new(steps), checks)?;
        Ok(RoutingOutcome { connectivity: self.routes.connectivity_series().clone() })
    }

    /// Movement-decision phase; fills `self.pending` with each agent's
    /// chosen target, reusing the scratch vectors across steps.
    fn decide(&mut self, now: Step) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        let mut avoid = std::mem::take(&mut self.avoid);
        for i in 0..self.agents.len() {
            let Some(agent) = self.agents.get(i) else { continue };
            let at = agent.at;
            let candidates = self.net.links().out_neighbors(at);
            if self.config.stigmergic {
                if let Some(board) = self.boards.get_mut(at.index()) {
                    board.marked_targets_into(now, self.config.footprint_window, &mut avoid);
                }
            } else {
                avoid.clear();
            }
            let choice = match self.config.policy {
                RoutingPolicy::Random => choose_move(
                    candidates,
                    &avoid,
                    None::<fn(NodeId) -> Option<Step>>,
                    self.config.tie_break,
                    0,
                    &mut self.rng,
                ),
                RoutingPolicy::OldestNode => choose_move(
                    candidates,
                    &avoid,
                    Some(|n: NodeId| agent.memory.last_visit(n)),
                    self.config.tie_break,
                    agent.memory.content_hash(),
                    &mut self.rng,
                ),
            };
            if self.config.stigmergic {
                if let Some(target) = choice {
                    if let Some(board) = self.boards.get_mut(at.index()) {
                        board.imprint(AgentId::new(i), target, now);
                    }
                    self.overhead.footprint_writes += 1;
                    if self.config.trace_capacity > 0 {
                        self.trace.record(TraceEvent::Footprint {
                            agent: AgentId::new(i),
                            node: at,
                            target,
                            at: now,
                        });
                    }
                }
            }
            pending.push(choice);
        }
        self.pending = pending;
        self.avoid = avoid;
    }

    /// Meeting phase: each co-located group agrees on the best route
    /// claim (fewest hops) and merges visit memories, leaving every
    /// participant identical — "all participating agents are going to be
    /// identical in term of history knowledge".
    fn share(&mut self, now: Step) {
        self.groups.group(self.net.node_count(), self.agents.iter().map(|a| a.at));
        let groups = std::mem::take(&mut self.groups);
        for (node, group) in groups.groups() {
            if group.len() < 2 {
                continue;
            }
            self.overhead.meeting_messages += (group.len() * (group.len() - 1)) as u64;
            if self.config.trace_capacity > 0 {
                self.trace.record(TraceEvent::Meeting {
                    node,
                    participants: group.len() as u32,
                    at: now,
                });
            }
            let best = group
                .iter()
                .filter_map(|&i| self.agents.get(i).and_then(|a| a.carried))
                .min_by_key(|c| (c.hops, c.gateway));
            if let Some(best) = best {
                for &i in group {
                    if let Some(agent) = self.agents.get_mut(i) {
                        agent.carried = Some(best);
                    }
                }
            }
            let Some((&first, rest)) = group.split_first() else { continue };
            let Some(mut merged) = self.agents.get(first).map(|a| a.memory.clone()) else {
                continue;
            };
            for &i in rest {
                if let Some(agent) = self.agents.get(i) {
                    merged.merge(&agent.memory);
                }
            }
            merged.canonicalize();
            for &i in group {
                if let Some(agent) = self.agents.get_mut(i) {
                    agent.memory = merged.clone();
                }
            }
        }
        self.groups = groups;
    }

    /// Move phase + routing-table update at the arrival node.
    fn move_and_update(&mut self, pending: &[Option<NodeId>], now: Step) {
        let history = self.config.history_size as u32;
        let state_bytes = routing_agent_state_bytes(self.config.history_size);
        for (i, (agent, &choice)) in self.agents.iter_mut().zip(pending).enumerate() {
            let prev = agent.at;
            let moved = match choice {
                Some(target) if target != prev => {
                    agent.at = target;
                    self.overhead.migrations += 1;
                    self.overhead.migrated_bytes += state_bytes;
                    if self.config.trace_capacity > 0 {
                        self.trace.record(TraceEvent::Moved {
                            agent: AgentId::new(i),
                            from: prev,
                            to: target,
                            at: now,
                        });
                    }
                    true
                }
                _ => false,
            };
            agent.memory.record(agent.at, now);
            if self.routes.is_gateway(agent.at) {
                // Standing on a gateway resets the claim to zero hops.
                agent.carried = Some(Carried { gateway: agent.at, hops: 0 });
                continue;
            }
            if !moved {
                continue;
            }
            match &mut agent.carried {
                Some(c) if c.hops < history => {
                    c.hops += 1;
                    self.routes.install(agent.at, RouteEntry::new(c.gateway, prev, c.hops, now));
                    self.overhead.table_writes += 1;
                    if self.config.trace_capacity > 0 {
                        self.trace.record(TraceEvent::TableWrite {
                            node: agent.at,
                            gateway: c.gateway,
                            next_hop: prev,
                            hops: c.hops,
                            at: now,
                        });
                    }
                }
                Some(_) => {
                    // The gateway visit fell out of the bounded history;
                    // the claim is forgotten.
                    agent.carried = None;
                }
                None => {}
            }
        }
    }
}

impl TimeStepSim for RoutingSim {
    fn step(&mut self, now: Step) {
        // The world changes first: nodes move, batteries decay.
        self.net.advance();

        if self.config.communication && self.config.share_before_decide {
            self.share(now);
        }
        self.decide(now);
        if self.config.communication && !self.config.share_before_decide {
            self.share(now);
        }
        let pending = std::mem::take(&mut self.pending);
        self.move_and_update(&pending, now);
        self.pending = pending;
        self.routes.revalidate(&self.net);
    }
}

impl RoutingProtocol for RoutingSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Agents
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

    fn small_net(seed: u64) -> WirelessNetwork {
        NetworkBuilder::new(40).gateways(3).target_edges(320).build(seed).unwrap()
    }

    fn static_net(seed: u64) -> WirelessNetwork {
        NetworkBuilder::new(40)
            .gateways(3)
            .target_edges(320)
            .mobile_fraction(0.0)
            .build(seed)
            .unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let net = small_net(1);
        assert!(
            RoutingSim::new(net.clone(), RoutingConfig::new(RoutingPolicy::Random, 0), 1).is_err()
        );
        assert!(RoutingSim::new(
            net.clone(),
            RoutingConfig::new(RoutingPolicy::Random, 1).history_size(0),
            1
        )
        .is_err());
        assert!(RoutingSim::new(
            net,
            RoutingConfig::new(RoutingPolicy::Random, 1).footprint_capacity(0),
            1
        )
        .is_err());
        let no_gw = NetworkBuilder::new(10).build(1).unwrap();
        assert!(RoutingSim::new(no_gw, RoutingConfig::new(RoutingPolicy::Random, 1), 1).is_err());
    }

    #[test]
    fn connectivity_starts_near_zero_and_rises() {
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 20);
        let mut sim = RoutingSim::new(small_net(2), cfg, 7).unwrap();
        let out = sim.run(120);
        let first = out.connectivity.values()[0];
        let late = out.mean_connectivity(80..120).unwrap();
        assert!(first < 0.5, "connectivity started too high: {first}");
        assert!(late > first, "connectivity never rose: {first} -> {late}");
        assert!(late > 0.3, "late connectivity too low: {late}");
    }

    #[test]
    fn gateways_always_count_connected() {
        let cfg = RoutingConfig::new(RoutingPolicy::Random, 1);
        let net = small_net(3);
        let gw = net.gateways().len();
        let n = net.node_count();
        let mut sim = RoutingSim::new(net, cfg, 1).unwrap();
        sim.step(Step::ZERO);
        assert!(sim.connectivity() >= gw as f64 / n as f64 - 1e-12);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 10).communication(true);
        let a = RoutingSim::new(small_net(4), cfg.clone(), 5).unwrap().run(60);
        let b = RoutingSim::new(small_net(4), cfg.clone(), 5).unwrap().run(60);
        assert_eq!(a, b);
        let c = RoutingSim::new(small_net(4), cfg, 6).unwrap().run(60);
        assert_ne!(a, c);
    }

    #[test]
    fn agents_move_along_live_links_on_static_net() {
        let net = static_net(5);
        let links = net.links().clone();
        let cfg = RoutingConfig::new(RoutingPolicy::Random, 8);
        let mut sim = RoutingSim::new(net, cfg, 2).unwrap();
        let before = sim.positions();
        sim.step(Step::ZERO);
        let after = sim.positions();
        for (b, a) in before.iter().zip(&after) {
            assert!(b == a || links.has_edge(*b, *a), "illegal hop {b} -> {a}");
        }
    }

    #[test]
    fn installed_entries_reference_gateways_and_neighbors() {
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 15);
        let mut sim = RoutingSim::new(static_net(6), cfg, 3).unwrap();
        let gws: std::collections::HashSet<NodeId> =
            sim.network().gateways().iter().copied().collect();
        for s in 0..50 {
            sim.step(Step::new(s));
        }
        let mut installed = 0;
        for i in 0..sim.network().node_count() {
            for e in sim.table(NodeId::new(i)).entries() {
                assert!(gws.contains(&e.gateway));
                assert!(e.hops >= 1);
                assert_ne!(e.next_hop, NodeId::new(i));
                installed += 1;
            }
        }
        assert!(installed > 0, "no entries were installed in 50 steps");
    }

    #[test]
    fn history_size_bounds_hop_claims() {
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 10).history_size(5);
        let mut sim = RoutingSim::new(static_net(8), cfg, 9).unwrap();
        for s in 0..80 {
            sim.step(Step::new(s));
        }
        for i in 0..sim.network().node_count() {
            for e in sim.table(NodeId::new(i)).entries() {
                assert!(e.hops <= 5, "claim exceeds history: {}", e.hops);
            }
        }
    }

    #[test]
    fn communication_makes_meeting_agents_identical() {
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 2).communication(true);
        let mut sim = RoutingSim::new(static_net(7), cfg, 4).unwrap();
        // Force a meeting on a non-gateway node with distinct knowledge.
        let spot = (0..sim.network().node_count())
            .map(NodeId::new)
            .find(|&n| !sim.routes.is_gateway(n))
            .unwrap();
        sim.agents[0].at = spot;
        sim.agents[0].carried = Some(Carried { gateway: sim.network().gateways()[0], hops: 7 });
        sim.agents[1].at = spot;
        sim.agents[1].carried = Some(Carried { gateway: sim.network().gateways()[1], hops: 3 });
        sim.share(Step::new(1));
        assert_eq!(sim.agents[0].carried, sim.agents[1].carried);
        assert_eq!(sim.agents[0].carried.unwrap().hops, 3);
        assert_eq!(sim.agents[0].memory, sim.agents[1].memory);
    }

    #[test]
    fn chain_validation_requires_live_links() {
        // Hand-build: 0 (gateway) <- 1 <- 2 with entries, then verify
        // connectivity counts all three; breaking the 1->0 link on the
        // table side (wrong next hop) invalidates the chain.
        let net = static_net(10);
        let cfg = RoutingConfig::new(RoutingPolicy::Random, 1);
        let mut sim = RoutingSim::new(net, cfg, 1).unwrap();
        let gw = sim.network().gateways()[0];
        // Find a neighbour chain gw <- a <- b on live links.
        let links = sim.network().links().clone();
        let a = *links.in_neighbors(gw).iter().find(|&&v| !sim.routes.is_gateway(v)).unwrap();
        let b =
            *links.in_neighbors(a).iter().find(|&&v| v != gw && !sim.routes.is_gateway(v)).unwrap();
        sim.routes.install(a, RouteEntry::new(gw, gw, 1, Step::ZERO));
        sim.routes.install(b, RouteEntry::new(gw, a, 2, Step::ZERO));
        let base = sim.network().gateways().len() as f64;
        let n = sim.network().node_count() as f64;
        assert!((sim.connectivity() - (base + 2.0) / n).abs() < 1e-12);
        // Point b's entry at a dead neighbour: chain collapses to a only.
        sim.routes.install(b, RouteEntry::new(gw, b, 2, Step::ZERO));
        assert!((sim.connectivity() - (base + 1.0) / n).abs() < 1e-12);
    }

    #[test]
    fn overhead_counters_accumulate() {
        let cfg =
            RoutingConfig::new(RoutingPolicy::OldestNode, 10).communication(true).stigmergic(true);
        let mut sim = RoutingSim::new(static_net(12), cfg, 3).unwrap();
        for s in 0..40 {
            sim.step(Step::new(s));
        }
        let o = sim.overhead();
        assert!(o.migrations > 0);
        assert!(o.migrated_bytes >= o.migrations); // at least a byte per hop
        assert!(o.footprint_writes > 0);
        assert!(o.table_writes > 0);
        // Every table write requires a migration with a live claim.
        assert!(o.table_writes <= o.migrations);
    }

    #[test]
    fn stigmergy_adds_only_footprint_overhead() {
        let base = RoutingConfig::new(RoutingPolicy::Random, 10);
        let mut plain = RoutingSim::new(static_net(12), base.clone(), 3).unwrap();
        let mut stig = RoutingSim::new(static_net(12), base.stigmergic(true), 3).unwrap();
        for s in 0..30 {
            plain.step(Step::new(s));
            stig.step(Step::new(s));
        }
        assert_eq!(plain.overhead().meeting_messages, 0);
        assert_eq!(plain.overhead().footprint_writes, 0);
        assert!(stig.overhead().footprint_writes > 0);
        // Footprints never add migration weight: bytes per hop identical.
        assert_eq!(plain.overhead().bytes_per_migration(), stig.overhead().bytes_per_migration());
    }

    #[test]
    fn failed_gateway_stops_counting_as_exit() {
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 15);
        let mut sim = RoutingSim::new(static_net(16), cfg, 3).unwrap();
        for s in 0..60 {
            sim.step(Step::new(s));
        }
        let before = sim.connectivity();
        let victim = sim.network().gateways()[0];
        assert!(sim.fail_gateway(victim));
        assert!(!sim.fail_gateway(victim), "double-fail must report false");
        assert_eq!(sim.live_gateways().len(), sim.network().gateways().len() - 1);
        let after = sim.connectivity();
        assert!(after <= before, "losing an exit cannot help: {before} -> {after}");
    }

    #[test]
    fn agents_stop_claiming_failed_gateways() {
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 15);
        let mut sim = RoutingSim::new(static_net(17), cfg, 4).unwrap();
        let victims: Vec<NodeId> = sim.network().gateways().to_vec();
        for v in &victims {
            sim.fail_gateway(*v);
        }
        for s in 0..30 {
            sim.step(Step::new(s));
        }
        // With every uplink dead, nothing should validate.
        assert_eq!(sim.connectivity(), 0.0);
    }

    #[test]
    fn trace_records_expected_event_kinds() {
        use crate::trace::TraceEvent;
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 8)
            .communication(true)
            .stigmergic(true)
            .trace_capacity(10_000);
        let mut sim = RoutingSim::new(static_net(14), cfg, 3).unwrap();
        for s in 0..30 {
            sim.step(Step::new(s));
        }
        let trace = sim.trace();
        assert!(trace.total_recorded() > 0);
        let mut moved = 0u64;
        let mut table = 0u64;
        let mut footprints = 0u64;
        for e in trace.events() {
            match e {
                TraceEvent::Moved { .. } => moved += 1,
                TraceEvent::TableWrite { .. } => table += 1,
                TraceEvent::Footprint { .. } => footprints += 1,
                TraceEvent::Meeting { .. } => {}
            }
        }
        assert!(moved > 0, "no moves traced");
        assert!(table > 0, "no table writes traced");
        assert!(footprints > 0, "no footprints traced");
        // Counters and trace agree when the ring never evicted.
        let o = sim.overhead();
        assert_eq!(moved, o.migrations);
        assert_eq!(table, o.table_writes);
        assert_eq!(footprints, o.footprint_writes);
    }

    #[test]
    fn tracing_off_by_default_costs_nothing() {
        let cfg = RoutingConfig::new(RoutingPolicy::Random, 5);
        let mut sim = RoutingSim::new(static_net(15), cfg, 2).unwrap();
        sim.step(Step::ZERO);
        assert_eq!(sim.trace().total_recorded(), 0);
        assert!(sim.trace().is_empty());
    }

    #[test]
    fn stigmergic_routing_runs_and_differs() {
        let base = RoutingConfig::new(RoutingPolicy::OldestNode, 12);
        let plain = RoutingSim::new(small_net(9), base.clone(), 3).unwrap().run(80);
        let stig = RoutingSim::new(small_net(9), base.stigmergic(true), 3).unwrap().run(80);
        assert_ne!(plain, stig, "stigmergy had no effect at all");
    }

    #[test]
    fn incremental_connectivity_matches_reference_every_step() {
        // Mobile network, communication on: topology churn exercises the
        // full-resync path, table writes the incremental path. The
        // recorded series must be bit-identical to the from-scratch
        // reference after every step.
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 20).communication(true);
        let mut sim = RoutingSim::new(small_net(2), cfg, 7).unwrap();
        for s in 0..80 {
            sim.step(Step::new(s));
            let recorded = *sim.connectivity_series().values().last().unwrap();
            assert_eq!(recorded, sim.connectivity(), "index diverged at step {s}");
        }
    }

    #[test]
    fn incremental_connectivity_tracks_gateway_failure() {
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 15);
        let mut sim = RoutingSim::new(static_net(16), cfg, 3).unwrap();
        for s in 0..40 {
            sim.step(Step::new(s));
        }
        sim.fail_gateway(sim.network().gateways()[0]);
        for s in 40..60 {
            sim.step(Step::new(s));
            let recorded = *sim.connectivity_series().values().last().unwrap();
            assert_eq!(recorded, sim.connectivity(), "index diverged at step {s}");
        }
    }

    #[test]
    fn eviction_after_boundary_exchange_does_not_panic() {
        // Entries installed late in a run carry stamps ahead of an
        // earlier observer's clock (a co-located exchange at a step
        // boundary). Aging and evicting against that earlier clock must
        // saturate to age 0, not panic in `Step::since`.
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 10).communication(true);
        let mut sim = RoutingSim::new(static_net(6), cfg, 3).unwrap();
        for s in 0..12 {
            sim.step(Step::new(s));
        }
        let mut future_stamped = 0usize;
        for i in 0..sim.network().node_count() {
            for e in sim.table(NodeId::new(i)).entries() {
                if e.installed_at > Step::new(5) {
                    future_stamped += 1;
                    assert_eq!(e.age(Step::new(5)), 0);
                }
            }
        }
        sim.routes.evict_older_than(Step::new(5), 1_000);
        assert!(future_stamped > 0, "no future-stamped entries; test is vacuous");
    }

    #[test]
    fn share_before_decide_ablation_changes_dynamics() {
        let base = RoutingConfig::new(RoutingPolicy::OldestNode, 15).communication(true);
        let a = RoutingSim::new(small_net(10), base.clone(), 3).unwrap().run(80);
        let b = RoutingSim::new(small_net(10), base.share_before_decide(true), 3).unwrap().run(80);
        assert_ne!(a, b);
    }
}
