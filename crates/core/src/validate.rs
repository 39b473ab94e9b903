//! Simulation invariants for the mapping and routing studies.
//!
//! Each type here implements `agentnet_engine::invariant::Invariant` over
//! one of the two simulations; [`mapping_invariants`] and
//! [`routing_invariants`] bundle the standard sets that
//! [`crate::mapping::MappingSim::run_checked`] and
//! [`crate::routing::RoutingSim::run_checked`] thread through every step.
//! The routing set also wraps the physical-layer checks from
//! `agentnet_radio::invariants` so a single checked run validates the
//! agent layer and the network substrate together.
//!
//! These predicates are deliberately *redundant* with what the
//! simulations promise: they re-derive bounds (footprint capacity, hop
//! caps, connectivity bracketing) from first principles so a modelling
//! regression that shifts a statistic without failing a unit test still
//! trips a checked run.

use crate::mapping::MappingSim;
use crate::routing::{RoutingProtocol, RoutingSim};
use agentnet_engine::invariant::{Invariant, InvariantSet};
use agentnet_engine::sim::{Step, TimeStepSim};
use agentnet_graph::connectivity::fraction_reaching;
use agentnet_graph::NodeId;
use agentnet_radio::invariants::{BatteryMonotone, LinksWellFormed, SymmetricWhenHomogeneous};
use agentnet_radio::WirelessNetwork;

/// Tolerance for floating-point fraction comparisons.
const EPS: f64 = 1e-9;

// ---------------------------------------------------------------------------
// Mapping invariants
// ---------------------------------------------------------------------------

/// Footprint boards cover exactly the node set and never hold more
/// imprints than the configured capacity.
#[derive(Debug, Default)]
pub struct MappingFootprintCapacity;

impl Invariant<MappingSim> for MappingFootprintCapacity {
    fn name(&self) -> &'static str {
        "mapping-footprint-capacity"
    }

    fn check(&mut self, sim: &MappingSim, _now: Step) -> Result<(), String> {
        let n = sim.graph().node_count();
        let boards = sim.boards();
        if boards.len() != n {
            return Err(format!("{} boards for {n} nodes", boards.len()));
        }
        let cap = sim.config().footprint_capacity;
        for (i, board) in boards.iter().enumerate() {
            if board.len() > cap {
                return Err(format!("board {i} holds {} footprints, capacity {cap}", board.len()));
            }
        }
        Ok(())
    }
}

/// Per-agent visit counts only grow: nodes visited first-hand and nodes
/// known through merges are both monotone, merged knowledge dominates
/// first-hand knowledge, and neither exceeds the node count.
#[derive(Debug, Default)]
pub struct MappingVisitMonotone {
    prev: Vec<(usize, usize)>,
}

impl Invariant<MappingSim> for MappingVisitMonotone {
    fn name(&self) -> &'static str {
        "mapping-visit-monotone"
    }

    fn check(&mut self, sim: &MappingSim, _now: Step) -> Result<(), String> {
        let n = sim.graph().node_count();
        let first = sim.first_visited_counts();
        let merged = sim.merged_visited_counts();
        let primed = self.prev.len() == first.len();
        for i in 0..first.len() {
            if merged[i] > n {
                return Err(format!("agent {i} knows {} of {n} nodes", merged[i]));
            }
            if merged[i] < first[i] {
                return Err(format!(
                    "agent {i} merged count {} below first-hand count {}",
                    merged[i], first[i]
                ));
            }
            if primed && (first[i] < self.prev[i].0 || merged[i] < self.prev[i].1) {
                return Err(format!(
                    "agent {i} visit counts shrank ({:?} -> ({}, {}))",
                    self.prev[i], first[i], merged[i]
                ));
            }
        }
        self.prev = first.into_iter().zip(merged).collect();
        Ok(())
    }
}

/// On a static topology, mean knowledge is a valid fraction and never
/// decreases. Once [`MappingSim::set_graph`] has drifted the topology,
/// stale knowledge may legitimately be unlearned, so nothing is asserted.
#[derive(Debug, Default)]
pub struct MappingKnowledgeMonotone {
    prev: Option<f64>,
}

impl Invariant<MappingSim> for MappingKnowledgeMonotone {
    fn name(&self) -> &'static str {
        "mapping-knowledge-monotone"
    }

    fn check(&mut self, sim: &MappingSim, _now: Step) -> Result<(), String> {
        if sim.graph_changed() {
            self.prev = None;
            return Ok(());
        }
        let k = sim.mean_knowledge();
        if !(0.0..=1.0 + EPS).contains(&k) {
            return Err(format!("mean knowledge {k} outside [0, 1]"));
        }
        if let Some(prev) = self.prev {
            if k < prev - EPS {
                return Err(format!("mean knowledge fell {prev} -> {k} on a static graph"));
            }
        }
        self.prev = Some(k);
        Ok(())
    }
}

/// Per-agent knowledge fractions are non-negative (and at most 1 while
/// the topology is static), and the worst agent never beats the mean.
#[derive(Debug, Default)]
pub struct MappingKnowledgeBounds;

impl Invariant<MappingSim> for MappingKnowledgeBounds {
    fn name(&self) -> &'static str {
        "mapping-knowledge-bounds"
    }

    fn check(&mut self, sim: &MappingSim, _now: Step) -> Result<(), String> {
        for (i, k) in sim.per_agent_knowledge().into_iter().enumerate() {
            if k < -EPS {
                return Err(format!("agent {i} knowledge {k} is negative"));
            }
            if !sim.graph_changed() && k > 1.0 + EPS {
                return Err(format!("agent {i} knowledge {k} above 1 on a static graph"));
            }
        }
        let (min, mean) = (sim.min_knowledge(), sim.mean_knowledge());
        if min > mean + EPS {
            return Err(format!("min knowledge {min} exceeds mean {mean}"));
        }
        Ok(())
    }
}

/// Agents only teleport along edges: between consecutive steps each agent
/// either stayed put or moved across an edge of the *current* graph
/// (moves are decided from the live topology, so this holds across
/// [`MappingSim::set_graph`] drifts too).
#[derive(Debug, Default)]
pub struct MappingMovesOnEdges {
    prev: Option<Vec<NodeId>>,
}

impl Invariant<MappingSim> for MappingMovesOnEdges {
    fn name(&self) -> &'static str {
        "mapping-moves-on-edges"
    }

    fn check(&mut self, sim: &MappingSim, _now: Step) -> Result<(), String> {
        let pos = sim.positions();
        let n = sim.graph().node_count();
        for (i, p) in pos.iter().enumerate() {
            if p.index() >= n {
                return Err(format!("agent {i} at out-of-range node {p}"));
            }
        }
        if let Some(prev) = &self.prev {
            for (i, (b, a)) in prev.iter().zip(&pos).enumerate() {
                if b != a && !sim.graph().has_edge(*b, *a) {
                    return Err(format!("agent {i} teleported {b} -> {a}"));
                }
            }
        }
        self.prev = Some(pos);
        Ok(())
    }
}

/// The completion count agrees with the per-agent knowledge fractions
/// (on a static topology) and with [`TimeStepSim::is_done`].
#[derive(Debug, Default)]
pub struct MappingCompletionConsistent;

impl Invariant<MappingSim> for MappingCompletionConsistent {
    fn name(&self) -> &'static str {
        "mapping-completion-consistent"
    }

    fn check(&mut self, sim: &MappingSim, _now: Step) -> Result<(), String> {
        let complete = sim.complete_agent_count();
        let population = sim.config().population;
        if complete > population {
            return Err(format!("{complete} complete agents out of {population}"));
        }
        if sim.is_done() != (complete == population) {
            return Err(format!(
                "is_done ({}) disagrees with completion count {complete}/{population}",
                sim.is_done()
            ));
        }
        if !sim.graph_changed() {
            let by_knowledge =
                sim.per_agent_knowledge().iter().filter(|&&k| k >= 1.0 - 1e-12).count();
            if by_knowledge != complete {
                return Err(format!(
                    "{by_knowledge} agents hold full knowledge but {complete} are marked complete"
                ));
            }
        }
        Ok(())
    }
}

/// The mapped topology's adjacency structure stays internally consistent
/// (sorted lists, mirrored in/out edges, exact edge count).
#[derive(Debug, Default)]
pub struct MappingGraphConsistent;

impl Invariant<MappingSim> for MappingGraphConsistent {
    fn name(&self) -> &'static str {
        "graph-adjacency-consistent"
    }

    fn check(&mut self, sim: &MappingSim, _now: Step) -> Result<(), String> {
        sim.graph().check_consistency()
    }
}

/// The standard invariant set over a mapping simulation.
pub fn mapping_invariants() -> InvariantSet<MappingSim> {
    let mut set = InvariantSet::new();
    set.register(MappingFootprintCapacity);
    set.register(MappingVisitMonotone::default());
    set.register(MappingKnowledgeMonotone::default());
    set.register(MappingKnowledgeBounds);
    set.register(MappingMovesOnEdges::default());
    set.register(MappingCompletionConsistent);
    set.register(MappingGraphConsistent);
    set
}

// ---------------------------------------------------------------------------
// Routing invariants
// ---------------------------------------------------------------------------

/// Every routing-table entry is well-formed: hop claims respect the
/// bounded history, next hops are real neighbours (never the node
/// itself), gateways actually exist, and nothing is installed in the
/// future.
#[derive(Debug, Default)]
pub struct RoutingTableBounds;

impl Invariant<RoutingSim> for RoutingTableBounds {
    fn name(&self) -> &'static str {
        "routing-table-bounds"
    }

    fn check(&mut self, sim: &RoutingSim, now: Step) -> Result<(), String> {
        let net = sim.network();
        let n = net.node_count();
        let history = sim.config().history_size as u32;
        for v in (0..n).map(NodeId::new) {
            for e in sim.table(v).entries() {
                if e.hops < 1 || e.hops > history {
                    return Err(format!("entry at {v} claims {} hops, history {history}", e.hops));
                }
                if e.next_hop == v || e.next_hop.index() >= n {
                    return Err(format!("entry at {v} has invalid next hop {}", e.next_hop));
                }
                if !net.gateways().contains(&e.gateway) {
                    return Err(format!("entry at {v} targets non-gateway {}", e.gateway));
                }
                if e.installed_at > now {
                    return Err(format!(
                        "entry at {v} installed in the future ({} > {now})",
                        e.installed_at
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A routing entry installed *this* step points back across the directed
/// link its agent just traversed (`next_hop -> node`), which must still
/// be live — the network only advances at the start of a step. (Older
/// entries may legitimately reference links that churn has since broken;
/// chain validation handles those.)
#[derive(Debug, Default)]
pub struct RoutingFreshEntryLiveLink;

impl Invariant<RoutingSim> for RoutingFreshEntryLiveLink {
    fn name(&self) -> &'static str {
        "routing-fresh-entry-live-link"
    }

    fn check(&mut self, sim: &RoutingSim, now: Step) -> Result<(), String> {
        let links = sim.network().links();
        for v in (0..sim.network().node_count()).map(NodeId::new) {
            for e in sim.table(v).entries() {
                if e.installed_at == now && !links.has_edge(e.next_hop, v) {
                    return Err(format!(
                        "fresh entry at {v} points across dead link {} -> {v}",
                        e.next_hop
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Agent state stays within its configured bounds: positions are valid
/// nodes, visit memories are nonempty and capped by the history size,
/// carried route claims never exceed the history, and footprint boards
/// respect their capacity.
#[derive(Debug, Default)]
pub struct RoutingAgentState;

impl Invariant<RoutingSim> for RoutingAgentState {
    fn name(&self) -> &'static str {
        "routing-agent-state"
    }

    fn check(&mut self, sim: &RoutingSim, _now: Step) -> Result<(), String> {
        let n = sim.network().node_count();
        let history = sim.config().history_size;
        for (i, p) in sim.positions().into_iter().enumerate() {
            if p.index() >= n {
                return Err(format!("agent {i} at out-of-range node {p}"));
            }
        }
        for (i, len) in sim.memory_sizes().into_iter().enumerate() {
            if len == 0 || len > history {
                return Err(format!("agent {i} memory holds {len} visits, history {history}"));
            }
        }
        for (i, hops) in sim.carried_hops().into_iter().enumerate() {
            if let Some(h) = hops {
                if h > history as u32 {
                    return Err(format!("agent {i} carries a {h}-hop claim, history {history}"));
                }
            }
        }
        let cap = sim.config().footprint_capacity;
        let boards = sim.boards();
        if boards.len() != n {
            return Err(format!("{} boards for {n} nodes", boards.len()));
        }
        for (i, board) in boards.iter().enumerate() {
            if board.len() > cap {
                return Err(format!("board {i} holds {} footprints, capacity {cap}", board.len()));
            }
        }
        Ok(())
    }
}

/// Connectivity is bracketed from first principles: at least the live
/// gateways themselves count as connected, and no next-hop chain can do
/// better than raw link-graph reachability of a live gateway (the
/// forwarding graph is a subgraph of the link graph).
#[derive(Debug, Default)]
pub struct RoutingConnectivityBounds;

impl Invariant<RoutingSim> for RoutingConnectivityBounds {
    fn name(&self) -> &'static str {
        "routing-connectivity-bounds"
    }

    fn check(&mut self, sim: &RoutingSim, _now: Step) -> Result<(), String> {
        let n = sim.network().node_count() as f64;
        let live = sim.live_gateways();
        let c = sim.connectivity();
        let lower = live.len() as f64 / n;
        if c < lower - EPS {
            return Err(format!("connectivity {c} below gateway floor {lower}"));
        }
        let upper = fraction_reaching(sim.network().links(), live);
        if c > upper + EPS {
            return Err(format!("connectivity {c} above reachability ceiling {upper}"));
        }
        Ok(())
    }
}

/// Differential check of the incremental route index: the per-step
/// connectivity value recorded by the simulation comes from the
/// delta-maintained index of its [`crate::routing::RouteBook`]; it must
/// be bit-identical to the from-scratch
/// [`RoutingProtocol::connectivity`] reference, or the index missed an
/// update.
#[derive(Debug, Default)]
pub struct RoutingIndexMatchesReference;

impl Invariant<RoutingSim> for RoutingIndexMatchesReference {
    fn name(&self) -> &'static str {
        "routing-index-matches-reference"
    }

    fn check(&mut self, sim: &RoutingSim, _now: Step) -> Result<(), String> {
        let Some(&recorded) = sim.connectivity_series().values().last() else {
            return Ok(());
        };
        let reference = sim.connectivity();
        if recorded != reference {
            return Err(format!(
                "incremental index recorded {recorded}, from-scratch reference {reference}"
            ));
        }
        Ok(())
    }
}

/// Adapts an invariant over the raw [`WirelessNetwork`] into one over a
/// [`RoutingSim`] by checking the simulation's network substrate.
struct OverNetwork<I>(I);

impl<I: Invariant<WirelessNetwork>> Invariant<RoutingSim> for OverNetwork<I> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn check(&mut self, sim: &RoutingSim, now: Step) -> Result<(), String> {
        self.0.check(sim.network(), now)
    }
}

/// The standard invariant set over a routing simulation: the five
/// agent-layer checks plus the physical-layer checks from
/// `agentnet_radio::invariants` applied to the underlying network.
pub fn routing_invariants() -> InvariantSet<RoutingSim> {
    let mut set = InvariantSet::new();
    set.register(RoutingTableBounds);
    set.register(RoutingFreshEntryLiveLink);
    set.register(RoutingAgentState);
    set.register(RoutingConnectivityBounds);
    set.register(RoutingIndexMatchesReference);
    set.register(OverNetwork(BatteryMonotone::new()));
    set.register(OverNetwork(LinksWellFormed));
    set.register(OverNetwork(SymmetricWhenHomogeneous));
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{MappingConfig, MappingSim};
    use crate::policy::{MappingPolicy, RoutingPolicy};
    use crate::routing::{RoutingConfig, RoutingSim};
    use agentnet_graph::generators::{grid, GeometricConfig};
    use agentnet_radio::{BatteryModel, BatteryState, NetworkBuilder};

    #[test]
    fn mapping_invariants_hold_to_completion() {
        let g = GeometricConfig::new(30, 180).generate(5).unwrap().graph;
        let cfg = MappingConfig::new(MappingPolicy::Conscientious, 4).stigmergic(true);
        let mut sim = MappingSim::new(g, cfg, 7).unwrap();
        let mut checks = mapping_invariants();
        assert_eq!(checks.len(), 7);
        let out = sim.run_checked(200_000, &mut checks).expect("no violations");
        assert!(out.finished);
    }

    #[test]
    fn mapping_invariants_hold_across_topology_drift() {
        let g1 = grid(4, 4);
        let cfg = MappingConfig::new(MappingPolicy::Conscientious, 4);
        let mut sim = MappingSim::new(g1.clone(), cfg, 8).unwrap();
        let mut checks = mapping_invariants();
        // Phase 1: static mapping under checks, driven manually so time
        // keeps advancing monotonically across the drift.
        let mut s = 0u64;
        while !sim.is_done() {
            sim.step(Step::new(s));
            checks.check_all(&sim, Step::new(s)).expect("static phase");
            s += 1;
            assert!(s < 10_000, "never finished the static phase");
        }
        // Drift: a link pair dies, a long link appears; re-map under the
        // same (stateful) checks.
        let mut g2 = g1.clone();
        g2.remove_edge(NodeId::new(0), NodeId::new(1));
        g2.remove_edge(NodeId::new(1), NodeId::new(0));
        g2.add_edge(NodeId::new(0), NodeId::new(5));
        g2.add_edge(NodeId::new(5), NodeId::new(0));
        sim.set_graph(g2);
        while !sim.is_done() {
            sim.step(Step::new(s));
            checks.check_all(&sim, Step::new(s)).expect("drifted phase");
            s += 1;
            assert!(s < 20_000, "never re-mapped the drifted topology");
        }
    }

    #[test]
    fn routing_invariants_hold_on_dynamic_network() {
        let net = NetworkBuilder::new(40).gateways(3).target_edges(320).build(2).unwrap();
        let cfg =
            RoutingConfig::new(RoutingPolicy::OldestNode, 12).communication(true).stigmergic(true);
        let mut sim = RoutingSim::new(net, cfg, 7).unwrap();
        let mut checks = routing_invariants();
        assert_eq!(checks.len(), 8);
        sim.run_checked(80, &mut checks).expect("no violations");
    }

    #[test]
    fn routing_invariants_hold_through_gateway_failure() {
        let net = NetworkBuilder::new(40)
            .gateways(3)
            .target_edges(320)
            .mobile_fraction(0.0)
            .build(16)
            .unwrap();
        let cfg = RoutingConfig::new(RoutingPolicy::OldestNode, 15);
        let mut sim = RoutingSim::new(net, cfg, 3).unwrap();
        let mut checks = routing_invariants();
        for s in 0..40 {
            sim.step(Step::new(s));
            checks.check_all(&sim, Step::new(s)).expect("pre-failure");
        }
        let victim = sim.network().gateways()[0];
        assert!(sim.fail_gateway(victim));
        for s in 40..80 {
            sim.step(Step::new(s));
            checks.check_all(&sim, Step::new(s)).expect("post-failure");
        }
    }

    #[test]
    fn recharged_battery_trips_the_wrapped_radio_invariant() {
        let net = NetworkBuilder::new(20).gateways(2).target_edges(120).build(5).unwrap();
        let cfg = RoutingConfig::new(RoutingPolicy::Random, 5);
        let mut sim = RoutingSim::new(net, cfg, 2).unwrap();
        let mut checks = routing_invariants();
        sim.step(Step::ZERO);
        checks.check_all(&sim, Step::ZERO).expect("baseline");
        let id = sim.network().nodes()[5].id;
        // Draining is a legal battery trajectory...
        sim.network_mut().node_mut(id).battery =
            BatteryState::with_charge(BatteryModel::Mains, 0.2);
        sim.step(Step::new(1));
        checks.check_all(&sim, Step::new(1)).expect("drain is legal");
        // ...recharging is not.
        sim.network_mut().node_mut(id).battery = BatteryState::mains();
        sim.step(Step::new(2));
        let violation = checks.check_all(&sim, Step::new(2)).unwrap_err();
        assert_eq!(violation.invariant, "radio-battery-monotone");
        assert_eq!(violation.at, Step::new(2));
        assert!(violation.message.contains("charge rose"), "{violation}");
    }

    #[test]
    fn invariant_names_are_distinct() {
        let mut names = mapping_invariants().names();
        names.extend(routing_invariants().names());
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate invariant names");
        assert!(total >= 8, "battery too small: {total}");
    }
}
