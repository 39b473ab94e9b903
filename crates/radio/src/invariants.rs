//! Physical-layer invariants over a [`WirelessNetwork`].
//!
//! These are [`Invariant`] implementations the simulation crates thread
//! through checked runs (see `agentnet_engine::invariant`): battery
//! charge must decay monotonically (and stay a valid fraction), the link
//! digraph must stay internally consistent with no self-links and equal
//! to the disc rule over the current node state, and a network whose
//! nodes all share one effective radio range must produce a *symmetric*
//! link graph — asymmetry can only come from heterogeneous ranges or
//! battery skew.

use crate::{SpatialGrid, WirelessNetwork};
use agentnet_engine::invariant::{Invariant, InvariantSet};
use agentnet_engine::Step;
use agentnet_graph::geometry::Point2;
use agentnet_graph::NodeId;

/// Tolerance for floating-point charge/range comparisons.
const EPS: f64 = 1e-9;

/// Battery charge is a fraction in `[0, 1]`, never increases from one
/// step to the next, and the effective range never exceeds the nominal
/// range.
///
/// A decay model whose floor sits *above* the current charge would lift
/// the charge back up; this checker flags that as a violation too, since
/// no physical battery recharges by decaying.
#[derive(Debug, Default)]
pub struct BatteryMonotone {
    prev: Vec<f64>,
}

impl BatteryMonotone {
    /// Creates an unprimed checker; the first check records a baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Invariant<WirelessNetwork> for BatteryMonotone {
    fn name(&self) -> &'static str {
        "radio-battery-monotone"
    }

    fn check(&mut self, net: &WirelessNetwork, _now: Step) -> Result<(), String> {
        let primed = self.prev.len() == net.node_count();
        for (i, node) in net.nodes().iter().enumerate() {
            let charge = node.battery.charge();
            if !(0.0..=1.0 + EPS).contains(&charge) {
                return Err(format!("node {i} charge {charge} outside [0, 1]"));
            }
            if node.effective_range() > node.nominal_range + EPS {
                return Err(format!(
                    "node {i} effective range {} exceeds nominal {}",
                    node.effective_range(),
                    node.nominal_range
                ));
            }
            if primed && charge > self.prev[i] + EPS {
                return Err(format!(
                    "node {i} charge rose {} -> {charge}; batteries only decay",
                    self.prev[i]
                ));
            }
        }
        self.prev.clear();
        self.prev.extend(net.nodes().iter().map(|n| n.battery.charge()));
        Ok(())
    }
}

/// The link digraph is internally consistent, covers exactly the node
/// set, and contains no self-links (a radio never links to itself).
#[derive(Debug, Default)]
pub struct LinksWellFormed;

impl Invariant<WirelessNetwork> for LinksWellFormed {
    fn name(&self) -> &'static str {
        "radio-links-consistent"
    }

    fn check(&mut self, net: &WirelessNetwork, _now: Step) -> Result<(), String> {
        let links = net.links();
        if links.node_count() != net.node_count() {
            return Err(format!(
                "link graph covers {} nodes, network has {}",
                links.node_count(),
                net.node_count()
            ));
        }
        links.check_consistency()?;
        for v in links.nodes() {
            if links.has_edge(v, v) {
                return Err(format!("self-link at node {v}"));
            }
        }
        Ok(())
    }
}

/// Every node's out-row is exactly the disc rule over the current node
/// state: the other nodes inside its effective range. Each row is
/// re-derived through a fresh [`SpatialGrid`] — one scratch row at a
/// time, no second graph — and compared with
/// [`WirelessNetwork::links`]. [`LinksWellFormed`] only proves the table
/// internally consistent; this proves the in-place link edits left no
/// row wrong.
#[derive(Debug, Default)]
pub struct LinksMatchGeometry {
    row: Vec<NodeId>,
}

impl Invariant<WirelessNetwork> for LinksMatchGeometry {
    fn name(&self) -> &'static str {
        "radio-links-match-geometry"
    }

    fn check(&mut self, net: &WirelessNetwork, _now: Step) -> Result<(), String> {
        let nodes = net.nodes();
        let positions: Vec<Point2> = nodes.iter().map(|n| n.position).collect();
        let max_range = nodes.iter().map(|n| n.effective_range()).fold(0.0f64, f64::max);
        let grid = SpatialGrid::build(net.arena(), max_range.max(1e-9), &positions)
            .map_err(|e| format!("cannot index the node positions: {e}"))?;
        for node in &nodes {
            let i = node.id.index();
            self.row.clear();
            self.row.extend(
                grid.candidates_within(node.position, node.effective_range())
                    .filter(|&j| j != i && node.covers(positions[j]))
                    .map(NodeId::new),
            );
            self.row.sort_unstable();
            let links = net.links().out_neighbors(node.id);
            if self.row != links {
                return Err(format!(
                    "node {i} links to {links:?}, but its range {} covers {:?}",
                    node.effective_range(),
                    self.row
                ));
            }
        }
        Ok(())
    }
}

/// When every node currently has the same effective radio range, link
/// coverage is mutual, so the link digraph must be symmetric. (With
/// heterogeneous ranges one-way links are expected and nothing is
/// asserted.)
#[derive(Debug, Default)]
pub struct SymmetricWhenHomogeneous;

impl Invariant<WirelessNetwork> for SymmetricWhenHomogeneous {
    fn name(&self) -> &'static str {
        "radio-symmetry-homogeneous"
    }

    fn check(&mut self, net: &WirelessNetwork, _now: Step) -> Result<(), String> {
        let nodes = net.nodes();
        let mut ranges = nodes.iter().map(|n| n.effective_range());
        let Some(first) = ranges.next() else { return Ok(()) };
        let homogeneous = ranges.all(|r| (r - first).abs() <= EPS * first.max(1.0));
        if homogeneous && !net.links().is_symmetric() {
            return Err(format!(
                "all effective ranges equal ({first}) but the link graph is asymmetric"
            ));
        }
        Ok(())
    }
}

/// The standard invariant set over a bare wireless network.
pub fn network_invariants() -> InvariantSet<WirelessNetwork> {
    let mut set = InvariantSet::new();
    set.register(BatteryMonotone::new());
    set.register(LinksWellFormed);
    set.register(LinksMatchGeometry::default());
    set.register(SymmetricWhenHomogeneous);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::{BatteryModel, BatteryState};
    use crate::NetworkBuilder;

    #[test]
    fn dynamic_network_satisfies_all_invariants() {
        let mut net =
            NetworkBuilder::new(30).gateways(2).target_edges(200).build(7).expect("buildable");
        let mut checks = network_invariants();
        assert_eq!(checks.len(), 4);
        for s in 0..50 {
            net.advance();
            checks.check_all(&net, Step::new(s)).expect("healthy network");
        }
    }

    #[test]
    fn homogeneous_static_network_must_be_symmetric() {
        // No gateways (no range boost), zero heterogeneity, no mobility:
        // every node shares one effective range.
        let net = NetworkBuilder::new(20)
            .target_edges(100)
            .mobile_fraction(0.0)
            .range_heterogeneity(0.0)
            .build(3)
            .expect("buildable");
        let mut check = SymmetricWhenHomogeneous;
        check.check(&net, Step::ZERO).expect("equal ranges imply symmetric links");
        assert!(net.links().is_symmetric());
    }

    #[test]
    fn links_left_stale_by_an_out_of_band_move_fail_the_disc_rule() {
        let mut net = NetworkBuilder::new(30)
            .gateways(2)
            .target_edges(200)
            .mobile_fraction(0.0)
            .build(7)
            .expect("buildable");
        let mut check = LinksMatchGeometry::default();
        check.check(&net, Step::ZERO).expect("freshly derived links match");
        // Move a linked node far away without refreshing: its own row
        // and every row that covered it are now wrong.
        let id = net.nodes().iter().find(|n| net.links().out_degree(n.id) > 0).unwrap().id;
        net.node_mut(id).position = Point2::new(-500.0, -500.0);
        let err = check.check(&net, Step::new(1)).unwrap_err();
        assert!(err.contains("covers"), "{err}");
        net.refresh_links();
        check.check(&net, Step::new(2)).expect("refreshed links match again");
    }

    #[test]
    fn recharged_battery_is_flagged() {
        let mut net =
            NetworkBuilder::new(10).gateways(1).target_edges(40).build(5).expect("buildable");
        let mut check = BatteryMonotone::new();
        check.check(&net, Step::ZERO).expect("baseline");
        let id = net.nodes()[3].id;
        net.node_mut(id).battery = BatteryState::with_charge(BatteryModel::Mains, 0.4);
        check.check(&net, Step::new(1)).expect("drain is legal");
        net.node_mut(id).battery = BatteryState::mains();
        let err = check.check(&net, Step::new(2)).unwrap_err();
        assert!(err.contains("charge rose"), "{err}");
    }
}
