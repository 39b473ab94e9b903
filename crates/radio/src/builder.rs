//! Seeded construction of wireless networks.

use crate::battery::{BatteryModel, BatteryState};
use crate::mobility::{MobilityKind, Motion};
use crate::network::WirelessNetwork;
use crate::node::{NodeKind, WirelessNode};
use agentnet_graph::generators::calibrate_base_range;
use agentnet_graph::geometry::{Point2, Rect};
use agentnet_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::error::Error;
use std::fmt;

/// Errors from [`NetworkBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A builder parameter was out of range.
    InvalidParameter {
        /// Description of the problem.
        reason: String,
    },
    /// No placement met the initial-reachability constraint within the
    /// retry budget.
    GenerationFailed {
        /// Description of the unsatisfied constraint.
        reason: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            BuildError::GenerationFailed { reason } => {
                write!(f, "network generation failed: {reason}")
            }
        }
    }
}

impl Error for BuildError {}

/// Builder for a seeded [`WirelessNetwork`].
///
/// Defaults reproduce the flavour of the paper's routing environment:
/// 1 km² arena, heterogeneous radio ranges (directed links), half the
/// non-gateway nodes mobile with random velocities, mobile nodes on
/// decaying batteries, gateways stationary with a range boost ("high ...
/// connectivity capability").
///
/// ```
/// use agentnet_radio::NetworkBuilder;
/// let net = NetworkBuilder::new(40).gateways(2).build(1).unwrap();
/// assert_eq!(net.node_count(), 40);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkBuilder {
    nodes: usize,
    gateways: usize,
    mobile_fraction: f64,
    arena: Rect,
    range_heterogeneity: f64,
    target_edges: Option<usize>,
    speed_range: (f64, f64),
    mobility: MobilityKind,
    waypoint_pause: u32,
    mobile_battery: BatteryModel,
    gateway_range_boost: f64,
    min_initial_reachability: f64,
    max_retries: usize,
    base_range: Option<f64>,
    advance_shards: usize,
    grid_incremental: bool,
}

impl NetworkBuilder {
    /// Creates a builder for a network of `nodes` nodes with the defaults
    /// described on the type.
    pub fn new(nodes: usize) -> Self {
        NetworkBuilder {
            nodes,
            gateways: 0,
            mobile_fraction: 0.5,
            arena: Rect::square(1000.0),
            range_heterogeneity: 0.25,
            target_edges: None,
            speed_range: (2.0, 8.0),
            mobility: MobilityKind::RandomVelocity,
            waypoint_pause: 5,
            mobile_battery: BatteryModel::paper_mobile(),
            gateway_range_boost: 1.5,
            min_initial_reachability: 0.9,
            max_retries: 64,
            base_range: None,
            advance_shards: 1,
            grid_incremental: true,
        }
    }

    /// The paper's routing network: 250 nodes, 12 gateways, half mobile.
    pub fn paper_routing() -> Self {
        NetworkBuilder::new(250).gateways(12).target_edges(2000)
    }

    /// A scaling preset of `nodes` nodes at the paper's node density
    /// (250 per km²) and mean degree (~8): arena side grows with
    /// `sqrt(nodes)`, the base radio range is pinned instead of
    /// calibrated (the `O(n²)` edge-count bisection is intractable at
    /// 100k nodes), one gateway per 25 nodes, and no initial
    /// reachability constraint (a single placement, no retries).
    pub fn scaled_preset(nodes: usize) -> Self {
        let side = 1000.0 * (nodes as f64 / 250.0).sqrt();
        // 2.5e-4 nodes/m² * π * 101² m² ≈ 8 expected in-range peers —
        // the same mean degree target_edges defaults to.
        NetworkBuilder::new(nodes)
            .gateways((nodes / 25).max(1))
            .arena(Rect::square(side))
            .base_range(101.0)
            .min_initial_reachability(0.0)
    }

    /// [`Self::scaled_preset`] at 1 000 nodes.
    pub fn preset_1k() -> Self {
        NetworkBuilder::scaled_preset(1_000)
    }

    /// [`Self::scaled_preset`] at 10 000 nodes.
    pub fn preset_10k() -> Self {
        NetworkBuilder::scaled_preset(10_000)
    }

    /// [`Self::scaled_preset`] at 100 000 nodes.
    pub fn preset_100k() -> Self {
        NetworkBuilder::scaled_preset(100_000)
    }

    /// [`Self::scaled_preset`] at 1 000 000 nodes — the paper-density
    /// million-node arena (~63.2 km side, ~394k grid cells at the
    /// pinned 101 m range, well under the grid's clamp ceiling). Build
    /// and stepping are linear-memory; pair with
    /// [`Self::advance_shards`] for multi-core stepping.
    pub fn preset_1m() -> Self {
        NetworkBuilder::scaled_preset(1_000_000)
    }

    /// Number of gateway nodes.
    pub fn gateways(mut self, gateways: usize) -> Self {
        self.gateways = gateways;
        self
    }

    /// Fraction of non-gateway nodes that move (paper: 0.5).
    pub fn mobile_fraction(mut self, fraction: f64) -> Self {
        self.mobile_fraction = fraction;
        self
    }

    /// Simulation arena.
    pub fn arena(mut self, arena: Rect) -> Self {
        self.arena = arena;
        self
    }

    /// Radio-range heterogeneity `h` (per-node nominal range is
    /// `base * U[1-h, 1+h]`); `0` yields symmetric links.
    pub fn range_heterogeneity(mut self, h: f64) -> Self {
        self.range_heterogeneity = h;
        self
    }

    /// Calibrates the base radio range so the *initial* topology has about
    /// this many directed edges. Default: `8 * nodes`.
    pub fn target_edges(mut self, edges: usize) -> Self {
        self.target_edges = Some(edges);
        self
    }

    /// Mobile node speed range in metres per step (paper: random
    /// velocities).
    pub fn speed_range(mut self, min: f64, max: f64) -> Self {
        self.speed_range = (min, max);
        self
    }

    /// Mobility model for mobile nodes.
    pub fn mobility(mut self, kind: MobilityKind) -> Self {
        self.mobility = kind;
        self
    }

    /// Battery model applied to mobile nodes (stationary nodes and
    /// gateways are mains-powered).
    pub fn mobile_battery(mut self, model: BatteryModel) -> Self {
        self.mobile_battery = model;
        self
    }

    /// Range multiplier for gateways (their "high connectivity
    /// capability").
    pub fn gateway_range_boost(mut self, boost: f64) -> Self {
        self.gateway_range_boost = boost;
        self
    }

    /// Minimum fraction of nodes that must be able to reach a gateway in
    /// the initial topology; placements failing this are regenerated.
    /// Ignored when there are no gateways.
    pub fn min_initial_reachability(mut self, fraction: f64) -> Self {
        self.min_initial_reachability = fraction;
        self
    }

    /// Pins the base radio range in metres instead of calibrating it
    /// against [`Self::target_edges`] — the only tractable option for
    /// the large scaling presets, where the calibration's `O(n²)`
    /// pairwise edge count dominates construction.
    pub fn base_range(mut self, metres: f64) -> Self {
        self.base_range = Some(metres);
        self
    }

    /// Number of contiguous column shards the built network steps in
    /// parallel per [`WirelessNetwork::advance`] (default 1 =
    /// sequential). Results are bitwise identical for every value; see
    /// [`WirelessNetwork::set_advance_shards`].
    pub fn advance_shards(mut self, shards: usize) -> Self {
        self.advance_shards = shards;
        self
    }

    /// Whether the built network may refresh its spatial grid
    /// incrementally when few nodes move per step (default `true`).
    /// Grid contents and links are byte-identical either way; see
    /// [`WirelessNetwork::set_grid_incremental`]. Disable to bench the
    /// from-scratch re-index in isolation.
    pub fn grid_incremental(mut self, enabled: bool) -> Self {
        self.grid_incremental = enabled;
        self
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidParameter`] for inconsistent parameters,
    /// [`BuildError::GenerationFailed`] when no placement reaches
    /// [`Self::min_initial_reachability`] within the retry budget.
    pub fn build(&self, seed: u64) -> Result<WirelessNetwork, BuildError> {
        self.validate()?;
        let target_edges = self.target_edges.unwrap_or(self.nodes * 8);
        for attempt in 0..self.max_retries {
            let attempt_seed = seed ^ (attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
            let mut rng = StdRng::seed_from_u64(attempt_seed);
            let net = self.build_once(target_edges, attempt_seed, &mut rng);
            if self.gateways == 0
                || self.min_initial_reachability <= 0.0
                || net.reachability_upper_bound() >= self.min_initial_reachability
            {
                return Ok(net);
            }
        }
        Err(BuildError::GenerationFailed {
            reason: format!(
                "no placement of {} nodes reached initial gateway reachability {:.2} in {} attempts",
                self.nodes, self.min_initial_reachability, self.max_retries
            ),
        })
    }

    fn validate(&self) -> Result<(), BuildError> {
        let fail = |reason: String| Err(BuildError::InvalidParameter { reason });
        if self.nodes == 0 {
            return fail("network needs at least one node".into());
        }
        if self.gateways > self.nodes {
            return fail(format!("{} gateways exceed {} nodes", self.gateways, self.nodes));
        }
        if !(0.0..=1.0).contains(&self.mobile_fraction) {
            return fail(format!("mobile fraction {} outside [0, 1]", self.mobile_fraction));
        }
        if !(0.0..1.0).contains(&self.range_heterogeneity) {
            return fail(format!(
                "range heterogeneity {} outside [0, 1)",
                self.range_heterogeneity
            ));
        }
        if self.speed_range.0 < 0.0 || self.speed_range.1 < self.speed_range.0 {
            return fail(format!("bad speed range {:?}", self.speed_range));
        }
        if self.gateway_range_boost <= 0.0 {
            return fail("gateway range boost must be positive".into());
        }
        let max_edges = self.nodes.saturating_mul(self.nodes.saturating_sub(1));
        if let Some(t) = self.target_edges {
            if self.nodes > 1 && (t == 0 || t > max_edges) {
                return fail(format!("target edges {t} outside (0, {max_edges}]"));
            }
        }
        if let Some(r) = self.base_range {
            if !(r.is_finite() && r > 0.0) {
                return fail(format!("base range {r} must be positive and finite"));
            }
        }
        if self.advance_shards == 0 {
            return fail("advance shards must be at least 1".into());
        }
        // Rect's constructors validate, but its dimension fields are
        // public — reject a post-hoc-degenerate arena here rather than
        // panicking deep inside the grid build.
        let arena_finite = self.arena.width.is_finite()
            && self.arena.height.is_finite()
            && self.arena.min_x().is_finite()
            && self.arena.min_y().is_finite();
        if !arena_finite {
            return fail(format!(
                "arena {}x{} must have finite dimensions and corners",
                self.arena.width, self.arena.height
            ));
        }
        Ok(())
    }

    fn build_once(
        &self,
        target_edges: usize,
        mobility_seed: u64,
        rng: &mut StdRng,
    ) -> WirelessNetwork {
        let n = self.nodes;
        let positions: Vec<Point2> = (0..n)
            .map(|_| {
                Point2::new(
                    rng.random_range(self.arena.min_x()..self.arena.max_x()),
                    rng.random_range(self.arena.min_y()..self.arena.max_y()),
                )
            })
            .collect();
        let h = self.range_heterogeneity;
        let factors: Vec<f64> = (0..n)
            .map(|_| if h == 0.0 { 1.0 } else { rng.random_range(1.0 - h..=1.0 + h) })
            .collect();

        // Assign roles: a random subset are gateways; among the rest, a
        // random `mobile_fraction` are mobile.
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        let gateway_set: std::collections::HashSet<usize> =
            ids.iter().copied().take(self.gateways).collect();
        let rest: Vec<usize> = ids[self.gateways..].to_vec();
        let mobile_count = ((n - self.gateways) as f64 * self.mobile_fraction).round() as usize;
        let mobile_set: std::collections::HashSet<usize> =
            rest.into_iter().take(mobile_count).collect();

        let boost =
            |i: usize| if gateway_set.contains(&i) { self.gateway_range_boost } else { 1.0 };
        let base = if let Some(pinned) = self.base_range {
            pinned
        } else if n > 1 {
            calibrate_base_range(&positions, target_edges, self.arena.diagonal(), |i, mid| {
                mid * factors[i] * boost(i)
            })
        } else {
            1.0
        };

        let nodes: Vec<WirelessNode> = (0..n)
            .map(|i| {
                let kind = if gateway_set.contains(&i) {
                    NodeKind::Gateway
                } else if mobile_set.contains(&i) {
                    NodeKind::Mobile
                } else {
                    NodeKind::Stationary
                };
                let battery = if kind.is_mobile() {
                    BatteryState::new(self.mobile_battery)
                } else {
                    BatteryState::mains()
                };
                let motion = if kind.is_mobile() {
                    match self.mobility {
                        MobilityKind::RandomVelocity => {
                            Motion::sample_random_velocity(self.speed_range, rng)
                        }
                        MobilityKind::RandomWaypoint => Motion::sample_random_waypoint(
                            self.speed_range,
                            self.waypoint_pause,
                            self.arena,
                            rng,
                        ),
                        MobilityKind::GaussMarkov => Motion::sample_gauss_markov(
                            self.speed_range,
                            0.85,
                            0.3 * (self.speed_range.0 + self.speed_range.1),
                            rng,
                        ),
                    }
                } else {
                    Motion::Stationary
                };
                WirelessNode {
                    id: NodeId::new(i),
                    position: positions[i],
                    nominal_range: base * factors[i] * boost(i),
                    kind,
                    battery,
                    motion,
                }
            })
            .collect();
        let mut net = WirelessNetwork::from_nodes_sharded(
            self.arena,
            nodes,
            mobility_seed,
            self.advance_shards,
        );
        net.set_grid_incremental(self.grid_incremental);
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_hits_edge_target_approximately() {
        let net = NetworkBuilder::new(80).gateways(4).target_edges(640).build(3).unwrap();
        let edges = net.links().edge_count();
        assert!((edges as i64 - 640).unsigned_abs() <= 64, "edge count {edges} too far from 640");
    }

    #[test]
    fn build_is_deterministic() {
        let b = NetworkBuilder::new(50).gateways(3);
        let a = b.build(7).unwrap();
        let c = b.build(7).unwrap();
        assert_eq!(a.links(), c.links());
        assert_eq!(a.nodes(), c.nodes());
    }

    #[test]
    fn gateway_and_mobile_counts() {
        let net = NetworkBuilder::new(60).gateways(5).mobile_fraction(0.5).build(11).unwrap();
        let g = net.nodes().iter().filter(|n| n.kind.is_gateway()).count();
        let m = net.nodes().iter().filter(|n| n.kind.is_mobile()).count();
        assert_eq!(g, 5);
        assert_eq!(m, 28); // round(55 * 0.5)
    }

    #[test]
    fn gateways_are_stationary_and_mains() {
        let net = NetworkBuilder::new(40).gateways(4).build(2).unwrap();
        for node in net.nodes().iter().filter(|n| n.kind.is_gateway()) {
            assert!(node.motion.is_stationary());
            assert_eq!(node.battery.charge(), 1.0);
        }
    }

    #[test]
    fn mobile_nodes_have_motion_and_battery() {
        let net = NetworkBuilder::new(40).gateways(2).build(2).unwrap();
        for node in net.nodes().iter().filter(|n| n.kind.is_mobile()) {
            assert!(!node.motion.is_stationary());
            assert_ne!(node.battery.model(), BatteryModel::Mains);
        }
    }

    #[test]
    fn initial_reachability_constraint_holds() {
        let net =
            NetworkBuilder::new(100).gateways(6).min_initial_reachability(0.9).build(5).unwrap();
        assert!(net.reachability_upper_bound() >= 0.9);
    }

    #[test]
    fn zero_heterogeneity_network_is_symmetric_without_gateways() {
        let net =
            NetworkBuilder::new(40).range_heterogeneity(0.0).mobile_fraction(0.0).build(9).unwrap();
        assert!(net.links().is_symmetric());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            NetworkBuilder::new(0).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new(5).gateways(9).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new(5).mobile_fraction(1.5).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new(5).speed_range(5.0, 1.0).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new(5).target_edges(10_000).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn mobile_fraction_rejects_nan_and_edges_of_range() {
        // NaN fails RangeInclusive::contains, so it must be rejected,
        // not silently rounded into a mobile count.
        assert!(matches!(
            NetworkBuilder::new(5).mobile_fraction(f64::NAN).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new(5).mobile_fraction(-0.01).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        // The closed endpoints stay legal.
        let none = NetworkBuilder::new(10).mobile_fraction(0.0).build(1).unwrap();
        assert_eq!(none.nodes().iter().filter(|n| n.kind.is_mobile()).count(), 0);
        let all = NetworkBuilder::new(10).mobile_fraction(1.0).build(1).unwrap();
        assert_eq!(all.nodes().iter().filter(|n| n.kind.is_mobile()).count(), 10);
    }

    #[test]
    fn base_range_and_shards_are_validated() {
        assert!(matches!(
            NetworkBuilder::new(5).base_range(0.0).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new(5).base_range(f64::INFINITY).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new(5).advance_shards(0).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn pinned_base_range_skips_calibration_but_keeps_shape() {
        let net = NetworkBuilder::new(40)
            .gateways(2)
            .range_heterogeneity(0.0)
            .base_range(120.0)
            .min_initial_reachability(0.0)
            .build(4)
            .unwrap();
        for node in net.nodes().iter().filter(|n| !n.kind.is_gateway()) {
            assert_eq!(node.nominal_range, 120.0);
        }
    }

    #[test]
    fn scaled_preset_keeps_paper_density_and_degree() {
        // The 250-node preset is exactly the paper's arena; the mean
        // out-degree should land near the default target of 8.
        let b = NetworkBuilder::scaled_preset(250);
        let net = b.build(3).unwrap();
        assert_eq!(net.node_count(), 250);
        assert_eq!(net.gateways().len(), 10);
        assert!((net.arena().width - 1000.0).abs() < 1e-9);
        let mean_degree = net.links().edge_count() as f64 / 250.0;
        assert!((4.0..14.0).contains(&mean_degree), "mean degree {mean_degree} implausible");
    }

    #[test]
    fn preset_1k_builds_and_scales_arena() {
        let net = NetworkBuilder::preset_1k().advance_shards(4).build(5).unwrap();
        assert_eq!(net.node_count(), 1_000);
        assert_eq!(net.advance_shards(), 4);
        assert_eq!(net.gateways().len(), 40);
        assert!((net.arena().width - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn paper_routing_shape() {
        let b = NetworkBuilder::paper_routing();
        let net = b.build(1).unwrap();
        assert_eq!(net.node_count(), 250);
        assert_eq!(net.gateways().len(), 12);
        let mobile = net.nodes().iter().filter(|n| n.kind.is_mobile()).count();
        assert_eq!(mobile, 119); // round((250-12) * 0.5)
    }

    #[test]
    fn single_node_network_builds() {
        let net = NetworkBuilder::new(1).build(0).unwrap();
        assert_eq!(net.node_count(), 1);
        assert_eq!(net.links().edge_count(), 0);
    }

    #[test]
    fn scaled_preset_never_yields_zero_gateways() {
        // Regression guard on the `n / 25` gateway rule: integer
        // division truncates every sub-25-node preset to zero, which
        // the `.max(1)` clamp must catch — a gateway-less network would
        // make reachability metrics vacuous.
        for n in [1usize, 2, 5, 24] {
            let net = NetworkBuilder::scaled_preset(n).build(7).unwrap();
            assert_eq!(net.gateways().len(), 1, "{n}-node preset must clamp to one gateway");
        }
        // And the clamp must not distort the rule where it shouldn't.
        assert_eq!(NetworkBuilder::scaled_preset(25).build(7).unwrap().gateways().len(), 1);
        assert_eq!(NetworkBuilder::scaled_preset(50).build(7).unwrap().gateways().len(), 2);
    }

    #[test]
    fn preset_1m_parameters() {
        // Parameter-shape check only; the million-node build itself is
        // exercised by the `#[ignore]`d end-to-end test below.
        let small = NetworkBuilder::scaled_preset(250);
        let big = NetworkBuilder::preset_1m();
        assert_eq!(big, NetworkBuilder::scaled_preset(1_000_000));
        // Same density: arena side grows with sqrt(nodes).
        assert!((big.arena.width - 1000.0 * (1_000_000f64 / 250.0).sqrt()).abs() < 1e-6);
        assert!((big.arena.width / small.arena.width - (4000f64).sqrt()).abs() < 1e-6);
        assert_eq!(big.gateways, 40_000);
        assert_eq!(big.base_range, Some(101.0));
        assert_eq!(big.min_initial_reachability, 0.0);
    }

    #[test]
    fn degenerate_arena_is_rejected() {
        let mut arena = Rect::square(100.0);
        arena.width = f64::NAN;
        assert!(matches!(
            NetworkBuilder::new(5).arena(arena).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
        let mut arena = Rect::square(100.0);
        arena.height = f64::INFINITY;
        assert!(matches!(
            NetworkBuilder::new(5).arena(arena).build(0),
            Err(BuildError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn grid_incremental_knob_reaches_the_network() {
        let on = NetworkBuilder::new(10).build(3).unwrap();
        assert!(on.grid_incremental());
        let off = NetworkBuilder::new(10).grid_incremental(false).build(3).unwrap();
        assert!(!off.grid_incremental());
    }

    /// Full 1M-node end-to-end check: build the preset, step it, and
    /// confirm the grid never had to coarsen (no clamp events). Run
    /// explicitly with `cargo test -p agentnet-radio --release -- --ignored
    /// preset_1m_steps` — minutes of work and gigabytes of columns, so
    /// not part of the default suite.
    #[test]
    #[ignore = "million-node build: run explicitly in release"]
    fn preset_1m_steps_without_clamps() {
        let mut net = NetworkBuilder::preset_1m()
            .advance_shards(std::thread::available_parallelism().map_or(1, |p| p.get()))
            .build(5)
            .unwrap();
        assert_eq!(net.node_count(), 1_000_000);
        for _ in 0..3 {
            net.advance();
        }
        let stats = net.stats();
        assert_eq!(stats.advances, 3);
        assert_eq!(stats.grid_cell_clamps, 0, "1M preset must fit the grid without coarsening");
        assert!(net.links().edge_count() > 0);
    }
}
