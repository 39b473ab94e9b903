//! Seeded graph generators.
//!
//! The centrepiece is [`GeometricConfig`], which reproduces the paper's
//! wireless topologies: nodes scattered uniformly in a 2-D arena, each with
//! its **own** radio range (heterogeneous ranges are what make the links
//! directed), with the base range calibrated by bisection so the generated
//! digraph hits a target edge count — e.g. the paper's 300-node,
//! ≈2164-edge mapping network. Generation retries fresh placements until
//! the digraph is strongly connected, because the mapping task can only
//! finish on a strongly connected topology.

use crate::connectivity::is_strongly_connected;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::geometry::{Point2, Rect};
use crate::ids::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for the random geometric digraph generator.
///
/// ```
/// use agentnet_graph::generators::GeometricConfig;
///
/// let net = GeometricConfig::new(60, 420).generate(7).unwrap();
/// assert_eq!(net.graph.node_count(), 60);
/// // Edge count is calibrated to within tolerance of the target.
/// assert!((net.graph.edge_count() as i64 - 420).unsigned_abs() <= 42);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeometricConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Target number of *directed* edges; the base radio range is bisected
    /// until the edge count lands within [`Self::edge_tolerance`] of this.
    pub target_edges: usize,
    /// Acceptable absolute deviation from `target_edges` (default: 2 %).
    pub edge_tolerance: usize,
    /// Arena the nodes are placed in.
    pub arena: Rect,
    /// Radio-range heterogeneity `h`: each node's range is
    /// `base * U[1-h, 1+h]`. `h = 0` yields symmetric (undirected) links;
    /// the paper's "more realistic" environment uses `h > 0` so links are
    /// directed.
    pub range_heterogeneity: f64,
    /// Whether to require the result to be strongly connected (retrying
    /// placements until it is).
    pub require_strongly_connected: bool,
    /// Maximum fresh placements to try before giving up.
    pub max_retries: usize,
}

impl GeometricConfig {
    /// Creates a config with the crate defaults: unit-kilometre square
    /// arena, 25 % range heterogeneity, 2 % edge tolerance, strong
    /// connectivity required.
    pub fn new(nodes: usize, target_edges: usize) -> Self {
        GeometricConfig {
            nodes,
            target_edges,
            edge_tolerance: (target_edges / 50).max(4),
            arena: Rect::square(1000.0),
            range_heterogeneity: 0.25,
            require_strongly_connected: true,
            max_retries: 64,
        }
    }

    /// The paper's mapping network: 300 nodes, ≈2164 directed edges.
    pub fn paper_mapping() -> Self {
        GeometricConfig::new(300, 2164)
    }

    /// Sets the range heterogeneity (see [`Self::range_heterogeneity`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= h < 1.0`.
    pub fn with_heterogeneity(mut self, h: f64) -> Self {
        assert!((0.0..1.0).contains(&h), "heterogeneity must be in [0, 1)");
        self.range_heterogeneity = h;
        self
    }

    /// Sets the arena.
    pub fn with_arena(mut self, arena: Rect) -> Self {
        self.arena = arena;
        self
    }

    /// Generates a network from this config and a seed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for degenerate parameters and
    /// [`GraphError::GenerationFailed`] if no placement satisfying the
    /// constraints is found within `max_retries`.
    pub fn generate(&self, seed: u64) -> Result<GeometricNetwork, GraphError> {
        if self.nodes < 2 {
            return Err(GraphError::InvalidParameter {
                reason: format!("geometric network needs >= 2 nodes, got {}", self.nodes),
            });
        }
        let max_edges = self.nodes * (self.nodes - 1);
        if self.target_edges == 0 || self.target_edges > max_edges {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "target_edges {} outside (0, {max_edges}] for {} nodes",
                    self.target_edges, self.nodes
                ),
            });
        }
        for attempt in 0..self.max_retries {
            // Derive an independent stream per attempt so retries do not
            // correlate with each other.
            let mut rng =
                StdRng::seed_from_u64(seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let positions: Vec<Point2> = (0..self.nodes)
                .map(|_| {
                    Point2::new(
                        rng.random_range(0.0..self.arena.width),
                        rng.random_range(0.0..self.arena.height),
                    )
                })
                .collect();
            let h = self.range_heterogeneity;
            let range_factors: Vec<f64> =
                (0..self.nodes).map(|_| rng.random_range(1.0 - h..=1.0 + h)).collect();

            let base = calibrate_base_range(
                &positions,
                self.target_edges,
                self.arena.diagonal(),
                |i, base| base * range_factors[i],
            );
            let graph = build_geometric_graph(&positions, &range_factors, base);
            let within = (graph.edge_count() as i64 - self.target_edges as i64).unsigned_abs()
                as usize
                <= self.edge_tolerance;
            if !within {
                continue;
            }
            if self.require_strongly_connected && !is_strongly_connected(&graph) {
                continue;
            }
            return Ok(GeometricNetwork { positions, range_factors, base_range: base, graph });
        }
        Err(GraphError::GenerationFailed {
            reason: format!(
                "no {}-node geometric digraph with ~{} edges{} in {} attempts",
                self.nodes,
                self.target_edges,
                if self.require_strongly_connected { " (strongly connected)" } else { "" },
                self.max_retries
            ),
        })
    }
}

/// A generated wireless topology: node positions, per-node range factors,
/// the calibrated base range, and the induced link digraph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeometricNetwork {
    /// Node positions in the arena.
    pub positions: Vec<Point2>,
    /// Per-node multiplicative range factors.
    pub range_factors: Vec<f64>,
    /// Calibrated base radio range (metres).
    pub base_range: f64,
    /// The induced directed link graph: `i -> j` iff
    /// `dist(i, j) <= base_range * range_factors[i]`.
    pub graph: DiGraph,
}

impl GeometricNetwork {
    /// Effective radio range of node `i`.
    pub fn range_of(&self, node: NodeId) -> f64 {
        self.base_range * self.range_factors[node.index()]
    }
}

/// Bisects a base radio range over `[0, hi]` so that the directed edge
/// count of the induced disc graph straddles `target`: 48 halvings,
/// returning the final midpoint. Node `i` at base `b` links to every
/// other node within `radius(i, b)`; both [`GeometricConfig`] and the
/// radio crate's network builder calibrate through this function.
///
/// Every pair's squared distance is computed once, and each step
/// re-tests only the pairs the bracket still leaves open. `radius` must
/// be non-decreasing in the base (callers scale it by positive
/// factors), so a pair inside at `lo` stays inside at every larger base
/// and a pair outside at `hi` stays outside at every smaller one. Each
/// test is the same `d² <= r²` comparison a full count makes, so the
/// result is bit-identical to counting all `n(n-1)` pairs at every
/// step. Memory is `O(n²)`; large networks pin their range instead.
pub fn calibrate_base_range(
    positions: &[Point2],
    target: usize,
    hi: f64,
    radius: impl Fn(usize, f64) -> f64,
) -> f64 {
    let n = positions.len();
    let pairs = n * n.saturating_sub(1);
    let mut dist_sq = Vec::with_capacity(pairs);
    let mut source = Vec::with_capacity(pairs);
    for (i, &pi) in positions.iter().enumerate() {
        for (j, &pj) in positions.iter().enumerate() {
            if i != j {
                dist_sq.push(pi.distance_sq(pj));
                source.push(NodeId::new(i));
            }
        }
    }
    let mut r_sq = vec![0.0f64; n];
    // Pairs `start..end` are undecided; `inside` counts those known to
    // be inside at `lo`, hence at every base the bisection still tries.
    let (mut lo, mut hi) = (0.0f64, hi);
    let (mut start, mut end) = (0usize, pairs);
    let mut inside = 0usize;
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        for (i, r2) in r_sq.iter_mut().enumerate() {
            let r = radius(i, mid);
            *r2 = r * r;
        }
        // Partition the undecided pairs: those inside at `mid` first.
        let mut split = start;
        for k in start..end {
            if dist_sq[k] <= r_sq[source[k].index()] {
                dist_sq.swap(split, k);
                source.swap(split, k);
                split += 1;
            }
        }
        if inside + (split - start) < target {
            lo = mid;
            inside += split - start;
            start = split;
        } else {
            hi = mid;
            end = split;
        }
    }
    0.5 * (lo + hi)
}

fn build_geometric_graph(positions: &[Point2], factors: &[f64], base: f64) -> DiGraph {
    let mut g = DiGraph::new(positions.len());
    for (i, &pi) in positions.iter().enumerate() {
        let r = base * factors[i];
        let r2 = r * r;
        for (j, &pj) in positions.iter().enumerate() {
            if i != j && pi.distance_sq(pj) <= r2 {
                g.add_edge(NodeId::new(i), NodeId::new(j));
            }
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)` digraph: each ordered pair `(i, j)`, `i != j`,
/// receives an edge independently with probability `p`.
///
/// ```
/// use agentnet_graph::generators::erdos_renyi;
/// let g = erdos_renyi(20, 0.2, 7).unwrap();
/// assert_eq!(g.node_count(), 20);
/// assert_eq!(g, erdos_renyi(20, 0.2, 7).unwrap()); // seeded
/// ```
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is outside `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<DiGraph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability {p} outside [0, 1]"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.random::<f64>() < p {
                g.add_edge(NodeId::new(i), NodeId::new(j));
            }
        }
    }
    Ok(g)
}

/// Directed ring `0 -> 1 -> ... -> n-1 -> 0`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn directed_ring(n: usize) -> DiGraph {
    assert!(n >= 2, "ring needs at least 2 nodes");
    let mut g = DiGraph::new(n);
    for i in 0..n {
        g.add_edge(NodeId::new(i), NodeId::new((i + 1) % n));
    }
    g
}

/// Bidirectional `rows x cols` grid (4-neighbourhood); a simple symmetric
/// topology useful in tests.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> DiGraph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut g = DiGraph::new(rows * cols);
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
                g.add_edge(id(r, c + 1), id(r, c));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
                g.add_edge(id(r + 1, c), id(r, c));
            }
        }
    }
    g
}

/// Complete digraph on `n` nodes (every ordered pair linked).
pub fn complete(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.add_edge(NodeId::new(i), NodeId::new(j));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_strongly_connected;

    #[test]
    fn geometric_hits_target_edges() {
        let cfg = GeometricConfig::new(80, 560);
        let net = cfg.generate(42).unwrap();
        let err = (net.graph.edge_count() as i64 - 560).unsigned_abs() as usize;
        assert!(err <= cfg.edge_tolerance, "edge error {err} > tolerance");
    }

    #[test]
    fn geometric_is_strongly_connected_when_required() {
        let net = GeometricConfig::new(60, 480).generate(3).unwrap();
        assert!(is_strongly_connected(&net.graph));
    }

    #[test]
    fn geometric_is_deterministic_per_seed() {
        let cfg = GeometricConfig::new(50, 300);
        let a = cfg.generate(9).unwrap();
        let b = cfg.generate(9).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn geometric_seeds_differ() {
        let cfg = GeometricConfig::new(50, 300);
        let a = cfg.generate(1).unwrap();
        let b = cfg.generate(2).unwrap();
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn heterogeneity_zero_gives_symmetric_links() {
        let net = GeometricConfig::new(40, 200).with_heterogeneity(0.0).generate(5).unwrap();
        assert!(net.graph.is_symmetric());
    }

    #[test]
    fn heterogeneity_produces_asymmetric_links() {
        let mut cfg = GeometricConfig::new(80, 400).with_heterogeneity(0.4);
        // Asymmetry does not need strong connectivity, and a sparse digraph
        // with very heterogeneous ranges is rarely strongly connected.
        cfg.require_strongly_connected = false;
        let net = cfg.generate(5).unwrap();
        assert!(!net.graph.is_symmetric(), "expected at least one one-way link");
    }

    #[test]
    fn geometric_rejects_bad_parameters() {
        assert!(matches!(
            GeometricConfig::new(1, 10).generate(0),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            GeometricConfig::new(10, 0).generate(0),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            GeometricConfig::new(10, 1000).generate(0),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn range_of_uses_factor() {
        let net = GeometricConfig::new(30, 120).generate(11).unwrap();
        let id = NodeId::new(3);
        assert!((net.range_of(id) - net.base_range * net.range_factors[3]).abs() < 1e-12);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let empty = erdos_renyi(10, 0.0, 1).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(10, 1.0, 1).unwrap();
        assert_eq!(full.edge_count(), 90);
        assert!(erdos_renyi(10, 1.5, 1).is_err());
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        assert_eq!(erdos_renyi(20, 0.3, 7).unwrap(), erdos_renyi(20, 0.3, 7).unwrap());
    }

    #[test]
    fn ring_grid_complete_shapes() {
        let r = directed_ring(5);
        assert_eq!(r.edge_count(), 5);
        assert!(is_strongly_connected(&r));

        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // 2*(rows*(cols-1) + cols*(rows-1)) directed edges
        assert_eq!(g.edge_count(), 2 * (3 * 3 + 4 * 2));
        assert!(g.is_symmetric());
        assert!(is_strongly_connected(&g));

        let k = complete(4);
        assert_eq!(k.edge_count(), 12);
    }

    #[test]
    fn paper_mapping_config_matches_paper_constants() {
        let cfg = GeometricConfig::paper_mapping();
        assert_eq!(cfg.nodes, 300);
        assert_eq!(cfg.target_edges, 2164);
    }
}
