//! The dynamic wireless network: nodes plus the link digraph they induce.

#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

use crate::battery::BatteryState;
use crate::mobility::Motion;
use crate::node::{NodeKind, WirelessNode};
use crate::spatial::SpatialGrid;
use agentnet_engine::rng::SeedSequence;
use agentnet_engine::Step;
use agentnet_graph::geometry::{Point2, Rect};
use agentnet_graph::{DiGraph, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};

/// Cumulative counters of substrate-level events since construction —
/// the radio layer's contribution to the run's metrics registry.
///
/// Counting happens inline in [`WirelessNetwork::advance`] (cheap
/// integer bumps; no allocation, no clock), so the counters are always
/// current and cost nothing to higher layers that never read them. The
/// initial link derivation at construction is setup, not an event:
/// a freshly built network reports all-zero stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Simulation steps taken ([`WirelessNetwork::advance`] calls).
    pub advances: u64,
    /// Link-table recomputations (node state drifted since the last).
    pub link_rebuilds: u64,
    /// Rebuilds whose edge set actually changed — exactly the number of
    /// [`WirelessNetwork::topology_version`] bumps.
    pub topology_bumps: u64,
    /// Directed links that appeared across topology changes.
    pub links_formed: u64,
    /// Directed links that disappeared across topology changes.
    pub links_broken: u64,
    /// Node-steps on which battery charge actually decayed (mains and
    /// floored batteries contribute nothing).
    pub battery_decay_steps: u64,
    /// Rebuilds on which the spatial grid coarsened its cell size to
    /// keep the cell table allocatable (see
    /// [`SpatialGrid::clamp_events`]) — nonzero means queries are
    /// paying for an extent/range ratio the grid couldn't honour.
    pub grid_cell_clamps: u64,
    /// Link rebuilds that refreshed the spatial grid incrementally
    /// (moving only the nodes that changed cell) instead of re-indexing
    /// from scratch — the low-mobile-fraction fast path. `serde(default)`
    /// keeps stats serialized before this counter existed readable.
    #[serde(default)]
    pub grid_incremental_updates: u64,
}

/// Largest fraction of nodes that may move in one step for the link
/// rebuild to refresh the spatial grid incrementally; above it, moving
/// nodes one-by-one loses to the sharded from-scratch re-index.
pub const GRID_INCREMENTAL_MAX_MOVED: f64 = 0.05;

/// A wireless ad-hoc network whose topology is re-derived from node
/// positions, battery charge and radio ranges every step.
///
/// The directed link `A -> B` exists iff `B`'s position lies inside `A`'s
/// *current effective* radio range. Mobility and battery decay make "links
/// broken and reformed frequently", exactly the environment of the paper's
/// routing study. A network whose nodes are all stationary and
/// mains-powered keeps a constant topology — the mapping study's setting.
///
/// Node state is stored in columnar (structure-of-arrays) form: column
/// `i` across the parallel vectors is node `i`. The columns are what the
/// per-step kernels actually touch, so they stay cache-dense and can be
/// split into disjoint contiguous shards for parallel stepping; the
/// [`WirelessNode`] view is assembled on demand for inspection.
///
/// Created through [`crate::NetworkBuilder`].
#[derive(Clone, Debug)]
pub struct WirelessNetwork {
    arena: Rect,
    /// Node positions (column `i` = node `i`, like every column below).
    positions: Vec<Point2>,
    /// Nominal (full-charge) radio ranges.
    nominal_ranges: Vec<f64>,
    /// Node roles.
    kinds: Vec<NodeKind>,
    /// Battery charge and decay models.
    batteries: Vec<BatteryState>,
    /// Motion state.
    motions: Vec<Motion>,
    /// Per-node mobility RNG streams, derived from the mobility seed by
    /// node index. Each stream travels with its column, so stepping the
    /// columns in any shard partition draws exactly the same values as
    /// the sequential path — the foundation of sharded determinism.
    node_rngs: Vec<SmallRng>,
    links: DiGraph,
    gateways: Vec<NodeId>,
    now: Step,
    /// Bumped every time `links` actually changes; lets higher layers
    /// (e.g. the routing index) skip revalidation on frozen topologies.
    topology_version: u64,
    /// Cached spatial index, re-bucketed in place when node state drifts.
    grid: SpatialGrid,
    /// Positions at the last link computation (also the grid's points).
    snap_positions: Vec<Point2>,
    /// Effective radio ranges at the last link computation.
    snap_ranges: Vec<f64>,
    /// Double buffer: links are rebuilt into this graph (reusing its edge
    /// storage) and swapped in only when the topology actually changed.
    scratch_links: DiGraph,
    /// Per-node out-neighbour rows the rebuild derives (possibly across
    /// shards in parallel) before the single ordered commit into
    /// `scratch_links`; reused across rebuilds.
    out_rows: Vec<Vec<NodeId>>,
    /// Number of contiguous column shards [`Self::advance`] steps in
    /// parallel; 1 (the default) runs the sequential in-place path.
    advance_shards: usize,
    /// Whether link rebuilds may refresh the grid incrementally when few
    /// nodes moved (on by default). The grid contents — and therefore
    /// links, `topology_version`, and every report — are byte-identical
    /// either way; only rebuild cost changes.
    grid_incremental: bool,
    /// Reused scratch: indices of nodes that moved since the last link
    /// computation, for the incremental grid path.
    scratch_moved: Vec<usize>,
    /// Cumulative substrate event counters since construction.
    stats: NetStats,
}

impl WirelessNetwork {
    /// Assembles a network from parts; link table is computed immediately.
    ///
    /// Most callers should use [`crate::NetworkBuilder`] instead. The
    /// `mobility_seed` roots the per-node RNG streams that drive motion
    /// models drawing at step time (waypoint re-targets, Gauss-Markov
    /// noise), so runs are reproducible at any shard count.
    ///
    /// # Panics
    ///
    /// Panics if node ids are not exactly `0..nodes.len()` in order, or
    /// if `arena` carries non-finite dimensions (possible only by
    /// mutating [`Rect`]'s public fields past its constructors).
    pub fn from_nodes(arena: Rect, nodes: Vec<WirelessNode>, mobility_seed: u64) -> Self {
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.id.index(), i, "node ids must be dense and ordered");
        }
        let gateways = nodes.iter().filter(|n| n.kind.is_gateway()).map(|n| n.id).collect();
        let n = nodes.len();
        let seeds = SeedSequence::new(mobility_seed);
        let mut net = WirelessNetwork {
            arena,
            positions: nodes.iter().map(|nd| nd.position).collect(),
            nominal_ranges: nodes.iter().map(|nd| nd.nominal_range).collect(),
            kinds: nodes.iter().map(|nd| nd.kind).collect(),
            batteries: nodes.iter().map(|nd| nd.battery).collect(),
            motions: nodes.iter().map(|nd| nd.motion).collect(),
            node_rngs: (0..n as u64)
                .map(|i| SmallRng::seed_from_u64(seeds.child(i).seed()))
                .collect(),
            links: DiGraph::new(n),
            gateways,
            now: Step::ZERO,
            topology_version: 0,
            grid: match SpatialGrid::build(arena, 1.0, &[]) {
                Ok(grid) => grid,
                // Documented panic: the arena must be finite, which
                // `Rect`'s constructors guarantee — reachable only by
                // mutating the public dimension fields to non-finite.
                // agentlint::allow(no-panic-in-kernel)
                Err(e) => panic!("invalid arena: {e}"),
            },
            snap_positions: Vec::new(),
            snap_ranges: Vec::new(),
            scratch_links: DiGraph::new(n),
            out_rows: Vec::new(),
            advance_shards: 1,
            grid_incremental: true,
            scratch_moved: Vec::new(),
            stats: NetStats::default(),
        };
        if n > 0 {
            net.rebuild_links();
        }
        // The initial link derivation is construction, not a simulated
        // event: stats start from zero.
        net.stats = NetStats::default();
        net
    }

    /// The simulation arena.
    pub fn arena(&self) -> Rect {
        self.arena
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// All nodes, ordered by id, assembled from the columnar state.
    pub fn nodes(&self) -> Vec<WirelessNode> {
        (0..self.positions.len()).filter_map(|i| self.assemble(i)).collect()
    }

    /// Assembles the row view of node `i`, or `None` out of range.
    fn assemble(&self, i: usize) -> Option<WirelessNode> {
        Some(WirelessNode {
            id: NodeId::new(i),
            position: *self.positions.get(i)?,
            nominal_range: *self.nominal_ranges.get(i)?,
            kind: *self.kinds.get(i)?,
            battery: *self.batteries.get(i)?,
            motion: *self.motions.get(i)?,
        })
    }

    /// The node with the given id, assembled from the columnar state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> WirelessNode {
        let Some(node) = self.assemble(id.index()) else {
            // Documented panic on an out-of-range id; inspection
            // accessor, not on the advance path.
            // agentlint::allow(no-panic-in-kernel)
            panic!("node {id} out of range for {} nodes", self.positions.len());
        };
        node
    }

    /// Mutable access to a node, for fault-injection scenarios (drain a
    /// battery, teleport a node, change its motion). The returned guard
    /// writes the row back into the columns when dropped; the link table
    /// does **not** refresh until the next [`Self::advance`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> NodeMut<'_> {
        let Some(node) = self.assemble(id.index()) else {
            // Documented panic on an out-of-range id; fault-injection
            // accessor, not on the advance path.
            // agentlint::allow(no-panic-in-kernel)
            panic!("node {id} out of range for {} nodes", self.positions.len());
        };
        NodeMut { net: self, node }
    }

    /// Writes a row view back into the columns (identity is positional:
    /// the row's id picks the column).
    fn store(&mut self, node: WirelessNode) {
        let i = node.id.index();
        if let Some(p) = self.positions.get_mut(i) {
            *p = node.position;
        }
        if let Some(r) = self.nominal_ranges.get_mut(i) {
            *r = node.nominal_range;
        }
        if let Some(k) = self.kinds.get_mut(i) {
            *k = node.kind;
        }
        if let Some(b) = self.batteries.get_mut(i) {
            *b = node.battery;
        }
        if let Some(m) = self.motions.get_mut(i) {
            *m = node.motion;
        }
    }

    /// Ids of gateway nodes.
    pub fn gateways(&self) -> &[NodeId] {
        &self.gateways
    }

    /// The current link digraph.
    pub fn links(&self) -> &DiGraph {
        &self.links
    }

    /// The current simulated time (number of [`Self::advance`] calls).
    pub fn now(&self) -> Step {
        self.now
    }

    /// Version counter of the link digraph: bumped exactly when
    /// [`Self::links`] changes, so consumers caching structures derived
    /// from the topology (routing indices, forwarding graphs) know when
    /// their caches are stale. An all-stationary, mains-powered network
    /// keeps a constant version forever.
    pub fn topology_version(&self) -> u64 {
        self.topology_version
    }

    /// Cumulative substrate event counters since construction (steps,
    /// rebuilds, link flips, battery decay) — see [`NetStats`].
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of contiguous column shards [`Self::advance`] steps in
    /// parallel. 1 is the sequential path.
    pub fn advance_shards(&self) -> usize {
        self.advance_shards
    }

    /// Sets the shard count used by [`Self::advance`] (clamped to at
    /// least 1). Results are bitwise identical for **every** value:
    /// per-node RNG streams travel with their columns and the link
    /// commit is a single ordered merge, so sharding changes wall-clock
    /// time only — `topology_version`, [`NetStats`] and all reports
    /// stay byte-for-byte equal to the sequential path.
    pub fn set_advance_shards(&mut self, shards: usize) {
        self.advance_shards = shards.max(1);
    }

    /// Whether link rebuilds may refresh the spatial grid incrementally
    /// when at most [`GRID_INCREMENTAL_MAX_MOVED`] of the nodes moved.
    pub fn grid_incremental(&self) -> bool {
        self.grid_incremental
    }

    /// Enables or disables incremental grid maintenance. Grid contents,
    /// links, `topology_version` and every report are byte-identical
    /// either way (differential-tested); only the rebuild cost — and the
    /// `grid_incremental_updates` counter — changes. Disable to bench
    /// the from-scratch re-index in isolation.
    pub fn set_grid_incremental(&mut self, enabled: bool) {
        self.grid_incremental = enabled;
    }

    /// Advances the network one time step: batteries decay, mobile nodes
    /// move, and the link table is refreshed.
    ///
    /// The refresh is incremental: if no node's position or effective
    /// range changed since the last computation (the mapping study's
    /// all-stationary mains networks, or any quiescent stretch), the link
    /// table is kept as-is without touching the heap; otherwise the graph
    /// is rebuilt into a reused double buffer and swapped in only when
    /// the edge set actually differs. With [`Self::set_advance_shards`]
    /// above 1 both the node step and the out-row derivation run on
    /// contiguous column shards in parallel, followed by the same
    /// ordered commit as the sequential path.
    #[agentnet::hot_path]
    pub fn advance(&mut self) {
        self.stats.advances += 1;
        self.step_nodes();
        if !self.positions.is_empty() && self.state_drifted() {
            self.rebuild_links();
        }
        self.now = self.now.next();
    }

    /// Recomputes the link table from the current node state even if
    /// nothing drifted — the forced counterpart of the incremental
    /// refresh inside [`Self::advance`], for callers that mutated state
    /// out of band and want links current without stepping time (and
    /// for benchmarking the rebuild in isolation).
    pub fn refresh_links(&mut self) {
        if !self.positions.is_empty() {
            self.rebuild_links();
        }
    }

    /// Steps batteries and motion for every node, splitting the columns
    /// into contiguous shards when configured. Battery decay counting
    /// merges in shard order, so the stats match the sequential path.
    #[agentnet::hot_path]
    fn step_nodes(&mut self) {
        let shards = self.advance_shards.min(self.positions.len()).max(1);
        if shards <= 1 {
            let arena = self.arena;
            let mut decayed = 0u64;
            for (((p, b), m), rng) in self
                .positions
                .iter_mut()
                .zip(&mut self.batteries)
                .zip(&mut self.motions)
                .zip(&mut self.node_rngs)
            {
                let charge_before = b.charge();
                b.step();
                if b.charge() < charge_before {
                    decayed += 1;
                }
                *p = m.advance(*p, arena, rng);
            }
            self.stats.battery_decay_steps += decayed;
        } else {
            self.stats.battery_decay_steps += self.step_nodes_sharded(shards);
        }
    }

    /// Parallel node step over disjoint contiguous column chunks; returns
    /// the battery-decay count summed in shard order. Each shard owns its
    /// slice of every column (including the RNG streams), so the values
    /// drawn are exactly the sequential path's.
    fn step_nodes_sharded(&mut self, shards: usize) -> u64 {
        let n = self.positions.len();
        let chunk = n.div_ceil(shards);
        let arena = self.arena;
        let mut decayed = vec![0u64; shards];
        std::thread::scope(|scope| {
            for ((((ps, bs), ms), rngs), d) in self
                .positions
                .chunks_mut(chunk)
                .zip(self.batteries.chunks_mut(chunk))
                .zip(self.motions.chunks_mut(chunk))
                .zip(self.node_rngs.chunks_mut(chunk))
                .zip(&mut decayed)
            {
                scope.spawn(move || {
                    for (((p, b), m), rng) in ps.iter_mut().zip(bs).zip(ms).zip(rngs) {
                        let charge_before = b.charge();
                        b.step();
                        if b.charge() < charge_before {
                            *d += 1;
                        }
                        *p = m.advance(*p, arena, rng);
                    }
                });
            }
        });
        decayed.iter().sum()
    }

    /// `true` if any node's position or effective range differs from the
    /// snapshot taken at the last link computation. Exact float equality
    /// is correct here: stationary motion returns the position unchanged
    /// and mains batteries never decay, so quiescent state is bitwise
    /// stable.
    #[agentnet::hot_path]
    fn state_drifted(&self) -> bool {
        self.positions.len() != self.snap_positions.len()
            || self.positions.iter().zip(&self.snap_positions).any(|(a, b)| a != b)
            || self
                .nominal_ranges
                .iter()
                .zip(&self.batteries)
                .zip(&self.snap_ranges)
                .any(|((&nr, b), &r)| nr * b.range_factor() != r)
    }

    /// Recomputes the link graph from current node state into the scratch
    /// buffer (reusing grid buckets, out-row scratch and adjacency
    /// storage), refreshes the drift snapshots, and swaps the result in
    /// if the topology changed. The out-row derivation may fan out over
    /// shards; everything from the row commit on is a single ordered
    /// sequential phase, which is what keeps `topology_version` and the
    /// stats byte-identical across shard counts.
    #[agentnet::hot_path]
    fn rebuild_links(&mut self) {
        self.snap_ranges.clear();
        self.snap_ranges.extend(
            self.nominal_ranges.iter().zip(&self.batteries).map(|(&nr, b)| nr * b.range_factor()),
        );
        let max_range = self.snap_ranges.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-9);
        // Cell size of the max range keeps candidate sets tight while the
        // 3x3 cell neighbourhood of a query still covers the whole disc.
        //
        // Incremental path: when few nodes moved since the last link
        // computation (diffed against the still-unrefreshed snapshot),
        // the grid moves just those nodes between cells. The grid
        // refuses when geometry changed (cell size follows `max_range`,
        // so decay of the node holding the largest range forces a full
        // re-index; decay elsewhere, e.g. under a mains gateway's
        // larger range, does not) or the grid is in a clamped regime,
        // keeping contents and clamp accounting byte-identical to the
        // from-scratch path.
        if !self.try_incremental_grid(max_range) {
            let shards = self.advance_shards.min(self.positions.len()).max(1);
            match self.grid.rebuild_sharded(self.arena, max_range, &self.positions, shards) {
                Ok(clamped) => {
                    if clamped {
                        self.stats.grid_cell_clamps += 1;
                    }
                }
                // Documented panic: construction validated the arena
                // finite and `max_range` is clamped positive above, so
                // degenerate geometry cannot reach a live network.
                // agentlint::allow(no-panic-in-kernel)
                Err(e) => panic!("grid rebuild on live network: {e}"),
            }
        }
        self.snap_positions.clear();
        self.snap_positions.extend_from_slice(&self.positions);
        self.derive_out_rows();
        self.scratch_links.set_sorted_out_rows(&self.out_rows);
        self.stats.link_rebuilds += 1;
        if self.scratch_links != self.links {
            // Per-link churn accounting happens only on the (already
            // O(E)-compared) changed topologies, never on quiescent steps.
            let (formed, broken) = Self::edge_diff(&self.scratch_links, &self.links);
            self.stats.links_formed += formed;
            self.stats.links_broken += broken;
            std::mem::swap(&mut self.scratch_links, &mut self.links);
            self.topology_version += 1;
            self.stats.topology_bumps += 1;
        }
    }

    /// Attempts the incremental grid refresh: diffs current positions
    /// against the last snapshot, and if at most
    /// [`GRID_INCREMENTAL_MAX_MOVED`] of the nodes moved, asks the grid
    /// to splice exactly those. Returns `false` (grid untouched) when
    /// disabled, too many nodes moved, or the grid declined — the caller
    /// falls back to the full sharded re-index.
    #[agentnet::hot_path]
    fn try_incremental_grid(&mut self, max_range: f64) -> bool {
        if !self.grid_incremental || self.positions.len() != self.snap_positions.len() {
            return false;
        }
        // agentlint::allow(no-lossy-cast) — fraction of a node count.
        let budget = (self.positions.len() as f64 * GRID_INCREMENTAL_MAX_MOVED) as usize;
        self.scratch_moved.clear();
        for (i, (p, old)) in self.positions.iter().zip(&self.snap_positions).enumerate() {
            if p != old {
                if self.scratch_moved.len() == budget {
                    return false;
                }
                self.scratch_moved.push(i);
            }
        }
        let applied = self.grid.incremental_update(
            self.arena,
            max_range,
            &self.positions,
            &self.scratch_moved,
        );
        if applied {
            self.stats.grid_incremental_updates += 1;
        }
        applied
    }

    /// Flat CSR cell arrays `(starts, entries)` of the cached spatial
    /// grid — see [`SpatialGrid::flat_cells`]. Exposed so differential
    /// tests and the validation battery can pin grid contents
    /// byte-identical across shard counts and maintenance paths.
    pub fn grid_cells(&self) -> (&[u32], &[u32]) {
        self.grid.flat_cells()
    }

    /// Derives every node's sorted out-neighbour row into the reused
    /// `out_rows` scratch, fanning out over contiguous shards when
    /// configured. Row `i` depends only on the (frozen) snapshot and the
    /// grid, so the partition cannot change any row's content.
    #[agentnet::hot_path]
    fn derive_out_rows(&mut self) {
        let n = self.snap_positions.len();
        if self.out_rows.len() != n {
            // Warm-up only: rows are reused across rebuilds.
            // agentlint::allow(no-alloc-in-hot-path)
            self.out_rows.resize_with(n, Vec::new);
        }
        let shards = self.advance_shards.min(n).max(1);
        if shards <= 1 {
            Self::fill_rows(
                &self.grid,
                &self.snap_positions,
                &self.snap_positions,
                &self.snap_ranges,
                0,
                &mut self.out_rows,
            );
        } else {
            self.derive_out_rows_sharded(shards);
        }
    }

    /// Parallel out-row derivation over disjoint contiguous row chunks.
    fn derive_out_rows_sharded(&mut self, shards: usize) {
        let n = self.snap_positions.len();
        let chunk = n.div_ceil(shards);
        let grid = &self.grid;
        let all = &self.snap_positions;
        std::thread::scope(|scope| {
            for (k, ((pos, ranges), rows)) in all
                .chunks(chunk)
                .zip(self.snap_ranges.chunks(chunk))
                .zip(self.out_rows.chunks_mut(chunk))
                .enumerate()
            {
                scope.spawn(move || Self::fill_rows(grid, all, pos, ranges, k * chunk, rows));
            }
        });
    }

    /// Fills the out-neighbour rows for nodes `offset..offset +
    /// positions.len()`: grid candidates filtered by the exact
    /// effective-range disc, sorted by id. Identical float math to the
    /// sequential per-edge test, so rows are bitwise partition-invariant.
    #[agentnet::hot_path]
    fn fill_rows(
        grid: &SpatialGrid,
        all_positions: &[Point2],
        positions: &[Point2],
        ranges: &[f64],
        offset: usize,
        rows: &mut [Vec<NodeId>],
    ) {
        for (local, ((&p, &r), row)) in positions.iter().zip(ranges).zip(rows).enumerate() {
            let i = offset + local;
            let r_sq = r * r;
            row.clear();
            for j in grid.candidates_within(p, r) {
                let covered =
                    j != i && all_positions.get(j).is_some_and(|&q| p.distance_sq(q) <= r_sq);
                if covered {
                    row.push(NodeId::new(j));
                }
            }
            row.sort_unstable();
        }
    }

    /// Directed edges present in `new` but not `old`, and vice versa.
    /// Neighbor lists are short (a node covers a handful of peers), so
    /// the per-node quadratic membership scan beats sorting or hashing —
    /// and allocates nothing.
    fn edge_diff(new: &DiGraph, old: &DiGraph) -> (u64, u64) {
        let mut formed = 0u64;
        let mut broken = 0u64;
        for i in 0..new.node_count() {
            let v = NodeId::new(i);
            let after = new.out_neighbors(v);
            let before = old.out_neighbors(v);
            formed += after.iter().filter(|n| !before.contains(n)).count() as u64;
            broken += before.iter().filter(|n| !after.contains(n)).count() as u64;
        }
        (formed, broken)
    }

    /// Fraction of non-gateway nodes with *instantaneous graph* reachability
    /// to at least one gateway — an upper bound on routed connectivity,
    /// useful as a diagnostic for how connectable the topology is.
    pub fn reachability_upper_bound(&self) -> f64 {
        agentnet_graph::connectivity::fraction_reaching(&self.links, &self.gateways)
    }
}

/// Write-back guard returned by [`WirelessNetwork::node_mut`]: derefs to
/// a [`WirelessNode`] row view and stores any mutation back into the
/// network's columns on drop.
pub struct NodeMut<'a> {
    net: &'a mut WirelessNetwork,
    node: WirelessNode,
}

impl Deref for NodeMut<'_> {
    type Target = WirelessNode;
    fn deref(&self) -> &WirelessNode {
        &self.node
    }
}

impl DerefMut for NodeMut<'_> {
    fn deref_mut(&mut self) -> &mut WirelessNode {
        &mut self.node
    }
}

impl Drop for NodeMut<'_> {
    fn drop(&mut self) {
        self.net.store(self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::{BatteryModel, BatteryState};
    use crate::builder::NetworkBuilder;
    use crate::mobility::Motion;
    use crate::node::NodeKind;
    use agentnet_graph::geometry::Point2;

    fn still_node(i: usize, x: f64, y: f64, range: f64) -> WirelessNode {
        WirelessNode {
            id: NodeId::new(i),
            position: Point2::new(x, y),
            nominal_range: range,
            kind: NodeKind::Stationary,
            battery: BatteryState::mains(),
            motion: Motion::Stationary,
        }
    }

    #[test]
    fn links_follow_individual_ranges() {
        // Node 0 has a long radio, node 1 a short one: link is one-way.
        let nodes = vec![still_node(0, 0.0, 0.0, 10.0), still_node(1, 8.0, 0.0, 5.0)];
        let net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        assert!(net.links().has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!net.links().has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn stationary_mains_network_topology_is_stable() {
        let nodes = vec![
            still_node(0, 0.0, 0.0, 10.0),
            still_node(1, 5.0, 0.0, 10.0),
            still_node(2, 50.0, 50.0, 10.0),
        ];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        let before = net.links().clone();
        for _ in 0..10 {
            net.advance();
        }
        assert_eq!(&before, net.links());
        assert_eq!(net.now(), Step::new(10));
    }

    #[test]
    fn battery_decay_breaks_links() {
        let mut low = still_node(0, 0.0, 0.0, 10.0);
        low.battery = BatteryState::new(BatteryModel::Linear { per_step: 0.2, floor: 0.1 });
        let nodes = vec![low, still_node(1, 9.0, 0.0, 20.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        assert!(net.links().has_edge(NodeId::new(0), NodeId::new(1)));
        for _ in 0..4 {
            net.advance();
        }
        // charge 0.2 -> range 10*sqrt(0.2) ≈ 4.47 < 9
        assert!(!net.links().has_edge(NodeId::new(0), NodeId::new(1)));
        // The big-radio node still covers the weak one.
        assert!(net.links().has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn mobile_node_movement_reforms_links() {
        let mut mover = still_node(0, 0.0, 50.0, 12.0);
        mover.kind = NodeKind::Mobile;
        mover.motion = Motion::RandomVelocity { velocity: Point2::new(5.0, 0.0) };
        let nodes = vec![mover, still_node(1, 60.0, 50.0, 12.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        assert!(!net.links().has_edge(NodeId::new(0), NodeId::new(1)));
        for _ in 0..10 {
            net.advance();
        }
        assert!(net.links().has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn incremental_grid_path_engages_and_matches_full_rebuild() {
        // One mobile node out of 100 (1% < GRID_INCREMENTAL_MAX_MOVED):
        // the incremental path must engage, and the resulting grid,
        // links and topology must match an incremental-disabled twin
        // exactly. Battery decay does not stop it: a mains gateway holds
        // the largest range, so the cell size never drifts.
        for battery in [BatteryModel::Mains, BatteryModel::paper_mobile()] {
            let build = |incremental: bool| {
                NetworkBuilder::new(100)
                    .gateways(4)
                    .mobile_fraction(0.01)
                    .mobile_battery(battery)
                    .min_initial_reachability(0.0)
                    .grid_incremental(incremental)
                    .build(11)
                    .unwrap()
            };
            let mut with_inc = build(true);
            let mut without = build(false);
            for _ in 0..20 {
                with_inc.advance();
                without.advance();
                assert_eq!(with_inc.grid_cells(), without.grid_cells());
                assert_eq!(with_inc.links(), without.links());
                assert_eq!(with_inc.topology_version(), without.topology_version());
            }
            let stats = with_inc.stats();
            assert!(
                stats.grid_incremental_updates > 0,
                "1% mobility must take the incremental grid path ({battery:?})"
            );
            assert_eq!(without.stats().grid_incremental_updates, 0);
            assert_eq!(stats.grid_cell_clamps, 0);
        }
    }

    #[test]
    fn high_mobility_falls_back_to_full_rebuilds() {
        // Every node mobile: far over the moved-fraction budget, so the
        // incremental path must never engage even when enabled.
        let mut net = NetworkBuilder::new(40)
            .mobile_fraction(1.0)
            .mobile_battery(BatteryModel::Mains)
            .min_initial_reachability(0.0)
            .build(3)
            .unwrap();
        for _ in 0..10 {
            net.advance();
        }
        assert_eq!(net.stats().grid_incremental_updates, 0);
    }

    #[test]
    fn gateways_are_collected() {
        let mut g = still_node(0, 0.0, 0.0, 10.0);
        g.kind = NodeKind::Gateway;
        let net = WirelessNetwork::from_nodes(
            Rect::square(10.0),
            vec![g, still_node(1, 1.0, 0.0, 10.0)],
            1,
        );
        assert_eq!(net.gateways(), &[NodeId::new(0)]);
        assert!((net.reachability_upper_bound() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_mut_allows_fault_injection() {
        let nodes = vec![still_node(0, 0.0, 0.0, 10.0), still_node(1, 5.0, 0.0, 10.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        assert!(net.links().has_edge(NodeId::new(0), NodeId::new(1)));
        net.node_mut(NodeId::new(0)).battery = BatteryState::with_charge(BatteryModel::Mains, 0.0);
        // Takes effect at the next advance.
        assert!(net.links().has_edge(NodeId::new(0), NodeId::new(1)));
        net.advance();
        assert!(!net.links().has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn node_mut_guard_writes_every_field_back() {
        let nodes = vec![still_node(0, 0.0, 0.0, 10.0), still_node(1, 5.0, 0.0, 10.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        {
            let mut n = net.node_mut(NodeId::new(1));
            n.position = Point2::new(7.0, 7.0);
            n.nominal_range = 42.0;
            n.kind = NodeKind::Mobile;
            n.motion = Motion::RandomVelocity { velocity: Point2::new(1.0, 0.0) };
        }
        let n = net.node(NodeId::new(1));
        assert_eq!(n.position, Point2::new(7.0, 7.0));
        assert_eq!(n.nominal_range, 42.0);
        assert_eq!(n.kind, NodeKind::Mobile);
        assert_eq!(n.motion, Motion::RandomVelocity { velocity: Point2::new(1.0, 0.0) });
    }

    #[test]
    fn topology_version_tracks_actual_changes() {
        let mut low = still_node(0, 0.0, 0.0, 10.0);
        low.battery = BatteryState::new(BatteryModel::Linear { per_step: 0.2, floor: 0.1 });
        let nodes = vec![low, still_node(1, 9.0, 0.0, 20.0), still_node(2, 60.0, 60.0, 5.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        let v0 = net.topology_version();
        net.advance();
        // Battery decay shrinks node 0's range but 9.0 is still covered
        // at charge 0.8 (10*sqrt(0.8) ≈ 8.94 < 9 — link drops).
        let v1 = net.topology_version();
        assert!(v1 > v0, "decay-driven link change must bump the version");
        // Once the battery floors, the topology freezes again.
        for _ in 0..10 {
            net.advance();
        }
        let frozen = net.topology_version();
        for _ in 0..10 {
            net.advance();
        }
        assert_eq!(net.topology_version(), frozen, "floored battery kept changing the version");
    }

    #[test]
    fn stationary_advance_keeps_version_constant() {
        let nodes = vec![still_node(0, 0.0, 0.0, 10.0), still_node(1, 5.0, 0.0, 10.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        let v = net.topology_version();
        for _ in 0..50 {
            net.advance();
        }
        assert_eq!(net.topology_version(), v);
    }

    #[test]
    fn fault_injection_matches_from_scratch_rebuild() {
        // Teleport one node (outside the arena, even) and drain another,
        // then check the incremental refresh agrees with a from-scratch
        // rebuild of the same node state.
        let mut net = NetworkBuilder::new(30)
            .gateways(2)
            .target_edges(240)
            .mobile_fraction(0.0)
            .min_initial_reachability(0.0)
            .build(7)
            .unwrap();
        for _ in 0..3 {
            net.advance();
        }
        net.node_mut(NodeId::new(4)).position = Point2::new(-25.0, 1500.0);
        net.node_mut(NodeId::new(9)).battery = BatteryState::with_charge(BatteryModel::Mains, 0.0);
        net.advance();
        let scratch = WirelessNetwork::from_nodes(net.arena(), net.nodes().to_vec(), 99);
        assert_eq!(net.links(), scratch.links());
        net.advance();
        let scratch = WirelessNetwork::from_nodes(net.arena(), net.nodes().to_vec(), 99);
        assert_eq!(net.links(), scratch.links());
    }

    #[test]
    fn refresh_links_applies_out_of_band_mutations() {
        let nodes = vec![still_node(0, 0.0, 0.0, 10.0), still_node(1, 5.0, 0.0, 10.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        net.node_mut(NodeId::new(1)).position = Point2::new(90.0, 90.0);
        assert!(net.links().has_edge(NodeId::new(0), NodeId::new(1)), "stale until refreshed");
        net.refresh_links();
        assert!(!net.links().has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(net.now(), Step::ZERO, "refresh must not advance time");
    }

    #[test]
    fn fresh_network_reports_zero_stats() {
        let nodes = vec![still_node(0, 0.0, 0.0, 10.0), still_node(1, 5.0, 0.0, 10.0)];
        let net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        // Construction derives the initial links but counts no events.
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn quiescent_network_counts_only_advances() {
        let nodes = vec![still_node(0, 0.0, 0.0, 10.0), still_node(1, 5.0, 0.0, 10.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        for _ in 0..10 {
            net.advance();
        }
        let stats = net.stats();
        assert_eq!(stats.advances, 10);
        assert_eq!(stats.link_rebuilds, 0, "stationary mains state never drifts");
        assert_eq!(stats.topology_bumps, 0);
        assert_eq!(stats.links_formed + stats.links_broken, 0);
        assert_eq!(stats.battery_decay_steps, 0);
        assert_eq!(stats.grid_cell_clamps, 0);
    }

    #[test]
    fn stats_count_decay_and_link_flips() {
        let mut low = still_node(0, 0.0, 0.0, 10.0);
        low.battery = BatteryState::new(BatteryModel::Linear { per_step: 0.2, floor: 0.1 });
        let nodes = vec![low, still_node(1, 9.0, 0.0, 20.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        for _ in 0..10 {
            net.advance();
        }
        let stats = net.stats();
        assert_eq!(stats.advances, 10);
        // Linear 0.2/step from 1.0 floors at 0.1 after five decaying steps.
        assert_eq!(stats.battery_decay_steps, 5);
        // Every decay step drifts state and rebuilds; only some rebuilds
        // change the edge set.
        assert_eq!(stats.link_rebuilds, 5);
        // The initial link derivation at construction bumped the version
        // to 1 without counting as an event; only the decay-driven
        // change afterwards registers in the stats.
        assert_eq!(stats.topology_bumps, 1);
        assert_eq!(net.topology_version(), 2);
        // The weak node lost its one outgoing link and formed none.
        assert_eq!(stats.links_broken, 1);
        assert_eq!(stats.links_formed, 0);
    }

    #[test]
    fn mobility_forms_and_breaks_links_in_stats() {
        let mut net = NetworkBuilder::new(30)
            .gateways(2)
            .target_edges(240)
            .mobile_fraction(0.5)
            .min_initial_reachability(0.0)
            .build(7)
            .unwrap();
        let initial_edges = net.links().edge_count() as i64;
        for _ in 0..30 {
            net.advance();
        }
        let stats = net.stats();
        assert_eq!(stats.advances, 30);
        assert!(stats.links_formed > 0, "mobile nodes must have formed links: {stats:?}");
        assert!(stats.links_broken > 0, "mobile nodes must have broken links: {stats:?}");
        // Net churn is consistent with the observed edge-count change.
        let delta = net.links().edge_count() as i64 - initial_edges;
        assert_eq!(stats.links_formed as i64 - stats.links_broken as i64, delta);
    }

    #[test]
    fn sharded_advance_is_bitwise_identical_to_sequential() {
        let build = || {
            NetworkBuilder::new(60)
                .gateways(3)
                .target_edges(480)
                .mobile_fraction(0.5)
                .min_initial_reachability(0.0)
                .build(11)
                .unwrap()
        };
        let mut sequential = build();
        for _ in 0..25 {
            sequential.advance();
        }
        // Shard counts spanning 1 < k < n, k close to n, and k > n.
        for shards in [2, 3, 7, 59, 61, 1000] {
            let mut sharded = build();
            sharded.set_advance_shards(shards);
            assert_eq!(sharded.advance_shards(), shards);
            for _ in 0..25 {
                sharded.advance();
            }
            assert_eq!(sharded.links(), sequential.links(), "links differ at {shards} shards");
            assert_eq!(
                sharded.topology_version(),
                sequential.topology_version(),
                "topology_version differs at {shards} shards"
            );
            assert_eq!(sharded.stats(), sequential.stats(), "stats differ at {shards} shards");
            assert_eq!(
                sharded.nodes(),
                sequential.nodes(),
                "node state differs at {shards} shards"
            );
        }
    }

    #[test]
    fn set_advance_shards_clamps_zero_to_one() {
        let nodes = vec![still_node(0, 0.0, 0.0, 10.0)];
        let mut net = WirelessNetwork::from_nodes(Rect::square(10.0), nodes, 1);
        net.set_advance_shards(0);
        assert_eq!(net.advance_shards(), 1);
        net.advance();
        assert_eq!(net.stats().advances, 1);
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn out_of_order_ids_panic() {
        let nodes = vec![still_node(1, 0.0, 0.0, 1.0)];
        let _ = WirelessNetwork::from_nodes(Rect::square(10.0), nodes, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_accessor_panics_out_of_range() {
        let net = WirelessNetwork::from_nodes(Rect::square(10.0), vec![], 1);
        let _ = net.node(NodeId::new(3));
    }

    #[test]
    fn empty_network_is_fine() {
        let mut net = WirelessNetwork::from_nodes(Rect::square(10.0), vec![], 1);
        net.advance();
        assert_eq!(net.node_count(), 0);
        assert_eq!(net.links().node_count(), 0);
    }
}
