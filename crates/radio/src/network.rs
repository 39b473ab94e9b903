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
    /// Link rebuilds that edited the link table around the dirty nodes
    /// (see [`LINK_DELTA_MAX_DIRTY`]) instead of re-deriving every row;
    /// the rest took the fused full pass. `serde(default)` keeps stats
    /// serialized before this counter existed readable.
    #[serde(default)]
    pub link_delta_updates: u64,
}

/// Largest fraction of nodes that may move in one step for the link
/// rebuild to refresh the spatial grid incrementally; above it, moving
/// nodes one-by-one loses to the sharded from-scratch re-index.
pub const GRID_INCREMENTAL_MAX_MOVED: f64 = 0.05;

/// Largest fraction of nodes that may be dirty (moved, or changed
/// effective range) for the link rebuild to edit the link table around
/// them; above it, one fused pass that re-derives every row and edits
/// only the rows that differ is cheaper. Measured crossover: see the
/// "Link maintenance in place" section of EXPERIMENTS.md.
pub const LINK_DELTA_MAX_DIRTY: f64 = 0.15;

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
    /// Per-node out-neighbour rows derived in full (possibly across
    /// shards in parallel). Construction hands them to `links` as its
    /// out-lists; the fused full pass refills them each time and edits
    /// only the rows of `links` that differ.
    out_rows: Vec<Vec<NodeId>>,
    /// Rows whose out-list changed in the topology bump that produced
    /// `changed_version`, ascending — see [`Self::rows_changed_since`].
    changed_rows: Vec<NodeId>,
    /// The `topology_version` the `changed_rows` bump produced.
    changed_version: u64,
    /// Number of contiguous column shards [`Self::advance`] steps in
    /// parallel; 1 (the default) runs the sequential in-place path.
    advance_shards: usize,
    /// Whether link rebuilds may refresh the grid incrementally when few
    /// nodes moved (on by default). The grid contents — and therefore
    /// links, `topology_version`, and every report — are byte-identical
    /// either way; only rebuild cost changes.
    grid_incremental: bool,
    /// Scratch of the drift scan: ascending indices of nodes that moved
    /// since the last link computation.
    moved: Vec<usize>,
    /// Scratch of the drift scan: ascending indices of nodes that moved
    /// or whose effective range changed — the rows to re-derive.
    dirty: Vec<usize>,
    /// Per-node membership flags of `dirty` while the delta path runs.
    is_dirty: Vec<bool>,
    /// Per-shard scratch of the delta path, reused across rebuilds.
    delta_shards: Vec<DeltaScratch>,
    /// Reused scratch: pending link edits `(from, to, formed)`.
    edits: Vec<(NodeId, NodeId, bool)>,
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
        Self::from_nodes_sharded(arena, nodes, mobility_seed, 1)
    }

    /// [`Self::from_nodes`] with [`Self::set_advance_shards`] applied
    /// before the initial link derivation, so construction's grid index
    /// and row derivation already run on `shards` shards.
    pub(crate) fn from_nodes_sharded(
        arena: Rect,
        nodes: Vec<WirelessNode>,
        mobility_seed: u64,
        shards: usize,
    ) -> Self {
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
            links: DiGraph::new(0),
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
            out_rows: Vec::new(),
            changed_rows: Vec::new(),
            changed_version: 0,
            advance_shards: shards.max(1),
            grid_incremental: true,
            moved: Vec::new(),
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            delta_shards: Vec::new(),
            edits: Vec::new(),
            stats: NetStats::default(),
        };
        if n > 0 {
            net.install_initial_links();
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

    /// The rows whose out-list changed since `version`, for consumers
    /// that revalidate per row: `Some(&[])` when `version` is current,
    /// the ascending rows the last bump changed when `version` is
    /// exactly one bump behind, and `None` otherwise (further behind,
    /// ahead, or behind the construction-time bump) — the caller must
    /// then treat every row as changed.
    pub fn rows_changed_since(&self, version: u64) -> Option<&[NodeId]> {
        if version == self.topology_version {
            Some(&[])
        } else if version.checked_add(1) == Some(self.topology_version)
            && self.changed_version == self.topology_version
        {
            Some(&self.changed_rows)
        } else {
            None
        }
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
    /// The refresh is proportional to change. One scan finds the nodes
    /// that moved or whose effective range changed; if there are none
    /// (the mapping study's all-stationary mains networks, or any
    /// quiescent stretch), the link table is kept as-is without touching
    /// the heap. Otherwise the rows around those nodes are edited in
    /// place, or — when more than [`LINK_DELTA_MAX_DIRTY`] of the nodes
    /// changed — one fused pass re-derives every row and edits only the
    /// rows that differ. With [`Self::set_advance_shards`] above 1 the
    /// node step, the grid re-index and the fused pass's row derivation
    /// run on contiguous column shards in parallel; every edit is
    /// applied sequentially in ascending row order.
    #[agentnet::hot_path]
    pub fn advance(&mut self) {
        self.stats.advances += 1;
        self.step_nodes();
        let max_range = self.scan_drift();
        if !self.dirty.is_empty() {
            self.rebuild_links(max_range);
        }
        self.now = self.now.next();
    }

    /// Brings the link table up to date with node state mutated out of
    /// band (through [`Self::node_mut`]) without stepping time. Counts
    /// as a link rebuild even when nothing changed.
    pub fn refresh_links(&mut self) {
        if !self.positions.is_empty() {
            let max_range = self.scan_drift();
            self.rebuild_links(max_range);
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

    /// Compares every node's position and effective range with the
    /// snapshot of the last link computation, refreshing the snapshot as
    /// it goes. Fills `moved` and `dirty` (ascending) and returns the
    /// largest effective range — the grid's cell size. Exact float
    /// equality is correct here: stationary motion returns the position
    /// unchanged and mains batteries never decay, so quiescent state is
    /// bitwise stable.
    #[agentnet::hot_path]
    fn scan_drift(&mut self) -> f64 {
        self.moved.clear();
        self.dirty.clear();
        let mut max_range = 0.0f64;
        let columns = self
            .positions
            .iter()
            .zip(&mut self.snap_positions)
            .zip(self.nominal_ranges.iter().zip(&self.batteries))
            .zip(&mut self.snap_ranges);
        for (i, (((&p, snap_p), (&nr, b)), snap_r)) in columns.enumerate() {
            let r = nr * b.range_factor();
            max_range = max_range.max(r);
            let moved = p != *snap_p;
            if moved {
                self.moved.push(i);
                *snap_p = p;
            }
            if moved || r != *snap_r {
                self.dirty.push(i);
                *snap_r = r;
            }
        }
        max_range.max(1e-9)
    }

    /// Derives the construction-time link table: snapshots every node,
    /// indexes the grid and hands the derived rows to the graph as its
    /// out-lists in one bulk install. Setup, not an event: the version
    /// bumps iff any link exists, and no changed rows are recorded.
    fn install_initial_links(&mut self) {
        self.snap_positions.clone_from(&self.positions);
        self.snap_ranges.clear();
        self.snap_ranges.extend(
            self.nominal_ranges.iter().zip(&self.batteries).map(|(&nr, b)| nr * b.range_factor()),
        );
        let max_range = self.snap_ranges.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-9);
        self.reindex_grid(max_range);
        self.derive_out_rows();
        self.links = DiGraph::from_sorted_out_rows(std::mem::take(&mut self.out_rows));
        if !self.links.is_empty() {
            self.topology_version += 1;
        }
    }

    /// Refreshes the grid, then edits the link table to match the node
    /// state the drift scan snapshotted. With at most
    /// [`LINK_DELTA_MAX_DIRTY`] of the nodes dirty, only the rows around
    /// them are touched ([`Self::collect_delta_edits`]); above it one
    /// fused pass re-derives every row ([`Self::collect_full_edits`]).
    /// Both end in the same sequential edit pass in ascending row order,
    /// which keeps `topology_version` and the stats byte-identical
    /// across shard counts and between the two paths.
    #[agentnet::hot_path]
    fn rebuild_links(&mut self, max_range: f64) {
        // Cell size of the max range keeps candidate sets tight while the
        // 3x3 cell neighbourhood of a query still covers the whole disc.
        //
        // Incremental path: when few nodes moved, the grid moves just
        // those nodes between cells. The grid refuses when geometry
        // changed (cell size follows `max_range`, so decay of the node
        // holding the largest range forces a full re-index; decay
        // elsewhere, e.g. under a mains gateway's larger range, does
        // not) or the grid is in a clamped regime, keeping contents and
        // clamp accounting byte-identical to the from-scratch path.
        if !self.try_incremental_grid(max_range) {
            self.reindex_grid(max_range);
        }
        self.stats.link_rebuilds += 1;
        // agentlint::allow(no-lossy-cast) — fraction of a node count.
        let budget = (self.positions.len() as f64 * LINK_DELTA_MAX_DIRTY) as usize;
        if self.dirty.len() <= budget {
            self.collect_delta_edits(max_range);
            self.stats.link_delta_updates += 1;
        } else {
            self.collect_full_edits();
        }
        self.apply_edits();
    }

    /// Re-indexes the grid from scratch at cell size `max_range`, over
    /// contiguous shards when configured.
    #[agentnet::hot_path]
    fn reindex_grid(&mut self, max_range: f64) {
        let shards = self.advance_shards.min(self.positions.len()).max(1);
        match self.grid.rebuild_sharded(self.arena, max_range, &self.positions, shards) {
            Ok(clamped) => {
                if clamped {
                    self.stats.grid_cell_clamps += 1;
                }
            }
            // Documented panic: construction validated the arena finite
            // and `max_range` is clamped positive by the caller, so
            // degenerate geometry cannot reach a live network.
            // agentlint::allow(no-panic-in-kernel)
            Err(e) => panic!("grid rebuild on live network: {e}"),
        }
    }

    /// Attempts the incremental grid refresh: if at most
    /// [`GRID_INCREMENTAL_MAX_MOVED`] of the nodes moved, asks the grid
    /// to splice exactly those. Returns `false` (grid untouched) when
    /// disabled, too many nodes moved, or the grid declined — the caller
    /// falls back to the full sharded re-index.
    #[agentnet::hot_path]
    fn try_incremental_grid(&mut self, max_range: f64) -> bool {
        // agentlint::allow(no-lossy-cast) — fraction of a node count.
        let budget = (self.positions.len() as f64 * GRID_INCREMENTAL_MAX_MOVED) as usize;
        if !self.grid_incremental || self.moved.len() > budget {
            return false;
        }
        let applied =
            self.grid.incremental_update(self.arena, max_range, &self.positions, &self.moved);
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

    /// The delta path: collects the edits that bring the rows around the
    /// dirty nodes up to date (see [`DeltaInputs::edits_for`]), splitting
    /// the dirty and moved lists into contiguous shards when configured.
    /// Shard edit lists are concatenated in shard order; the edit pass
    /// sorts them, so the partition cannot change the result.
    #[agentnet::hot_path]
    fn collect_delta_edits(&mut self, max_range: f64) {
        for &i in &self.dirty {
            if let Some(flag) = self.is_dirty.get_mut(i) {
                *flag = true;
            }
        }
        let shards = self.advance_shards.min(self.dirty.len()).max(1);
        if self.delta_shards.len() < shards {
            // Warm-up only: the per-shard scratch is reused after.
            // agentlint::allow(no-alloc-in-hot-path)
            self.delta_shards.resize_with(shards, DeltaScratch::default);
        }
        let inputs = DeltaInputs {
            grid: &self.grid,
            positions: &self.snap_positions,
            ranges: &self.snap_ranges,
            links: &self.links,
            is_dirty: &self.is_dirty,
            max_range,
        };
        let (dirty, moved) = (self.dirty.as_slice(), self.moved.as_slice());
        // Shard `k` of `shards` near-equal contiguous parts of `list`.
        fn part(list: &[usize], k: usize, shards: usize) -> &[usize] {
            list.get(list.len() * k / shards..list.len() * (k + 1) / shards).unwrap_or(&[])
        }
        if shards <= 1 {
            if let Some(scratch) = self.delta_shards.first_mut() {
                inputs.edits_for(dirty, moved, scratch);
            }
        } else {
            let inputs = &inputs;
            std::thread::scope(|scope| {
                for (k, scratch) in self.delta_shards.iter_mut().take(shards).enumerate() {
                    let (dirty, moved) = (part(dirty, k, shards), part(moved, k, shards));
                    scope.spawn(move || inputs.edits_for(dirty, moved, scratch));
                }
            });
        }
        for scratch in self.delta_shards.iter().take(shards) {
            self.edits.extend_from_slice(&scratch.edits);
        }
        for &i in &self.dirty {
            if let Some(flag) = self.is_dirty.get_mut(i) {
                *flag = false;
            }
        }
    }

    /// The fused full pass: re-derives every row (sharded when
    /// configured) and collects edits for only the rows that differ from
    /// the current out-lists.
    #[agentnet::hot_path]
    fn collect_full_edits(&mut self) {
        self.derive_out_rows();
        let Self { out_rows, links, edits, .. } = self;
        for (i, row) in out_rows.iter().enumerate() {
            let from = NodeId::new(i);
            let before = links.out_neighbors(from);
            if row.as_slice() != before {
                diff_sorted(row, before.iter().copied(), |to, formed| {
                    edits.push((from, to, formed));
                });
            }
        }
    }

    /// Applies the collected edits in ascending `(row, target)` order as
    /// sorted inserts and removals on the out- and in-lists, counting the
    /// links formed and broken. Bumps `topology_version` iff some edit
    /// changed the table, and then records the changed rows for that
    /// bump; a rebuild without a bump leaves the previous bump's record.
    #[agentnet::hot_path]
    fn apply_edits(&mut self) {
        self.edits.sort_unstable();
        let (mut formed, mut broken) = (0u64, 0u64);
        for &(from, to, form) in &self.edits {
            let applied =
                if form { self.links.add_edge(from, to) } else { self.links.remove_edge(from, to) };
            if !applied {
                continue;
            }
            if formed + broken == 0 {
                self.changed_rows.clear();
            }
            if form {
                formed += 1;
            } else {
                broken += 1;
            }
            if self.changed_rows.last() != Some(&from) {
                self.changed_rows.push(from);
            }
        }
        self.edits.clear();
        if formed + broken > 0 {
            self.stats.links_formed += formed;
            self.stats.links_broken += broken;
            self.topology_version += 1;
            self.stats.topology_bumps += 1;
            self.changed_version = self.topology_version;
        }
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

    /// Fraction of non-gateway nodes with *instantaneous graph* reachability
    /// to at least one gateway — an upper bound on routed connectivity,
    /// useful as a diagnostic for how connectable the topology is.
    pub fn reachability_upper_bound(&self) -> f64 {
        agentnet_graph::connectivity::fraction_reaching(&self.links, &self.gateways)
    }
}

/// One shard's scratch of the delta path: a row buffer and its edits.
#[derive(Clone, Debug, Default)]
struct DeltaScratch {
    row: Vec<NodeId>,
    edits: Vec<(NodeId, NodeId, bool)>,
}

/// What the delta path reads: the refreshed grid and snapshot, the
/// links before any edit, and which nodes are dirty.
struct DeltaInputs<'a> {
    grid: &'a SpatialGrid,
    positions: &'a [Point2],
    ranges: &'a [f64],
    links: &'a DiGraph,
    is_dirty: &'a [bool],
    /// The largest effective range, no smaller than any node's range.
    max_range: f64,
}

impl DeltaInputs<'_> {
    /// Collects into `out.edits` the edits for the given dirty and moved
    /// nodes.
    ///
    /// * Each dirty node re-derives its own row and diffs it against its
    ///   out-list.
    /// * Each moved node `j` finds the clean nodes that cover it now with
    ///   one grid query around its new position at `max_range`, and
    ///   diffs them against the clean part of its in-list. The in-list
    ///   holds exactly who covered `j` before, so its old position needs
    ///   no query.
    ///
    /// A clean row can only change by gaining or losing a moved node, so
    /// the edits of every dirty and moved node together make the table
    /// equal to the full derivation.
    #[agentnet::hot_path]
    fn edits_for(&self, dirty: &[usize], moved: &[usize], out: &mut DeltaScratch) {
        let DeltaScratch { row, edits } = out;
        edits.clear();
        for &i in dirty {
            let (Some(p), Some(r)) = (self.positions.get(i..=i), self.ranges.get(i..=i)) else {
                continue;
            };
            WirelessNetwork::fill_rows(
                self.grid,
                self.positions,
                p,
                r,
                i,
                std::slice::from_mut(row),
            );
            let from = NodeId::new(i);
            diff_sorted(row, self.links.out_neighbors(from).iter().copied(), |to, formed| {
                edits.push((from, to, formed));
            });
        }
        let clean = |v: usize| self.is_dirty.get(v).is_some_and(|&d| !d);
        for &j in moved {
            let Some(&pj) = self.positions.get(j) else { continue };
            row.clear();
            for i in self.grid.candidates_within(pj, self.max_range) {
                let covers = clean(i)
                    && self
                        .positions
                        .get(i)
                        .zip(self.ranges.get(i))
                        .is_some_and(|(&pi, &ri)| pi.distance_sq(pj) <= ri * ri);
                if covers {
                    row.push(NodeId::new(i));
                }
            }
            row.sort_unstable();
            let to = NodeId::new(j);
            let before = self.links.in_neighbors(to).iter().copied().filter(|v| clean(v.index()));
            diff_sorted(row, before, |from, formed| edits.push((from, to, formed)));
        }
    }
}

/// Merge-diffs two ascending id sequences: `emit(id, true)` for every id
/// only in `after`, `emit(id, false)` for every id only in `before`, in
/// ascending id order.
#[agentnet::hot_path]
fn diff_sorted(
    after: &[NodeId],
    before: impl Iterator<Item = NodeId>,
    mut emit: impl FnMut(NodeId, bool),
) {
    let mut after = after.iter().copied().peekable();
    let mut before = before.peekable();
    loop {
        match (after.peek().copied(), before.peek().copied()) {
            (Some(a), Some(b)) if a == b => {
                after.next();
                before.next();
            }
            (Some(a), Some(b)) if a < b => {
                emit(a, true);
                after.next();
            }
            (_, Some(b)) => {
                emit(b, false);
                before.next();
            }
            (Some(a), None) => {
                emit(a, true);
                after.next();
            }
            (None, None) => break,
        }
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

    /// The links a from-scratch derivation gives on `net`'s node state.
    fn derived(net: &WirelessNetwork) -> DiGraph {
        WirelessNetwork::from_nodes(net.arena(), net.nodes(), 0).links().clone()
    }

    /// Rows whose out-list differs between two link tables.
    fn differing_rows(a: &DiGraph, b: &DiGraph) -> Vec<NodeId> {
        a.nodes().filter(|&v| a.out_neighbors(v) != b.out_neighbors(v)).collect()
    }

    /// 40 stationary mains nodes on a 10 m lattice, ranges 12–15 m.
    fn lattice() -> Vec<WirelessNode> {
        (0..40)
            .map(|i| {
                let (x, y) = ((i % 8) as f64 * 10.0, (i / 8) as f64 * 10.0);
                still_node(i, x + 5.0, y + 5.0, 12.0 + (i % 4) as f64)
            })
            .collect()
    }

    #[test]
    fn teleport_is_applied_by_the_delta_path() {
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), lattice(), 1);
        let before = net.links().clone();
        net.node_mut(NodeId::new(9)).position = Point2::new(72.0, 31.0);
        net.advance();
        assert_eq!(net.links(), &derived(&net));
        assert_ne!(net.links(), &before);
        let stats = net.stats();
        assert_eq!((stats.link_rebuilds, stats.link_delta_updates), (1, 1));
        // The teleported node's row and every row that gained or lost it.
        let changed = differing_rows(&before, net.links());
        assert!(changed.len() > 1 && changed.contains(&NodeId::new(9)));
        assert_eq!(net.rows_changed_since(net.topology_version() - 1), Some(&changed[..]));
    }

    #[test]
    fn range_change_on_a_stationary_node_edits_only_its_row() {
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), lattice(), 1);
        let before = net.links().clone();
        net.node_mut(NodeId::new(12)).battery =
            BatteryState::with_charge(BatteryModel::Mains, 0.25);
        net.advance();
        assert_eq!(net.links(), &derived(&net));
        assert_eq!(differing_rows(&before, net.links()), [NodeId::new(12)]);
        assert_eq!(
            net.rows_changed_since(net.topology_version() - 1),
            Some(&[NodeId::new(12)][..])
        );
        // Nobody moved, so nobody else's coverage of node 12 changed.
        assert_eq!(net.links().in_neighbors(NodeId::new(12)), before.in_neighbors(NodeId::new(12)));
        assert_eq!(net.stats().link_delta_updates, 1);
    }

    #[test]
    fn decay_of_the_max_range_node_reindexes_the_grid_under_the_delta_path() {
        // One long-range node on a decaying battery holds the max range,
        // so every step changes the grid's cell size while only that one
        // node is dirty.
        let mut nodes = lattice();
        nodes[20].nominal_range = 45.0;
        nodes[20].battery = BatteryState::new(BatteryModel::Linear { per_step: 0.05, floor: 0.25 });
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        for _ in 0..20 {
            net.advance();
            let scratch = WirelessNetwork::from_nodes(net.arena(), net.nodes(), 0);
            assert_eq!(net.links(), scratch.links());
            assert_eq!(net.grid_cells(), scratch.grid_cells());
        }
        let stats = net.stats();
        assert_eq!(stats.link_delta_updates, stats.link_rebuilds);
        // Even floored, the node's 22.5 m outranges the lattice's 15 m.
        assert_eq!(stats.link_rebuilds, 15, "the battery floors after 15 decaying steps");
        assert_eq!(stats.grid_incremental_updates, 0, "the cell size changed every rebuild");
        assert!(stats.topology_bumps > 0);
    }

    #[test]
    fn rows_changed_since_names_only_the_last_bump() {
        let mut net = WirelessNetwork::from_nodes(Rect::square(100.0), lattice(), 1);
        let v0 = net.topology_version();
        assert_eq!(net.rows_changed_since(v0), Some(&[][..]));
        assert_eq!(net.rows_changed_since(v0 - 1), None, "construction records no rows");
        net.node_mut(NodeId::new(3)).battery = BatteryState::with_charge(BatteryModel::Mains, 0.0);
        net.advance();
        let v1 = net.topology_version();
        assert_eq!(v1, v0 + 1);
        assert_eq!(net.rows_changed_since(v1), Some(&[][..]));
        assert_eq!(net.rows_changed_since(v0), Some(&[NodeId::new(3)][..]));
        // A rebuild without a bump keeps the last bump's record.
        net.refresh_links();
        assert_eq!(net.topology_version(), v1);
        assert_eq!(net.rows_changed_since(v0), Some(&[NodeId::new(3)][..]));
        net.node_mut(NodeId::new(30)).battery = BatteryState::with_charge(BatteryModel::Mains, 0.0);
        net.advance();
        assert_eq!(net.rows_changed_since(v1), Some(&[NodeId::new(30)][..]));
        assert_eq!(net.rows_changed_since(v0), None, "two bumps behind");
        assert_eq!(net.rows_changed_since(v1 + 5), None, "ahead of the network");
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
