//! The route book every routing arm keeps, and the persistent index
//! that revalidates it.
//!
//! A [`RouteBook`] owns what the paper's agents produce — one
//! [`RoutingTable`] per node — together with what the arms score it
//! by: the gateway flags, the live gateways, per-node chain
//! reachability and the per-step connectivity series. Every table
//! write goes through [`RouteBook::install`] or
//! [`RouteBook::evict_older_than`], which mark the written node dirty,
//! so [`RouteBook::revalidate`] updates the forwarding graph from
//! deltas instead of rebuilding it each step:
//!
//! * a table write dirties only the written node;
//! * a link-topology change dirties only the nodes whose out-row
//!   changed ([`WirelessNetwork::rows_changed_since`]), since a
//!   forwarding row depends on nothing but its node's table and its
//!   node's own links; a book more than one topology bump behind
//!   resyncs in full;
//! * the connectivity metric is a reverse BFS from the live gateways over
//!   the persistent graph's in-edges, using reusable scratch.
//!
//! On a quiescent network (nothing moved, no tables written) a step's
//! revalidation is O(live gateways + reachable set) with zero heap
//! allocation in steady state. The from-scratch reference it must
//! agree with is
//! [`RoutingProtocol::reached_from_scratch`](super::RoutingProtocol::reached_from_scratch).

#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

use crate::routing::table::{RouteEntry, RoutingTable};
use agentnet_engine::{Step, TimeSeries};
use agentnet_graph::{DiGraph, NodeId};
use agentnet_radio::WirelessNetwork;

/// Every node's routing table plus the gateway set, the persistent
/// forwarding index and the connectivity series derived from them: the
/// per-node state all routing arms share. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct RouteBook {
    tables: Vec<RoutingTable>,
    /// Per-node gateway flag, cleared by [`RouteBook::fail_gateway`].
    is_gateway: Vec<bool>,
    /// Gateways whose uplink is still live: the reachability seeds.
    live_gateways: Vec<NodeId>,
    index: RouteIndex,
    connectivity: TimeSeries,
}

impl RouteBook {
    /// Empty tables for every node of `net`, with all its gateways
    /// live. Reachability is computed once without being recorded, so
    /// [`reached`](Self::reached) flags exactly the gateways before the
    /// first step.
    pub fn new(net: &WirelessNetwork) -> Self {
        let n = net.node_count();
        let mut is_gateway = vec![false; n];
        for g in net.gateways() {
            if let Some(flag) = is_gateway.get_mut(g.index()) {
                *flag = true;
            }
        }
        let mut book = RouteBook {
            tables: vec![RoutingTable::new(); n],
            is_gateway,
            live_gateways: net.gateways().to_vec(),
            index: RouteIndex::new(n),
            connectivity: TimeSeries::new(),
        };
        book.sync(net);
        book
    }

    /// Every node's routing table, indexed by node id.
    pub fn tables(&self) -> &[RoutingTable] {
        &self.tables
    }

    /// Whether `node` is a gateway whose uplink is live (`false` when
    /// out of range).
    pub fn is_gateway(&self, node: NodeId) -> bool {
        self.is_gateway.get(node.index()).copied().unwrap_or(false)
    }

    /// Gateways whose uplink is still live.
    pub fn live_gateways(&self) -> &[NodeId] {
        &self.live_gateways
    }

    /// Per-node flags of the last revalidation: `true` for every node
    /// whose next-hop chain reached a live gateway (gateways included).
    pub fn reached(&self) -> &[bool] {
        self.index.reached()
    }

    /// The connected fraction each [`revalidate`](Self::revalidate)
    /// recorded.
    pub fn connectivity_series(&self) -> &TimeSeries {
        &self.connectivity
    }

    /// Installs `entry` in `node`'s table, replacing any entry for the
    /// same gateway.
    #[agentnet::hot_path]
    pub fn install(&mut self, node: NodeId, entry: RouteEntry) {
        if let Some(table) = self.tables.get_mut(node.index()) {
            table.install(entry);
            self.index.mark_dirty(node);
        }
    }

    /// Evicts every entry older than `max_age` steps at `now`.
    #[agentnet::hot_path]
    pub fn evict_older_than(&mut self, now: Step, max_age: u64) {
        for (v, table) in self.tables.iter_mut().enumerate() {
            if table.evict_older_than(now, max_age) > 0 {
                self.index.mark_dirty(NodeId::new(v));
            }
        }
    }

    /// Fails a gateway's uplink: the node stays in the network but no
    /// longer counts as an exit, so chains ending on it stop counting
    /// from the next revalidation. Returns `false` if `id` was not a
    /// live gateway.
    pub fn fail_gateway(&mut self, id: NodeId) -> bool {
        let Some(pos) = self.live_gateways.iter().position(|&g| g == id) else {
            return false;
        };
        self.live_gateways.remove(pos);
        if let Some(flag) = self.is_gateway.get_mut(id.index()) {
            *flag = false;
        }
        // Its forwarding row changes shape (non-gateways export their
        // table entries); the next refresh must rewrite it.
        self.index.mark_dirty(id);
        true
    }

    /// Revalidates every chain against `net`'s current links and
    /// records the connected fraction: the last act of every arm's
    /// step.
    #[agentnet::hot_path]
    pub fn revalidate(&mut self, net: &WirelessNetwork) {
        let c = self.sync(net);
        self.connectivity.record(c);
    }

    /// Brings the index in sync with the tables and `net`'s links and
    /// returns the connected fraction.
    fn sync(&mut self, net: &WirelessNetwork) -> f64 {
        self.index.refresh(&self.tables, net, &self.is_gateway);
        self.index.connected_fraction(&self.live_gateways)
    }
}

/// Incrementally-maintained forwarding graph plus reverse-BFS scratch.
///
/// The index is only a cache: [`RouteIndex::refresh`] must be called with
/// the current tables/links before [`RouteIndex::connected_fraction`] is
/// meaningful.
#[derive(Clone, Debug)]
struct RouteIndex {
    /// `v -> next_hop` for every table entry of a non-gateway `v` whose
    /// link is currently live.
    forwarding: DiGraph,
    /// Per-node dirty flag (table or gateway-status changed).
    dirty: Vec<bool>,
    /// Indices of dirty nodes, deduplicated via `dirty`.
    dirty_list: Vec<usize>,
    /// Link-topology version the forwarding graph was synced against;
    /// `None` until the first (full) sync.
    topo_version: Option<u64>,
    /// Reverse-BFS visited flags.
    reached: Vec<bool>,
    /// Reverse-BFS frontier (index-addressed queue).
    queue: Vec<usize>,
    /// Old out-row scratch while rewriting a dirty node's edges.
    old_row: Vec<NodeId>,
}

impl RouteIndex {
    /// Creates an index for `n` nodes, initially unsynced.
    fn new(n: usize) -> Self {
        RouteIndex {
            forwarding: DiGraph::new(n),
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            topo_version: None,
            reached: vec![false; n],
            queue: Vec::new(),
            old_row: Vec::new(),
        }
    }

    /// Marks `node`'s forwarding row stale — call after any routing-table
    /// write to it or after its gateway status changes.
    #[agentnet::hot_path]
    fn mark_dirty(&mut self, node: NodeId) {
        let i = node.index();
        if let Some(flag) = self.dirty.get_mut(i) {
            if !*flag {
                *flag = true;
                self.dirty_list.push(i);
            }
        }
    }

    /// Brings the forwarding graph in sync with `tables` and `net`'s
    /// links.
    ///
    /// The rows rewritten are those marked dirty since the last refresh
    /// plus those whose out-row the network changed since the synced
    /// version. When the network cannot name those rows (first sync, or
    /// more than one topology bump behind) the whole graph is rebuilt.
    #[agentnet::hot_path]
    fn refresh(&mut self, tables: &[RoutingTable], net: &WirelessNetwork, is_gateway: &[bool]) {
        let links = net.links();
        let changed = self.topo_version.and_then(|v| net.rows_changed_since(v));
        self.topo_version = Some(net.topology_version());
        let Some(changed) = changed else {
            for flag in &mut self.dirty {
                *flag = false;
            }
            self.dirty_list.clear();
            self.forwarding.clear_edges();
            for v in 0..tables.len() {
                self.write_row(v, tables, links, is_gateway);
            }
            return;
        };
        for &v in changed {
            self.mark_dirty(v);
        }
        let mut list = std::mem::take(&mut self.dirty_list);
        for &v in &list {
            if let Some(flag) = self.dirty.get_mut(v) {
                *flag = false;
            }
            self.clear_row(v);
            self.write_row(v, tables, links, is_gateway);
        }
        list.clear();
        self.dirty_list = list;
    }

    /// Removes all out-edges of `v` from the forwarding graph.
    fn clear_row(&mut self, v: usize) {
        let from = NodeId::new(v);
        self.old_row.clear();
        self.old_row.extend_from_slice(self.forwarding.out_neighbors(from));
        let mut row = std::mem::take(&mut self.old_row);
        for &to in &row {
            self.forwarding.remove_edge(from, to);
        }
        row.clear();
        self.old_row = row;
    }

    /// Adds `v`'s live-link next hops, assuming its row is clear.
    fn write_row(
        &mut self,
        v: usize,
        tables: &[RoutingTable],
        links: &DiGraph,
        is_gateway: &[bool],
    ) {
        if is_gateway.get(v).copied().unwrap_or(true) {
            return;
        }
        let from = NodeId::new(v);
        let Some(table) = tables.get(v) else { return };
        for next in table.next_hops() {
            if links.has_edge(from, next) {
                self.forwarding.add_edge(from, next);
            }
        }
    }

    /// Fraction of nodes whose next-hop chain reaches some live gateway
    /// (gateways count as connected) — reverse BFS from the gateways over
    /// the persistent forwarding graph, allocation-free in steady state.
    #[agentnet::hot_path]
    fn connected_fraction(&mut self, live_gateways: &[NodeId]) -> f64 {
        let n = self.forwarding.node_count();
        if n == 0 {
            return 0.0;
        }
        for flag in &mut self.reached {
            *flag = false;
        }
        self.queue.clear();
        let mut count = 0usize;
        for &g in live_gateways {
            match self.reached.get_mut(g.index()) {
                Some(flag) if !*flag => {
                    *flag = true;
                    count += 1;
                    self.queue.push(g.index());
                }
                _ => {}
            }
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let Some(&q) = self.queue.get(head) else { break };
            let v = NodeId::new(q);
            head += 1;
            for i in 0..self.forwarding.in_neighbors(v).len() {
                let Some(&from) = self.forwarding.in_neighbors(v).get(i) else { break };
                let u = from.index();
                match self.reached.get_mut(u) {
                    Some(flag) if !*flag => {
                        *flag = true;
                        count += 1;
                        self.queue.push(u);
                    }
                    _ => {}
                }
            }
        }
        count as f64 / n as f64
    }

    /// Per-node reachability flags as computed by the *last*
    /// [`connected_fraction`](Self::connected_fraction) call (all
    /// `false` before the first).
    fn reached(&self) -> &[bool] {
        &self.reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentnet_graph::geometry::{Point2, Rect};
    use agentnet_radio::{BatteryModel, BatteryState, Motion, NodeKind, WirelessNode};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Line 0(gateway) - 1 - 2 - 3 of stationary mains radios 10 m apart
    /// with 12 m range, so each neighbour pair is linked both ways, and
    /// tables pointing every node back toward the gateway.
    fn fixture() -> (Vec<RoutingTable>, WirelessNetwork, Vec<bool>) {
        let nodes = (0..4)
            .map(|v| WirelessNode {
                id: n(v),
                position: Point2::new(10.0 * v as f64, 0.0),
                nominal_range: 12.0,
                kind: if v == 0 { NodeKind::Gateway } else { NodeKind::Stationary },
                battery: BatteryState::mains(),
                motion: Motion::Stationary,
            })
            .collect();
        let net = WirelessNetwork::from_nodes(Rect::square(100.0), nodes, 1);
        let mut tables = vec![RoutingTable::new(); 4];
        for (v, table) in tables.iter_mut().enumerate().skip(1) {
            table.install(RouteEntry::new(n(0), n(v - 1), v as u32, Step::ZERO));
        }
        let mut is_gateway = vec![false; 4];
        is_gateway[0] = true;
        (tables, net, is_gateway)
    }

    /// Silences `v`'s radio; its own out-row is the only one that changes.
    fn drain(net: &mut WirelessNetwork, v: usize) {
        net.node_mut(n(v)).battery = BatteryState::with_charge(BatteryModel::Mains, 0.0);
        net.refresh_links();
    }

    #[test]
    fn full_resync_then_incremental_updates_agree() {
        let (mut tables, net, is_gateway) = fixture();
        let mut idx = RouteIndex::new(4);
        idx.refresh(&tables, &net, &is_gateway);
        assert_eq!(idx.connected_fraction(&[n(0)]), 1.0);

        // Break node 2's route (point it off-link): only 0 and 1 remain.
        tables[2].install(RouteEntry::new(n(0), n(3), 2, Step::ZERO));
        idx.mark_dirty(n(2));
        idx.refresh(&tables, &net, &is_gateway);
        // 2 -> 3 is a live link but 3 -> 2 -> 3 never reaches the gateway.
        assert_eq!(idx.connected_fraction(&[n(0)]), 0.5);

        // Repair it; incremental update restores full connectivity.
        tables[2].install(RouteEntry::new(n(0), n(1), 2, Step::ZERO));
        idx.mark_dirty(n(2));
        idx.refresh(&tables, &net, &is_gateway);
        assert_eq!(idx.connected_fraction(&[n(0)]), 1.0);
    }

    #[test]
    fn changed_rows_are_revalidated_without_a_dirty_mark() {
        let (tables, mut net, is_gateway) = fixture();
        let mut idx = RouteIndex::new(4);
        idx.refresh(&tables, &net, &is_gateway);
        assert_eq!(idx.connected_fraction(&[n(0)]), 1.0);
        // The 1 -> 0 link dies with node 1's radio; only the network's
        // changed-row record can tell the index.
        let synced = net.topology_version();
        drain(&mut net, 1);
        assert_eq!(net.rows_changed_since(synced), Some(&[n(1)][..]));
        idx.refresh(&tables, &net, &is_gateway);
        assert_eq!(idx.connected_fraction(&[n(0)]), 0.25);
    }

    #[test]
    fn two_bumps_behind_resyncs_in_full() {
        let (tables, mut net, is_gateway) = fixture();
        let mut idx = RouteIndex::new(4);
        idx.refresh(&tables, &net, &is_gateway);
        let synced = net.topology_version();
        drain(&mut net, 3);
        drain(&mut net, 1);
        assert_eq!(net.rows_changed_since(synced), None);
        idx.refresh(&tables, &net, &is_gateway);
        assert_eq!(idx.connected_fraction(&[n(0)]), 0.25);
        let mut fresh = RouteIndex::new(4);
        fresh.refresh(&tables, &net, &is_gateway);
        assert_eq!(fresh.connected_fraction(&[n(0)]), 0.25);
        assert_eq!(idx.forwarding, fresh.forwarding);
    }

    #[test]
    fn no_live_gateways_means_no_connectivity() {
        let (tables, net, is_gateway) = fixture();
        let mut idx = RouteIndex::new(4);
        idx.refresh(&tables, &net, &is_gateway);
        assert_eq!(idx.connected_fraction(&[]), 0.0);
    }

    #[test]
    fn reached_flags_match_the_reported_fraction() {
        let (mut tables, net, is_gateway) = fixture();
        let mut idx = RouteIndex::new(4);
        assert_eq!(idx.reached(), &[false; 4], "flags are clear before any BFS");
        idx.refresh(&tables, &net, &is_gateway);
        assert_eq!(idx.connected_fraction(&[n(0)]), 1.0);
        assert_eq!(idx.reached(), &[true; 4]);

        // Break node 2's chain: 2 and 3 drop out of the reached set.
        tables[2].install(RouteEntry::new(n(0), n(3), 2, Step::ZERO));
        idx.mark_dirty(n(2));
        idx.refresh(&tables, &net, &is_gateway);
        let fraction = idx.connected_fraction(&[n(0)]);
        let count = idx.reached().iter().filter(|&&ok| ok).count();
        assert_eq!(fraction, count as f64 / 4.0);
        assert_eq!(idx.reached(), &[true, true, false, false]);
    }

    #[test]
    fn duplicate_gateways_count_once() {
        let (tables, net, is_gateway) = fixture();
        let mut idx = RouteIndex::new(4);
        idx.refresh(&tables, &net, &is_gateway);
        assert_eq!(idx.connected_fraction(&[n(0), n(0)]), 1.0);
    }
}
