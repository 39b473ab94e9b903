//! Next-hop routing entries and per-node routing tables.
//!
//! Nodes hold classic ad-hoc-network routing state: for each known
//! gateway, *which neighbour to forward to next* plus a hop estimate and
//! freshness. A node can reach the outside world iff following next-hop
//! entries (over currently-live links) eventually lands on a gateway —
//! chains are validated by [`super::sim::RoutingSim`] each step, so a
//! single broken link upstream invalidates every route that relied on it
//! until some agent re-repairs the chain.

use agentnet_engine::Step;
use agentnet_graph::{DiGraph, NodeId};
use serde::{Deserialize, Serialize};

/// One routing-table entry: "to reach `gateway`, forward to `next_hop`
/// (expected `hops` hops in total)".
///
/// ```
/// use agentnet_core::routing::RouteEntry;
/// use agentnet_engine::Step;
/// use agentnet_graph::NodeId;
///
/// let e = RouteEntry::new(NodeId::new(9), NodeId::new(3), 4, Step::new(17));
/// assert_eq!(e.gateway, NodeId::new(9));
/// assert_eq!(e.next_hop, NodeId::new(3));
/// assert_eq!(e.age(Step::new(20)), 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// The gateway this entry leads towards.
    pub gateway: NodeId,
    /// The neighbour packets should be forwarded to.
    pub next_hop: NodeId,
    /// Estimated hop count to the gateway via `next_hop`.
    pub hops: u32,
    /// When the entry was written.
    pub installed_at: Step,
}

impl RouteEntry {
    /// Creates an entry.
    pub fn new(gateway: NodeId, next_hop: NodeId, hops: u32, installed_at: Step) -> Self {
        RouteEntry { gateway, next_hop, hops, installed_at }
    }

    /// Entry age in steps at time `now`. Entries stamped *ahead* of
    /// `now` — installed by a co-located exchange at a step boundary,
    /// where the installer's clock has already advanced past the
    /// reader's — report age 0 instead of panicking in
    /// [`Step::since`](agentnet_engine::Step::since).
    pub fn age(&self, now: Step) -> u64 {
        now.checked_since(self.installed_at).unwrap_or(0)
    }
}

/// A node's routing table: at most one [`RouteEntry`] per gateway.
///
/// Agents *overwrite* the entry for a gateway whenever they pass — in a
/// dynamic network an agent's recent knowledge beats a stale entry (the
/// paper: agents update tables "using \[their\] own recent knowledge of
/// the network").
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingTable {
    entries: Vec<RouteEntry>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RoutingTable { entries: Vec::new() }
    }

    /// Number of gateway entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entry towards `gateway`, if any.
    pub fn entry_for(&self, gateway: NodeId) -> Option<&RouteEntry> {
        self.entries.iter().find(|e| e.gateway == gateway)
    }

    /// Installs `entry`, replacing any existing entry for the same
    /// gateway.
    pub fn install(&mut self, entry: RouteEntry) {
        match self.entries.iter_mut().find(|e| e.gateway == entry.gateway) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// All stored entries.
    pub fn entries(&self) -> &[RouteEntry] {
        &self.entries
    }

    /// Distinct next-hop neighbours across all entries (the forwarding
    /// options chain validation explores).
    pub fn next_hops(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.next_hop)
    }

    /// The entry with the fewest estimated hops (ties: lower gateway id).
    pub fn best_entry(&self) -> Option<&RouteEntry> {
        self.entries.iter().min_by_key(|e| (e.hops, e.gateway))
    }

    /// The entry a packet at `from` forwards along: the fewest-hop entry
    /// whose next-hop link is live in `links` (ties: lower gateway id).
    pub fn best_live_entry(&self, from: NodeId, links: &DiGraph) -> Option<&RouteEntry> {
        self.entries
            .iter()
            .filter(|e| links.has_edge(from, e.next_hop))
            .min_by_key(|e| (e.hops, e.gateway))
    }

    /// Removes entries older than `max_age` at time `now`; returns how
    /// many were dropped. (Optional garbage collection — the headline
    /// experiments keep entries forever and rely on chain validation.)
    pub fn evict_older_than(&mut self, now: Step, max_age: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.age(now) <= max_age);
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn e(gw: usize, next: usize, hops: u32, at: u64) -> RouteEntry {
        RouteEntry::new(n(gw), n(next), hops, Step::new(at))
    }

    #[test]
    fn entry_accessors() {
        let entry = e(9, 3, 4, 17);
        assert_eq!(entry.gateway, n(9));
        assert_eq!(entry.next_hop, n(3));
        assert_eq!(entry.hops, 4);
        assert_eq!(entry.age(Step::new(20)), 3);
        assert_eq!(entry.age(Step::new(17)), 0);
    }

    #[test]
    fn age_saturates_for_future_stamped_entries() {
        // An entry installed by a co-located exchange can carry a stamp
        // one step ahead of the reader's clock; its age is 0, not a
        // `Step::since` time-reversal panic.
        assert_eq!(e(9, 3, 4, 17).age(Step::new(10)), 0);
        assert_eq!(e(9, 3, 4, 11).age(Step::new(10)), 0);
    }

    #[test]
    fn eviction_keeps_future_stamped_entries() {
        let mut t = RoutingTable::new();
        t.install(e(9, 3, 4, 12)); // stamped ahead of `now`
        t.install(e(7, 2, 2, 0)); // genuinely stale
        assert_eq!(t.evict_older_than(Step::new(10), 5), 1);
        assert!(t.entry_for(n(9)).is_some());
        assert!(t.entry_for(n(7)).is_none());
    }

    #[test]
    fn install_replaces_same_gateway() {
        let mut t = RoutingTable::new();
        t.install(e(9, 3, 4, 0));
        t.install(e(9, 5, 2, 8));
        assert_eq!(t.len(), 1);
        let entry = t.entry_for(n(9)).unwrap();
        assert_eq!(entry.next_hop, n(5));
        assert_eq!(entry.hops, 2);
    }

    #[test]
    fn install_keeps_distinct_gateways() {
        let mut t = RoutingTable::new();
        t.install(e(9, 3, 4, 0));
        t.install(e(7, 3, 1, 0));
        assert_eq!(t.len(), 2);
        assert!(t.entry_for(n(7)).is_some());
        assert!(t.entry_for(n(8)).is_none());
    }

    #[test]
    fn best_entry_prefers_fewest_hops() {
        let mut t = RoutingTable::new();
        t.install(e(9, 3, 4, 0));
        t.install(e(7, 2, 2, 0));
        t.install(e(8, 1, 2, 0));
        let best = t.best_entry().unwrap();
        assert_eq!(best.gateway, n(7), "hop tie must break by gateway id");
        assert!(RoutingTable::new().best_entry().is_none());
    }

    #[test]
    fn next_hops_lists_forwarding_options() {
        let mut t = RoutingTable::new();
        t.install(e(9, 3, 4, 0));
        t.install(e(7, 2, 2, 0));
        let hops: Vec<NodeId> = t.next_hops().collect();
        assert_eq!(hops, vec![n(3), n(2)]);
    }

    #[test]
    fn eviction_drops_stale_entries() {
        let mut t = RoutingTable::new();
        t.install(e(9, 3, 4, 0));
        t.install(e(7, 2, 2, 90));
        assert_eq!(t.evict_older_than(Step::new(100), 50), 1);
        assert!(t.entry_for(n(9)).is_none());
        assert!(t.entry_for(n(7)).is_some());
        assert_eq!(t.evict_older_than(Step::new(100), 50), 0);
    }

    #[test]
    fn empty_table_behaviour() {
        let t = RoutingTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.next_hops().count(), 0);
    }
}
