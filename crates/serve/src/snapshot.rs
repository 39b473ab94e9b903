//! Self-contained map snapshots and the [`SnapshotCell`] that
//! publishes them.
//!
//! A [`MapSnapshot`] freezes everything a query needs — best route per
//! node, live out-link rows, per-node reachability, the gateway set —
//! under one header carrying the step count and
//! [`topology_version`](agentnet_radio::WirelessNetwork::topology_version).
//! Reachability is copied from the arm's own
//! [`RouteBook`](agentnet_core::routing::RouteBook), which revalidates
//! it at the end of every step. A published snapshot is an immutable
//! `Arc`, and readers answer entirely from one, so a query can never
//! observe half of step *k* and half of step *k+1*: the time-reversal
//! panics `Step::since` guards against are impossible by construction
//! (ages are precomputed at capture with saturating arithmetic, and
//! [`SnapshotCell::publish`] rejects any non-monotone header).

use crate::clock;
use agentnet_core::routing::RoutingProtocol;
use agentnet_engine::Step;
use agentnet_graph::NodeId;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The monotone header every snapshot carries: publish sequence, step
/// count, and link-topology version. Within one [`SnapshotCell`] all
/// three are nondecreasing (`seq` strictly increasing), which is what
/// makes cross-swap reads safe: any two values a reader takes from one
/// snapshot belong to the same `(step, topology_version)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Publish sequence number, assigned by [`SnapshotCell::publish`]
    /// (the initial snapshot is `1`).
    pub seq: u64,
    /// Simulation steps executed when the snapshot was captured.
    pub step: u64,
    /// The substrate's link-topology version at capture.
    pub topology_version: u64,
}

/// The publish point: the current snapshot and the one it replaced,
/// under one mutex.
///
/// Both critical sections only clone or move whole `Arc`s, so readers
/// hold the lock for a refcount increment and nothing is allocated or
/// freed under it. The replaced snapshot stays *retired* for one more
/// publish: freeing a 10k-node snapshot drops 10k row `Vec`s, and
/// without the retired slot the last query worker holding it would pay
/// that on its latency. With it, the step thread frees generation `g`
/// when it publishes `g + 2`, after unlocking.
pub struct SnapshotCell {
    /// `(current, retired)`.
    slots: Mutex<(Arc<MapSnapshot>, Option<Arc<MapSnapshot>>)>,
}

impl SnapshotCell {
    /// Creates a cell publishing `initial` as sequence 1.
    pub fn new(mut initial: MapSnapshot) -> Self {
        initial.header.seq = 1;
        SnapshotCell { slots: Mutex::new((Arc::new(initial), None)) }
    }

    fn lock(&self) -> MutexGuard<'_, (Arc<MapSnapshot>, Option<Arc<MapSnapshot>>)> {
        // A panic under the lock cannot leave a half-written pair: the
        // critical sections only clone or swap whole `Arc`s.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current snapshot. Answer whole queries from the returned
    /// `Arc`, never from repeated `load` calls — one clone is one
    /// consistent point in time.
    pub fn load(&self) -> Arc<MapSnapshot> {
        Arc::clone(&self.lock().0)
    }

    /// Publishes `snap` as the new current snapshot, assigning the next
    /// sequence number. Publishers are serialized by the lock, so
    /// concurrent callers are safe (the step thread is the only
    /// production publisher).
    ///
    /// # Errors
    ///
    /// Rejects (and drops) a snapshot whose `step` or
    /// `topology_version` would move backwards relative to the
    /// currently published header.
    pub fn publish(&self, snap: MapSnapshot) -> Result<u64, String> {
        let mut next = Arc::new(snap);
        let mut slots = self.lock();
        let (old, new) = (slots.0.header, next.header);
        if new.step < old.step || new.topology_version < old.topology_version {
            drop(slots);
            return Err(format!(
                "non-monotone snapshot rejected: step {} -> {}, topology {} -> {}",
                old.step, new.step, old.topology_version, new.topology_version
            ));
        }
        let seq = old.seq + 1;
        // `next` is not shared yet, so this always stamps.
        if let Some(fresh) = Arc::get_mut(&mut next) {
            fresh.header.seq = seq;
        }
        let replaced = std::mem::replace(&mut slots.0, next);
        let freed = slots.1.replace(replaced);
        drop(slots);
        drop(freed);
        Ok(seq)
    }
}

/// One node's best current route: the fewest-hop table entry whose
/// next-hop link is live at capture time, ties broken by lower gateway
/// id
/// ([`RoutingTable::best_live_entry`](agentnet_core::routing::RoutingTable::best_live_entry)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteAnswer {
    /// The gateway the route leads to.
    pub gateway: NodeId,
    /// The neighbour to forward to.
    pub next_hop: NodeId,
    /// Estimated hops to the gateway.
    pub hops: u32,
    /// Entry age in steps at the snapshot's step (saturating at 0 for
    /// entries stamped ahead of the capture step by a co-located
    /// exchange — never a `Step::since` panic).
    pub age: u64,
}

/// An immutable, internally consistent view of the map at one step.
#[derive(Clone, Debug)]
pub struct MapSnapshot {
    header: SnapshotHeader,
    /// Live gateways at capture (the BFS seed set).
    gateways: Vec<NodeId>,
    /// Per-node out-link rows of the substrate's link graph.
    out_links: Vec<Vec<NodeId>>,
    /// Best live route per node (`None` for gateways and routeless nodes).
    routes: Vec<Option<RouteAnswer>>,
    /// Per-node chain-reachability flags of the arm's last step.
    reachable: Vec<bool>,
    /// Fraction of nodes whose chains reach a live gateway.
    reachable_fraction: f64,
    /// Wall-clock capture time (staleness metrics only — never answers).
    captured_at: Instant,
}

impl MapSnapshot {
    /// Captures a snapshot of `protocol` at `step`: reachability as
    /// the arm's route book revalidated it at the end of its last step,
    /// and per node the best entry over a live link.
    pub fn capture(protocol: &dyn RoutingProtocol, step: Step) -> Self {
        let net = protocol.network();
        let book = protocol.routes();
        let n = net.node_count();
        let links = net.links();
        let reachable = protocol.reached().to_vec();
        let reachable_fraction = reachable.iter().filter(|&&ok| ok).count() as f64 / n as f64;

        let mut out_links = Vec::with_capacity(n);
        let mut routes = Vec::with_capacity(n);
        for (v, table) in protocol.tables().iter().enumerate() {
            let from = NodeId::new(v);
            out_links.push(links.out_neighbors(from).to_vec());
            let best =
                if book.is_gateway(from) { None } else { table.best_live_entry(from, links) };
            routes.push(best.map(|e| RouteAnswer {
                gateway: e.gateway,
                next_hop: e.next_hop,
                hops: e.hops,
                age: step.checked_since(e.installed_at).unwrap_or(0),
            }));
        }

        MapSnapshot {
            header: SnapshotHeader {
                seq: 0,
                step: step.as_u64(),
                topology_version: net.topology_version(),
            },
            gateways: protocol.live_gateways().to_vec(),
            out_links,
            routes,
            reachable,
            reachable_fraction,
            captured_at: clock::now(),
        }
    }

    /// The snapshot's monotone header.
    pub fn header(&self) -> SnapshotHeader {
        self.header
    }

    /// Number of nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.routes.len()
    }

    /// The live gateways at capture.
    pub fn gateways(&self) -> &[NodeId] {
        &self.gateways
    }

    /// Fraction of nodes whose next-hop chains reached a live gateway.
    pub fn reachable_fraction(&self) -> f64 {
        self.reachable_fraction
    }

    /// The node's best current route (`None` for unknown, routeless, or
    /// gateway nodes); `Err` when the node id is out of range.
    pub fn route(&self, node: NodeId) -> Result<Option<&RouteAnswer>, String> {
        self.routes
            .get(node.index())
            .map(Option::as_ref)
            .ok_or_else(|| format!("node {node} out of range (n={})", self.routes.len()))
    }

    /// The node's live out-links, or `Err` when out of range.
    pub fn links_of(&self, node: NodeId) -> Result<&[NodeId], String> {
        self.out_links
            .get(node.index())
            .map(Vec::as_slice)
            .ok_or_else(|| format!("node {node} out of range (n={})", self.out_links.len()))
    }

    /// Whether the node's next-hop chain reached a live gateway at
    /// capture (gateways count as reachable), or `Err` when out of range.
    pub fn is_reachable(&self, node: NodeId) -> Result<bool, String> {
        self.reachable
            .get(node.index())
            .copied()
            .ok_or_else(|| format!("node {node} out of range (n={})", self.reachable.len()))
    }

    /// Wall time elapsed since capture, relative to `now` (saturating
    /// at zero if `now` predates the capture — a reader racing the
    /// swap). Feeds the staleness histogram; never feeds an answer.
    pub fn staleness_micros(&self, now: Instant) -> f64 {
        now.saturating_duration_since(self.captured_at).as_micros() as f64
    }

    /// Asserts the snapshot is internally consistent: parallel vectors
    /// agree on `n`, every live gateway is flagged reachable, and every
    /// route's next hop is one of the node's live out-links and its
    /// gateway a live one.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.routes.len();
        if self.out_links.len() != n || self.reachable.len() != n {
            return Err(format!(
                "malformed snapshot: parallel vectors disagree (routes {n}, links {}, reachable {})",
                self.out_links.len(),
                self.reachable.len()
            ));
        }
        for g in &self.gateways {
            if !self.reachable.get(g.index()).copied().unwrap_or(false) {
                return Err(format!("live gateway {g} is not flagged reachable"));
            }
        }
        for (v, route) in self.routes.iter().enumerate() {
            let Some(r) = route else { continue };
            let row = self.out_links.get(v).map(Vec::as_slice).unwrap_or(&[]);
            if !row.contains(&r.next_hop) {
                return Err(format!(
                    "route at node {v} forwards over a dead link to {}",
                    r.next_hop
                ));
            }
            if !self.gateways.contains(&r.gateway) {
                return Err(format!("route at node {v} targets non-live gateway {}", r.gateway));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentnet_baselines::zoo::{build_protocol, ZooParams};
    use agentnet_core::routing::ProtocolKind;
    use agentnet_radio::NetworkBuilder;

    fn arm(seed: u64) -> Box<dyn RoutingProtocol> {
        let net = NetworkBuilder::new(40).gateways(3).target_edges(320).build(seed).unwrap();
        build_protocol(ProtocolKind::Agents, net, &ZooParams::with_population(12), seed).unwrap()
    }

    fn snapshot_after(steps: u64, seed: u64) -> (Box<dyn RoutingProtocol>, MapSnapshot) {
        let mut protocol = arm(seed);
        for s in 0..steps {
            protocol.step(Step::new(s));
        }
        let snap = MapSnapshot::capture(protocol.as_ref(), Step::new(steps));
        (protocol, snap)
    }

    #[test]
    fn capture_is_internally_consistent() {
        let (_, snap) = snapshot_after(60, 7);
        snap.validate().expect("fresh capture must validate");
        assert_eq!(snap.header().step, 60);
        assert_eq!(snap.node_count(), 40);
        assert!(snap.reachable_fraction() > 0.0);
        assert!(snap.routes.iter().flatten().count() > 0, "warmed tables must yield routes");
    }

    #[test]
    fn capture_matches_the_protocols_own_connectivity() {
        let (protocol, snap) = snapshot_after(80, 3);
        let reference = protocol.connectivity();
        assert_eq!(snap.reachable_fraction(), reference);
        let flagged =
            (0..snap.node_count()).filter(|&v| snap.is_reachable(NodeId::new(v)).unwrap()).count();
        assert_eq!(flagged as f64 / snap.node_count() as f64, reference);
    }

    #[test]
    fn route_answers_reference_live_links_and_real_gateways() {
        let (protocol, snap) = snapshot_after(60, 11);
        for v in 0..snap.node_count() {
            let node = NodeId::new(v);
            if let Some(r) = snap.route(node).unwrap() {
                assert!(snap.links_of(node).unwrap().contains(&r.next_hop));
                assert!(protocol.network().gateways().contains(&r.gateway));
            }
        }
        assert!(snap.route(NodeId::new(999)).is_err());
        assert!(snap.links_of(NodeId::new(999)).is_err());
        assert!(snap.is_reachable(NodeId::new(999)).is_err());
    }

    #[test]
    fn gateways_never_carry_routes() {
        let (protocol, snap) = snapshot_after(60, 5);
        for g in protocol.network().gateways() {
            assert!(snap.route(*g).unwrap().is_none());
            assert!(snap.is_reachable(*g).unwrap(), "gateways are self-reachable");
        }
    }

    #[test]
    fn validate_catches_a_doctored_snapshot() {
        let (_, mut snap) = snapshot_after(60, 9);
        let victim = snap.routes.iter().position(Option::is_some).unwrap();
        // A node never links to itself, so this route forwards over a
        // dead link.
        if let Some(route) = snap.routes[victim].as_mut() {
            route.next_hop = NodeId::new(victim);
        }
        let err = snap.validate().unwrap_err();
        assert!(err.contains("dead link"), "{err}");
    }

    #[test]
    fn cell_assigns_strictly_increasing_sequence_numbers() {
        let (protocol, first) = snapshot_after(10, 2);
        let cell = SnapshotCell::new(first);
        assert_eq!(cell.load().header().seq, 1);
        for k in 0..5 {
            let snap = MapSnapshot::capture(protocol.as_ref(), Step::new(10 + k));
            let seq = cell.publish(snap).unwrap();
            assert_eq!(seq, 2 + k);
            assert_eq!(cell.load().header().seq, seq);
        }
    }

    #[test]
    fn cell_retires_the_replaced_snapshot_for_one_publish() {
        let (protocol, first) = snapshot_after(10, 2);
        let cell = SnapshotCell::new(first);
        let generation_one = Arc::downgrade(&cell.load());
        let publish = |step| {
            let snap = MapSnapshot::capture(protocol.as_ref(), Step::new(step));
            cell.publish(snap).unwrap();
        };
        publish(11);
        assert!(generation_one.upgrade().is_some(), "retired, not yet freed");
        publish(12);
        assert!(generation_one.upgrade().is_none(), "freed by the second publish");
    }

    #[test]
    fn cell_rejects_time_reversal() {
        let (protocol, newer) = snapshot_after(20, 2);
        let older = {
            let mut protocol = arm(2);
            for s in 0..5 {
                protocol.step(Step::new(s));
            }
            MapSnapshot::capture(protocol.as_ref(), Step::new(5))
        };
        let cell = SnapshotCell::new(newer);
        let err = cell.publish(older).unwrap_err();
        assert!(err.contains("non-monotone"), "{err}");
        // The published view is untouched and a same-step republish is fine.
        assert_eq!(cell.load().header().step, 20);
        let same = MapSnapshot::capture(protocol.as_ref(), Step::new(20));
        assert!(cell.publish(same).is_ok());
    }
}
