//! Compact adjacency-list directed graph.

use crate::error::GraphError;
use crate::ids::{Edge, NodeId};
use serde::{Deserialize, Serialize};

/// A directed graph over a fixed set of nodes `0..n`.
///
/// Out- and in-adjacency lists are both maintained so that agent movement
/// (out-neighbours) and route validation / gateway reachability
/// (in-neighbours) are equally cheap. Adjacency lists are kept **sorted by
/// node id**, which gives deterministic iteration order — the simulations
/// rely on that for reproducibility — and `O(log d)` membership tests.
///
/// Self-loops are rejected (a radio does not link to itself); parallel edges
/// are collapsed.
///
/// # Example
///
/// ```
/// use agentnet_graph::{DiGraph, NodeId};
///
/// let mut g = DiGraph::new(4);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(0), NodeId::new(2));
/// assert_eq!(g.out_degree(NodeId::new(0)), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiGraph {
    out: Vec<Vec<NodeId>>,
    inn: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph { out: vec![Vec::new(); n], inn: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edge_count == 0
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.out.len()).map(NodeId::new)
    }

    /// Checks that `node` is a valid id for this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] when the id is too large.
    pub fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if node.index() < self.out.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange { index: node.index(), len: self.out.len() })
        }
    }

    /// Adds the directed edge `from -> to`.
    ///
    /// Returns `true` if the edge was newly inserted, `false` if it already
    /// existed or is a self-loop (self-loops are ignored).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        assert!(from.index() < self.out.len(), "edge source {from} out of range");
        assert!(to.index() < self.out.len(), "edge target {to} out of range");
        if from == to {
            return false;
        }
        let list = &mut self.out[from.index()];
        match list.binary_search(&to) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, to);
                let rlist = &mut self.inn[to.index()];
                let rpos = rlist.binary_search(&from).unwrap_err();
                rlist.insert(rpos, from);
                self.edge_count += 1;
                true
            }
        }
    }

    /// Removes the directed edge `from -> to`.
    ///
    /// Returns `true` if the edge existed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if from.index() >= self.out.len() || to.index() >= self.out.len() {
            return false;
        }
        let list = &mut self.out[from.index()];
        match list.binary_search(&to) {
            Ok(pos) => {
                list.remove(pos);
                let rlist = &mut self.inn[to.index()];
                let rpos = rlist.binary_search(&from).expect("in-list out of sync");
                rlist.remove(rpos);
                self.edge_count -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Removes every edge, keeping the node set.
    pub fn clear_edges(&mut self) {
        for l in &mut self.out {
            l.clear();
        }
        for l in &mut self.inn {
            l.clear();
        }
        self.edge_count = 0;
    }

    /// Builds a graph from per-source sorted out-neighbour rows, taking
    /// `rows` as its out-lists — the bulk counterpart of repeated
    /// [`DiGraph::add_edge`] calls for callers (like the wireless
    /// network's initial link derivation) that already produced each
    /// node's out-list. No row is copied; walking the rows in ascending
    /// source order makes every in-list come out sorted without any
    /// binary search, each allocated at its exact degree: one `O(E)`
    /// pass instead of `O(E log d)`.
    ///
    /// `rows[i]` must be strictly sorted by id, free of self-loops, and
    /// reference only nodes `< rows.len()`.
    ///
    /// # Panics
    ///
    /// Panics if a row references an out-of-range node; row ordering and
    /// self-loop freedom are debug-asserted.
    pub fn from_sorted_out_rows(rows: Vec<Vec<NodeId>>) -> Self {
        let n = rows.len();
        let mut in_degree = vec![0usize; n];
        let mut edge_count = 0usize;
        for row in &rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "out rows must be strictly sorted");
            for &to in row {
                assert!(to.index() < n, "edge target {to} out of range");
                in_degree[to.index()] += 1;
            }
            edge_count += row.len();
        }
        let mut inn: Vec<Vec<NodeId>> = in_degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for (i, row) in rows.iter().enumerate() {
            let from = NodeId::new(i);
            for &to in row {
                debug_assert_ne!(from, to, "self-loops are not representable");
                inn[to.index()].push(from);
            }
        }
        DiGraph { out: rows, inn, edge_count }
    }

    /// Returns `true` if the edge `from -> to` exists.
    #[inline]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.out.get(from.index()).is_some_and(|l| l.binary_search(&to).is_ok())
    }

    /// Out-neighbours of `node`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.out[node.index()]
    }

    /// In-neighbours of `node`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.inn[node.index()]
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out[node.index()].len()
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.inn[node.index()].len()
    }

    /// Iterator over every directed edge, in `(from, to)` id order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out.iter().enumerate().flat_map(|(i, l)| {
            let from = NodeId::new(i);
            l.iter().map(move |&to| Edge::new(from, to))
        })
    }

    /// Builds a graph of `n` nodes from an edge list (duplicates and
    /// self-loops are dropped).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an edge references a node
    /// `>= n`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let mut g = DiGraph::new(n);
        for (from, to) in edges {
            g.check_node(from)?;
            g.check_node(to)?;
            g.add_edge(from, to);
        }
        Ok(g)
    }

    /// Returns the graph with every edge reversed.
    pub fn reversed(&self) -> DiGraph {
        DiGraph { out: self.inn.clone(), inn: self.out.clone(), edge_count: self.edge_count }
    }

    /// Fraction of node pairs `(a, b)`, `a != b`, joined by an edge — the
    /// density of the directed graph in `[0, 1]`.
    pub fn density(&self) -> f64 {
        let n = self.node_count();
        if n < 2 {
            return 0.0;
        }
        crate::cast::fraction(self.edge_count, n * (n - 1))
    }

    /// Returns `true` if every edge `a -> b` has a matching edge `b -> a`
    /// (i.e. the digraph models an undirected network).
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|e| self.has_edge(e.to, e.from))
    }

    /// Audits the internal representation: adjacency lists must be
    /// strictly sorted with in-range targets, the out- and in-lists must
    /// mirror each other exactly, and the cached edge count must match.
    ///
    /// Every public mutation preserves these properties; the check
    /// exists so invariant-checked simulation runs can prove it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_consistency(&self) -> Result<(), String> {
        let n = self.out.len();
        if self.inn.len() != n {
            return Err(format!("out lists cover {n} nodes but in lists {}", self.inn.len()));
        }
        for (label, lists) in [("out", &self.out), ("in", &self.inn)] {
            for (v, list) in lists.iter().enumerate() {
                if !list.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("{label}-list of node {v} is not strictly sorted"));
                }
                if let Some(bad) = list.iter().find(|t| t.index() >= n) {
                    return Err(format!("{label}-list of node {v} references node {bad} >= {n}"));
                }
            }
        }
        let out_edges: usize = self.out.iter().map(Vec::len).sum();
        let in_edges: usize = self.inn.iter().map(Vec::len).sum();
        if out_edges != self.edge_count || in_edges != self.edge_count {
            return Err(format!(
                "edge count {} disagrees with adjacency ({out_edges} out, {in_edges} in)",
                self.edge_count
            ));
        }
        for (u, list) in self.out.iter().enumerate() {
            for &v in list {
                if self.inn[v.index()].binary_search(&NodeId::new(u)).is_err() {
                    return Err(format!("edge {u} -> {v} missing from {v}'s in-list"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn new_graph_is_empty() {
        let g = DiGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.nodes().count(), 5);
    }

    #[test]
    fn add_edge_is_directional() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge(n(0), n(1)));
        assert!(g.has_edge(n(0), n(1)));
        assert!(!g.has_edge(n(1), n(0)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge(n(0), n(1)));
        assert!(!g.add_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = DiGraph::new(3);
        assert!(!g.add_edge(n(1), n(1)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn remove_edge_updates_both_lists() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(2), n(1));
        assert!(g.remove_edge(n(0), n(1)));
        assert!(!g.remove_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.in_neighbors(n(1)), &[n(2)]);
        assert!(g.out_neighbors(n(0)).is_empty());
    }

    #[test]
    fn remove_edge_out_of_range_is_false() {
        let mut g = DiGraph::new(2);
        assert!(!g.remove_edge(n(0), n(9)));
    }

    #[test]
    fn neighbors_are_sorted_for_determinism() {
        let mut g = DiGraph::new(5);
        g.add_edge(n(0), n(4));
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(3));
        assert_eq!(g.out_neighbors(n(0)), &[n(1), n(3), n(4)]);
    }

    #[test]
    fn in_neighbors_track_sources() {
        let mut g = DiGraph::new(4);
        g.add_edge(n(3), n(0));
        g.add_edge(n(1), n(0));
        assert_eq!(g.in_neighbors(n(0)), &[n(1), n(3)]);
        assert_eq!(g.in_degree(n(0)), 2);
        assert_eq!(g.out_degree(n(0)), 0);
    }

    #[test]
    fn edges_iterates_in_id_order() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(2), n(0));
        g.add_edge(n(0), n(2));
        g.add_edge(n(0), n(1));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![Edge::new(n(0), n(1)), Edge::new(n(0), n(2)), Edge::new(n(2), n(0))]
        );
    }

    #[test]
    fn from_edges_validates_ids() {
        let err = DiGraph::from_edges(2, [(n(0), n(5))]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { index: 5, len: 2 });
        let g = DiGraph::from_edges(3, [(n(0), n(1)), (n(0), n(1)), (n(1), n(1))]).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let r = g.reversed();
        assert!(r.has_edge(n(1), n(0)));
        assert!(r.has_edge(n(2), n(1)));
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn clear_edges_keeps_nodes() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1));
        g.clear_edges();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.out_neighbors(n(0)).is_empty());
    }

    #[test]
    fn density_complete_graph_is_one() {
        let mut g = DiGraph::new(3);
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    g.add_edge(n(a), n(b));
                }
            }
        }
        assert!((g.density() - 1.0).abs() < 1e-12);
        assert_eq!(DiGraph::new(1).density(), 0.0);
    }

    #[test]
    fn symmetry_check() {
        let mut g = DiGraph::new(2);
        g.add_edge(n(0), n(1));
        assert!(!g.is_symmetric());
        g.add_edge(n(1), n(0));
        assert!(g.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_panics_out_of_range() {
        let mut g = DiGraph::new(2);
        g.add_edge(n(0), n(2));
    }

    #[test]
    fn consistency_holds_through_mutation() {
        let mut g = DiGraph::new(6);
        assert_eq!(g.check_consistency(), Ok(()));
        for (a, b) in [(0, 3), (3, 0), (5, 1), (1, 2), (2, 1), (0, 1)] {
            g.add_edge(n(a), n(b));
            assert_eq!(g.check_consistency(), Ok(()));
        }
        g.remove_edge(n(3), n(0));
        g.remove_edge(n(0), n(1));
        assert_eq!(g.check_consistency(), Ok(()));
        g.clear_edges();
        assert_eq!(g.check_consistency(), Ok(()));
    }

    #[test]
    fn from_sorted_out_rows_matches_incremental_build() {
        let edges = [(0, 3), (0, 1), (3, 0), (5, 1), (1, 2), (2, 1), (4, 2)];
        let mut incremental = DiGraph::new(6);
        let mut rows: Vec<Vec<NodeId>> = vec![Vec::new(); 6];
        for &(a, b) in &edges {
            incremental.add_edge(n(a), n(b));
            rows[a].push(n(b));
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        let bulk = DiGraph::from_sorted_out_rows(rows);
        assert_eq!(bulk, incremental);
        assert_eq!(bulk.check_consistency(), Ok(()));
        assert_eq!(bulk.edge_count(), edges.len());
    }

    #[test]
    fn from_sorted_out_rows_of_empty_rows_has_no_edges() {
        let g = DiGraph::from_sorted_out_rows(vec![Vec::new(); 3]);
        assert_eq!(g, DiGraph::new(3));
        assert_eq!(g.check_consistency(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sorted_out_rows_rejects_out_of_range_target() {
        let _ = DiGraph::from_sorted_out_rows(vec![vec![n(7)], Vec::new()]);
    }

    #[test]
    fn consistency_catches_corruption() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        // Forge a count mismatch.
        let mut bad = g.clone();
        bad.edge_count = 5;
        assert!(bad.check_consistency().unwrap_err().contains("edge count"));
        // Forge a one-sided edge (out-list entry with no in-list mirror).
        let mut bad = g.clone();
        bad.out[2].push(n(0));
        assert!(bad.check_consistency().is_err());
        // Forge an unsorted list.
        let mut bad = g;
        bad.out[0] = vec![n(2), n(1)];
        bad.inn[1].push(n(0)); // keep counts plausible
        assert!(bad.check_consistency().unwrap_err().contains("sorted"));
    }
}
