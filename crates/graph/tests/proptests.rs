//! Property-based tests for the graph substrate.

use agentnet_graph::connectivity::{
    is_strongly_connected, reaches_any, strongly_connected_components,
};
use agentnet_graph::generators::{calibrate_base_range, erdos_renyi};
use agentnet_graph::geometry::{Point2, Rect};
use agentnet_graph::paths::{bfs_distances, hop_distance, is_live_path, shortest_path};
use agentnet_graph::{DiGraph, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a small digraph as (node count, edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..n * 4).prop_map(move |edges| {
            let mut g = DiGraph::new(n);
            for (a, b) in edges {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
            g
        })
    })
}

/// The calibration both generators ran before it was pruned: 48
/// bisection steps, each counting all `n(n-1)` pairs. Kept as the
/// reference the pruned [`calibrate_base_range`] must match bit for bit.
fn full_count_calibration(
    positions: &[Point2],
    target: usize,
    hi: f64,
    radius: impl Fn(usize, f64) -> f64,
) -> f64 {
    let (mut lo, mut hi) = (0.0f64, hi);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        let mut edges = 0usize;
        for (i, &pi) in positions.iter().enumerate() {
            let r = radius(i, mid);
            let r2 = r * r;
            for (j, &pj) in positions.iter().enumerate() {
                if i != j && pi.distance_sq(pj) <= r2 {
                    edges += 1;
                }
            }
        }
        if edges < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

proptest! {
    /// Over random placements (with coincident points), heterogeneous
    /// factors, a boost on some nodes as the radio builder applies to
    /// gateways, and targets across the whole pair range, the pruned
    /// bisection returns exactly the full count's base range.
    #[test]
    fn pruned_calibration_is_bit_identical_to_the_full_count(
        nodes in proptest::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0, 0.75f64..1.25, 0usize..6),
            2..50,
        ),
        target_fraction in 0.0f64..1.0,
        coincide in 0usize..3,
    ) {
        let mut positions: Vec<Point2> =
            nodes.iter().map(|&(x, y, _, _)| Point2::new(x, y)).collect();
        if coincide == 0 {
            positions[1] = positions[0];
        }
        let n = positions.len();
        let pairs = n * (n - 1);
        let target = ((pairs as f64 * target_fraction) as usize).clamp(1, pairs);
        let radius = |i: usize, base: f64| {
            let (_, _, factor, role) = nodes[i];
            base * factor * if role == 0 { 1.5 } else { 1.0 }
        };
        let hi = Rect::square(1000.0).diagonal();
        let pruned = calibrate_base_range(&positions, target, hi, radius);
        let full = full_count_calibration(&positions, target, hi, radius);
        prop_assert_eq!(pruned.to_bits(), full.to_bits());
    }

    #[test]
    fn edge_count_matches_edges_iterator(g in arb_graph(12)) {
        prop_assert_eq!(g.edge_count(), g.edges().count());
    }

    #[test]
    fn out_and_in_adjacency_are_mirror_images(g in arb_graph(12)) {
        for e in g.edges() {
            prop_assert!(g.out_neighbors(e.from).contains(&e.to));
            prop_assert!(g.in_neighbors(e.to).contains(&e.from));
        }
        let out_total: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        let in_total: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_total, g.edge_count());
        prop_assert_eq!(in_total, g.edge_count());
    }

    #[test]
    fn double_reverse_is_identity(g in arb_graph(12)) {
        prop_assert_eq!(g.reversed().reversed(), g);
    }

    #[test]
    fn removing_every_edge_empties_the_graph(g in arb_graph(10)) {
        let mut h = g.clone();
        let edges: Vec<_> = g.edges().collect();
        for e in &edges {
            prop_assert!(h.remove_edge(e.from, e.to));
        }
        prop_assert_eq!(h.edge_count(), 0);
        prop_assert!(h.nodes().all(|v| h.out_degree(v) == 0 && h.in_degree(v) == 0));
    }

    #[test]
    fn scc_is_a_partition(g in arb_graph(14)) {
        let sccs = strongly_connected_components(&g);
        let mut seen = HashSet::new();
        for component in &sccs {
            prop_assert!(!component.is_empty());
            for &v in component {
                prop_assert!(seen.insert(v), "node {} in two components", v);
            }
        }
        prop_assert_eq!(seen.len(), g.node_count());
    }

    #[test]
    fn single_scc_iff_strongly_connected(g in arb_graph(10)) {
        let sccs = strongly_connected_components(&g);
        prop_assert_eq!(sccs.len() == 1, is_strongly_connected(&g));
    }

    #[test]
    fn shortest_path_is_live_and_minimal(g in arb_graph(10)) {
        let from = NodeId::new(0);
        let dist = bfs_distances(&g, from);
        for v in g.nodes() {
            match shortest_path(&g, from, v) {
                Some(path) => {
                    prop_assert!(is_live_path(&g, &path));
                    prop_assert_eq!(path[0], from);
                    prop_assert_eq!(*path.last().unwrap(), v);
                    prop_assert_eq!(path.len() - 1, dist[v.index()]);
                }
                None => prop_assert_eq!(dist[v.index()], usize::MAX),
            }
        }
    }

    #[test]
    fn hop_distance_satisfies_triangle_via_edges(g in arb_graph(10)) {
        // d(a, c) <= d(a, b) + 1 for every edge b -> c.
        let a = NodeId::new(0);
        for e in g.edges() {
            if let Some(db) = hop_distance(&g, a, e.from) {
                let dc = hop_distance(&g, a, e.to).expect("reachable via b");
                prop_assert!(dc <= db + 1);
            }
        }
    }

    #[test]
    fn reaches_any_agrees_with_per_node_search(g in arb_graph(10), t in 0usize..10) {
        let n = g.node_count();
        let target = NodeId::new(t % n);
        let reached = reaches_any(&g, &[target]);
        for v in g.nodes() {
            let direct = shortest_path(&g, v, target).is_some();
            prop_assert_eq!(reached[v.index()], direct, "mismatch at {}", v);
        }
    }

    #[test]
    fn erdos_renyi_density_tracks_p(n in 10usize..30, p in 0.0f64..1.0, seed in 0u64..50) {
        let g = erdos_renyi(n, p, seed).unwrap();
        let density = g.density();
        // Loose bound: 5 sigma of a binomial proportion.
        let sigma = (p * (1.0 - p) / (n * (n - 1)) as f64).sqrt();
        prop_assert!((density - p).abs() <= 5.0 * sigma + 1e-9,
            "density {density} too far from p {p}");
    }

    #[test]
    fn live_path_prefixes_of_shortest_paths_are_live(g in arb_graph(10)) {
        if let Some(path) = shortest_path(&g, NodeId::new(0), NodeId::new(g.node_count() - 1)) {
            for k in 1..=path.len() {
                prop_assert!(is_live_path(&g, &path[..k]));
            }
        }
    }
}
