//! Property-based tests for the wireless substrate.

use agentnet_graph::geometry::{Point2, Rect};
use agentnet_graph::{DiGraph, NodeId};
use agentnet_radio::mobility::Motion;
use agentnet_radio::{
    BatteryModel, BatteryState, NetworkBuilder, SpatialGrid, WirelessNetwork, LINK_DELTA_MAX_DIRTY,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Every directed link of `links` as an ordered set.
fn edge_set(links: &DiGraph) -> BTreeSet<(NodeId, NodeId)> {
    links.edges().map(|e| (e.from, e.to)).collect()
}

/// The link table a from-scratch derivation gives on `net`'s current
/// node state.
fn derived_links(net: &WirelessNetwork) -> DiGraph {
    WirelessNetwork::from_nodes(net.arena(), net.nodes(), 0).links().clone()
}

/// Both link-maintenance paths must engage where the benchmark's
/// workloads put them: the in-place delta on a 2%-mobile mains network,
/// the fused full pass on the paper's MANET. Without this the
/// differential property below could pass having exercised one path.
#[test]
fn both_link_paths_engage() {
    let mut lowmob = NetworkBuilder::new(300)
        .gateways(12)
        .mobile_fraction(0.02)
        .mobile_battery(BatteryModel::Mains)
        .min_initial_reachability(0.0)
        .build(5)
        .unwrap();
    let mut manet = NetworkBuilder::paper_routing().build(5).unwrap();
    for _ in 0..20 {
        lowmob.advance();
        manet.advance();
    }
    let (low, paper) = (lowmob.stats(), manet.stats());
    assert!(low.link_delta_updates > 0, "2%-mobile mains never took the delta path: {low:?}");
    assert_eq!(low.link_delta_updates, low.link_rebuilds);
    assert!(
        paper.link_rebuilds > paper.link_delta_updates,
        "the paper MANET never took the fused pass: {paper:?}"
    );
}

proptest! {
    #[test]
    fn grid_candidates_are_a_superset_of_the_in_range_set(
        width in 10.0f64..200.0,
        height in 10.0f64..200.0,
        cell in 1.0f64..50.0,
        radius in 0.0f64..80.0,
        points in proptest::collection::vec((0.0f64..1.5, 0.0f64..1.5), 0..60),
        center in (-0.5f64..1.5, -0.5f64..1.5),
    ) {
        let arena = Rect::new(width, height);
        // Scale the unit-ish samples onto (and beyond) the arena; a
        // factor above 1 or below 0 lands outside it.
        let points: Vec<Point2> = points
            .iter()
            .map(|&(fx, fy)| Point2::new((fx - 0.25) * width, (fy - 0.25) * height))
            .collect();
        let center = Point2::new((center.0) * width, (center.1) * height);

        let grid = SpatialGrid::build(arena, cell, &points).expect("finite geometry");
        let candidates: BTreeSet<usize> = grid.candidates_within(center, radius).collect();
        let in_range: BTreeSet<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| center.distance(**p) <= radius)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(
            in_range.is_subset(&candidates),
            "grid missed in-range points {:?} (candidates {:?}, center {center}, r {radius})",
            in_range.difference(&candidates).collect::<Vec<_>>(),
            candidates,
        );
    }

    #[test]
    fn battery_charge_is_monotone_nonincreasing_and_floored(
        per_step in 0.0f64..0.2,
        floor in 0.0f64..0.9,
        steps in 1usize..500,
    ) {
        let mut b = BatteryState::new(BatteryModel::Linear { per_step, floor });
        let mut last = b.charge();
        for _ in 0..steps {
            b.step();
            prop_assert!(b.charge() <= last + 1e-12);
            prop_assert!(b.charge() >= floor - 1e-12);
            last = b.charge();
        }
    }

    #[test]
    fn exponential_battery_never_exceeds_linear_floor_rules(
        rate in 0.0f64..0.5,
        floor in 0.0f64..0.9,
        steps in 1usize..200,
    ) {
        let mut b = BatteryState::new(BatteryModel::Exponential { rate, floor });
        for _ in 0..steps {
            b.step();
        }
        prop_assert!(b.charge() <= 1.0 && b.charge() >= floor - 1e-12);
        prop_assert!(b.range_factor() <= 1.0);
    }

    #[test]
    fn random_velocity_motion_stays_in_arena(
        seed in 0u64..500,
        speed_lo in 0.0f64..5.0,
        speed_hi_delta in 0.0f64..10.0,
        width in 10.0f64..500.0,
        height in 10.0f64..500.0,
        steps in 1usize..400,
    ) {
        let arena = Rect::new(width, height);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut motion =
            Motion::sample_random_velocity((speed_lo, speed_lo + speed_hi_delta), &mut rng);
        let mut p = Point2::new(width / 2.0, height / 2.0);
        for _ in 0..steps {
            p = motion.advance(p, arena, &mut rng);
            prop_assert!(arena.contains(p), "escaped to {p}");
        }
    }

    #[test]
    fn waypoint_motion_stays_in_arena_and_progresses(
        seed in 0u64..500,
        speed in 0.5f64..20.0,
        steps in 1usize..300,
    ) {
        let arena = Rect::square(200.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut motion = Motion::sample_random_waypoint((speed, speed), 2, arena, &mut rng);
        let mut p = Point2::new(100.0, 100.0);
        for _ in 0..steps {
            let next = motion.advance(p, arena, &mut rng);
            prop_assert!(arena.contains(next));
            // A single hop never exceeds the sampled speed.
            prop_assert!(p.distance(next) <= speed + 1e-9);
            p = next;
        }
    }

    #[test]
    fn builder_produces_consistent_networks(
        seed in 0u64..64,
        nodes in 10usize..60,
        gateways in 0usize..5,
    ) {
        let gateways = gateways.min(nodes / 2);
        let net = NetworkBuilder::new(nodes)
            .gateways(gateways)
            .min_initial_reachability(0.0)
            .build(seed)
            .unwrap();
        prop_assert_eq!(net.node_count(), nodes);
        prop_assert_eq!(net.gateways().len(), gateways);
        // Node ids are dense and ordered.
        for (i, node) in net.nodes().iter().enumerate() {
            prop_assert_eq!(node.id.index(), i);
            prop_assert!(node.nominal_range > 0.0);
            prop_assert!(net.arena().contains(node.position));
        }
        // Links agree with the coverage predicate.
        for node in net.nodes() {
            for &to in net.links().out_neighbors(node.id) {
                prop_assert!(node.covers(net.node(to).position));
            }
        }
    }

    #[test]
    fn advancing_preserves_node_count_and_arena(seed in 0u64..32, steps in 1usize..30) {
        let mut net = NetworkBuilder::new(30)
            .gateways(2)
            .min_initial_reachability(0.0)
            .build(seed)
            .unwrap();
        let n = net.node_count();
        for _ in 0..steps {
            net.advance();
            prop_assert_eq!(net.node_count(), n);
            for node in net.nodes() {
                prop_assert!(net.arena().contains(node.position));
                prop_assert!(node.battery.charge() <= 1.0);
            }
        }
    }

    #[test]
    fn sharded_step_is_byte_identical_to_sequential(
        seed in 0u64..48,
        nodes in 2usize..80,
        shards_raw in 0usize..16,
        mobile in 0.0f64..1.0,
        steps in 1usize..20,
    ) {
        // Shard counts cover 1, mid-range, and far above the node count.
        let shards = match shards_raw {
            0 => 1,
            15 => 200,
            s => s + 1,
        };
        let build = |s: usize| {
            NetworkBuilder::new(nodes)
                .gateways((nodes / 10).min(3))
                .mobile_fraction(mobile)
                .min_initial_reachability(0.0)
                .advance_shards(s)
                .build(seed)
                .unwrap()
        };
        let mut sequential = build(1);
        let mut sharded = build(shards);
        for _ in 0..steps {
            sequential.advance();
            sharded.advance();
            prop_assert_eq!(sharded.links(), sequential.links());
            prop_assert_eq!(sharded.topology_version(), sequential.topology_version());
            prop_assert_eq!(sharded.stats(), sequential.stats());
            prop_assert_eq!(sharded.grid_cells(), sequential.grid_cells());
        }
        prop_assert_eq!(sharded.nodes(), sequential.nodes());
    }

    /// Grid-level shard invariance: the sharded rebuild's CSR arrays are
    /// byte-identical to the sequential counting sort at every shard
    /// count, over random geometry including out-of-arena strays.
    #[test]
    fn grid_rebuild_is_shard_invariant(
        width in 10.0f64..300.0,
        height in 10.0f64..300.0,
        cell in 1.0f64..40.0,
        shards in 1usize..12,
        points in proptest::collection::vec((-0.2f64..1.2, -0.2f64..1.2), 0..120),
    ) {
        let arena = Rect::new(width, height);
        let points: Vec<Point2> = points
            .iter()
            .map(|&(fx, fy)| Point2::new(fx * width, fy * height))
            .collect();
        let sequential = SpatialGrid::build(arena, cell, &points).expect("finite geometry");
        let mut sharded = SpatialGrid::build(arena, cell, &[]).expect("finite geometry");
        sharded.rebuild_sharded(arena, cell, &points, shards).expect("finite geometry");
        prop_assert_eq!(sharded.flat_cells(), sequential.flat_cells());
    }

    /// Grid-level incremental == full: random sparse moves spliced into
    /// the grid yield exactly the CSR arrays a from-scratch rebuild
    /// over the moved points produces.
    #[test]
    fn grid_incremental_update_matches_full_rebuild(
        width in 20.0f64..300.0,
        cell in 2.0f64..40.0,
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..100),
        moves in proptest::collection::vec((0usize..100, -0.4f64..0.4, -0.4f64..0.4), 0..20),
    ) {
        let arena = Rect::square(width);
        let mut points: Vec<Point2> = points
            .iter()
            .map(|&(fx, fy)| Point2::new(fx * width, fy * width))
            .collect();
        let mut grid = SpatialGrid::build(arena, cell, &points).expect("finite geometry");
        let mut moved = Vec::new();
        for &(i, dx, dy) in &moves {
            if i < points.len() {
                points[i] = Point2::new(points[i].x + dx * width, points[i].y + dy * width);
                moved.push(i);
            }
        }
        prop_assert!(grid.incremental_update(arena, cell, &points, &moved));
        let full = SpatialGrid::build(arena, cell, &points).expect("finite geometry");
        prop_assert_eq!(grid.flat_cells(), full.flat_cells());
    }

    /// Network-level differential: with incremental grid maintenance on
    /// vs off (and any shard count), grid contents, links and
    /// `topology_version` stay byte-identical every step; the only stat
    /// allowed to differ is the `grid_incremental_updates` counter
    /// itself.
    #[test]
    fn incremental_grid_toggle_is_byte_identical(
        seed in 0u64..48,
        nodes in 2usize..80,
        shards_raw in 0usize..4,
        mobile in 0.0f64..0.2,
        steps in 1usize..20,
    ) {
        let shards = shards_raw + 1;
        let build = |incremental: bool| {
            NetworkBuilder::new(nodes)
                .gateways((nodes / 10).min(3))
                .mobile_fraction(mobile)
                // Mains power everywhere keeps the max range constant,
                // which is the regime where the incremental path can
                // actually engage (a range drift forces full rebuilds).
                .mobile_battery(BatteryModel::Mains)
                .min_initial_reachability(0.0)
                .advance_shards(shards)
                .grid_incremental(incremental)
                .build(seed)
                .unwrap()
        };
        let mut with_inc = build(true);
        let mut without = build(false);
        for _ in 0..steps {
            with_inc.advance();
            without.advance();
            prop_assert_eq!(with_inc.grid_cells(), without.grid_cells());
            prop_assert_eq!(with_inc.links(), without.links());
            prop_assert_eq!(with_inc.topology_version(), without.topology_version());
            let mut a = with_inc.stats();
            let b = without.stats();
            prop_assert_eq!(b.grid_incremental_updates, 0);
            a.grid_incremental_updates = 0;
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(with_inc.nodes(), without.nodes());
    }

    /// Link maintenance in place is exact. After every step, at any
    /// mobile fraction, battery model and shard count: the links equal a
    /// from-scratch derivation, the formed/broken counters advance by
    /// the set differences against the previous links, the version
    /// bumps iff the links changed, the changed-row record names exactly
    /// the rows that differ, and a sharded twin agrees in links, version
    /// and stats. Each case also pins which path it took: low mobility
    /// is all delta edits, high mobility all fused passes.
    #[test]
    fn link_edits_match_the_full_derivation(
        seed in 0u64..1000,
        nodes in 20usize..300,
        mobile_pick in 0usize..5,
        paper_battery in 0usize..2,
        shards_pick in 0usize..3,
    ) {
        let mobile = [0.0, 0.01, 0.05, 0.3, 1.0][mobile_pick];
        let shards = [1usize, 2, 7][shards_pick];
        let battery = if paper_battery == 1 { BatteryModel::paper_mobile() } else { BatteryModel::Mains };
        let build = |s: usize| {
            NetworkBuilder::new(nodes)
                .gateways(nodes / 25)
                .mobile_fraction(mobile)
                .mobile_battery(battery)
                .min_initial_reachability(0.0)
                .advance_shards(s)
                .build(seed)
                .unwrap()
        };
        let mut net = build(1);
        let mut twin = build(shards);
        for _ in 0..40 {
            let before = net.links().clone();
            let (stats, version) = (net.stats(), net.topology_version());
            net.advance();
            twin.advance();
            let after = net.links();
            prop_assert_eq!(after, &derived_links(&net));
            let (old, new) = (edge_set(&before), edge_set(after));
            let s = net.stats();
            prop_assert_eq!(s.links_formed - stats.links_formed, new.difference(&old).count() as u64);
            prop_assert_eq!(s.links_broken - stats.links_broken, old.difference(&new).count() as u64);
            prop_assert_eq!(net.topology_version() != version, &before != after);
            let changed: Vec<NodeId> = (0..nodes)
                .map(NodeId::new)
                .filter(|&v| before.out_neighbors(v) != after.out_neighbors(v))
                .collect();
            prop_assert_eq!(net.rows_changed_since(version), Some(&changed[..]));
            prop_assert_eq!(twin.links(), after);
            prop_assert_eq!(twin.topology_version(), net.topology_version());
            prop_assert_eq!(twin.stats(), s);
        }
        let s = net.stats();
        let movers = net.nodes().iter().filter(|n| n.kind.is_mobile()).count();
        if movers > 0 && (movers as f64) <= nodes as f64 * LINK_DELTA_MAX_DIRTY {
            prop_assert!(s.link_delta_updates > 0, "delta path never engaged: {:?}", s);
            prop_assert_eq!(s.link_delta_updates, s.link_rebuilds);
        }
        if movers as f64 > nodes as f64 * LINK_DELTA_MAX_DIRTY {
            prop_assert!(s.link_rebuilds > 0);
            prop_assert_eq!(s.link_delta_updates, 0, "fused pass never engaged");
        }
    }

    #[test]
    fn stationary_nodes_never_move(seed in 0u64..32) {
        let mut net = NetworkBuilder::new(30)
            .gateways(2)
            .mobile_fraction(0.3)
            .min_initial_reachability(0.0)
            .build(seed)
            .unwrap();
        let before: Vec<_> = net
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_mobile())
            .map(|n| (n.id, n.position))
            .collect();
        for _ in 0..10 {
            net.advance();
        }
        for (id, pos) in before {
            prop_assert_eq!(net.node(id).position, pos);
        }
    }
}
