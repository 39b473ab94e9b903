//! Swap-vs-read stress and consistency tests for the snapshot cell,
//! racing publishers, and captures checked against the from-scratch
//! reachability reference.

use agentnet_baselines::zoo::{build_protocol, ZooParams};
use agentnet_core::routing::{ProtocolKind, RoutingProtocol};
use agentnet_engine::Step;
use agentnet_graph::NodeId;
use agentnet_radio::NetworkBuilder;
use agentnet_serve::{wire, MapSnapshot, SnapshotCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn arm(nodes: usize, seed: u64) -> Box<dyn RoutingProtocol> {
    let net = NetworkBuilder::scaled_preset(nodes).build(seed).unwrap();
    build_protocol(ProtocolKind::Agents, net, &ZooParams::with_population(nodes / 4), seed).unwrap()
}

/// N reader threads hammer `load` while the step thread runs 1k steps,
/// publishing after every one. Every observed snapshot must validate
/// and every reader's header sequence must be monotone — the
/// `Step::since` time-reversal scenario is a header going backwards
/// across a swap, which this hunts directly.
#[test]
fn readers_never_observe_invalid_or_time_reversed_snapshots() {
    const STEPS: u64 = 1_000;
    const READERS: usize = 4;

    let mut protocol = arm(100, 7);
    let initial = MapSnapshot::capture(protocol.as_ref(), Step::ZERO);
    let cell = Arc::new(SnapshotCell::new(initial));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let mut last = cell.load().header();
                let mut observed = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = cell.load();
                    snap.validate().expect("reader observed an invalid snapshot");
                    let h = snap.header();
                    assert!(
                        h.seq >= last.seq
                            && h.step >= last.step
                            && h.topology_version >= last.topology_version,
                        "header went back in time: {last:?} -> {h:?}"
                    );
                    last = h;
                    observed += 1;
                }
                observed
            }));
        }

        for s in 0..STEPS {
            protocol.step(Step::new(s));
            let snap = MapSnapshot::capture(protocol.as_ref(), Step::new(s + 1));
            cell.publish(snap).expect("in-order publishes are always monotone");
        }
        done.store(true, Ordering::Release);

        for reader in readers {
            let observed = reader.join().expect("reader panicked");
            assert!(observed > 0, "reader made no observations");
        }
    });

    let final_snap = cell.load();
    assert_eq!(final_snap.header().step, STEPS);
    assert_eq!(final_snap.header().seq, STEPS + 1);
}

/// Two racing publishers of the same step are serialized by the cell's
/// lock: both get distinct, consecutive sequence numbers and the cell
/// ends on the newest one. (Racing *different* steps is deliberately
/// not tested: the cell may reject whichever lands second.)
#[test]
fn concurrent_same_step_publishers_get_consecutive_sequence_numbers() {
    let mut protocol = arm(100, 3);
    let initial = MapSnapshot::capture(protocol.as_ref(), Step::ZERO);
    protocol.step(Step::ZERO);
    let same_step = MapSnapshot::capture(protocol.as_ref(), Step::new(1));
    let cell = SnapshotCell::new(initial);
    let barrier = std::sync::Barrier::new(2);

    let mut seqs: Vec<u64> = std::thread::scope(|scope| {
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let snap = same_step.clone();
                let (cell, barrier) = (&cell, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    cell.publish(snap).expect("same-step publishes are monotone")
                })
            })
            .collect();
        publishers.into_iter().map(|p| p.join().expect("publisher panicked")).collect()
    });
    seqs.sort_unstable();
    assert_eq!(seqs, [2, 3], "the lock serializes sequence assignment");
    let last = cell.load();
    last.validate().expect("final snapshot is valid");
    assert_eq!(last.header().seq, 3);
    assert_eq!(last.header().step, 1);
}

/// Asserts that `snap`'s reachability is exactly the from-scratch
/// reference of `protocol`'s current tables and links.
fn assert_reachability_matches_reference(snap: &MapSnapshot, protocol: &dyn RoutingProtocol) {
    let step = snap.header().step;
    assert_eq!(snap.reachable_fraction(), protocol.connectivity(), "fraction at step {step}");
    for (v, &expected) in protocol.reached_from_scratch().iter().enumerate() {
        let node = NodeId::new(v);
        assert_eq!(snap.is_reachable(node), Ok(expected), "node {v} at step {step}");
    }
}

/// The check behind `repro serve --steps 0`: a frozen snapshot after W
/// warmup steps answers exactly what the from-scratch reference and
/// the arm's own tables and links give at that step.
#[test]
fn frozen_snapshot_equals_the_from_scratch_reference() {
    const WARMUP: u64 = 60;
    let warmed = |seed: u64| {
        let mut protocol = arm(100, seed);
        for s in 0..WARMUP {
            protocol.step(Step::new(s));
        }
        let snap = MapSnapshot::capture(protocol.as_ref(), Step::new(WARMUP));
        (protocol, snap)
    };
    let (protocol, served) = warmed(11);
    let net = protocol.network();
    assert_eq!(served.header().step, WARMUP);
    assert_eq!(served.header().topology_version, net.topology_version());
    assert_reachability_matches_reference(&served, protocol.as_ref());
    for (v, table) in protocol.tables().iter().enumerate() {
        let node = NodeId::new(v);
        assert_eq!(served.links_of(node), Ok(net.links().out_neighbors(node)));
        let expected = if net.gateways().contains(&node) {
            None
        } else {
            table.best_live_entry(node, net.links()).map(|e| (e.gateway, e.next_hop, e.hops))
        };
        let answer = served.route(node).unwrap().map(|r| (r.gateway, r.next_hop, r.hops));
        assert_eq!(answer, expected, "route diverged at node {v}");
    }
    // A different seed must actually change the map (the comparison
    // above is not vacuously true).
    let (_, other) = warmed(12);
    let diverged = (0..100).any(|v| {
        wire::respond(1, wire::Request::Route(NodeId::new(v)), &served)
            != wire::respond(1, wire::Request::Route(NodeId::new(v)), &other)
    });
    assert!(diverged, "different seeds should produce different maps");
}

/// On a static network no step bumps the link topology, so every change
/// to reachability comes from table writes alone. A capture after every
/// step must still match the from-scratch reference, for every arm, and
/// a capture before the first step flags exactly the live gateways.
#[test]
fn captures_track_table_writes_on_a_static_network() {
    const STEPS: u64 = 60;
    for kind in ProtocolKind::ALL {
        let net = NetworkBuilder::new(40)
            .gateways(3)
            .target_edges(320)
            .mobile_fraction(0.0)
            .min_initial_reachability(0.0)
            .build(4)
            .unwrap();
        let topology = net.topology_version();
        let mut protocol = build_protocol(kind, net, &ZooParams::with_population(12), 4).unwrap();

        let initial = MapSnapshot::capture(protocol.as_ref(), Step::ZERO);
        initial.validate().unwrap_or_else(|e| panic!("{kind}: step-0 capture: {e}"));
        for v in 0..initial.node_count() {
            let node = NodeId::new(v);
            let gateway = protocol.live_gateways().contains(&node);
            assert_eq!(initial.is_reachable(node), Ok(gateway), "{kind}: node {v} at step 0");
        }

        let mut grew = false;
        for s in 0..STEPS {
            protocol.step(Step::new(s));
            assert_eq!(protocol.network().topology_version(), topology, "{kind}: links changed");
            let snap = MapSnapshot::capture(protocol.as_ref(), Step::new(s + 1));
            assert_reachability_matches_reference(&snap, protocol.as_ref());
            grew |= snap.reachable_fraction() > initial.reachable_fraction();
        }
        assert!(grew, "{kind}: no table write ever reached a gateway; the test is vacuous");
    }
}
