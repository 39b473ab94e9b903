//! Swap-vs-read stress and consistency tests for the snapshot cell,
//! racing publishers, and the frozen-daemon-vs-batch golden check.

use agentnet_baselines::zoo::{build_protocol, ZooParams};
use agentnet_core::routing::{ProtocolKind, RouteIndex, RoutingProtocol};
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
/// (no torn content) and every reader's header sequence must be
/// monotone — the `Step::since` time-reversal scenario is a header
/// going backwards across a swap, which this hunts directly.
#[test]
fn readers_never_observe_torn_or_time_reversed_snapshots() {
    const STEPS: u64 = 1_000;
    const READERS: usize = 4;

    let mut protocol = arm(100, 7);
    let mut index = RouteIndex::new(100);
    let initial = MapSnapshot::capture(protocol.as_ref(), &mut index, Step::ZERO);
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
                    snap.validate().expect("reader observed a torn snapshot");
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
            let snap = MapSnapshot::capture(protocol.as_ref(), &mut index, Step::new(s + 1));
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
    let mut index = RouteIndex::new(100);
    let initial = MapSnapshot::capture(protocol.as_ref(), &mut index, Step::ZERO);
    protocol.step(Step::ZERO);
    let same_step = MapSnapshot::capture(protocol.as_ref(), &mut index, Step::new(1));
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
    last.validate().expect("final snapshot is untorn");
    assert_eq!(last.header().seq, 3);
    assert_eq!(last.header().step, 1);
}

/// The golden check behind `repro serve --steps 0`: a frozen snapshot
/// after W warmup steps answers byte-identically to a batch
/// `RouteIndex` capture of the same arm at the same seed and step.
#[test]
fn frozen_snapshot_equals_batch_route_index() {
    const WARMUP: u64 = 60;
    let capture = |seed: u64| {
        let mut protocol = arm(100, seed);
        for s in 0..WARMUP {
            protocol.step(Step::new(s));
        }
        let mut index = RouteIndex::new(100);
        MapSnapshot::capture(protocol.as_ref(), &mut index, Step::new(WARMUP))
    };
    let served = capture(11);
    let batch = capture(11);
    assert_eq!(served.header().step, batch.header().step);
    assert_eq!(served.header().topology_version, batch.header().topology_version);
    assert_eq!(served.reachable_fraction(), batch.reachable_fraction());
    for v in 0..100 {
        let node = NodeId::new(v);
        for req in
            [wire::Request::Route(node), wire::Request::Links(node), wire::Request::Reach(node)]
        {
            assert_eq!(
                wire::respond(1, req, &served),
                wire::respond(1, req, &batch),
                "answer diverged at node {v}"
            );
        }
    }
    // A different seed must actually change the map (the comparison
    // above is not vacuously true).
    let other = capture(12);
    let diverged = (0..100).any(|v| {
        wire::respond(1, wire::Request::Route(NodeId::new(v)), &served)
            != wire::respond(1, wire::Request::Route(NodeId::new(v)), &other)
    });
    assert!(diverged, "different seeds should produce different maps");
}
