//! Steady-state allocation accounting for [`WirelessNetwork::advance`].
//!
//! The acceptance test of the allocation-free hot path: on an
//! all-stationary, mains-powered network, `advance()` must not touch
//! the heap once its caches are warm — no grid rebuild, no link
//! recomputation, no scratch growth. A counting global allocator
//! (allowed here: the lib crate forbids unsafe, integration tests are
//! separate crates) measures exactly that. It counts per thread, so
//! tests running concurrently on other threads never leak into the
//! measured count.
//!
//! [`WirelessNetwork::advance`]: agentnet_radio::WirelessNetwork::advance

use agentnet_radio::NetworkBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, counting every allocation on the
/// allocating thread.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` only fails during thread teardown, where nothing is
    // being measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter neither
// allocates nor panics, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_advance_performs_zero_heap_allocations() {
    // The paper routing network with nobody moving and mains power
    // everywhere: after one settling advance the topology can never
    // change again. The default single shard keeps `advance()` on this
    // thread, so the per-thread count sees every allocation it makes.
    let mut net = NetworkBuilder::paper_routing()
        .mobile_fraction(0.0)
        .build(42)
        .expect("paper routing topology must build");

    // Warm the caches: the first advance builds the spatial grid, the
    // snapshots and the double-buffered link graphs.
    net.advance();
    let version = net.topology_version();

    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..100 {
        net.advance();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(
        allocations, 0,
        "steady-state advance must be allocation-free, saw {allocations} allocations"
    );
    assert_eq!(net.topology_version(), version, "stationary topology must not change");
}

#[test]
fn mobile_advance_still_recomputes_links() {
    // Control for the test above: with mobile nodes the fast path must
    // NOT be taken, so the topology keeps evolving.
    let mut net =
        NetworkBuilder::paper_routing().build(42).expect("paper routing topology must build");
    net.advance();
    let version = net.topology_version();
    for _ in 0..20 {
        net.advance();
    }
    assert!(net.topology_version() > version, "mobile topology must keep changing");
}
