//! What one simulated device costs: heap bytes held per device once a
//! federation is built, and allocations per played tuple while it runs.
//!
//! Both are counted by a wrapping global allocator, so they do not
//! depend on how fast or busy the host is (run to run they move by a
//! few bytes); the ceilings sit between what this engine
//! needs and what it needed while storage was reserved ahead of use
//! (dense histogram buckets zero-written at registration, dedup windows
//! reserved at capacity) and every member was snapshot twice, keys
//! cloned, for the rollup. A regression to either fails here before it
//! shows as megabytes and milliseconds on `sim_federation`.
//!
//! One test only: the counters are process-wide, and a second test
//! running beside this one would be counted with it.

// The counting allocator is an `unsafe impl` by the trait's definition.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use swing_core::SECOND_US;
use swing_sim::federation::{Federation, FederationConfig};

/// Heap bytes currently held.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Allocations and reallocations made so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are bookkeeping beside it and
// never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator with this layout, that
        // is, from `System`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`, and `new_size` is the caller's to vouch
        // for.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes a built, not yet run, device may hold. Measured: 18.3 kB
/// (49.6 kB with dense histograms).
const BYTES_PER_DEVICE: usize = 28_000;
/// Allocations one played tuple may cost, run and rollup included.
/// Measured: 52 (195 with eager dedup windows and the double snapshot).
const ALLOCS_PER_TUPLE: u64 = 100;

#[test]
fn a_simulated_device_costs_what_it_uses() {
    // The benchmark's member shape, ten members instead of a hundred.
    let config = FederationConfig {
        swarms: 10,
        workers_per_swarm: 32,
        frames_per_source: 90,
        horizon_us: 3 * SECOND_US,
        ..FederationConfig::default()
    };
    let devices = config.swarms * config.workers_per_swarm;

    let before = LIVE.load(Relaxed);
    let federation = Federation::build(config).expect("federation builds");
    let bytes_per_device = (LIVE.load(Relaxed) - before) / devices;

    let before = ALLOCS.load(Relaxed);
    let report = federation.run();
    let allocs = ALLOCS.load(Relaxed) - before;
    let played = report.federated_counter("swing_sink_played_total");
    assert_eq!(played, 900, "every frame plays");
    let allocs_per_tuple = allocs / played;

    println!(
        "footprint: {bytes_per_device} live bytes per device after build \
         (ceiling {BYTES_PER_DEVICE}), {allocs_per_tuple} allocations per played tuple \
         during run (ceiling {ALLOCS_PER_TUPLE})"
    );
    assert!(
        bytes_per_device <= BYTES_PER_DEVICE,
        "a built device holds {bytes_per_device} B"
    );
    assert!(
        allocs_per_tuple <= ALLOCS_PER_TUPLE,
        "a played tuple costs {allocs_per_tuple} allocations"
    );
}
