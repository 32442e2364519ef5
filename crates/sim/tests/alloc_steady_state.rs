//! Steady-state rounds must not allocate: the event core preallocates
//! its arenas at construction ([`RoundSimulator::with_capacity`])
//! and reuses them across rounds, so the per-round hot path is
//! allocation-free once warmed up. Verified with a counting global
//! allocator installed for this test binary only.

use mzd_sim::{RoundSimulator, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) observed process-wide.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_rounds_do_zero_allocations() {
    let cfg = SimConfig::paper_reference().unwrap();
    // Capacity sized to the round we run — the admission-cap contract.
    let n = 20u32;
    let mut sim = RoundSimulator::with_capacity(cfg, 42, n as usize).unwrap();
    let sizes = vec![150_000.0f64; 18];
    // Warm up: metric handles exist since construction; this settles
    // any lazily-initialized telemetry state. N = 20 keeps rounds far
    // from the deadline, so the glitched-streams vector stays empty (and
    // unallocated) throughout.
    for _ in 0..100 {
        std::hint::black_box(sim.run_round(n));
        std::hint::black_box(sim.run_round_sized(&sizes));
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..2000 {
        let out = sim.run_round(n);
        assert!(out.glitched_streams.is_empty(), "round unexpectedly late");
        std::hint::black_box(&out);
        let out = sim.run_round_sized(&sizes);
        assert!(
            out.glitched_streams.is_empty(),
            "sized round unexpectedly late"
        );
        std::hint::black_box(&out);
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "steady-state rounds performed {allocated} allocations"
    );
}
