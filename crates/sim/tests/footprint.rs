//! Heap footprint lock: the simulator's own memory follows the pages a run
//! touches, not the address space it maps.
//!
//! A counting global allocator records the most heap bytes live at once
//! during a run, above the bytes live before it. A fresh address space
//! maps 72 MiB of globals and stack, and a shadow map covers 64 TiB; both
//! must cost memory only where a run commits pages or marks granules. A
//! page's heap-word map is allocated the first time a sweep reads the
//! page, so runs that never sweep must allocate none. The file holds a
//! single `#[test]`, so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sim::System;
use workloads::{mimalloc_bench, Op, TraceGen};

/// Forwards to the system allocator and counts live bytes.
struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

// Relaxed: the counters are statistics that publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations of a [`vmem::HeapMap`]'s layout: 64 bytes aligned to 16,
/// which nothing else in a run allocates.
static MAPS: AtomicUsize = AtomicUsize::new(0);

fn count_map(layout: Layout) {
    if layout == Layout::new::<vmem::HeapMap>() {
        MAPS.fetch_add(1, Relaxed);
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `Heap` (the
// system allocator), which implements `GlobalAlloc` soundly, and returns
// its result unchanged; the counters never influence what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { Heap.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
            count_map(layout);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { Heap.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
            count_map(layout);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `Heap`) with this `layout`.
        unsafe { Heap.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout` and that `new_size` is valid for it.
        let p = unsafe { Heap.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Heap-word maps allocated while `f` runs.
fn maps_of(f: impl FnOnce()) -> usize {
    let before = MAPS.load(Relaxed);
    f();
    MAPS.load(Relaxed) - before
}

/// The most heap bytes live at once while `f` runs, above those live
/// before it.
fn peak_of(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    f();
    PEAK.load(Relaxed) - before
}

#[test]
fn run_footprint_follows_the_memory_the_run_touches() {
    let mut profile = mimalloc_bench::by_name("glibc-simple").expect("shipped profile");
    let empty = peak_of(|| {
        sim::run_trace(
            &profile,
            System::minesweeper_default(),
            1,
            std::iter::empty(),
        );
    });
    // Full page-table leaves for the root segments and a fixed-size radix
    // root cost 650 KiB here; without them it is under 50 KiB.
    assert!(empty < 128 * 1024, "an empty run peaks at {empty} bytes");

    profile.total_allocs = profile.total_allocs.min(20_000);
    let ops: Vec<Op> = TraceGen::new(&profile, 42).collect();
    let run = peak_of(|| {
        sim::run_trace(
            &profile,
            System::minesweeper_default(),
            42,
            ops.iter().copied(),
        );
    });
    // 1.2 MB with the fixed-size structures, under 400 KB without.
    assert!(
        run < 512 * 1024,
        "a 20,000-allocation glibc-simple run peaks at {run} bytes"
    );
    eprintln!("peaks: empty {empty} B, glibc-simple {run} B");

    // Only the sweep reads pages through their heap-word maps: the same
    // op stream builds maps under MineSweeper, and none under the
    // baseline allocator or MarkUs, which never run it.
    let maps = |system| maps_of(|| {
        sim::run_trace(&profile, system, 42, ops.iter().copied());
    });
    assert!(maps(System::minesweeper_default()) > 0, "a swept run builds maps");
    for system in [System::Baseline, System::markus_default()] {
        assert_eq!(maps(system), 0, "{} never sweeps yet built maps", system.label());
    }
}
