//! Criterion micro-benchmarks for the core mechanisms: raw sweep bandwidth
//! (serial vs parallel), shadow-map marking, allocator fast paths, the
//! quarantine insert path, and end-to-end figure-scale runs on a demo
//! profile. These measure the *reproduction's* real-machine performance;
//! the paper-figure numbers come from the virtual cost model (see
//! `fig*` binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use jalloc::JAlloc;
use minesweeper::{
    parallel_mark_pool, MarkAccel, Marker, MineSweeper, MsConfig, PoolMarkJob, PoolMarkOpts,
    ShadowMap, SweepPlan,
};
use sim::{run, System};
use vmem::{Addr, AddrSpace, PAGE_SIZE};
use workloads::Profile;

/// A committed heap region littered with pointers, plus a plan over it.
fn sweep_fixture(pages: u64) -> (AddrSpace, SweepPlan) {
    let mut space = AddrSpace::new();
    let base = space.reserve_heap(pages);
    space.map(base, pages).unwrap();
    for i in 0..pages * 512 {
        let v = if i % 7 == 0 { base.raw() + (i * 64) % (pages * 4096) } else { i };
        space.write_word(base + i * 8, v).unwrap();
    }
    (space, SweepPlan::from_ranges(vec![(base, pages * PAGE_SIZE as u64)]))
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_bandwidth");
    let pages = 2048; // 8 MiB
    let (mut space, plan) = sweep_fixture(pages);
    group.throughput(Throughput::Bytes(pages * PAGE_SIZE as u64));
    group.sample_size(20);
    group.bench_function("serial_marker", |b| {
        b.iter(|| {
            let mut shadow = ShadowMap::new();
            let mut marker = Marker::new(plan.clone());
            marker.step(&mut space, &mut shadow, u64::MAX, &mut MarkAccel::default());
            black_box(shadow.marked_count())
        })
    });
    for helpers in [1usize, 3, 6] {
        group.bench_with_input(
            BenchmarkId::new("parallel_mark_helpers", helpers),
            &helpers,
            |b, &h| {
                let opts = PoolMarkOpts { helper_threads: h, ..PoolMarkOpts::default() };
                b.iter(|| {
                    let shadow = ShadowMap::new();
                    let job = PoolMarkJob {
                        space: &space,
                        plan: &plan,
                        shadow: &shadow,
                        filter: None,
                        cache: None,
                        forensics: None,
                    };
                    parallel_mark_pool(&[job], &opts);
                    black_box(shadow.marked_count())
                })
            },
        );
    }
    group.finish();
}

fn bench_shadow(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow_map");
    group.bench_function("mark_1k_scattered", |b| {
        b.iter(|| {
            let s = ShadowMap::new();
            let mut w = s.writer();
            for i in 0..1000u64 {
                w.mark(Addr::new(0x1_0000_0000 + i * 4096));
            }
            drop(w); // publish buffered marks
            black_box(s.marked_count())
        })
    });
    group.bench_function("range_check_64B", |b| {
        let s = ShadowMap::new();
        s.mark(Addr::new(0x1_0000_0040));
        b.iter(|| black_box(s.range_marked(Addr::new(0x1_0000_0000), 64)))
    });
    group.finish();
}

fn bench_alloc_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    group.bench_function("jalloc_malloc_free_64B", |b| {
        let mut space = AddrSpace::new();
        let mut heap = JAlloc::new();
        b.iter(|| {
            let a = heap.malloc(&mut space, 64);
            heap.free(&mut space, black_box(a)).unwrap();
        })
    });
    group.bench_function("minesweeper_free_quarantine_64B", |b| {
        let mut space = AddrSpace::new();
        let mut ms = MineSweeper::new(MsConfig::fully_concurrent());
        // Pre-allocate a pool; free+sweep+realloc in steady state.
        let pool: Vec<Addr> = (0..1024).map(|_| ms.malloc(&mut space, 64)).collect();
        let mut i = 0;
        b.iter(|| {
            ms.free(&mut space, pool[i % 1024]);
            if ms.sweep_needed(&space) {
                ms.sweep_now(&mut space);
            }
            let a = ms.malloc(&mut space, 64);
            i += 1;
            black_box(a)
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_demo_profile");
    group.sample_size(10);
    let profile = Profile { total_allocs: 5_000, ..Profile::demo() };
    for system in [System::Baseline, System::minesweeper_default(), System::markus_default(), System::FfMalloc] {
        group.bench_with_input(
            BenchmarkId::new("run", system.label()),
            &system,
            |b, &s| b.iter(|| black_box(run(&profile, s, 7).mutator_cycles)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_shadow, bench_alloc_paths, bench_end_to_end);
criterion_main!(benches);
