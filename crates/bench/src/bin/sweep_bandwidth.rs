//! Raw sweep-bandwidth measurement: serial and parallel marking, scalar
//! vs SIMD kernels, one arena vs many — in words/second.
//!
//! Configurations over the same default fixture — a zero-on-free
//! steady-state heap: contiguous freed-and-zeroed 512 B blocks (just
//! under half the heap) interleaved with live blocks holding LCG-placed
//! pointers (1 word in 7) amid nonzero junk:
//!
//! * `atomic_serial` — the pre-SIMD production loop, preserved here as
//!   the scalar reference: one `scan_page` probe per page slice, then a
//!   per-word `!= 0` + `heap_contains` test into a
//!   [`ShadowWriter`](minesweeper::ShadowWriter);
//! * `simd_serial` — the production [`Marker`] path with the chunked
//!   SIMD kernel at its auto-dispatched tier (AVX2 where available);
//! * `swar_serial` — the same path forced to the portable SWAR tier,
//!   what non-x86 (or pre-SSE2) hosts would run;
//! * `simd_serial_nullsink` — `simd_serial` with the sweep tracer
//!   engaged on a null sink: the per-phase emission cost;
//! * `steal_parallel_hN` — a one-job [`parallel_mark_pool`]: N+1 threads
//!   claiming 64-page chunks off one atomic work queue into one shared
//!   map;
//! * `incremental_dP` — the incremental sweep: a [`PageCache`] primed by
//!   a cold sweep, then each rep retires a P%-dirty page set and replays
//!   the digests of the clean remainder instead of re-reading it;
//! * `incremental_d50_swar` — the 50%-dirty row on the SWAR tier (the
//!   dirty mix re-scans through the kernel, so the tier shows up here);
//! * `incremental_filtered_d5` — incremental plus a [`CandidateFilter`]
//!   covering every 8th page (a sparse quarantine), gating shadow writes;
//! * `forensics_off` / `forensics_sampled_s8` / `forensics_full` — the
//!   serial accel path with an [`EdgeRecorder`] over a synthetic
//!   every-8th-page quarantine;
//! * `*_sparse` — scalar/SIMD/SWAR serial rows over a second, zero-heavy
//!   fixture (1 word in 64 nonzero, like a real mostly-freed heap) where
//!   the kernel's lane-OR zero-chunk early-out dominates;
//! * `*_dense` — scalar/SIMD serial rows over an all-nonzero strided
//!   fixture: no zero chunks to skip (the kernel's worst case) and
//!   perfectly predictable branches (the scalar loop's best case), so
//!   this row isolates the vectorised range test alone;
//! * `arenas_nK_{serial,barrier_h6,sched_h6}` — the default fixture cut
//!   into K tenant mini-heaps (each its own address space and plan, the
//!   sharded-quarantine shape). `serial` marks them one after another on
//!   one thread; `barrier_h6` gives each arena its own 6-helper one-job
//!   [`parallel_mark_pool`] round, paying K join barriers; `sched_h6`
//!   batches all K plans through **one** [`parallel_mark_pool`] round —
//!   one work-stealing cursor, one join — which is exactly what the
//!   sweep scheduler's coalesced rounds run.
//!
//! Helper counts are reported as requested *and* effective — the
//! production path clamps to [`effective_helper_count`], and any parallel
//! row whose clamp leaves zero helpers is flagged `degraded` in the JSON
//! so a 1-CPU container can't masquerade as a scaling measurement.
//!
//! Timing is `std::time::Instant` only (no harness dependency); the best
//! of `--reps` runs is reported, which is the right statistic for a
//! bandwidth measurement on a shared machine. Results are printed as a
//! table and written as JSON (default `BENCH_sweep.json`, `--out PATH`).

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Instant, SystemTime};

use minesweeper::telemetry::{
    EventKind, Histogram, NullSink, Registry, Tracer, SNAPSHOT_SCHEMA_VERSION,
};
use minesweeper::{
    effective_helper_count, parallel_mark_pool, CandidateFilter, EdgeRecorder, ForensicsMode,
    MarkAccel, Marker, PageCache, PoolMarkJob, PoolMarkOpts, QEntry, ScanTier, ShadowMap,
    SweepPlan, SweepProf,
};
use vmem::{Addr, AddrSpace, Layout, PageIdx, PAGE_SIZE, WORD_SIZE};

/// Subsystem label for the bench's own instruments.
const BENCH_SUBSYSTEM: &str = "bench";

/// Schema version of `BENCH_trajectory.jsonl` lines.
const TRAJECTORY_SCHEMA: u32 = 1;

/// `--handicap NAME:FACTOR` multipliers, applied to each measured rep of
/// the matching config. Exists so CI can inject a synthetic regression
/// and prove the `ms-report --compare` gate actually rejects it.
static HANDICAPS: OnceLock<Vec<(String, f64)>> = OnceLock::new();

fn handicap_for(name: &str) -> f64 {
    HANDICAPS
        .get()
        .and_then(|h| h.iter().find(|(n, _)| n == name))
        .map_or(1.0, |&(_, f)| f)
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// checkout (the trajectory line must never fail the bench).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// UTC timestamp (`YYYY-MM-DDTHH:MM:SSZ`) from the system clock — no
/// chrono dependency; civil-from-days per Howard Hinnant's algorithm.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (h, m, s) = (rem / 3600, rem % 3600 / 60, rem % 60);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// The default fixture: a heap in the zero-on-free steady state the
/// sweep actually runs against (§4.1). Memory is modelled as 64-word
/// (512 B) allocation blocks — just under half are freed, and therefore
/// all zero in contiguous runs the lane-OR early-out can skip; the rest
/// are live blocks where 1 word in 7 is a heap pointer and the others
/// are nonzero junk. Placement comes from a fixed LCG, so pointer
/// positions are unpredictable to the branch predictor (a real heap is
/// not strided) while the fixture stays deterministic across runs.
fn sweep_fixture(pages: u64) -> (AddrSpace, SweepPlan) {
    let mut space = AddrSpace::new();
    let base = space.reserve_heap(pages);
    space.map(base, pages).unwrap();
    let mut r: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lcg = || {
        r = r.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        r >> 11
    };
    for block in 0..pages * 512 / 64 {
        if lcg() % 100 < 45 {
            continue; // freed-and-zeroed block: mapped pages start zeroed
        }
        for j in 0..64u64 {
            let v = if lcg() % 7 == 0 {
                base.raw() + (lcg() % (pages * 512)) * 8
            } else {
                (lcg() % 0xffff_ffff) + 1 // nonzero junk below the heap base
            };
            space.write_word(base + (block * 64 + j) * 8, v).unwrap();
        }
    }
    (space, SweepPlan::from_ranges(vec![(base, pages * PAGE_SIZE as u64)]))
}

/// Worst-case fixture for the kernel: every word nonzero (1 in 7 a heap
/// pointer on a regular stride), so the zero early-out never fires and
/// any SIMD win comes from the vectorised range test alone — and the
/// stride makes the scalar loop's branches perfectly predictable, its
/// best case.
fn dense_fixture(pages: u64) -> (AddrSpace, SweepPlan) {
    let mut space = AddrSpace::new();
    let base = space.reserve_heap(pages);
    space.map(base, pages).unwrap();
    for i in 0..pages * 512 {
        let v = if i % 7 == 0 { base.raw() + (i * 64) % (pages * 4096) } else { i };
        space.write_word(base + i * 8, v).unwrap();
    }
    (space, SweepPlan::from_ranges(vec![(base, pages * PAGE_SIZE as u64)]))
}

/// A zero-heavy fixture: 1 word in 64 is nonzero (every 8th of those a
/// heap pointer), the rest are zero — the post-zero-on-free steady state
/// the lane-OR early-out is built for.
fn sparse_fixture(pages: u64) -> (AddrSpace, SweepPlan) {
    let mut space = AddrSpace::new();
    let base = space.reserve_heap(pages);
    space.map(base, pages).unwrap();
    for i in (0..pages * 512).step_by(64) {
        let v = if i % 512 == 0 { base.raw() + (i * 64) % (pages * 4096) } else { i + 1 };
        space.write_word(base + i * 8, v).unwrap();
    }
    (space, SweepPlan::from_ranges(vec![(base, pages * PAGE_SIZE as u64)]))
}

/// The pre-SIMD production loop: the scalar baseline every SIMD row is
/// judged against (ISSUE 6 acceptance: `simd_serial` ≥ 2× this). Same
/// `scan_page` slices and [`ShadowWriter`](minesweeper::ShadowWriter) as
/// the production path; only the per-word zero test + `heap_contains`
/// differ from the kernel.
fn scalar_mark(space: &AddrSpace, layout: &Layout, plan: &SweepPlan, shadow: &ShadowMap) -> u64 {
    let mut writer = shadow.writer();
    for &(base, len) in plan.ranges() {
        let mut off = 0;
        while off < len {
            let addr = base.add_bytes(off);
            let page_end = addr.page().next().base().offset_from(base).min(len);
            if let Ok(Some(page)) = space.scan_page(addr.page()) {
                let w0 = addr.word_in_page();
                let w1 = w0 + ((page_end - off) / WORD_SIZE as u64) as usize;
                for &value in &page[w0..w1] {
                    if value == 0 {
                        continue;
                    }
                    let target = Addr::new(value);
                    if layout.heap_contains(target) {
                        writer.mark(target);
                    }
                }
            }
            off = page_end;
        }
    }
    drop(writer);
    shadow.marked_count()
}

/// Drains a fresh [`Marker`] over `plan` into a fresh map in one step and
/// returns the marked granule count.
fn serial_mark(space: &mut AddrSpace, plan: &SweepPlan, accel: &mut MarkAccel<'_>) -> u64 {
    let mut shadow = ShadowMap::new();
    Marker::new(plan.clone()).step(space, &mut shadow, u64::MAX, accel);
    shadow.marked_count()
}

/// Marks `plan` into a fresh map through a one-job pool — the
/// single-arena parallel mark — and returns the marked granule count.
fn pool_mark(space: &AddrSpace, plan: &SweepPlan, opts: &PoolMarkOpts<'_>) -> u64 {
    let shadow = ShadowMap::new();
    let job =
        PoolMarkJob { space, plan, shadow: &shadow, filter: None, cache: None, forensics: None };
    parallel_mark_pool(&[job], opts);
    shadow.marked_count()
}

/// One measured configuration.
struct Sample {
    name: String,
    /// Helper threads as requested on the config.
    helpers: usize,
    /// Helper threads actually spawned after the hardware clamp.
    effective_helpers: usize,
    /// Dirty-page percentage for incremental configs, `None` otherwise.
    dirty_pct: Option<u32>,
    /// A parallel config whose clamp left zero helpers: the row ran
    /// serially and must not be read as a scaling measurement.
    degraded: bool,
    best_secs: f64,
    words_per_sec: f64,
    marked: u64,
}

fn measure(
    name: &str,
    helpers: usize,
    total_words: u64,
    reps: u32,
    registry: &Registry,
    mut run: impl FnMut() -> u64,
) -> Sample {
    // Per-rep durations land in a log2 histogram, so the exported metrics
    // carry the whole distribution, not just the best-of statistic.
    let rep_us: Histogram = registry.histogram(BENCH_SUBSYSTEM, &format!("{name}_us"));
    let handicap = handicap_for(name);
    let mut best = f64::INFINITY;
    let mut marked = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        marked = run();
        let secs = t0.elapsed().as_secs_f64() * handicap;
        rep_us.record((secs * 1e6) as u64);
        best = best.min(secs);
    }
    let effective = effective_helper_count(helpers);
    Sample {
        name: name.to_string(),
        helpers,
        effective_helpers: effective,
        dirty_pct: None,
        degraded: helpers > 0 && effective == 0,
        best_secs: best,
        words_per_sec: total_words as f64 / best,
        marked,
    }
}

fn main() {
    let mut pages = 2048u64; // 8 MiB, matching the micro benches
    let mut reps = 5u32;
    let mut out_path = "BENCH_sweep.json".to_string();
    let mut metrics_path = "BENCH_sweep_metrics.json".to_string();
    let mut trajectory_path: Option<String> = None;
    let mut trajectory_configs: Option<Vec<String>> = None;
    let mut profiler = false;
    let mut handicaps: Vec<(String, f64)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pages" => pages = args.next().expect("--pages N").parse().expect("number"),
            "--reps" => reps = args.next().expect("--reps N").parse().expect("number"),
            "--out" => out_path = args.next().expect("--out PATH"),
            "--metrics-out" => metrics_path = args.next().expect("--metrics-out PATH"),
            "--trajectory" => trajectory_path = Some(args.next().expect("--trajectory PATH")),
            "--trajectory-configs" => {
                let spec = args.next().expect("--trajectory-configs NAME[,NAME...]");
                let names: Vec<String> =
                    spec.split(',').filter(|s| !s.is_empty()).map(String::from).collect();
                assert!(!names.is_empty(), "--trajectory-configs needs at least one name");
                trajectory_configs = Some(names);
            }
            "--profiler" => profiler = true,
            "--handicap" => {
                let spec = args.next().expect("--handicap NAME:FACTOR");
                let (name, factor) = spec.split_once(':').expect("--handicap NAME:FACTOR");
                let factor: f64 = factor.parse().expect("handicap factor");
                assert!(factor >= 1.0, "handicap must slow down, not speed up");
                handicaps.push((name.to_string(), factor));
            }
            "--quick" => {
                pages = 256;
                reps = 2;
            }
            other => {
                eprintln!(
                    "usage: sweep_bandwidth [--pages N] [--reps N] [--out PATH] \
                     [--metrics-out PATH] [--trajectory PATH] \
                     [--trajectory-configs NAME[,NAME...]] [--profiler] \
                     [--handicap NAME:FACTOR] [--quick]"
                );
                panic!("unknown argument {other:?}");
            }
        }
    }
    HANDICAPS.set(handicaps).expect("set once");
    let registry = Registry::new();
    // `--profiler`: attribute the production rows (simd_serial and the
    // work-stealing parallel marks) through the sweep profiler. The off
    // default leaves `prof: None` — the exact single-branch production
    // path — so an off-vs-on run pair measures the enabled overhead.
    let sweep_prof = profiler.then(|| SweepProf::register(&registry));
    let prof = sweep_prof.as_ref();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    if cpus <= 1 {
        eprintln!(
            "warning: 1 CPU available — parallel rows run with zero helpers and are \
             flagged \"degraded\" in the JSON"
        );
    }

    let (mut space, plan) = sweep_fixture(pages);
    let layout = *space.layout();
    let total_words = pages * (PAGE_SIZE / WORD_SIZE) as u64;
    let helper_counts = [1usize, 3, 6];
    let mut samples: Vec<Sample> = Vec::new();

    // Scalar reference: the pre-SIMD production loop (atomic radix map,
    // per-word test). The SIMD acceptance ratio is measured against this.
    samples.push(measure("atomic_serial", 0, total_words, reps, &registry, || {
        let shadow = ShadowMap::new();
        scalar_mark(&space, &layout, &plan, &shadow)
    }));

    // Production Marker path: the chunked SIMD kernel at its
    // auto-dispatched tier, and forced down to the portable SWAR tier.
    let swar = || MarkAccel { tier: Some(ScanTier::Swar), ..MarkAccel::default() };
    samples.push(measure("simd_serial", 0, total_words, reps, &registry, || {
        serial_mark(&mut space, &plan, &mut MarkAccel { prof, ..MarkAccel::default() })
    }));
    samples.push(measure("swar_serial", 0, total_words, reps, &registry, || {
        serial_mark(&mut space, &plan, &mut swar())
    }));

    // SIMD serial again, but with the sweep tracer engaged on a null
    // sink — the production layer's per-phase emission cost (a stopwatch
    // and one event per mark phase, never per word). The acceptance bar:
    // within 2% of the untraced run.
    let mut tracer = Tracer::disabled();
    tracer.set_sink(Box::new(NullSink));
    samples.push(measure("simd_serial_nullsink", 0, total_words, reps, &registry, || {
        let sw = tracer.stopwatch();
        let marked = serial_mark(&mut space, &plan, &mut MarkAccel::default());
        tracer.emit(|| EventKind::MarkPhase {
            sweep: 0,
            bytes: total_words * WORD_SIZE as u64,
            words: total_words,
            skipped_bytes: 0,
            marked_granules: marked,
            filter_rejects: 0,
            wall_ns: sw.elapsed_ns(),
            prof: None,
        });
        marked
    }));

    // Work-stealing parallel mark: a one-job pool, one shared atomic
    // map, 64-page chunks off an atomic cursor.
    for &h in &helper_counts {
        samples.push(measure(&format!("steal_parallel_h{h}"), h, total_words, reps, &registry, || {
            let opts = PoolMarkOpts { helper_threads: h, prof, ..PoolMarkOpts::default() };
            pool_mark(&space, &plan, &opts)
        }));
    }

    // Incremental sweep: prime a page-summary cache with one cold sweep,
    // then each rep retires the dirty fraction (every strideth page) and
    // replays the clean remainder. Re-scanned pages re-record digests, so
    // reps are idempotent. d100 retires everything — pure cache overhead.
    // The 50% mix additionally runs on the forced SWAR tier: half the
    // fixture re-scans through the kernel, so the tier is visible here.
    let heap_base = plan.ranges()[0].0;
    let mut epoch = 0u64;
    for (pct, tier) in [(5u32, None), (50, None), (50, Some(ScanTier::Swar)), (100, None)] {
        let stride = (100 / pct) as u64;
        let dirty: Vec<PageIdx> = (0..pages)
            .filter(|i| i % stride == 0)
            .map(|i| heap_base.add_bytes(i * PAGE_SIZE as u64).page())
            .collect();
        let mut cache = PageCache::new();
        epoch += 1;
        cache.begin_sweep(&plan, &[], epoch);
        let mut accel = MarkAccel { cache: Some(&mut cache), tier, ..MarkAccel::default() };
        serial_mark(&mut space, &plan, &mut accel);
        let name = match tier {
            None => format!("incremental_d{pct}"),
            Some(t) => format!("incremental_d{pct}_{}", t.as_str()),
        };
        let mut s = measure(&name, 0, total_words, reps, &registry, || {
            epoch += 1;
            cache.begin_sweep(&plan, &dirty, epoch);
            let mut accel = MarkAccel { cache: Some(&mut cache), tier, ..MarkAccel::default() };
            serial_mark(&mut space, &plan, &mut accel)
        });
        s.dirty_pct = Some(pct);
        samples.push(s);
    }

    // Candidate filter over every 8th page — a sparse quarantine. The
    // filtered mark set is a strict subset, so it checks against its own
    // serial reference, not the full-sweep one.
    let filter = CandidateFilter::build(
        (0..pages)
            .filter(|i| i % 8 == 0)
            .map(|i| (heap_base.add_bytes(i * PAGE_SIZE as u64), PAGE_SIZE as u64)),
    );
    let mut accel = MarkAccel { filter: Some(&filter), ..MarkAccel::default() };
    let expect_filtered = serial_mark(&mut space, &plan, &mut accel);
    {
        let stride = 20u64; // 5% dirty
        let dirty: Vec<PageIdx> = (0..pages)
            .filter(|i| i % stride == 0)
            .map(|i| heap_base.add_bytes(i * PAGE_SIZE as u64).page())
            .collect();
        let mut cache = PageCache::new();
        epoch += 1;
        cache.begin_sweep(&plan, &[], epoch);
        let mut accel =
            MarkAccel { filter: Some(&filter), cache: Some(&mut cache), ..MarkAccel::default() };
        serial_mark(&mut space, &plan, &mut accel);
        let mut s = measure("incremental_filtered_d5", 0, total_words, reps, &registry, || {
            epoch += 1;
            cache.begin_sweep(&plan, &dirty, epoch);
            let mut accel = MarkAccel {
                filter: Some(&filter),
                cache: Some(&mut cache),
                ..MarkAccel::default()
            };
            serial_mark(&mut space, &plan, &mut accel)
        });
        s.dirty_pct = Some(5);
        samples.push(s);
    }

    // Forensics: the serial accel path with provenance recording over a
    // synthetic quarantine (every 8th page is one page-sized candidate —
    // sparse, like a real locked set). Off measures the disabled
    // single-branch dispatch cost; sampled and full pay the per-hit
    // binary search + atomic update. Recording never touches the shadow
    // map, so every config checks against the full-sweep mark set.
    let candidates: Vec<QEntry> = (0..pages)
        .filter(|i| i % 8 == 0)
        .map(|i| QEntry::new(heap_base.add_bytes(i * PAGE_SIZE as u64), PAGE_SIZE as u64))
        .collect();
    for (name, mode) in [
        ("forensics_off", ForensicsMode::Off),
        ("forensics_sampled_s8", ForensicsMode::Sampled(8)),
        ("forensics_full", ForensicsMode::Full),
    ] {
        let recorder = EdgeRecorder::new(&candidates, mode);
        samples.push(measure(name, 0, total_words, reps, &registry, || {
            let mut accel = MarkAccel { forensics: recorder.as_ref(), ..MarkAccel::default() };
            serial_mark(&mut space, &plan, &mut accel)
        }));
        if mode == ForensicsMode::Full {
            let rec = recorder.as_ref().expect("full mode builds a recorder");
            assert!(rec.recorded() > 0, "pointer-dense fixture must record edges");
        }
    }

    // Zero-heavy fixture: the steady state zero-on-free produces. The
    // lane-OR early-out skips whole 8-word chunks here, so these rows
    // show the kernel's best case (and the scalar loop's per-word tax).
    let (mut sparse_space, sparse_plan) = sparse_fixture(pages);
    let expect_sparse = {
        let shadow = ShadowMap::new();
        scalar_mark(&sparse_space, &layout, &sparse_plan, &shadow)
    };
    samples.push(measure("atomic_serial_sparse", 0, total_words, reps, &registry, || {
        let shadow = ShadowMap::new();
        scalar_mark(&sparse_space, &layout, &sparse_plan, &shadow)
    }));
    samples.push(measure("simd_serial_sparse", 0, total_words, reps, &registry, || {
        serial_mark(&mut sparse_space, &sparse_plan, &mut MarkAccel::default())
    }));
    samples.push(measure("swar_serial_sparse", 0, total_words, reps, &registry, || {
        serial_mark(&mut sparse_space, &sparse_plan, &mut swar())
    }));

    // All-nonzero fixture: the kernel's worst case and the scalar loop's
    // best case (predictable strided branches, no zero chunks to skip).
    let (mut dense_space, dense_plan) = dense_fixture(pages);
    let expect_dense = {
        let shadow = ShadowMap::new();
        scalar_mark(&dense_space, &layout, &dense_plan, &shadow)
    };
    samples.push(measure("atomic_serial_dense", 0, total_words, reps, &registry, || {
        let shadow = ShadowMap::new();
        scalar_mark(&dense_space, &layout, &dense_plan, &shadow)
    }));
    samples.push(measure("simd_serial_dense", 0, total_words, reps, &registry, || {
        serial_mark(&mut dense_space, &dense_plan, &mut MarkAccel::default())
    }));

    // Multi-tenant shape: the fixture budget cut into K mini-heaps, each
    // its own address space and plan (disjoint tenant heaps, like the
    // sharded quarantine). Three ways to mark all K:
    //  * `serial`   — one thread, one arena after another: the naive
    //                 baseline the scheduler replaces;
    //  * `barrier_h6` — a 6-helper parallel round *per arena*, paying K
    //                 spawn/join barriers on ever-smaller plans;
    //  * `sched_h6` — all K plans batched through one
    //                 `parallel_mark_pool` round: one work-stealing
    //                 cursor, one join — a scheduler-coalesced round.
    let arena_counts = [4u64, 16, 64];
    let mut expect_arenas: Vec<(u64, u64)> = Vec::new();
    for &k in &arena_counts {
        let mini_pages = (pages / k).max(1);
        let fixtures: Vec<(AddrSpace, SweepPlan)> =
            (0..k).map(|_| sweep_fixture(mini_pages)).collect();
        let arena_words = mini_pages * (PAGE_SIZE / WORD_SIZE) as u64 * k;
        let expect_k: u64 = fixtures
            .iter()
            .map(|(sp, pl)| {
                let shadow = ShadowMap::new();
                scalar_mark(sp, sp.layout(), pl, &shadow)
            })
            .sum();
        expect_arenas.push((k, expect_k));
        samples.push(measure(
            &format!("arenas_n{k}_serial"),
            0,
            arena_words,
            reps,
            &registry,
            || {
                fixtures.iter().map(|(sp, pl)| pool_mark(sp, pl, &PoolMarkOpts::default())).sum()
            },
        ));
        samples.push(measure(
            &format!("arenas_n{k}_barrier_h6"),
            6,
            arena_words,
            reps,
            &registry,
            || {
                let opts = PoolMarkOpts { helper_threads: 6, ..PoolMarkOpts::default() };
                fixtures.iter().map(|(sp, pl)| pool_mark(sp, pl, &opts)).sum()
            },
        ));
        // Shadows live across reps and are cleared in place, as the
        // arena pool keeps them between epochs — allocating 64 fresh
        // radix maps per rep would measure allocator churn, not marking.
        let mut pool_shadows: Vec<ShadowMap> = (0..k).map(|_| ShadowMap::new()).collect();
        samples.push(measure(
            &format!("arenas_n{k}_sched_h6"),
            6,
            arena_words,
            reps,
            &registry,
            || {
                for sh in &mut pool_shadows {
                    sh.clear();
                }
                let jobs: Vec<PoolMarkJob> = fixtures
                    .iter()
                    .zip(&pool_shadows)
                    .map(|((sp, pl), sh)| PoolMarkJob {
                        space: sp,
                        plan: pl,
                        shadow: sh,
                        filter: None,
                        cache: None,
                        forensics: None,
                    })
                    .collect();
                let opts = PoolMarkOpts { helper_threads: 6, ..PoolMarkOpts::default() };
                parallel_mark_pool(&jobs, &opts);
                pool_shadows.iter().map(ShadowMap::marked_count).sum()
            },
        ));
    }

    // Every full configuration must find the same mark set as the scalar
    // reference (`atomic_serial`, the first row); filtered, sparse, dense
    // and multi-arena configurations check against their own serial
    // references.
    let expect = samples[0].marked;
    for s in &samples {
        let want = if s.name.contains("filtered") {
            expect_filtered
        } else if s.name.ends_with("_sparse") {
            expect_sparse
        } else if s.name.ends_with("_dense") {
            expect_dense
        } else if let Some(rest) = s.name.strip_prefix("arenas_n") {
            let k: u64 = rest.split('_').next().unwrap().parse().unwrap();
            expect_arenas.iter().find(|&&(kk, _)| kk == k).unwrap().1
        } else {
            expect
        };
        assert_eq!(s.marked, want, "{} disagrees on the mark set", s.name);
    }

    // Paired interleaved re-measure for the headline ratio: the scalar
    // reference and the SIMD path alternate rep by rep, so frequency
    // drift on a shared machine lands evenly on both sides instead of on
    // whichever config happened to run while the box was slow. Best-of
    // folds into the same rows the table and JSON report.
    {
        let scalar_us: Histogram = registry.histogram(BENCH_SUBSYSTEM, "atomic_serial_us");
        let simd_us: Histogram = registry.histogram(BENCH_SUBSYSTEM, "simd_serial_us");
        let mut best_scalar = f64::INFINITY;
        let mut best_simd = f64::INFINITY;
        for _ in 0..reps * 2 {
            let t0 = Instant::now();
            let shadow = ShadowMap::new();
            let marked = scalar_mark(&space, &layout, &plan, &shadow);
            let secs = t0.elapsed().as_secs_f64() * handicap_for("atomic_serial");
            scalar_us.record((secs * 1e6) as u64);
            best_scalar = best_scalar.min(secs);
            assert_eq!(marked, expect);

            let t0 = Instant::now();
            let marked =
                serial_mark(&mut space, &plan, &mut MarkAccel { prof, ..MarkAccel::default() });
            let secs = t0.elapsed().as_secs_f64() * handicap_for("simd_serial");
            simd_us.record((secs * 1e6) as u64);
            best_simd = best_simd.min(secs);
            assert_eq!(marked, expect);
        }
        for (name, best) in [("atomic_serial", best_scalar), ("simd_serial", best_simd)] {
            let s = samples.iter_mut().find(|s| s.name == name).expect("measured above");
            if best < s.best_secs {
                s.best_secs = best;
                s.words_per_sec = total_words as f64 / best;
            }
        }
    }

    // Trajectory facts, registered once the best-of times are final
    // (counters are monotonic, so these cannot be folded mid-measure).
    // `ms-report --compare` keys on exactly these names.
    let active_tier = minesweeper::simd::active_tier().as_str();
    registry.counter(BENCH_SUBSYSTEM, "host_cpus").add(cpus as u64);
    registry.counter(BENCH_SUBSYSTEM, &format!("scan_tier_{active_tier}")).inc();
    for s in &samples {
        registry
            .counter(BENCH_SUBSYSTEM, &format!("{}_best_us", s.name))
            .add((s.best_secs * 1e6) as u64);
        if s.degraded {
            registry.counter(BENCH_SUBSYSTEM, &format!("{}_degraded", s.name)).inc();
        }
    }

    println!(
        "== sweep bandwidth: {} MiB fixture, {} marked granules, best of {}, {} cpus ==\n",
        (pages * PAGE_SIZE as u64) >> 20,
        expect,
        reps,
        cpus
    );
    println!(
        "{:<24} {:>9} {:>6} {:>12} {:>14}",
        "config", "help r/e", "dirty", "ms", "Mwords/s"
    );
    for s in &samples {
        println!(
            "{:<24} {:>9} {:>6} {:>12.3} {:>14.1}{}",
            s.name,
            format!("{}/{}", s.helpers, s.effective_helpers),
            s.dirty_pct.map_or("-".to_string(), |p| format!("{p}%")),
            s.best_secs * 1e3,
            s.words_per_sec / 1e6,
            if s.degraded { "  [degraded: 0 helpers]" } else { "" },
        );
    }

    // The tentpole ratio: SIMD kernel vs the pre-SIMD scalar loop on the
    // steady-state fixture (ISSUE 6 acceptance: ≥ 2× on 1 CPU). The dense
    // worst-case ratio rides along for transparency.
    let by_name = |n: &str| samples.iter().find(|s| s.name == n).unwrap();
    let simd_ratio = by_name("simd_serial").words_per_sec / by_name("atomic_serial").words_per_sec;
    let dense_ratio =
        by_name("simd_serial_dense").words_per_sec / by_name("atomic_serial_dense").words_per_sec;
    println!("\nsimd_serial vs atomic_serial (scalar reference): {simd_ratio:.2}x");
    println!("simd_serial_dense vs atomic_serial_dense (no-zero worst case): {dense_ratio:.2}x");

    // The sharding headline: one scheduler-coalesced pooled round vs the
    // naive one-arena-after-another serial loop (and vs per-arena
    // parallel rounds, isolating the batching win from raw parallelism).
    // Degraded rows print their ratio for transparency but a 1-CPU host
    // cannot claim a scaling result.
    let mut arena_ratio_json = String::new();
    for &(k, _) in &expect_arenas {
        let sched = by_name(&format!("arenas_n{k}_sched_h6"));
        let vs_serial = sched.words_per_sec / by_name(&format!("arenas_n{k}_serial")).words_per_sec;
        let vs_barrier =
            sched.words_per_sec / by_name(&format!("arenas_n{k}_barrier_h6")).words_per_sec;
        println!(
            "arenas_n{k}_sched_h6 vs serial: {vs_serial:.2}x, vs per-arena barriers: {vs_barrier:.2}x{}",
            if sched.degraded { "  [degraded: 0 helpers]" } else { "" }
        );
        let comma = if arena_ratio_json.is_empty() { "" } else { ", " };
        let _ = write!(
            arena_ratio_json,
            "{comma}\"n{k}_sched_vs_serial\": {vs_serial:.3}, \"n{k}_sched_vs_barrier\": {vs_barrier:.3}"
        );
    }

    // Tracing-overhead ratio: traced (null sink) vs untraced SIMD serial.
    let null_sink_ratio =
        by_name("simd_serial_nullsink").words_per_sec / by_name("simd_serial").words_per_sec;

    let rev = git_rev();
    let utc = utc_now();
    let tier_env = std::env::var(minesweeper::simd::TIER_ENV).unwrap_or_default();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"fixture\": {{ \"pages\": {pages}, \"total_words\": {total_words}, \"marked_granules\": {expect}, \"sparse_marked_granules\": {expect_sparse}, \"reps\": {reps}, \"cpus\": {cpus} }},");
    let _ = writeln!(
        json,
        "  \"host\": {{ \"cpus\": {cpus}, \"scan_tier\": \"{active_tier}\", \"scan_tier_env\": \"{tier_env}\", \"git_rev\": \"{rev}\", \"utc\": \"{utc}\", \"profiler\": {profiler} }},"
    );
    let _ = writeln!(
        json,
        "  \"kernel\": {{ \"active_tier\": \"{active_tier}\", \"simd_vs_scalar\": {simd_ratio:.3}, \"simd_vs_scalar_dense\": {dense_ratio:.3} }},"
    );
    let _ = writeln!(
        json,
        "  \"telemetry\": {{ \"schema_version\": {SNAPSHOT_SCHEMA_VERSION}, \"null_sink_vs_untraced\": {null_sink_ratio:.3}, \"metrics_out\": \"{metrics_path}\" }},"
    );
    let _ = writeln!(json, "  \"arenas\": {{ {arena_ratio_json} }},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let dirty = s.dirty_pct.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"requested_helpers\": {}, \"effective_helpers\": {}, \"degraded\": {}, \"dirty_pct\": {dirty}, \"best_ms\": {:.3}, \"words_per_sec\": {:.0} }}{comma}",
            s.name,
            s.helpers,
            s.effective_helpers,
            s.degraded,
            s.best_secs * 1e3,
            s.words_per_sec
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write JSON results");
    std::fs::write(&metrics_path, registry.snapshot().to_json())
        .expect("write metrics snapshot");
    println!("\nwrote {out_path} and {metrics_path}");

    // Trajectory: one append-only JSONL line per run, so the repo keeps a
    // history `ms-report --compare` can gate against.
    if let Some(path) = trajectory_path {
        use std::io::Write as _;
        // With `--trajectory-configs`, only the named configs enter the
        // history, and degraded samples (fewer effective helpers than
        // requested) are dropped — CI gates on this file, and a degraded
        // row would poison every later drift comparison against it.
        let gating: Vec<&Sample> = samples
            .iter()
            .filter(|s| match &trajectory_configs {
                None => true,
                Some(names) => names.contains(&s.name) && !s.degraded,
            })
            .collect();
        let skipped = samples.len() - gating.len();
        if gating.is_empty() {
            println!(
                "trajectory: no rows left after --trajectory-configs filter \
                 ({skipped} skipped) — nothing appended to {path}"
            );
        } else {
            let mut line = format!(
                "{{ \"schema\": {TRAJECTORY_SCHEMA}, \"utc\": \"{utc}\", \"git_rev\": \"{rev}\", \
                 \"host_cpus\": {cpus}, \"scan_tier\": \"{active_tier}\", \"pages\": {pages}, \
                 \"reps\": {reps}, \"profiler\": {profiler}, \"rows\": ["
            );
            for (i, s) in gating.iter().enumerate() {
                let comma = if i + 1 < gating.len() { ", " } else { "" };
                let _ = write!(
                    line,
                    "{{ \"name\": \"{}\", \"best_us\": {:.1}, \"words_per_sec\": {:.0}, \"degraded\": {} }}{comma}",
                    s.name,
                    s.best_secs * 1e6,
                    s.words_per_sec,
                    s.degraded
                );
            }
            line.push_str("] }\n");
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(line.as_bytes()))
                .expect("append trajectory line");
            if trajectory_configs.is_some() {
                println!(
                    "appended trajectory line to {path} ({} gating rows, {skipped} filtered)",
                    gating.len()
                );
            } else {
                println!("appended trajectory line to {path}");
            }
        }
    }
}
