//! Raw sweep-bandwidth measurement: scalar vs SIMD mark kernels — in
//! words/second — plus the kernel gate CI holds the mark path to.
//!
//! The production mark reads a page through its heap-word map: the first
//! read classifies the page with the SIMD kernel, later reads walk only
//! the map's set bits. The kernel rows below time the first read — before
//! each of their reps every fixture page is unmapped and rewritten, which
//! drops its map — and `indexed_serial` times the walk.
//!
//! Configurations over the same default fixture — a zero-on-free
//! steady-state heap: contiguous freed-and-zeroed 512 B blocks (just
//! under half the heap) interleaved with live blocks holding LCG-placed
//! pointers (1 word in 7) amid nonzero junk:
//!
//! * `scalar_serial` — the pre-SIMD production loop, preserved here as
//!   the scalar reference: one `scan_page` probe per page slice, then a
//!   per-word `!= 0` + `heap_contains` test into the map's
//!   [`ShadowWriter`](minesweeper::ShadowWriter);
//! * `simd_serial` — the production [`Marker`] path on pages with no map
//!   yet: the SIMD kernel classifies each page at its auto-dispatched
//!   tier (AVX2 where available), then the map walk marks;
//! * `swar_serial` — the same path forced to the portable SWAR tier,
//!   what non-x86 (or pre-SSE2) hosts would run;
//! * `simd_serial_nullsink` — `simd_serial` with the sweep tracer
//!   engaged on a null sink: the per-phase emission cost;
//! * `indexed_serial` — the production path in steady state: every page
//!   already carries its map, so the mark walks the heap words alone;
//! * `incremental_dP` — the incremental sweep: a [`PageCache`] primed by
//!   a cold sweep, then each rep retires a P%-dirty page set and replays
//!   the digests of the clean remainder instead of re-reading it;
//! * `incremental_d50_swar` — the 50%-dirty row on the SWAR tier;
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
//!   this row isolates the vectorised range test alone.
//!
//! The incremental and forensics rows run in steady state, like
//! `indexed_serial`: the maps their first rep builds stay.
//!
//! Timing is `std::time::Instant` only (no harness dependency); the best
//! of `--reps` runs is reported, which is the right statistic for a
//! bandwidth measurement on a shared machine. Results are printed as a
//! table and written as JSON (default `BENCH_sweep.json`, `--out PATH`).
//!
//! **Gate.** `tier-ratio`: `scalar_serial` time over `simd_serial` time,
//! the SIMD kernel's speed-up, measured within the run as the median of
//! `2 × reps` interleaved pairs (so host speed drift lands on both sides
//! of every pair), must not fall below the active tier's
//! floor, `tier_ratio_floor` (checked in `failed_gates`).
//!
//! Exit codes follow `ms-report`: 0 when the gate passes, 1 on bad input
//! (the usage is printed), 2 when it fails (the failed gate is named).
//! `--handicap NAME:FACTOR` multiplies every measured rep of row NAME, so
//! CI can inject a 2× slowdown and see the gate fire.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use minesweeper::telemetry::{EventKind, NullSink, Tracer};
use minesweeper::{
    CandidateFilter, EdgeRecorder, ForensicsMode, MarkAccel, Marker, PageCache, QEntry, ScanTier,
    ShadowMap, SweepPlan,
};
use vmem::{Addr, AddrSpace, Layout, PageIdx, PageRange, PAGE_SIZE, WORD_SIZE};

const USAGE: &str = "usage: sweep_bandwidth [--pages N] [--reps N] [--out PATH] \
                     [--handicap NAME:FACTOR]... [--quick]";

/// Lowest `scalar_serial`/`simd_serial` time ratio (the SIMD speed-up)
/// the `tier-ratio` gate accepts on `tier`. SSE2 vectorises only the
/// zero early-out, so its clean ratio sits near 1.0 and its floor is
/// lower. The AVX2 and SSE2 floors sit between the tier's clean runs
/// and its 2× `simd_serial` handicap; SWAR's clean runs straddle its
/// floor.
fn tier_ratio_floor(tier: ScanTier) -> f64 {
    match tier {
        ScanTier::Avx2 | ScanTier::Swar => 1.2,
        ScanTier::Sse2 => 0.8,
    }
}

/// Names of the gates the paired tier ratio fails on scan tier `tier`;
/// empty when it passes. A NaN ratio fails.
fn failed_gates(tier: ScanTier, tier_ratio: f64) -> Vec<&'static str> {
    if tier_ratio.is_nan() || tier_ratio < tier_ratio_floor(tier) {
        vec!["tier-ratio"]
    } else {
        Vec::new()
    }
}

/// `--handicap NAME:FACTOR` multipliers, applied to each measured rep of
/// the matching config.
static HANDICAPS: OnceLock<Vec<(String, f64)>> = OnceLock::new();

fn handicap_for(name: &str) -> f64 {
    HANDICAPS.get().and_then(|h| h.iter().find(|(n, _)| n == name)).map_or(1.0, |&(_, f)| f)
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Opts {
    pages: u64,
    reps: u32,
    out: String,
    handicaps: Vec<(String, f64)>,
}

/// Parses the arguments after the program name.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    fn count<T: std::str::FromStr + PartialOrd + From<u8>>(
        flag: &str,
        v: &str,
    ) -> Result<T, String> {
        v.parse()
            .ok()
            .filter(|n| *n >= T::from(1))
            .ok_or(format!("{flag} needs a positive integer, got {v:?}"))
    }
    let mut opts =
        Opts { pages: 2048, reps: 5, out: "BENCH_sweep.json".to_string(), handicaps: Vec::new() };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--pages" => opts.pages = count(&flag, &value()?)?,
            "--reps" => opts.reps = count(&flag, &value()?)?,
            "--out" => opts.out = value()?,
            "--handicap" => {
                let spec = value()?;
                let parsed = spec
                    .split_once(':')
                    .and_then(|(name, f)| Some((name, f.parse::<f64>().ok()?)))
                    .filter(|&(name, f)| !name.is_empty() && f >= 1.0 && f.is_finite());
                let Some((name, factor)) = parsed else {
                    return Err(format!(
                        "--handicap needs NAME:FACTOR with FACTOR >= 1, got {spec:?}"
                    ));
                };
                opts.handicaps.push((name.to_string(), factor));
            }
            "--quick" => {
                opts.pages = 256;
                opts.reps = 2;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The CPU model named by `/proc/cpuinfo`, or `"unknown"` without one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                let (key, model) = l.split_once(':')?;
                (key.trim() == "model name").then(|| model.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
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
/// judged against, and the `tier-ratio` gate's reference. Marks `plan`
/// into a fresh map through the same `scan_page` slices and
/// [`ShadowWriter`](minesweeper::ShadowWriter) as the production path;
/// only the per-word zero test + `heap_contains` differ from the kernel.
fn scalar_mark(space: &AddrSpace, layout: &Layout, plan: &SweepPlan) -> u64 {
    let mut shadow = ShadowMap::new();
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

/// Drops the heap-word map of every committed page of `plan` by
/// rewriting the page: its words are copied, the page is unmapped (which
/// drops the map), mapped and committed afresh, and the nonzero words
/// are written back. The next sweep read classifies the page again.
fn unswept(space: &mut AddrSpace, plan: &SweepPlan) {
    for &(base, len) in plan.ranges() {
        for k in 0..len.div_ceil(PAGE_SIZE as u64) {
            let page = base.add_bytes(k * PAGE_SIZE as u64).page();
            let Ok(Some(words)) = space.scan_page(page) else { continue };
            let words = *words;
            let range = PageRange::new(page, 1);
            space.unmap(range).unwrap();
            space.map(page.base(), 1).unwrap();
            space.commit(range).unwrap();
            for (i, &w) in words.iter().enumerate().filter(|&(_, &w)| w != 0) {
                space.write_word(page.base() + i as u64 * WORD_SIZE as u64, w).unwrap();
            }
        }
    }
}

/// Drains a fresh [`Marker`] over `plan` into a fresh map in one step and
/// returns the marked granule count.
fn serial_mark(space: &mut AddrSpace, plan: &SweepPlan, accel: &mut MarkAccel<'_>) -> u64 {
    let mut shadow = ShadowMap::new();
    Marker::new(plan.clone()).step(space, &mut shadow, u64::MAX, accel);
    shadow.marked_count()
}

/// One measured configuration.
struct Sample {
    name: String,
    /// Dirty-page percentage for incremental configs, `None` otherwise.
    dirty_pct: Option<u32>,
    best_secs: f64,
    words_per_sec: f64,
    marked: u64,
}

impl Sample {
    fn new(name: &str, total_words: u64, best_secs: f64, marked: u64) -> Self {
        Sample {
            name: name.to_string(),
            dirty_pct: None,
            best_secs,
            words_per_sec: total_words as f64 / best_secs,
            marked,
        }
    }
}

/// Times one rep of config `name`, scaled by its `--handicap` factor;
/// returns the seconds and the marked granule count.
fn timed(name: &str, run: impl FnOnce() -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let marked = run();
    (t0.elapsed().as_secs_f64() * handicap_for(name), marked)
}

fn measure(name: &str, total_words: u64, reps: u32, mut run: impl FnMut() -> u64) -> Sample {
    let mut best = f64::INFINITY;
    let mut marked = 0;
    for _ in 0..reps {
        let (secs, m) = timed(name, &mut run);
        best = best.min(secs);
        marked = m;
    }
    Sample::new(name, total_words, best, marked)
}

/// [`measure`] for a kernel row: before each rep, untimed, the pages of
/// `plan` lose their heap-word maps ([`unswept`]), so every rep times
/// the classification of pages no sweep has read.
fn measure_unswept(
    name: &str,
    total_words: u64,
    reps: u32,
    space: &mut AddrSpace,
    plan: &SweepPlan,
    mut run: impl FnMut(&mut AddrSpace) -> u64,
) -> Sample {
    let mut best = f64::INFINITY;
    let mut marked = 0;
    for _ in 0..reps {
        unswept(space, plan);
        let (secs, m) = timed(name, || run(space));
        best = best.min(secs);
        marked = m;
    }
    Sample::new(name, total_words, best, marked)
}

/// Runs kernel configs `a` and `b` alternately, `pairs` times each, over
/// the same space, dropping the heap-word maps of `plan`'s pages before
/// each run ([`unswept`]). Returns both rows (best-of) and the median
/// over pairs of `a`'s time over `b`'s: interleaving lands host speed
/// drift on both sides of every pair, and the median drops a pair that
/// one contention spike hit.
fn paired(
    space: &mut AddrSpace,
    plan: &SweepPlan,
    total_words: u64,
    pairs: u32,
    (name_a, mut run_a): (&str, impl FnMut(&mut AddrSpace) -> u64),
    (name_b, mut run_b): (&str, impl FnMut(&mut AddrSpace) -> u64),
) -> (Sample, Sample, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let (mut marked_a, mut marked_b) = (0, 0);
    let mut ratios = Vec::with_capacity(pairs as usize);
    for _ in 0..pairs {
        unswept(space, plan);
        let (a, m) = timed(name_a, || run_a(space));
        marked_a = m;
        unswept(space, plan);
        let (b, m) = timed(name_b, || run_b(space));
        marked_b = m;
        best_a = best_a.min(a);
        best_b = best_b.min(b);
        ratios.push(a / b);
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median =
        if ratios.len() % 2 == 0 { (ratios[mid - 1] + ratios[mid]) / 2.0 } else { ratios[mid] };
    (
        Sample::new(name_a, total_words, best_a, marked_a),
        Sample::new(name_b, total_words, best_b, marked_b),
        median,
    )
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Opts { pages, reps, out: out_path, handicaps } = opts;
    HANDICAPS.set(handicaps).expect("set once");
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());

    let (mut space, plan) = sweep_fixture(pages);
    let layout = *space.layout();
    let total_words = pages * (PAGE_SIZE / WORD_SIZE) as u64;
    let mut samples: Vec<Sample> = Vec::new();

    // The gated rows, measured as interleaved pairs: the scalar reference
    // against the SIMD production path (the tier ratio).
    let pairs = reps * 2;
    let (scalar, simd, tier_ratio) = paired(
        &mut space,
        &plan,
        total_words,
        pairs,
        ("scalar_serial", |sp: &mut AddrSpace| scalar_mark(sp, &layout, &plan)),
        ("simd_serial", |sp: &mut AddrSpace| serial_mark(sp, &plan, &mut MarkAccel::default())),
    );
    samples.push(scalar);
    samples.push(simd);

    // The portable SWAR tier through the same production path.
    let swar = || MarkAccel { tier: Some(ScanTier::Swar), ..MarkAccel::default() };
    samples.push(measure_unswept("swar_serial", total_words, reps, &mut space, &plan, |sp| {
        serial_mark(sp, &plan, &mut swar())
    }));

    // SIMD serial again, but with the sweep tracer engaged on a null
    // sink — the production layer's per-phase emission cost (a stopwatch
    // and one event per mark phase, never per word).
    let mut tracer = Tracer::disabled();
    tracer.set_sink(Box::new(NullSink));
    samples.push(measure_unswept("simd_serial_nullsink", total_words, reps, &mut space, &plan, |sp| {
        let sw = tracer.stopwatch();
        let marked = serial_mark(sp, &plan, &mut MarkAccel::default());
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

    // Steady state: the last rep left every page with its map, so the
    // mark walks the heap words alone.
    samples.push(measure("indexed_serial", total_words, reps, || {
        serial_mark(&mut space, &plan, &mut MarkAccel::default())
    }));

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
        let mut s = measure(&name, total_words, reps, || {
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
        let mut s = measure("incremental_filtered_d5", total_words, reps, || {
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
    // binary search + counter update. Recording never touches the shadow
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
        let mut recorder = EdgeRecorder::new(&candidates, mode);
        samples.push(measure(name, total_words, reps, || {
            let mut accel = MarkAccel { forensics: recorder.as_mut(), ..MarkAccel::default() };
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
    let expect_sparse = scalar_mark(&sparse_space, &layout, &sparse_plan);
    let (sp, plan_s) = (&mut sparse_space, &sparse_plan);
    samples.push(measure_unswept("scalar_serial_sparse", total_words, reps, sp, plan_s, |sp| {
        scalar_mark(sp, &layout, plan_s)
    }));
    samples.push(measure_unswept("simd_serial_sparse", total_words, reps, sp, plan_s, |sp| {
        serial_mark(sp, plan_s, &mut MarkAccel::default())
    }));
    samples.push(measure_unswept("swar_serial_sparse", total_words, reps, sp, plan_s, |sp| {
        serial_mark(sp, plan_s, &mut swar())
    }));

    // All-nonzero fixture: the kernel's worst case and the scalar loop's
    // best case (predictable strided branches, no zero chunks to skip).
    let (mut dense_space, dense_plan) = dense_fixture(pages);
    let expect_dense = scalar_mark(&dense_space, &layout, &dense_plan);
    let (sp, plan_d) = (&mut dense_space, &dense_plan);
    samples.push(measure_unswept("scalar_serial_dense", total_words, reps, sp, plan_d, |sp| {
        scalar_mark(sp, &layout, plan_d)
    }));
    samples.push(measure_unswept("simd_serial_dense", total_words, reps, sp, plan_d, |sp| {
        serial_mark(sp, plan_d, &mut MarkAccel::default())
    }));

    // Every full configuration must find the same mark set as the scalar
    // reference (`scalar_serial`, the first row); filtered, sparse and
    // dense configurations check against their own serial references.
    let expect = samples[0].marked;
    for s in &samples {
        let want = if s.name.contains("filtered") {
            expect_filtered
        } else if s.name.ends_with("_sparse") {
            expect_sparse
        } else if s.name.ends_with("_dense") {
            expect_dense
        } else {
            expect
        };
        assert_eq!(s.marked, want, "{} disagrees on the mark set", s.name);
    }

    println!(
        "== sweep bandwidth: {} MiB fixture, {} marked granules, best of {}, {} cpus ==\n",
        (pages * PAGE_SIZE as u64) >> 20,
        expect,
        reps,
        cpus
    );
    println!("{:<24} {:>6} {:>12} {:>14}", "config", "dirty", "ms", "Mwords/s");
    for s in &samples {
        println!(
            "{:<24} {:>6} {:>12.3} {:>14.1}",
            s.name,
            s.dirty_pct.map_or("-".to_string(), |p| format!("{p}%")),
            s.best_secs * 1e3,
            s.words_per_sec / 1e6,
        );
    }

    // The dense worst-case ratio rides along with the gated tier ratio
    // for transparency.
    let by_name = |n: &str| samples.iter().find(|s| s.name == n).unwrap();
    let dense_ratio =
        by_name("simd_serial_dense").words_per_sec / by_name("scalar_serial_dense").words_per_sec;
    println!("\nsimd_serial_dense vs scalar_serial_dense (no-zero worst case): {dense_ratio:.2}x");

    // Tracing-overhead ratio: traced (null sink) vs untraced SIMD serial.
    let null_sink_ratio =
        by_name("simd_serial_nullsink").words_per_sec / by_name("simd_serial").words_per_sec;

    let tier = minesweeper::simd::active_tier();
    let floor = tier_ratio_floor(tier);
    let failed = failed_gates(tier, tier_ratio);
    println!(
        "\ngate tier-ratio: scalar_serial/simd_serial {tier_ratio:.3}x, floor \
         {floor:.2}x: {}",
        if failed.is_empty() { "PASS" } else { "FAIL" }
    );

    let active_tier = tier.as_str();
    let tier_env = std::env::var(minesweeper::simd::TIER_ENV).unwrap_or_default();
    let failed_json: Vec<String> = failed.iter().map(|g| format!("\"{g}\"")).collect();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"fixture\": {{ \"pages\": {pages}, \"total_words\": {total_words}, \"marked_granules\": {expect}, \"sparse_marked_granules\": {expect_sparse}, \"reps\": {reps}, \"cpus\": {cpus} }},");
    let _ = writeln!(
        json,
        "  \"host\": {{ \"cpus\": {cpus}, \"model\": \"{}\", \"scan_tier\": \"{active_tier}\", \"scan_tier_env\": \"{tier_env}\" }},",
        cpu_model()
    );
    let _ = writeln!(
        json,
        "  \"kernel\": {{ \"active_tier\": \"{active_tier}\", \"simd_vs_scalar\": {tier_ratio:.3}, \"simd_vs_scalar_dense\": {dense_ratio:.3} }},"
    );
    let _ = writeln!(
        json,
        "  \"gates\": {{ \"tier_ratio\": {tier_ratio:.3}, \"tier_ratio_floor\": {floor}, \"pairs\": {pairs}, \"failed\": [{}] }},",
        failed_json.join(", ")
    );
    let _ =
        writeln!(json, "  \"telemetry\": {{ \"null_sink_vs_untraced\": {null_sink_ratio:.3} }},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let dirty = s.dirty_pct.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"dirty_pct\": {dirty}, \"best_ms\": {:.3}, \"words_per_sec\": {:.0} }}{comma}",
            s.name,
            s.best_secs * 1e3,
            s.words_per_sec
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out_path}");

    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("kernel gate failed: {}", failed.join(", "));
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Opts, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn gate_passes_at_the_floor_and_fails_just_under_it() {
        for tier in [ScanTier::Avx2, ScanTier::Sse2, ScanTier::Swar] {
            let floor = tier_ratio_floor(tier);
            assert!(failed_gates(tier, floor).is_empty());
            assert!(failed_gates(tier, floor * 1.001).is_empty());
            assert_eq!(failed_gates(tier, floor * 0.999), ["tier-ratio"]);
            assert_eq!(failed_gates(tier, f64::NAN), ["tier-ratio"]);
        }
    }

    #[test]
    fn clean_extremes_pass_and_their_2x_handicaps_fail() {
        // The extremes of each tier's clean runs the floors were set from
        // (`--pages 256 --reps 8`), timed against a scalar reference that
        // flushed with locked `fetch_or`s, then those of 11 clean runs per
        // tier with the kernel building heap-word maps of pages that have
        // none (DESIGN.md, *Kernel gate*). A 2x handicap halves the tier
        // ratio.
        for (tier, tier_min, tier_max) in [
            (ScanTier::Avx2, 1.608, 1.763),
            (ScanTier::Sse2, 1.058, 1.123),
            (ScanTier::Swar, 1.27, 1.37),
            (ScanTier::Avx2, 1.616, 1.781),
            (ScanTier::Sse2, 1.434, 1.494),
            (ScanTier::Swar, 1.362, 1.533),
        ] {
            assert!(failed_gates(tier, tier_min).is_empty(), "{tier:?}");
            assert_eq!(failed_gates(tier, tier_max / 2.0), ["tier-ratio"], "{tier:?}");
        }
    }

    #[test]
    fn unswept_pages_are_classified_again_with_the_same_marks() {
        // The kernel rows time classification only if every page they
        // read has no heap-word map: a mark builds the maps, `unswept`
        // must drop every one of them and keep the words.
        let (mut space, plan) = sweep_fixture(8);
        let marked = serial_mark(&mut space, &plan, &mut MarkAccel::default());
        let pages = || (0..8u64).map(|k| plan.ranges()[0].0.add_bytes(k * PAGE_SIZE as u64).page());
        let builds = |space: &mut AddrSpace| {
            pages()
                .filter(|&page| {
                    let mut built = false;
                    let _ = space.scan_heap_words(page, |_, _, _| {
                        built = true;
                        vmem::HeapMap::default()
                    });
                    built
                })
                .count()
        };
        assert_eq!(builds(&mut space), 0, "a mark leaves every page with its map");
        unswept(&mut space, &plan);
        assert_eq!(builds(&mut space), 8, "no page keeps its map");
        unswept(&mut space, &plan);
        assert_eq!(serial_mark(&mut space, &plan, &mut MarkAccel::default()), marked);
        assert_eq!(scalar_mark(&space, space.layout(), &plan), marked);
    }

    #[test]
    fn parse_accepts_the_five_flags() {
        let o = args("--quick --reps 8 --out x.json --handicap simd_serial:2.0").unwrap();
        assert_eq!(
            o,
            Opts {
                pages: 256,
                reps: 8,
                out: "x.json".into(),
                handicaps: vec![("simd_serial".into(), 2.0)]
            }
        );
        assert_eq!(args("--pages 64").unwrap().pages, 64);
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            "--bogus",
            "--help",
            "--pages",
            "--pages x",
            "--pages 0",
            "--reps -1",
            "--reps 99999999999",
            "--out",
            "--handicap simd_serial",
            "--handicap simd_serial:fast",
            "--handicap simd_serial:0.5",
            "--handicap :2.0",
            "--handicap simd_serial:inf",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
