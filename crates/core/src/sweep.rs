//! The sweep: linear marking of program memory, stop-the-world re-checks,
//! and the parallel one-shot marker.
//!
//! "Each word of memory is interpreted as a pointer, its granule index is
//! calculated and used to index and set the shadow-map bit" (§3.2). The
//! sweep is *linear* — no transitive closure — because zeroing on free
//! removed all edges out of the quarantine (§4.1, Figure 6).
//!
//! [`Marker`] exposes the marking phase as an incremental cursor so the
//! discrete-event engine can interleave mutator progress with sweep
//! progress in virtual time, faithfully reproducing the fully-concurrent
//! mode's relaxed guarantee (a dangling pointer *moved ahead of the cursor
//! and erased behind it* during the sweep is missed — §4.3 footnote 5) and
//! the mostly-concurrent mode's soft-dirty stop-the-world fix.
//!
//! The shadow map is atomic (see [`crate::shadow`]), so
//! [`parallel_mark_pool`] threads share **one** map per arena with no
//! per-thread maps and no union barrier (§4.4). Parallel marking
//! schedules by **work stealing**: an atomic cursor over fixed page-range
//! chunks, so helpers never idle behind an unlucky static share. The
//! *serial* paths ([`Marker`], [`mark_page`]) instead take
//! `&mut ShadowMap` and mark through the exclusive store-only
//! [`ShadowWriter`](crate::shadow::ShadowMap::writer_mut) — no locked RMW
//! per 1 KiB window.
//!
//! Every scanned word — serial, parallel, STW re-mark or forensic — goes
//! through the single [`scan_words`] inner loop, whose classify pass is
//! the runtime-dispatched SIMD kernel in [`crate::simd`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use vmem::{Addr, AddrSpace, Layout, MemError, PageIdx, PageRange, Segment, PAGE_SIZE, WORD_SIZE};

use crate::filter::CandidateFilter;
use crate::forensics::EdgeRecorder;
use crate::pagecache::PageCache;
use crate::shadow::{ShadowMap, ShadowWriter};
use crate::simd::{self, ScanTier};
use crate::telem::SweepProf;

/// The memory ranges one sweep will examine: active heap extents plus the
/// committed pages of the globals and stack segments.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    ranges: Vec<(Addr, u64)>,
    total_bytes: u64,
}

impl SweepPlan {
    /// Builds a plan from the allocator's active extents and the root
    /// segments. Only committed root pages are included (unbacked pages
    /// cannot hold pointers); heap extents are taken as-is, with protected
    /// or unbacked pages skipped during marking.
    pub fn build(space: &AddrSpace, heap_ranges: &[(Addr, u64)]) -> Self {
        let layout = space.layout();
        let mut ranges: Vec<(Addr, u64)> = [Segment::Globals, Segment::Stack]
            .into_iter()
            .flat_map(|seg| {
                let first = layout.segment_base(seg).page();
                space.committed_runs(PageRange::new(first, layout.segment_pages(seg)))
            })
            .collect();
        ranges.extend(heap_ranges.iter().copied());
        let total_bytes = ranges.iter().map(|&(_, l)| l).sum();
        SweepPlan { ranges, total_bytes }
    }

    /// A plan over explicit ranges (tests, custom root sets).
    pub fn from_ranges(ranges: Vec<(Addr, u64)>) -> Self {
        let total_bytes = ranges.iter().map(|&(_, l)| l).sum();
        SweepPlan { ranges, total_bytes }
    }

    /// Total bytes the plan covers (before protected/unbacked skipping).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The ranges, address order within each segment group.
    pub fn ranges(&self) -> &[(Addr, u64)] {
        &self.ranges
    }
}

/// Progress report from one [`Marker::step`].
///
/// Accounting invariant: `bytes == words * 8 + skipped_bytes` — every
/// byte the cursor advances through is either read word-by-word or
/// skipped wholesale (cache-replayed clean pages, protected pages,
/// unmapped holes).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StepResult {
    /// Words actually read and tested.
    pub words: u64,
    /// Bytes advanced through the plan (including skipped pages).
    pub bytes: u64,
    /// Bytes advanced without reading: clean pages replayed from the
    /// page-summary cache plus protected/unmapped page skips.
    pub skipped_bytes: u64,
    /// Scanned words that passed the heap range test (survivors of the
    /// SIMD classify pass, pre-filter). Cache-replayed digests are not
    /// counted — replays are charged per page, not per word.
    pub heap_words: u64,
    /// Clean pages whose 512-word re-read was skipped via the cache.
    pub pages_skipped: u64,
    /// Skipped pages whose non-empty digest was replayed into the shadow
    /// map (a subset of `pages_skipped`; the rest had no heap pointers).
    pub pages_replayed: u64,
    /// Heap-pointing words suppressed by the candidate filter (scan and
    /// replay combined).
    pub filter_rejects: u64,
    /// Provenance edges recorded by the forensics [`EdgeRecorder`] during
    /// this step (zero when forensics is off or every edge was sampled
    /// out). Cache-replayed pages record page-granular edges.
    pub pin_edges: u64,
    /// Whether the marking phase is complete.
    pub finished: bool,
}

/// Acceleration context for a sweep: the optional candidate filter and
/// page-summary cache the marker consults, plus the quarantine generation
/// tag recorded into fresh digests.
///
/// A default (empty) accel reproduces the unaccelerated sweep exactly.
#[derive(Debug, Default)]
pub struct MarkAccel<'a> {
    /// Candidate filter built from this sweep's locked quarantine
    /// generation; `None` marks every heap-pointing word.
    pub filter: Option<&'a CandidateFilter>,
    /// Page-summary cache: clean pages replay their digest instead of
    /// being re-read, freshly scanned pages record a new digest.
    pub cache: Option<&'a mut PageCache>,
    /// Quarantine generation tag for recorded digests.
    pub qgen: u64,
    /// Forensics edge recorder: when present, words that hit a
    /// quarantined candidate also record a provenance edge (source
    /// address → quarantine entry). `None` keeps the recorder dispatch
    /// out of the survivors tail — the disabled cost is one branch per
    /// surviving word, never per scanned word.
    pub forensics: Option<&'a EdgeRecorder>,
    /// Scan-kernel tier override; `None` uses [`simd::active_tier`].
    /// Every tier produces bit-identical marks, digests and counts — the
    /// override exists for benchmarks and differential tests.
    pub tier: Option<ScanTier>,
    /// Sweep profiler: when present, each step records its wall scan time
    /// into `sweep/step_scan_ns` and folds the writer's write-combine /
    /// chunk-cache counters into the shared cells. `None` costs exactly
    /// one branch per step — no clock reads, no counter traffic.
    pub prof: Option<&'a SweepProf>,
}

/// Scan disposition of one page.
enum PageState {
    Committed,
    Unbacked,
    Skip,
}

/// Incremental cursor over a [`SweepPlan`].
///
/// Each call to [`Marker::step`] reads up to `word_budget` aligned words,
/// marking heap-pointing values in the shadow map. Protected and unmapped
/// pages are skipped a page at a time (the §4.5 extent hooks make purged
/// ranges fault rather than demand-commit).
#[derive(Clone, Debug)]
pub struct Marker {
    plan: SweepPlan,
    idx: usize,
    off: u64,
    done_bytes: u64,
    /// Plan ranges sorted by base — `(base, len, plan index)` — so
    /// [`Marker::has_passed`] is a binary search instead of a linear walk
    /// over the plan (root-heavy plans have thousands of ranges).
    by_base: Vec<(u64, u64, usize)>,
    /// In-progress page digest `(page index, heap-pointing values)` —
    /// carried across budget-split steps so a page scanned in several
    /// chunks still records one complete summary.
    pending: Option<(u64, Vec<u64>)>,
}

impl Marker {
    /// Creates a cursor at the start of `plan`.
    pub fn new(plan: SweepPlan) -> Self {
        let mut by_base: Vec<(u64, u64, usize)> = plan
            .ranges
            .iter()
            .enumerate()
            .map(|(i, &(base, len))| (base.raw(), len, i))
            .collect();
        by_base.sort_unstable();
        Marker { plan, idx: 0, off: 0, done_bytes: 0, by_base, pending: None }
    }

    /// Bytes of plan not yet advanced through.
    pub fn remaining_bytes(&self) -> u64 {
        self.plan.total_bytes - self.done_bytes
    }

    /// The plan this cursor walks. Pooled sweeps borrow it to cut the
    /// cross-arena chunk queue without consuming the marker.
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    /// Whether the cursor has passed `addr` (used by tests to position
    /// race scenarios relative to the sweep front). Binary search over the
    /// base-sorted range index; plan ranges never overlap.
    pub fn has_passed(&self, addr: Addr) -> bool {
        let i = self.by_base.partition_point(|&(base, _, _)| base <= addr.raw());
        if i == 0 {
            return false;
        }
        let (base, len, plan_idx) = self.by_base[i - 1];
        if addr.raw() - base >= len {
            return false;
        }
        plan_idx < self.idx || (plan_idx == self.idx && addr.raw() - base < self.off)
    }

    /// Advances the cursor by up to `word_budget` words, marking pointer
    /// targets in `shadow`. A budget of `u64::MAX` drains the plan in one
    /// call.
    ///
    /// Pages are processed in slices — one `scan_page` lookup per page,
    /// with the marks issued while the page borrow is live and the
    /// [`ShadowWriter`](crate::shadow::ShadowWriter) chunk cache carrying
    /// across pages. Sweeping a `madvise`-purged (mapped, unprotected,
    /// unbacked) page **demand-commits it** via [`AddrSpace::touch_page`],
    /// faithfully reproducing the §4.5 failure mode that the
    /// commit/decommit extent hooks exist to prevent; protected pages are
    /// skipped.
    ///
    /// `accel` engages the incremental-sweep accelerations (a default
    /// [`MarkAccel`] engages none):
    ///
    /// * **cache replay** — a fully-covered page with a valid
    ///   [`PageCache`] entry skips its 512-word re-read; the digest is
    ///   re-filtered through the *current* filter and marked directly
    ///   (skipped pages cost no word budget — the engine charges them via
    ///   [`StepResult::skipped_bytes`] instead);
    /// * **candidate filter** — heap-pointing words whose target page
    ///   holds no quarantined granule never touch the shadow map;
    /// * **zero-word fast path** — zero (the overwhelmingly common swept
    ///   value after zero-on-free, §4.1) falls through in one compare;
    /// * **digest recording** — every fully scanned page records its
    ///   pre-filter digest for the next sweep.
    pub fn step(
        &mut self,
        space: &mut AddrSpace,
        shadow: &mut ShadowMap,
        word_budget: u64,
        accel: &mut MarkAccel<'_>,
    ) -> StepResult {
        let layout = *space.layout();
        // The serial cursor owns its map for the duration of the step, so
        // it gets the exclusive writer's store-only flush.
        let mut writer = shadow.writer_mut();
        // Profiler gate: the disabled path is this one branch — no clock
        // read, and the epilogue fold below is skipped entirely.
        let scan_t0 = accel.prof.map(|_| Instant::now());
        let mut r = StepResult::default();
        let start_bytes = self.done_bytes;
        let edges_before = accel.forensics.map_or(0, EdgeRecorder::recorded);
        let tier = accel.tier.unwrap_or_else(simd::active_tier);
        while r.words < word_budget && self.idx < self.plan.ranges.len() {
            let (base, len) = self.plan.ranges[self.idx];
            if self.off >= len {
                self.idx += 1;
                self.off = 0;
                continue;
            }
            let addr = base.add_bytes(self.off);
            let page = addr.page();
            // The chunk is bounded by the page end, the range end and the
            // remaining word budget.
            let page_end = page.next().base().offset_from(base).min(len);
            let chunk_words =
                ((page_end - self.off) / WORD_SIZE as u64).min(word_budget - r.words);
            // Digests only make sense for pages this range covers
            // entirely: a partial scan would record (and later replay) a
            // partial truth.
            let covered = page.base().raw() >= base.raw()
                && page.base().offset_from(base) + PAGE_SIZE as u64 <= len;
            let at_page_start = covered && self.off == page.base().offset_from(base);

            // Clean-page fast path: replay the cached digest through the
            // current filter instead of re-reading 512 words.
            if at_page_start {
                if let Some(targets) =
                    accel.cache.as_deref().and_then(|c| c.lookup(page))
                {
                    let mut marked_any = false;
                    for &value in targets {
                        let target = Addr::new(value);
                        match accel.filter {
                            Some(f) if !f.allows(target) => r.filter_rejects += 1,
                            _ => {
                                writer.mark(target);
                                marked_any = true;
                                // Replayed digests lost the word offset:
                                // attribute the edge to the page.
                                if let Some(rec) = accel.forensics {
                                    rec.note(page.base(), target);
                                }
                            }
                        }
                    }
                    r.pages_skipped += 1;
                    r.pages_replayed += u64::from(marked_any);
                    r.skipped_bytes += PAGE_SIZE as u64;
                    self.off += PAGE_SIZE as u64;
                    self.done_bytes += PAGE_SIZE as u64;
                    continue;
                }
            }

            // Digest state for this chunk: open a fresh one at a covered
            // page start, continue one split by the word budget, drop
            // anything else (uncoverable or discontinuous).
            let digest_active = if accel.cache.is_some() && covered {
                if at_page_start {
                    self.pending = Some((page.raw(), Vec::new()));
                    true
                } else {
                    matches!(&self.pending, Some((p, _)) if *p == page.raw())
                }
            } else {
                self.pending = None;
                false
            };

            // One probe: mark in the committed arm (the page borrow ends
            // with the match), then advance state without it.
            let state = match space.scan_page(page) {
                Ok(Some(words)) => {
                    let start_word = addr.word_in_page();
                    let digest = self
                        .pending
                        .as_mut()
                        .filter(|_| digest_active)
                        .map(|(_, v)| v);
                    let slice = &words[start_word..start_word + chunk_words as usize];
                    scan_words(
                        tier,
                        slice,
                        addr,
                        &layout,
                        &mut writer,
                        accel.filter,
                        digest,
                        &mut r.heap_words,
                        &mut r.filter_rejects,
                        accel.forensics,
                    );
                    PageState::Committed
                }
                Ok(None) => PageState::Unbacked,
                Err(MemError::Protected(_)) | Err(MemError::Unmapped(_)) => PageState::Skip,
                Err(e) => unreachable!("scan_page cannot fail with {e}"),
            };
            match state {
                PageState::Committed => {
                    r.words += chunk_words;
                    self.off += chunk_words * WORD_SIZE as u64;
                    self.done_bytes += chunk_words * WORD_SIZE as u64;
                    // Page fully scanned: publish its digest.
                    if digest_active
                        && self.off == page.base().offset_from(base) + PAGE_SIZE as u64
                    {
                        if let (Some((p, targets)), Some(cache)) =
                            (self.pending.take(), accel.cache.as_deref_mut())
                        {
                            cache.record(PageIdx::new(p), accel.qgen, targets);
                        }
                    }
                }
                PageState::Unbacked => {
                    // Mapped but unbacked: a real read faults it in
                    // (demand-zero) — the naive-purge RSS inflation. The
                    // fresh zeroes mark nothing; consume the chunk.
                    space.touch_page(page).expect("mapped page");
                    self.pending = None;
                    r.words += chunk_words;
                    self.off += chunk_words * WORD_SIZE as u64;
                    self.done_bytes += chunk_words * WORD_SIZE as u64;
                }
                PageState::Skip => {
                    // Skip the rest of the page without reading a word.
                    self.pending = None;
                    r.skipped_bytes += page_end - self.off;
                    self.done_bytes += page_end - self.off;
                    self.off = page_end;
                }
            }
        }
        r.bytes = self.done_bytes - start_bytes;
        r.finished = self.idx >= self.plan.ranges.len();
        r.pin_edges =
            accel.forensics.map_or(0, EdgeRecorder::recorded) - edges_before;
        if let (Some(prof), Some(t0)) = (accel.prof, scan_t0) {
            prof.step_scan_ns.record(t0.elapsed().as_nanos() as u64);
            prof.fold_writer(&writer.take_prof());
        }
        r
    }
}

/// **The one inner mark loop.** Every scanned word — serial, parallel,
/// stop-the-world or forensic — goes through this function.
///
/// The hot classify pass is the chunked [`simd`] kernel: 8 words per
/// iteration, lane-OR zero early-out (zero-on-free makes all-zero chunks
/// the common case, §4.1), branch-free heap-range test, tier dispatched
/// at runtime (AVX2 / SSE2 / portable SWAR). Words that survive — the
/// rare heap-range hits — reach the compacted tail closure below, where
/// digest capture, the [`CandidateFilter`], the shadow write and forensic
/// edge recording all live. Keeping those behind the compaction means the
/// optional features cost a branch per *survivor*, never per scanned
/// word, and there is exactly one classify loop to test and optimise.
/// The tail is instantiated twice: a bare shadow-write-only closure for
/// the steady-state sweep, and the full-featured one when any of digest /
/// filter / forensics is active.
///
/// `base` is the address of `words[0]` (forensic edge provenance);
/// `heap_words` counts survivors (pre-filter).
#[allow(clippy::too_many_arguments)]
fn scan_words(
    tier: ScanTier,
    words: &[u64],
    base: Addr,
    layout: &Layout,
    writer: &mut ShadowWriter<'_>,
    filter: Option<&CandidateFilter>,
    mut digest: Option<&mut Vec<u64>>,
    heap_words: &mut u64,
    filter_rejects: &mut u64,
    rec: Option<&EdgeRecorder>,
) {
    let lo = layout.segment_base(Segment::Heap).raw();
    let hi = layout.segment_end(Segment::Heap).raw();
    // Same kernel either way; only the survivor tail is instantiated
    // twice. The bare configuration (no digest, no filter, no forensics)
    // is the steady-state production sweep, and its tail shrinks to the
    // shadow write alone — `heap_words` comes from the kernel's
    // survivor-mask popcount rather than a per-survivor increment, and
    // the `Option` checks vanish instead of running on every survivor.
    if digest.is_none() && filter.is_none() && rec.is_none() {
        *heap_words += simd::for_each_in_range(tier, words, lo, hi, |_, value| {
            writer.mark(Addr::new(value));
        });
        return;
    }
    *heap_words += simd::for_each_in_range(tier, words, lo, hi, |i, value| {
        let target = Addr::new(value);
        if let Some(d) = digest.as_deref_mut() {
            d.push(value);
        }
        match filter {
            Some(f) if !f.allows(target) => *filter_rejects += 1,
            _ => {
                writer.mark(target);
                if let Some(rec) = rec {
                    rec.note(base.add_bytes(i as u64 * WORD_SIZE as u64), target);
                }
            }
        }
    });
}

/// Re-marks a single page (stop-the-world pass over soft-dirty pages,
/// §4.3). Runs the same [`scan_words`] kernel as the concurrent phase, so
/// the STW pass gets the zero fast path and SIMD classify too — a
/// soft-dirty page that was freed-and-zeroed since the snapshot costs one
/// lane-OR per cache line, not 512 range tests. Returns words examined;
/// protected/unmapped pages contribute zero.
pub fn mark_page(space: &AddrSpace, shadow: &mut ShadowMap, page: PageIdx) -> u64 {
    match space.scan_page(page) {
        Ok(Some(words)) => {
            let mut writer = shadow.writer_mut();
            let (mut heap_words, mut rejects) = (0u64, 0u64);
            scan_words(
                simd::active_tier(),
                words,
                page.base(),
                space.layout(),
                &mut writer,
                None,
                None,
                &mut heap_words,
                &mut rejects,
                None,
            );
            (PAGE_SIZE / WORD_SIZE) as u64
        }
        _ => 0,
    }
}

/// Default work-queue chunk size for [`parallel_mark_pool`], in pages.
/// 64 pages (256 KiB) is small enough that a straggler finishing its last
/// chunk idles the other threads for at most ~a quarter-millisecond of
/// scanning, and large enough that the atomic cursor claim (one
/// `fetch_add` per chunk) is amortised over 32 K words.
pub const PARALLEL_CHUNK_PAGES: u64 = 64;

/// Wall-clock and scheduling attribution from one profiled parallel
/// mark. Unlike [`ParallelMarkStats`] these fields are
/// **nondeterministic** (clock reads and claim-order dependent), which is
/// why they live behind [`PoolMarkOpts::prof`] and apart from the
/// per-job stats: with the profiler off every field stays zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MarkProfile {
    /// Chunks claimed from the shared cursor (all threads).
    pub chunks_claimed: u64,
    /// Chunks claimed by helper threads (work the main sweeper would
    /// otherwise have done — "stolen" in the §4.4 sense).
    pub chunks_stolen: u64,
    /// Summed per-thread busy nanoseconds (time inside chunk scans).
    pub busy_ns: u64,
    /// Wall nanoseconds for the whole mark (spawn to last join).
    pub wall_ns: u64,
}

/// One job's aggregated counters from a pooled mark. Every field is
/// **deterministic** — each chunk of the work queue is claimed exactly
/// once and every word is classified exactly once, so the totals are
/// independent of helper count, chunk size and claim order (the
/// work-stealing determinism proptests pin this down).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ParallelMarkStats {
    /// Words read and classified (excludes cache-replayed pages).
    pub words: u64,
    /// Scanned words that passed the heap range test (pre-filter).
    pub heap_words: u64,
    /// Heap-pointing words suppressed by the candidate filter — scan and
    /// replay combined, exactly as the serial [`StepResult`] counts them.
    pub filter_rejects: u64,
    /// Clean pages whose 512-word re-read was skipped via the cache.
    pub pages_skipped: u64,
    /// Skipped pages whose non-empty digest was replayed (subset of
    /// `pages_skipped`).
    pub pages_replayed: u64,
    /// Chunks in the work queue (claims performed, not per-thread).
    pub chunks: u64,
    /// Helper threads actually spawned after the hardware clamp.
    pub effective_helpers: usize,
}

/// Marks one work-queue chunk: per-page slices through the shared
/// [`scan_words`] kernel, with the clean-page digest replay fast path for
/// fully-covered cached pages. Mirrors the serial [`Marker::step`]
/// accounting (replay rejects count, `pages_replayed` means "replay
/// marked something").
#[allow(clippy::too_many_arguments)]
fn mark_chunk(
    space: &AddrSpace,
    layout: &Layout,
    tier: ScanTier,
    filter: Option<&CandidateFilter>,
    cache: Option<&PageCache>,
    forensics: Option<&EdgeRecorder>,
    base: Addr,
    len: u64,
    writer: &mut ShadowWriter<'_>,
    local: &mut ParallelMarkStats,
) {
    let mut off = 0;
    while off < len {
        let addr = base.add_bytes(off);
        let page_end = addr.page().next().base().offset_from(base).min(len);
        // Clean-page replay: only when this chunk piece covers the whole
        // page (a partial replay would mark words outside the chunk).
        if addr.is_aligned(PAGE_SIZE as u64) && page_end - off == PAGE_SIZE as u64 {
            if let Some(targets) = cache.and_then(|c| c.lookup(addr.page())) {
                let mut marked_any = false;
                for &value in targets {
                    let target = Addr::new(value);
                    match filter {
                        Some(f) if !f.allows(target) => local.filter_rejects += 1,
                        _ => {
                            writer.mark(target);
                            marked_any = true;
                            // Replayed digests lost the word offset:
                            // attribute the edge to the page.
                            if let Some(rec) = forensics {
                                rec.note(addr, target);
                            }
                        }
                    }
                }
                local.pages_skipped += 1;
                local.pages_replayed += u64::from(marked_any);
                off = page_end;
                continue;
            }
        }
        let chunk_words = (page_end - off) / WORD_SIZE as u64;
        if let Ok(Some(page)) = space.scan_page(addr.page()) {
            let w0 = addr.word_in_page();
            scan_words(
                tier,
                &page[w0..w0 + chunk_words as usize],
                addr,
                layout,
                writer,
                filter,
                None,
                &mut local.heap_words,
                &mut local.filter_rejects,
                forensics,
            );
            local.words += chunk_words;
        }
        // Unbacked pages read as zero; protected pages are skipped —
        // neither marks anything.
        off = page_end;
    }
}

/// One arena's share of a pooled cross-arena mark: the arena's address
/// space, its in-flight sweep plan, and the accelerators bound to that
/// sweep. Borrow one per scheduled arena (see
/// [`MineSweeper::pooled_mark_job`](crate::MineSweeper::pooled_mark_job))
/// and hand the batch to [`parallel_mark_pool`].
#[derive(Clone, Copy, Debug)]
pub struct PoolMarkJob<'a> {
    /// The arena's address space (read-only during marking).
    pub space: &'a AddrSpace,
    /// The arena's locked-in sweep plan.
    pub plan: &'a SweepPlan,
    /// The arena's shadow map (shared, atomic marking).
    pub shadow: &'a ShadowMap,
    /// Candidate filter over the arena's locked quarantine generation.
    pub filter: Option<&'a CandidateFilter>,
    /// Read-only page-summary cache (replay only, never records).
    pub cache: Option<&'a PageCache>,
    /// Forensics recorder over the arena's locked entries.
    pub forensics: Option<&'a EdgeRecorder>,
}

/// Options for [`parallel_mark_pool`]. `Default`: zero helpers, auto
/// tier, default chunking, no profiler.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolMarkOpts<'a> {
    /// Helper threads requested (clamped via [`effective_helper_count`]).
    pub helper_threads: usize,
    /// Scan-kernel tier override; `None` uses [`simd::active_tier`].
    pub tier: Option<ScanTier>,
    /// Work-queue chunk size in pages; `None` uses
    /// [`PARALLEL_CHUNK_PAGES`].
    pub chunk_pages: Option<u64>,
    /// Sweep profiler cells shared by all threads.
    pub prof: Option<&'a SweepProf>,
}

/// Result of one pooled mark: per-job deterministic stats (index-aligned
/// with the job slice) plus the aggregate nondeterministic profile.
#[derive(Clone, Debug, Default)]
pub struct PoolMarkResult {
    /// Per-job stats; `chunks` counts the chunks the job *owns* and the
    /// word/reject counters come from the owner's scan pass only (a
    /// shared root chunk's words are charged once, to its owner), so each
    /// job's accounting identity `plan bytes == words*8 + skipped` holds
    /// independent of how many arenas were batched.
    pub per_job: Vec<ParallelMarkStats>,
    /// Aggregate wall/busy/steal attribution (all-zero without
    /// [`PoolMarkOpts::prof`]).
    pub profile: MarkProfile,
}

/// Whether `addr` lies in a root segment (globals or stack) of `layout`.
fn in_root_segment(layout: &Layout, addr: Addr) -> bool {
    [Segment::Globals, Segment::Stack].iter().any(|&seg| {
        let base = layout.segment_base(seg);
        let len = layout.segment_pages(seg) * PAGE_SIZE as u64;
        addr >= base && addr.raw() < base.raw() + len
    })
}

/// Per-job atomic fold targets for the pooled mark.
#[derive(Default)]
struct JobTotals {
    words: AtomicU64,
    heap_words: AtomicU64,
    filter_rejects: AtomicU64,
    pages_skipped: AtomicU64,
    pages_replayed: AtomicU64,
}

/// Parallel marking with real OS threads (§4.4: "a main sweeper thread
/// and some helpers"), over one or more arenas' plans. A single-arena
/// sweep is a one-job pool.
///
/// Each job's plan is cut into fixed page-range chunks
/// (~[`PARALLEL_CHUNK_PAGES`] pages) at chunk-aligned *absolute*
/// addresses, so steady-state chunk boundaries are page boundaries and
/// the chunk list is identical for every thread count. The per-job lists
/// are interleaved round-robin behind **one** atomic cursor: every
/// thread claims the next chunk with a relaxed `fetch_add` and routes it
/// through the same `scan_words` SIMD kernel as the serial path. No
/// thread idles behind an unlucky static share, and a pool that finishes
/// one tenant's dense heap steals the next tenant's chunks instead of
/// waiting at a per-arena join barrier.
///
/// All threads mark **directly into the jobs' shared atomic shadow
/// maps** via side-effect-free reads ([`AddrSpace::scan_page`]; unbacked
/// pages read as zero and never commit). There are no per-thread maps
/// and no union barrier; each thread keeps one [`ShadowWriter`] per job.
/// Heap chunks mark only their owner's shadow (tenant heaps are
/// disjoint). Root-segment (stack/globals) chunks are *shared process
/// state*: each is scanned from its owner's space into every job's
/// shadow through that job's own filter, so a dangling root pointer in
/// one arena pins quarantined blocks in another. Only the owner's pass
/// replays its page cache and is charged to its stats.
///
/// Per-thread counters fold into the per-job [`ParallelMarkStats`] with
/// one atomic add per thread at join time. The mark sets and counters
/// are independent of helper count, chunk size and claim order.
pub fn parallel_mark_pool(
    jobs: &[PoolMarkJob<'_>],
    opts: &PoolMarkOpts<'_>,
) -> PoolMarkResult {
    let helpers = effective_helper_count(opts.helper_threads);
    let threads = helpers + 1;
    let tier = opts.tier.unwrap_or_else(simd::active_tier);
    let chunk_bytes =
        opts.chunk_pages.unwrap_or(PARALLEL_CHUNK_PAGES).max(1) * PAGE_SIZE as u64;

    // Cut each job's plan into chunks, tagging root-segment chunks, then
    // interleave the per-job lists so the shared cursor alternates
    // between arenas from the first claim.
    let mut per_job_chunks: Vec<Vec<(Addr, u64, bool)>> = jobs
        .iter()
        .map(|job| {
            let layout = job.space.layout();
            let mut out = Vec::new();
            for &(base, len) in job.plan.ranges() {
                let shared = in_root_segment(layout, base);
                let mut off = 0;
                while off < len {
                    let addr = base.add_bytes(off);
                    let next = (addr.raw() / chunk_bytes + 1) * chunk_bytes;
                    let take = (next - addr.raw()).min(len - off);
                    out.push((addr, take, shared));
                    off += take;
                }
            }
            out
        })
        .collect();
    let mut chunks: Vec<(usize, Addr, u64, bool)> = Vec::new();
    let mut round = 0;
    loop {
        let mut any = false;
        for (j, list) in per_job_chunks.iter_mut().enumerate() {
            if round < list.len() {
                let (addr, len, shared) = list[round];
                chunks.push((j, addr, len, shared));
                any = true;
            }
        }
        if !any {
            break;
        }
        round += 1;
    }
    let owned_chunks: Vec<u64> =
        per_job_chunks.iter().map(|l| l.len() as u64).collect();

    let totals: Vec<JobTotals> = jobs.iter().map(|_| JobTotals::default()).collect();
    let cursor = AtomicUsize::new(0);
    let prof_busy_ns = AtomicU64::new(0);
    let prof_claimed = AtomicU64::new(0);
    let prof_stolen = AtomicU64::new(0);
    let mark_t0 = opts.prof.map(|_| Instant::now());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread_idx| {
                let (chunks, cursor, totals) = (&chunks, &cursor, &totals);
                let (prof_busy_ns, prof_claimed, prof_stolen) =
                    (&prof_busy_ns, &prof_claimed, &prof_stolen);
                let opts = *opts;
                scope.spawn(move || {
                    let thread_t0 = opts.prof.map(|_| Instant::now());
                    let mut writers: Vec<ShadowWriter<'_>> =
                        jobs.iter().map(|j| j.shadow.writer()).collect();
                    let mut locals: Vec<ParallelMarkStats> =
                        jobs.iter().map(|_| ParallelMarkStats::default()).collect();
                    let (mut busy_ns, mut claimed) = (0u64, 0u64);
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(owner, base, len, shared)) = chunks.get(k) else {
                            break;
                        };
                        let job = &jobs[owner];
                        let chunk_t0 = opts.prof.map(|_| Instant::now());
                        // A heap chunk marks its owner only; a shared
                        // root chunk marks every job. Only the owner's
                        // pass reads its cache and counts (a root word
                        // is read once per target map, charged once).
                        let targets = if shared { 0..jobs.len() } else { owner..owner + 1 };
                        let mut scratch = ParallelMarkStats::default();
                        for j in targets {
                            let target = &jobs[j];
                            let (cache, local) = if j == owner {
                                (job.cache, &mut locals[owner])
                            } else {
                                (None, &mut scratch)
                            };
                            mark_chunk(
                                job.space,
                                target.space.layout(),
                                tier,
                                target.filter,
                                cache,
                                target.forensics,
                                base,
                                len,
                                &mut writers[j],
                                local,
                            );
                        }
                        if let (Some(p), Some(t0)) = (opts.prof, chunk_t0) {
                            let ns = t0.elapsed().as_nanos() as u64;
                            p.chunk_scan_ns.record(ns);
                            busy_ns += ns;
                            claimed += 1;
                        }
                    }
                    if let (Some(p), Some(t0)) = (opts.prof, thread_t0) {
                        for w in &mut writers {
                            p.fold_writer(&w.take_prof());
                        }
                        let wall = t0.elapsed().as_nanos() as u64;
                        p.helper_chunks.record(claimed);
                        p.helper_busy_pct.record(
                            (busy_ns * 100)
                                .checked_div(wall)
                                .map_or(100, |pct| pct.min(100)),
                        );
                        prof_busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
                        prof_claimed.fetch_add(claimed, Ordering::Relaxed);
                        p.chunks_claimed.add(claimed);
                        if thread_idx > 0 {
                            prof_stolen.fetch_add(claimed, Ordering::Relaxed);
                            p.chunks_stolen.add(claimed);
                        }
                    }
                    drop(writers);
                    for (local, total) in locals.iter().zip(totals) {
                        total.words.fetch_add(local.words, Ordering::Relaxed);
                        total.heap_words.fetch_add(local.heap_words, Ordering::Relaxed);
                        total
                            .filter_rejects
                            .fetch_add(local.filter_rejects, Ordering::Relaxed);
                        total
                            .pages_skipped
                            .fetch_add(local.pages_skipped, Ordering::Relaxed);
                        total
                            .pages_replayed
                            .fetch_add(local.pages_replayed, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("pool marker thread panicked");
        }
    });
    let per_job = totals
        .into_iter()
        .zip(owned_chunks)
        .map(|(t, chunks)| ParallelMarkStats {
            words: t.words.into_inner(),
            heap_words: t.heap_words.into_inner(),
            filter_rejects: t.filter_rejects.into_inner(),
            pages_skipped: t.pages_skipped.into_inner(),
            pages_replayed: t.pages_replayed.into_inner(),
            chunks,
            effective_helpers: helpers,
        })
        .collect();
    PoolMarkResult {
        per_job,
        profile: MarkProfile {
            chunks_claimed: prof_claimed.into_inner(),
            chunks_stolen: prof_stolen.into_inner(),
            busy_ns: prof_busy_ns.into_inner(),
            wall_ns: mark_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64),
        },
    }
}

/// Clamps a requested helper-thread count to the hardware: at most
/// `available_parallelism() - 1` helpers (the main sweeper thread takes
/// one core). Returns 0 (serial) on single-core machines or when the
/// parallelism query fails.
pub fn effective_helper_count(requested: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.min(cores.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::NaiveShadowMap;
    use vmem::Protection;

    /// Maps `pages` heap pages and returns the base.
    fn heap(space: &mut AddrSpace, pages: u64) -> Addr {
        let a = space.reserve_heap(pages);
        space.map(a, pages).unwrap();
        a
    }

    #[test]
    fn plan_includes_committed_roots_only() {
        let mut space = AddrSpace::new();
        let layout = *space.layout();
        let stack = layout.segment_base(Segment::Stack);
        space.write_word(stack, 1).unwrap(); // commit one stack page
        let plan = SweepPlan::build(&space, &[]);
        assert_eq!(plan.ranges().len(), 1);
        assert_eq!(plan.ranges()[0], (stack, PAGE_SIZE as u64));
    }

    #[test]
    fn plan_coalesces_adjacent_root_pages() {
        let mut space = AddrSpace::new();
        let stack = space.layout().segment_base(Segment::Stack);
        space.write_word(stack, 1).unwrap();
        space.write_word(stack + PAGE_SIZE as u64, 1).unwrap();
        space.write_word(stack + 3 * PAGE_SIZE as u64, 1).unwrap();
        let plan = SweepPlan::build(&space, &[]);
        assert_eq!(
            plan.ranges(),
            &[
                (stack, 2 * PAGE_SIZE as u64),
                (stack + 3 * PAGE_SIZE as u64, PAGE_SIZE as u64)
            ]
        );
    }

    /// The per-page root walk `SweepPlan::build` used before
    /// `AddrSpace::committed_runs`: the oracle its root ranges must equal.
    fn per_page_root_runs(space: &AddrSpace) -> Vec<(Addr, u64)> {
        let mut ranges = Vec::new();
        for seg in [Segment::Globals, Segment::Stack] {
            let first = space.layout().segment_base(seg).page().raw();
            let end = first + space.layout().segment_pages(seg);
            let mut run_start: Option<u64> = None;
            for p in first..=end {
                if p < end && space.is_committed(PageIdx::new(p).base()) {
                    run_start.get_or_insert(p);
                } else if let Some(s) = run_start.take() {
                    ranges.push((PageIdx::new(s).base(), (p - s) * PAGE_SIZE as u64));
                }
            }
        }
        ranges
    }

    /// Commits `count` pages starting `first` pages into `seg`.
    fn commit_root(space: &mut AddrSpace, seg: Segment, first: u64, count: u64) -> Addr {
        let a = space.layout().segment_base(seg).add_bytes(first * PAGE_SIZE as u64);
        space.commit(vmem::PageRange::spanning(a, count * PAGE_SIZE as u64)).unwrap();
        a
    }

    /// Page-table leaves hold 512 pages; both root segments start on a
    /// leaf boundary in the default layout.
    const LEAF: u64 = 512;

    #[test]
    fn plan_root_run_crosses_a_leaf_boundary() {
        let mut space = AddrSpace::new();
        let a = commit_root(&mut space, Segment::Globals, LEAF - 2, 5);
        let plan = SweepPlan::build(&space, &[]);
        assert_eq!(plan.ranges(), &[(a, 5 * PAGE_SIZE as u64)]);
        assert_eq!(plan.ranges(), per_page_root_runs(&space).as_slice());
    }

    #[test]
    fn plan_root_run_ends_at_the_globals_segment_end() {
        let mut space = AddrSpace::new();
        let pages = space.layout().segment_pages(Segment::Globals);
        let a = commit_root(&mut space, Segment::Globals, pages - 3, 3);
        let stack = commit_root(&mut space, Segment::Stack, 0, 1);
        let plan = SweepPlan::build(&space, &[]);
        // The globals run closes at the segment end; it must not merge
        // with (or swallow) anything beyond it.
        assert_eq!(
            plan.ranges(),
            &[(a, 3 * PAGE_SIZE as u64), (stack, PAGE_SIZE as u64)]
        );
        assert_eq!(plan.ranges(), per_page_root_runs(&space).as_slice());
    }

    #[test]
    fn plan_finds_a_leafs_only_committed_page_in_its_last_slot() {
        let mut space = AddrSpace::new();
        let a = commit_root(&mut space, Segment::Globals, 2 * LEAF - 1, 1);
        let b = commit_root(&mut space, Segment::Stack, LEAF - 1, 1);
        let plan = SweepPlan::build(&space, &[]);
        assert_eq!(plan.ranges(), &[(a, PAGE_SIZE as u64), (b, PAGE_SIZE as u64)]);
        assert_eq!(plan.ranges(), per_page_root_runs(&space).as_slice());
    }

    #[test]
    fn plan_roots_match_the_per_page_walk_on_scattered_commits() {
        let mut space = AddrSpace::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let seg = if x >> 63 == 0 { Segment::Globals } else { Segment::Stack };
            let pages = space.layout().segment_pages(seg);
            let first = (x >> 20) % pages;
            commit_root(&mut space, seg, first, ((x >> 8) % 4 + 1).min(pages - first));
        }
        let plan = SweepPlan::build(&space, &[]);
        assert_eq!(plan.ranges(), per_page_root_runs(&space).as_slice());
    }

    #[test]
    fn marker_finds_pointers_and_ignores_data() {
        let mut space = AddrSpace::new();
        let target = heap(&mut space, 1);
        let src = heap(&mut space, 1);
        space.write_word(src, target.raw()).unwrap(); // a real pointer
        space.write_word(src + 8, 42).unwrap(); // plain data
        let mut shadow = ShadowMap::new();
        let mut marker =
            Marker::new(SweepPlan::from_ranges(vec![(src, PAGE_SIZE as u64)]));
        marker.step(&mut space, &mut shadow, u64::MAX, &mut MarkAccel::default());
        assert!(shadow.is_marked(target));
        assert_eq!(shadow.marked_count(), 1, "42 is not a heap pointer");
    }

    #[test]
    fn marker_respects_word_budget() {
        let mut space = AddrSpace::new();
        let src = heap(&mut space, 1);
        space.commit(vmem::PageRange::spanning(src, PAGE_SIZE as u64)).unwrap();
        let mut shadow = ShadowMap::new();
        let mut marker =
            Marker::new(SweepPlan::from_ranges(vec![(src, PAGE_SIZE as u64)]));
        let r = marker.step(&mut space, &mut shadow, 100, &mut MarkAccel::default());
        assert_eq!(r.words, 100);
        assert!(!r.finished);
        assert_eq!(marker.remaining_bytes(), PAGE_SIZE as u64 - 800);
        assert!(marker.has_passed(src + 792));
        assert!(!marker.has_passed(src + 800));
    }

    #[test]
    fn has_passed_uses_plan_order_not_address_order() {
        // Ranges deliberately out of address order: the cursor's notion of
        // "passed" must follow plan position, which the base-sorted index
        // has to map back to.
        let mut space = AddrSpace::new();
        let lo = heap(&mut space, 1);
        let hi = heap(&mut space, 1);
        space.commit(vmem::PageRange::spanning(lo, PAGE_SIZE as u64)).unwrap();
        space.commit(vmem::PageRange::spanning(hi, PAGE_SIZE as u64)).unwrap();
        // Plan visits `hi` first, then `lo`.
        let plan = SweepPlan::from_ranges(vec![
            (hi, PAGE_SIZE as u64),
            (lo, PAGE_SIZE as u64),
        ]);
        let mut shadow = ShadowMap::new();
        let mut marker = Marker::new(plan);
        assert!(!marker.has_passed(hi));
        assert!(!marker.has_passed(lo));
        assert!(!marker.has_passed(Addr::new(lo.raw() - 8)), "below every range");
        assert!(!marker.has_passed(hi + PAGE_SIZE as u64), "above every range");
        // Step through `hi` plus 10 words of `lo`.
        marker.step(&mut space, &mut shadow, 512 + 10, &mut MarkAccel::default());
        assert!(marker.has_passed(hi));
        assert!(marker.has_passed(hi + 8 * 511));
        assert!(marker.has_passed(lo + 72));
        assert!(!marker.has_passed(lo + 80));
        // Finish: everything in-plan is passed, out-of-plan never is.
        marker.step(&mut space, &mut shadow, u64::MAX, &mut MarkAccel::default());
        assert!(marker.has_passed(lo + (PAGE_SIZE as u64 - 8)));
        assert!(!marker.has_passed(hi + PAGE_SIZE as u64));
    }

    #[test]
    fn marker_skips_protected_pages() {
        let mut space = AddrSpace::new();
        let a = heap(&mut space, 2);
        space.commit(vmem::PageRange::spanning(a, 2 * PAGE_SIZE as u64)).unwrap();
        space
            .protect(vmem::PageRange::spanning(a, PAGE_SIZE as u64), Protection::None)
            .unwrap();
        space.write_word(a + PAGE_SIZE as u64, 7).unwrap();
        let mut shadow = ShadowMap::new();
        let mut marker =
            Marker::new(SweepPlan::from_ranges(vec![(a, 2 * PAGE_SIZE as u64)]));
        let r = marker.step(&mut space, &mut shadow, u64::MAX, &mut MarkAccel::default());
        assert_eq!(r.words, 512, "only the unprotected page is read");
    }

    #[test]
    fn sweeping_madvise_purged_page_demand_commits() {
        // The §4.5 failure mode: a naive sweep re-inflates purged memory.
        let mut space = AddrSpace::new();
        let a = heap(&mut space, 1);
        space.write_word(a, 1).unwrap();
        space.decommit(vmem::PageRange::spanning(a, PAGE_SIZE as u64)).unwrap();
        assert_eq!(space.rss_bytes(), 0);
        let mut shadow = ShadowMap::new();
        let mut marker = Marker::new(SweepPlan::from_ranges(vec![(a, PAGE_SIZE as u64)]));
        marker.step(&mut space, &mut shadow, u64::MAX, &mut MarkAccel::default());
        assert_eq!(space.rss_bytes(), PAGE_SIZE as u64, "sweep faulted the page back");
    }

    #[test]
    fn mark_page_rechecks_dirty_page() {
        let mut space = AddrSpace::new();
        let target = heap(&mut space, 1);
        let src = heap(&mut space, 1);
        space.write_word(src + 64, target.raw()).unwrap();
        let mut shadow = ShadowMap::new();
        let words = mark_page(&space, &mut shadow, src.page());
        assert_eq!(words, 512);
        assert!(shadow.is_marked(target));
    }

    /// Builds a pointer-dense multi-page fixture shared by the parallel
    /// equivalence tests: scattered real pointers plus junk words.
    fn scatter_fixture(space: &mut AddrSpace) -> (Vec<Addr>, SweepPlan) {
        let targets: Vec<Addr> = (0..8).map(|_| heap(space, 1)).collect();
        let src = heap(space, 4);
        for (i, t) in targets.iter().enumerate() {
            space.write_word(src + (i as u64 * 1000 + 8) * 8 % (4 * 4096), t.raw()).unwrap();
        }
        for i in 0..200u64 {
            space.write_word(src + (i * 37 % 2048) * 8, i).unwrap();
        }
        (targets, SweepPlan::from_ranges(vec![(src, 4 * PAGE_SIZE as u64)]))
    }

    /// Marks `plan` into a fresh map through a one-job pool — the
    /// single-arena parallel mark.
    fn pool_mark(
        space: &AddrSpace,
        plan: &SweepPlan,
        filter: Option<&CandidateFilter>,
        cache: Option<&PageCache>,
        forensics: Option<&EdgeRecorder>,
        opts: &PoolMarkOpts<'_>,
    ) -> (ShadowMap, ParallelMarkStats, MarkProfile) {
        let shadow = ShadowMap::new();
        let job = PoolMarkJob { space, plan, shadow: &shadow, filter, cache, forensics };
        let mut result = parallel_mark_pool(&[job], opts);
        let stats = result.per_job.pop().expect("one job");
        (shadow, stats, result.profile)
    }

    /// Pool options requesting `n` helper threads.
    fn helpers(n: usize) -> PoolMarkOpts<'static> {
        PoolMarkOpts { helper_threads: n, ..PoolMarkOpts::default() }
    }

    #[test]
    fn parallel_mark_agrees_with_serial() {
        let mut space = AddrSpace::new();
        let layout = *space.layout();
        let (targets, plan) = scatter_fixture(&mut space);

        let mut serial = ShadowMap::new();
        let mut marker = Marker::new(plan.clone());
        marker.step(&mut space, &mut serial, u64::MAX, &mut MarkAccel::default());

        // The seed's naive map, driven by the same plan via direct page
        // reads, is the oracle both implementations must agree with.
        let mut naive = NaiveShadowMap::new();
        for &(base, len) in plan.ranges() {
            for w in 0..len / 8 {
                if let Ok(Some(page)) = space.scan_page(base.add_bytes(w * 8).page()) {
                    let value = page[base.add_bytes(w * 8).word_in_page()];
                    if layout.heap_contains(Addr::new(value)) {
                        naive.mark(Addr::new(value));
                    }
                }
            }
        }
        assert_eq!(serial.marked_count(), naive.marked_count());

        for threads in [0, 1, 3, 6] {
            let (parallel, _, _) = pool_mark(&space, &plan, None, None, None, &helpers(threads));
            assert_eq!(
                parallel.marked_count(),
                serial.marked_count(),
                "helper_threads={threads}"
            );
            for t in &targets {
                assert_eq!(parallel.is_marked(*t), serial.is_marked(*t));
                assert_eq!(naive.is_marked(*t), serial.is_marked(*t));
            }
        }
    }

    #[test]
    fn parallel_mark_shared_map_matches_serial_mark_set_exactly() {
        // Stronger than spot-checking targets: every word of the shared
        // map's mark set must equal the serial set — union-freedom must
        // not lose or invent marks under contention. Pointers repeat
        // across thread shares so distinct threads race on the same bits.
        let mut space = AddrSpace::new();
        let targets: Vec<Addr> = (0..8).map(|_| heap(&mut space, 1)).collect();
        let src = heap(&mut space, 8);
        for w in 0..(8 * 512u64) {
            // Every 3rd word points at a target cycled by word index, so
            // each target recurs in every thread's share.
            if w % 3 == 0 {
                let t = targets[(w as usize / 3) % targets.len()];
                space.write_word(src + w * 8, t.raw() + (w % 64)).unwrap();
            }
        }
        let plan = SweepPlan::from_ranges(vec![(src, 8 * PAGE_SIZE as u64)]);
        let mut serial = ShadowMap::new();
        let mut marker = Marker::new(plan.clone());
        marker.step(&mut space, &mut serial, u64::MAX, &mut MarkAccel::default());
        for threads in [0, 1, 3, 6] {
            let (parallel, _, _) = pool_mark(&space, &plan, None, None, None, &helpers(threads));
            assert_eq!(parallel.marked_count(), serial.marked_count());
            for t in &targets {
                for off in (0..64).step_by(16) {
                    assert_eq!(
                        parallel.is_marked(*t + off),
                        serial.is_marked(*t + off),
                        "granule {t:?}+{off} helpers={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_mark_skips_unbacked_pages_without_committing() {
        let mut space = AddrSpace::new();
        let a = heap(&mut space, 4); // never touched: unbacked
        let plan = SweepPlan::from_ranges(vec![(a, 4 * PAGE_SIZE as u64)]);
        let (shadow, _, _) = pool_mark(&space, &plan, None, None, None, &helpers(3));
        assert!(shadow.is_empty());
        assert_eq!(space.rss_bytes(), 0, "peek-based marking must not commit");
    }

    /// Two-page heap fixture: page 0 holds pointers to `t0`/`t1`, page 1
    /// holds a pointer to `t1` only. Returns (src, t0, t1, plan).
    fn two_page_fixture(space: &mut AddrSpace) -> (Addr, Addr, Addr, SweepPlan) {
        let t0 = heap(space, 1);
        let t1 = heap(space, 1);
        let src = heap(space, 2);
        space.write_word(src + 16, t0.raw()).unwrap();
        space.write_word(src + 256, t1.raw()).unwrap();
        space.write_word(src + PAGE_SIZE as u64 + 8, t1.raw()).unwrap();
        (src, t0, t1, SweepPlan::from_ranges(vec![(src, 2 * PAGE_SIZE as u64)]))
    }

    #[test]
    fn cache_skip_replays_identical_marks() {
        let mut space = AddrSpace::new();
        let (src, t0, t1, plan) = two_page_fixture(&mut space);

        // Sweep 1: cold cache — every page scanned, digests recorded.
        let mut cache = PageCache::new();
        let dirty = space.snapshot_soft_dirty(vmem::PageRange::spanning(
            src,
            2 * PAGE_SIZE as u64,
        ));
        cache.begin_sweep(&plan, &dirty, 1);
        space.clear_soft_dirty();
        let mut full = ShadowMap::new();
        let r1 = Marker::new(plan.clone()).step(
            &mut space,
            &mut full,
            u64::MAX,
            &mut MarkAccel { cache: Some(&mut cache), ..MarkAccel::default() },
        );
        assert_eq!(r1.pages_skipped, 0, "cold cache skips nothing");
        assert_eq!(r1.words, 2 * 512);
        assert_eq!(r1.bytes, r1.words * 8 + r1.skipped_bytes);
        assert_eq!(cache.len(), 2);

        // Sweep 2: both pages clean — zero words read, same mark set.
        let dirty = space.snapshot_soft_dirty(vmem::PageRange::spanning(
            src,
            2 * PAGE_SIZE as u64,
        ));
        assert!(dirty.is_empty(), "nothing written since the clear");
        cache.begin_sweep(&plan, &dirty, 2);
        let mut inc = ShadowMap::new();
        let r2 = Marker::new(plan.clone()).step(
            &mut space,
            &mut inc,
            u64::MAX,
            &mut MarkAccel { cache: Some(&mut cache), ..MarkAccel::default() },
        );
        assert_eq!(r2.pages_skipped, 2);
        assert_eq!(r2.pages_replayed, 2, "both pages hold heap pointers");
        assert_eq!(r2.words, 0);
        assert_eq!(r2.skipped_bytes, 2 * PAGE_SIZE as u64);
        assert_eq!(r2.bytes, r2.words * 8 + r2.skipped_bytes);
        assert_eq!(inc.marked_count(), full.marked_count());
        assert!(inc.is_marked(t0) && inc.is_marked(t1));

        // Dirty one page: only it is re-read; marks still identical.
        space.write_word(src + 24, t0.raw()).unwrap();
        let dirty = space.snapshot_soft_dirty(vmem::PageRange::spanning(
            src,
            2 * PAGE_SIZE as u64,
        ));
        assert_eq!(dirty, vec![src.page()]);
        cache.begin_sweep(&plan, &dirty, 3);
        space.clear_soft_dirty();
        let mut inc2 = ShadowMap::new();
        let r3 = Marker::new(plan).step(
            &mut space,
            &mut inc2,
            u64::MAX,
            &mut MarkAccel { cache: Some(&mut cache), ..MarkAccel::default() },
        );
        assert_eq!(r3.pages_skipped, 1, "only the clean page skips");
        assert_eq!(r3.words, 512);
        assert_eq!(inc2.marked_count(), full.marked_count());
    }

    #[test]
    fn digest_survives_budget_split_steps() {
        // A page scanned across several budget-limited steps must still
        // record one complete digest — and replay it next sweep.
        let mut space = AddrSpace::new();
        let (src, _, _, plan) = two_page_fixture(&mut space);
        let mut cache = PageCache::new();
        cache.begin_sweep(&plan, &[], 1);
        space.clear_soft_dirty();
        let mut full = ShadowMap::new();
        let mut marker = Marker::new(plan.clone());
        let mut accel = MarkAccel { cache: Some(&mut cache), ..MarkAccel::default() };
        loop {
            if marker.step(&mut space, &mut full, 100, &mut accel).finished {
                break;
            }
        }
        assert_eq!(cache.len(), 2, "split scans still publish digests");

        let dirty = space.snapshot_soft_dirty(vmem::PageRange::spanning(
            src,
            2 * PAGE_SIZE as u64,
        ));
        cache.begin_sweep(&plan, &dirty, 2);
        let mut inc = ShadowMap::new();
        let r = Marker::new(plan).step(
            &mut space,
            &mut inc,
            u64::MAX,
            &mut MarkAccel { cache: Some(&mut cache), ..MarkAccel::default() },
        );
        assert_eq!(r.pages_skipped, 2);
        assert_eq!(inc.marked_count(), full.marked_count());
    }

    #[test]
    fn filter_preserves_candidate_marks_and_rejects_the_rest() {
        let mut space = AddrSpace::new();
        let (_, t0, t1, plan) = two_page_fixture(&mut space);

        // Only t1's page is a quarantine candidate.
        let filter = CandidateFilter::build([(t1, 64)]);
        let mut shadow = ShadowMap::new();
        let r = Marker::new(plan).step(
            &mut space,
            &mut shadow,
            u64::MAX,
            &mut MarkAccel { filter: Some(&filter), ..MarkAccel::default() },
        );
        assert!(shadow.is_marked(t1), "candidate marks preserved");
        assert!(!shadow.is_marked(t0), "non-candidate marks suppressed");
        assert_eq!(r.filter_rejects, 1, "one pointer to t0");
    }

    #[test]
    fn replay_applies_the_current_sweeps_filter() {
        // Digests are pre-filter: a page cached under one candidate set
        // must replay correctly under a different one.
        let mut space = AddrSpace::new();
        let (src, t0, t1, plan) = two_page_fixture(&mut space);
        let mut cache = PageCache::new();
        cache.begin_sweep(&plan, &[], 1);
        space.clear_soft_dirty();
        let f1 = CandidateFilter::build([(t1, 64)]);
        let mut s1 = ShadowMap::new();
        Marker::new(plan.clone()).step(
            &mut space,
            &mut s1,
            u64::MAX,
            &mut MarkAccel {
                filter: Some(&f1),
                cache: Some(&mut cache),
                qgen: 1,
                ..MarkAccel::default()
            },
        );
        assert!(!s1.is_marked(t0));

        // Next sweep: candidate set flips to t0. Clean pages replay, and
        // the replayed marks obey the *new* filter.
        let dirty = space.snapshot_soft_dirty(vmem::PageRange::spanning(
            src,
            2 * PAGE_SIZE as u64,
        ));
        cache.begin_sweep(&plan, &dirty, 2);
        let f2 = CandidateFilter::build([(t0, 64)]);
        let mut s2 = ShadowMap::new();
        let r = Marker::new(plan).step(
            &mut space,
            &mut s2,
            u64::MAX,
            &mut MarkAccel {
                filter: Some(&f2),
                cache: Some(&mut cache),
                qgen: 2,
                ..MarkAccel::default()
            },
        );
        assert_eq!(r.pages_skipped, 2, "filter change does not dirty pages");
        assert!(s2.is_marked(t0), "replay marks the new candidate");
        assert!(!s2.is_marked(t1), "replay suppresses the old one");
        assert_eq!(r.filter_rejects, 2, "two pointers to t1 rejected");
    }

    #[test]
    fn protected_skips_count_as_skipped_bytes() {
        let mut space = AddrSpace::new();
        let a = heap(&mut space, 2);
        space.commit(vmem::PageRange::spanning(a, 2 * PAGE_SIZE as u64)).unwrap();
        space
            .protect(vmem::PageRange::spanning(a, PAGE_SIZE as u64), Protection::None)
            .unwrap();
        let mut shadow = ShadowMap::new();
        let mut marker =
            Marker::new(SweepPlan::from_ranges(vec![(a, 2 * PAGE_SIZE as u64)]));
        let r = marker.step(
            &mut space,
            &mut shadow,
            u64::MAX,
            &mut MarkAccel::default(),
        );
        assert_eq!(r.words, 512);
        assert_eq!(r.skipped_bytes, PAGE_SIZE as u64);
        assert_eq!(r.bytes, 2 * PAGE_SIZE as u64);
        assert_eq!(r.bytes, r.words * 8 + r.skipped_bytes);
        assert_eq!(r.pages_skipped, 0, "protected skip is not a cache skip");
    }

    #[test]
    fn effective_helpers_clamp_to_hardware() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(effective_helper_count(0), 0);
        assert_eq!(effective_helper_count(usize::MAX), cores - 1);
        assert!(effective_helper_count(3) <= 3);
    }

    #[test]
    fn pooled_mark_with_filter_and_cache_agrees_with_serial() {
        let mut space = AddrSpace::new();
        let (targets, plan) = scatter_fixture(&mut space);
        let filter =
            CandidateFilter::build(targets.iter().map(|&t| (t, PAGE_SIZE as u64)));

        // Prime a cache serially, then run the parallel marker against it.
        let mut cache = PageCache::new();
        cache.begin_sweep(&plan, &[], 1);
        space.clear_soft_dirty();
        let mut serial = ShadowMap::new();
        Marker::new(plan.clone()).step(
            &mut space,
            &mut serial,
            u64::MAX,
            &mut MarkAccel {
                filter: Some(&filter),
                cache: Some(&mut cache),
                qgen: 1,
                ..MarkAccel::default()
            },
        );
        let dirty = space.snapshot_soft_dirty(vmem::PageRange::spanning(
            plan.ranges()[0].0,
            plan.total_bytes(),
        ));
        cache.begin_sweep(&plan, &dirty, 2);
        for threads in [0, 1, 3] {
            let (parallel, _, _) =
                pool_mark(&space, &plan, Some(&filter), Some(&cache), None, &helpers(threads));
            assert_eq!(parallel.marked_count(), serial.marked_count());
            for t in &targets {
                assert_eq!(parallel.is_marked(*t), serial.is_marked(*t));
            }
        }
    }

    #[test]
    fn forensics_recording_does_not_change_marks_or_accounting() {
        // Differential guarantee behind the forensics knob: an attached
        // recorder observes the sweep, it never alters it. Same plan,
        // with and without a recorder — shadow maps and every StepResult
        // field except pin_edges must be bit-identical.
        use crate::config::ForensicsMode;
        use crate::quarantine::QEntry;
        let mut space = AddrSpace::new();
        let (targets, plan) = scatter_fixture(&mut space);
        let entries: Vec<QEntry> = targets
            .iter()
            .map(|&t| QEntry {
                base: t,
                usable: 64,
                unmapped_pages: 0,
                failed: false,
                site: 0,
            })
            .collect();

        let mut plain = ShadowMap::new();
        let r_plain = Marker::new(plan.clone()).step(
            &mut space,
            &mut plain,
            u64::MAX,
            &mut MarkAccel::default(),
        );

        let rec = EdgeRecorder::new(&entries, ForensicsMode::Full).unwrap();
        let mut forensic = ShadowMap::new();
        let r_forensic = Marker::new(plan.clone()).step(
            &mut space,
            &mut forensic,
            u64::MAX,
            &mut MarkAccel { forensics: Some(&rec), ..MarkAccel::default() },
        );

        assert_eq!(forensic.marked_count(), plain.marked_count());
        for t in &targets {
            assert_eq!(forensic.is_marked(*t), plain.is_marked(*t));
        }
        assert_eq!(r_plain.pin_edges, 0, "no recorder, no edges");
        assert!(r_forensic.pin_edges > 0, "pointers into candidates recorded");
        assert_eq!(r_forensic.pin_edges, rec.recorded());
        assert_eq!(
            StepResult { pin_edges: 0, ..r_forensic },
            r_plain,
            "recording changes nothing but the edge count"
        );

        // The parallel marker shares the same recorder semantics.
        let rec_par = EdgeRecorder::new(&entries, ForensicsMode::Full).unwrap();
        let (parallel, _, _) = pool_mark(&space, &plan, None, None, Some(&rec_par), &helpers(3));
        assert_eq!(parallel.marked_count(), plain.marked_count());
        assert_eq!(rec_par.recorded(), rec.recorded());
    }

    #[test]
    fn parallel_stats_match_serial_step_result() {
        // The work-stealing totals must agree with the serial cursor's
        // accounting word for word: same filter_rejects, heap_words and
        // scanned words — that is what lets the layer's reconcile treat
        // the two paths interchangeably.
        let mut space = AddrSpace::new();
        let (targets, plan) = scatter_fixture(&mut space);
        let filter =
            CandidateFilter::build(targets.iter().take(3).map(|&t| (t, PAGE_SIZE as u64)));
        let mut serial = ShadowMap::new();
        let r = Marker::new(plan.clone()).step(
            &mut space,
            &mut serial,
            u64::MAX,
            &mut MarkAccel { filter: Some(&filter), ..MarkAccel::default() },
        );
        assert!(r.filter_rejects > 0 && r.heap_words > r.filter_rejects);
        for n in [0, 2, 5] {
            let (map, stats, _) = pool_mark(&space, &plan, Some(&filter), None, None, &helpers(n));
            assert_eq!(map.marked_count(), serial.marked_count());
            assert_eq!(stats.filter_rejects, r.filter_rejects, "helpers={n}");
            assert_eq!(stats.heap_words, r.heap_words);
            assert_eq!(stats.words, r.words);
            assert_eq!(stats.effective_helpers, effective_helper_count(n));
        }
    }

    #[test]
    fn work_stealing_is_deterministic_across_chunking() {
        // Chunk size changes claim granularity and order; helper count
        // changes interleaving. Neither may change the mark set or the
        // aggregated counters. An unaligned range start exercises the
        // mid-page chunk head.
        let mut space = AddrSpace::new();
        let (targets, plan) = scatter_fixture(&mut space);
        let (base, len) = plan.ranges()[0];
        let ragged =
            SweepPlan::from_ranges(vec![(base.add_bytes(24), len - 24 - 64), (base, 24)]);
        let filter =
            CandidateFilter::build(targets.iter().map(|&t| (t, PAGE_SIZE as u64)));
        let reference = pool_mark(&space, &ragged, Some(&filter), None, None, &helpers(0));
        for chunk_pages in [1, 2, 64, 1 << 20] {
            for n in [0, 1, 3, 7] {
                let opts = PoolMarkOpts {
                    helper_threads: n,
                    chunk_pages: Some(chunk_pages),
                    ..Default::default()
                };
                let (map, stats, _) = pool_mark(&space, &ragged, Some(&filter), None, None, &opts);
                assert_eq!(
                    map.marked_count(),
                    reference.0.marked_count(),
                    "chunk_pages={chunk_pages} helpers={n}"
                );
                for t in &targets {
                    assert_eq!(map.is_marked(*t), reference.0.is_marked(*t));
                }
                assert_eq!(stats.words, reference.1.words);
                assert_eq!(stats.heap_words, reference.1.heap_words);
                assert_eq!(stats.filter_rejects, reference.1.filter_rejects);
            }
        }
    }

    #[test]
    fn one_job_pool_replays_its_cached_root_pages() {
        // A one-job pool is the single-arena parallel mark: its owner's
        // pass over a root chunk must replay the arena's own page cache
        // exactly as the serial cursor does, not re-read the page.
        let mut space = AddrSpace::new();
        let candidate = heap(&mut space, 1);
        let live = heap(&mut space, 1);
        let stack = space.layout().segment_base(Segment::Stack);
        space.write_word(stack + 64, candidate.raw()).unwrap();
        space.write_word(stack + 128, live.raw()).unwrap();
        let src = heap(&mut space, 1);
        space.write_word(src + 8, candidate.raw()).unwrap();
        let plan = SweepPlan::build(&space, &[(src, PAGE_SIZE as u64)]);
        assert_eq!(plan.ranges()[0], (stack, PAGE_SIZE as u64), "one committed stack page");
        let filter = CandidateFilter::build([(candidate, 64)]);

        // Prime the cache with one serial sweep, then replay it serially.
        let mut cache = PageCache::new();
        cache.begin_sweep(&plan, &[], 1);
        space.clear_soft_dirty();
        let mut accel = MarkAccel { cache: Some(&mut cache), qgen: 1, ..MarkAccel::default() };
        Marker::new(plan.clone()).step(&mut space, &mut ShadowMap::new(), u64::MAX, &mut accel);
        cache.begin_sweep(&plan, &[], 2);
        let mut serial = ShadowMap::new();
        let r = Marker::new(plan.clone()).step(
            &mut space,
            &mut serial,
            u64::MAX,
            &mut MarkAccel {
                filter: Some(&filter),
                cache: Some(&mut cache),
                qgen: 2,
                ..MarkAccel::default()
            },
        );
        assert_eq!((r.words, r.pages_skipped), (0, 2), "both pages replay");
        assert_eq!(r.filter_rejects, 1, "the root pointer to `live`");

        for n in [0, 3] {
            let (map, stats, _) =
                pool_mark(&space, &plan, Some(&filter), Some(&cache), None, &helpers(n));
            assert_eq!(map.marked_count(), serial.marked_count(), "helpers={n}");
            assert!(map.is_marked(candidate) && !map.is_marked(live));
            assert_eq!(stats.words, r.words, "helpers={n}");
            assert_eq!(stats.heap_words, r.heap_words);
            assert_eq!(stats.pages_skipped, r.pages_skipped);
            assert_eq!(stats.pages_replayed, r.pages_replayed);
            assert_eq!(stats.filter_rejects, r.filter_rejects);
        }
    }

    #[test]
    fn profiler_attributes_without_changing_marks() {
        use crate::telem::{SweepProf, SWEEP_SUBSYSTEM};
        use telemetry::Registry;

        let mut space = AddrSpace::new();
        let (targets, plan) = scatter_fixture(&mut space);

        // Profiler off: the returned MarkProfile stays all-zero.
        let (plain, base, base_prof) = pool_mark(&space, &plan, None, None, None, &helpers(0));
        assert_eq!(base_prof, MarkProfile::default(), "off-mode profile must stay zero");

        // Profiler on: same marks and deterministic counters, plus
        // attribution in both the returned profile and the registry.
        let reg = Registry::new();
        let prof = SweepProf::register(&reg);
        let opts = PoolMarkOpts { helper_threads: 2, prof: Some(&prof), ..Default::default() };
        let (profiled, stats, profile) = pool_mark(&space, &plan, None, None, None, &opts);
        assert_eq!(profiled.marked_count(), plain.marked_count());
        assert_eq!(stats.words, base.words);
        assert_eq!(stats.heap_words, base.heap_words);
        assert_eq!(profile.chunks_claimed, stats.chunks, "every chunk claimed once");
        assert!(profile.chunks_stolen <= profile.chunks_claimed);
        assert!(profile.wall_ns > 0 && profile.busy_ns > 0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(SWEEP_SUBSYSTEM, "chunks_claimed"),
            Some(stats.chunks),
            "registry cells mirror the returned profile"
        );
        let per_chunk = snap.histogram(SWEEP_SUBSYSTEM, "chunk_scan_ns").unwrap();
        assert_eq!(per_chunk.count(), stats.chunks);
        let busy = snap.histogram(SWEEP_SUBSYSTEM, "helper_busy_pct").unwrap();
        assert_eq!(busy.count(), stats.effective_helpers as u64 + 1, "one sample per thread");
        assert!(
            snap.counter(SWEEP_SUBSYSTEM, "wc_direct").unwrap_or(0)
                + snap.counter(SWEEP_SUBSYSTEM, "wc_window_bits").unwrap_or(0)
                >= profiled.marked_count(),
            "every mark left the writer via the direct or window path"
        );

        // Serial cursor: step timing lands in step_scan_ns and the writer
        // counters fold on the same cells.
        let reg2 = Registry::new();
        let prof2 = SweepProf::register(&reg2);
        let mut shadow = ShadowMap::new();
        Marker::new(plan.clone()).step(
            &mut space,
            &mut shadow,
            u64::MAX,
            &mut MarkAccel { prof: Some(&prof2), ..MarkAccel::default() },
        );
        assert_eq!(shadow.marked_count(), plain.marked_count());
        let snap2 = reg2.snapshot();
        assert!(snap2.histogram(SWEEP_SUBSYSTEM, "step_scan_ns").unwrap().count() >= 1);
        assert!(
            snap2.counter(SWEEP_SUBSYSTEM, "wc_direct").unwrap_or(0)
                + snap2.counter(SWEEP_SUBSYSTEM, "wc_window_bits").unwrap_or(0)
                >= shadow.marked_count()
        );
        let _ = targets;
    }

    #[test]
    fn every_tier_produces_identical_step_results() {
        let mut space = AddrSpace::new();
        let (targets, plan) = scatter_fixture(&mut space);
        let filter =
            CandidateFilter::build(targets.iter().take(2).map(|&t| (t, PAGE_SIZE as u64)));
        let mut results = Vec::new();
        for &tier in crate::simd::available_tiers() {
            let mut shadow = ShadowMap::new();
            let r = Marker::new(plan.clone()).step(
                &mut space,
                &mut shadow,
                u64::MAX,
                &mut MarkAccel {
                    filter: Some(&filter),
                    tier: Some(tier),
                    ..MarkAccel::default()
                },
            );
            results.push((tier, r, shadow.marked_count()));
        }
        let (_, r0, m0) = results[0];
        for &(tier, r, m) in &results[1..] {
            assert_eq!(r, r0, "{tier:?} StepResult diverged");
            assert_eq!(m, m0, "{tier:?} mark set diverged");
        }
    }

    #[test]
    fn false_pointer_is_conservatively_marked() {
        // Figure 4's purple case: integer data that equals an allocation
        // address prevents deallocation.
        let mut space = AddrSpace::new();
        let victim = heap(&mut space, 1);
        let src = heap(&mut space, 1);
        space.write_word(src, victim.raw()).unwrap(); // "just an integer"
        let mut shadow = ShadowMap::new();
        let mut marker = Marker::new(SweepPlan::from_ranges(vec![(src, PAGE_SIZE as u64)]));
        marker.step(&mut space, &mut shadow, u64::MAX, &mut MarkAccel::default());
        assert!(shadow.range_marked(victim, 64), "false pointers retain allocations");
    }
}
