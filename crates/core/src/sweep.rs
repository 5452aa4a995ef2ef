//! The sweep: linear marking of program memory and stop-the-world
//! re-checks.
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
//! One thread marks. Both mark paths ([`Marker`], [`mark_page`]) take
//! `&mut ShadowMap` and write through its one
//! [`ShadowWriter`](crate::shadow::ShadowMap::writer). The paper's helper
//! threads (§4.4) are billed by the cost model, not run.
//!
//! Every scanned word — concurrent, STW re-mark or forensic — goes
//! through the single [`scan_words`] inner loop, whose classify pass is
//! the runtime-dispatched SIMD kernel in [`crate::simd`].

use vmem::{Addr, AddrSpace, Layout, MemError, PageIdx, PageRange, Segment, PAGE_SIZE, WORD_SIZE};

use crate::filter::CandidateFilter;
use crate::forensics::EdgeRecorder;
use crate::pagecache::PageCache;
use crate::shadow::{ShadowMap, ShadowWriter};
use crate::simd::{self, ScanTier};

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
    pub forensics: Option<&'a mut EdgeRecorder>,
    /// Scan-kernel tier override; `None` uses [`simd::active_tier`].
    /// Every tier produces bit-identical marks, digests and counts — the
    /// override exists for benchmarks and differential tests.
    pub tier: Option<ScanTier>,
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
        let mut writer = shadow.writer();
        let mut r = StepResult::default();
        let start_bytes = self.done_bytes;
        let edges_before = accel.forensics.as_deref().map_or(0, EdgeRecorder::recorded);
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
                                if let Some(rec) = accel.forensics.as_deref_mut() {
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
                        accel.forensics.as_deref_mut(),
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
            accel.forensics.as_deref().map_or(0, EdgeRecorder::recorded) - edges_before;
        r
    }
}

/// **The one inner mark loop.** Every scanned word — concurrent,
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
    mut rec: Option<&mut EdgeRecorder>,
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
                if let Some(rec) = rec.as_deref_mut() {
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
            let mut writer = shadow.writer();
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

    /// Builds a pointer-dense multi-page fixture: scattered real pointers
    /// plus junk words.
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

    #[test]
    fn marker_agrees_with_naive_reference() {
        let mut space = AddrSpace::new();
        let layout = *space.layout();
        let (targets, plan) = scatter_fixture(&mut space);

        let mut serial = ShadowMap::new();
        let mut marker = Marker::new(plan.clone());
        marker.step(&mut space, &mut serial, u64::MAX, &mut MarkAccel::default());

        // The seed's naive map, driven by the same plan via direct page
        // reads, is the oracle the marker must agree with.
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
        for t in &targets {
            assert_eq!(naive.is_marked(*t), serial.is_marked(*t));
        }
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

        let mut rec = EdgeRecorder::new(&entries, ForensicsMode::Full).unwrap();
        let mut forensic = ShadowMap::new();
        let r_forensic = Marker::new(plan.clone()).step(
            &mut space,
            &mut forensic,
            u64::MAX,
            &mut MarkAccel { forensics: Some(&mut rec), ..MarkAccel::default() },
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

    }

    #[test]
    fn marker_replays_cached_root_pages() {
        // A root page replays the page cache like a heap page does, and
        // the replay obeys the current filter.
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

        // Prime the cache with one sweep, then replay it.
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
        assert_eq!(r.pages_replayed, 2);
        assert!(serial.is_marked(candidate) && !serial.is_marked(live));
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
