//! Soft-dirty page-summary cache: skip re-reading provably-clean pages.
//!
//! The sweep is linear over every committed word of the plan (§3.2), but
//! between two sweeps most pages are untouched — the kernel's soft-dirty
//! tracking (already used for the mostly-concurrent stop-the-world pass,
//! §4.3) proves it. This cache records, for each fully scanned page, a
//! compact digest: the **pre-filter** list of heap-pointing word values
//! the page contained. On the next sweep, a page whose soft-dirty bit is
//! clear skips the 512-word re-read entirely and replays its digest into
//! the shadow map instead.
//!
//! ## Invalidation rules
//!
//! A digest is only ever replayed for a page whose contents are provably
//! unchanged since it was recorded:
//!
//! * **written** pages are soft-dirty ([`vmem::AddrSpace::write_word`] /
//!   `fill_zero`);
//! * **decommitted** and freshly **committed** pages are marked soft-dirty
//!   by `vmem` (contents observably change to zeroes);
//! * **reprotected** pages are marked soft-dirty on any protection change;
//! * **unmapped** pages (and pages that left the sweep plan) lose their
//!   entries at [`PageCache::begin_sweep`]: an entry survives only if its
//!   page is fully covered by the current plan *and* absent from the
//!   sweep's dirty snapshot — and the snapshot reports unmapped, unbacked,
//!   protected and alias pages as dirty.
//!
//! ## Quarantine staleness
//!
//! Digests are recorded **before** the candidate filter
//! ([`crate::CandidateFilter`]), so quarantine membership changes can
//! never make a cached mark stale: replay re-applies the *current*
//! sweep's filter to the digest (one bit test per candidate), which is
//! exactly what re-scanning the unchanged page would compute. Entries are
//! still epoch-tagged with the [`crate::Quarantine::generation`] they
//! were recorded under — the tag documents which candidate set produced
//! the digest and lets [`PageCache::invalidate_all`] retire every entry
//! with a single epoch bump, O(1), never a scan.

use telemetry::IdMap;
#[cfg(test)]
use vmem::Addr;
use vmem::{PageIdx, PAGE_SIZE, WORD_SIZE};

use crate::sweep::SweepPlan;

/// One page's recorded summary.
#[derive(Clone, Debug)]
struct PageEntry {
    /// Sweep epoch the digest was recorded in (entries older than the
    /// cache's `min_epoch` are dead — see [`PageCache::invalidate_all`]).
    epoch: u64,
    /// Quarantine generation the digest was recorded under.
    qgen: u64,
    /// Heap-pointing word values found on the page, pre-filter.
    targets: Box<[u64]>,
}

/// Per-page sweep summaries keyed by page index.
///
/// Owned by the layer across sweeps; consumed by the marker through
/// [`crate::MarkAccel`].
#[derive(Clone, Debug, Default)]
pub struct PageCache {
    entries: IdMap<u64, PageEntry>,
    /// Current sweep epoch (monotonic, supplied by the layer).
    epoch: u64,
    /// Entries recorded before this epoch are invalid.
    min_epoch: u64,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Opens a sweep epoch: records the epoch, then retires every entry
    /// that is no longer replayable — pages in the sweep's dirty snapshot
    /// (`dirty`, sorted, from [`vmem::AddrSpace::snapshot_soft_dirty`])
    /// and pages not fully covered by the current `plan` (a page that left
    /// the plan may be written while its soft-dirty history is not being
    /// tracked by any sweep, so its digest can silently go stale).
    pub fn begin_sweep(&mut self, plan: &SweepPlan, dirty: &[PageIdx], epoch: u64) {
        self.epoch = epoch;
        let min_epoch = self.min_epoch;
        let mut covered: Vec<(u64, u64)> = plan
            .ranges()
            .iter()
            .filter_map(|&(base, len)| {
                // First and last partially-covered pages don't count.
                let first = base.page().raw() + u64::from(!base.is_aligned(PAGE_SIZE as u64));
                let end = base.add_bytes(len).raw() / PAGE_SIZE as u64;
                (end > first).then_some((first, end))
            })
            .collect();
        covered.sort_unstable();
        self.entries.retain(|&page, e| {
            e.epoch >= min_epoch
                && dirty.binary_search(&PageIdx::new(page)).is_err()
                && covered
                    .partition_point(|&(first, _)| first <= page)
                    .checked_sub(1)
                    .is_some_and(|i| page < covered[i].1)
        });
    }

    /// The digest for `page`, if a valid entry exists. Replay applies the
    /// current filter to each returned value; an empty slice means the
    /// page is known to contain no heap pointers at all.
    pub fn lookup(&self, page: PageIdx) -> Option<&[u64]> {
        self.entries
            .get(&page.raw())
            .filter(|e| e.epoch >= self.min_epoch)
            .map(|e| &*e.targets)
    }

    /// Records a freshly scanned page's digest under the current epoch.
    pub fn record(&mut self, page: PageIdx, qgen: u64, targets: Vec<u64>) {
        self.entries.insert(
            page.raw(),
            PageEntry { epoch: self.epoch, qgen, targets: targets.into_boxed_slice() },
        );
    }

    /// Drops one page's entry (explicit invalidation hook).
    pub fn invalidate(&mut self, page: PageIdx) {
        self.entries.remove(&page.raw());
    }

    /// Retires every entry in O(1): entries recorded before the next
    /// epoch stop resolving, and `begin_sweep` lazily reclaims them.
    pub fn invalidate_all(&mut self) {
        self.min_epoch = self.epoch + 1;
    }

    /// Number of live (replayable as of the last `begin_sweep`) entries.
    pub fn len(&self) -> usize {
        self.entries.values().filter(|e| e.epoch >= self.min_epoch).count()
    }

    /// Whether no live entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Quarantine generation a cached page was recorded under, if cached.
    pub fn recorded_generation(&self, page: PageIdx) -> Option<u64> {
        self.entries
            .get(&page.raw())
            .filter(|e| e.epoch >= self.min_epoch)
            .map(|e| e.qgen)
    }

    /// Approximate resident size of the cache in bytes (telemetry).
    pub fn footprint_bytes(&self) -> u64 {
        self.entries
            .values()
            .map(|e| (e.targets.len() * WORD_SIZE) as u64 + 32)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = PAGE_SIZE as u64;

    fn plan(ranges: &[(u64, u64)]) -> SweepPlan {
        SweepPlan::from_ranges(
            ranges.iter().map(|&(b, l)| (Addr::new(b), l)).collect(),
        )
    }

    #[test]
    fn record_then_lookup_round_trips() {
        let mut c = PageCache::new();
        let page = Addr::new(0x1_0000_0000).page();
        c.begin_sweep(&plan(&[(0x1_0000_0000, 4 * P)]), &[], 1);
        c.record(page, 7, vec![0x2_0000_0000, 0x2_0000_0040]);
        assert_eq!(c.lookup(page), Some(&[0x2_0000_0000, 0x2_0000_0040][..]));
        assert_eq!(c.recorded_generation(page), Some(7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn dirty_pages_lose_their_entries() {
        let mut c = PageCache::new();
        let p0 = Addr::new(0x1_0000_0000).page();
        let p1 = Addr::new(0x1_0000_0000 + P).page();
        c.begin_sweep(&plan(&[(0x1_0000_0000, 2 * P)]), &[], 1);
        c.record(p0, 0, vec![1]);
        c.record(p1, 0, vec![2]);
        c.begin_sweep(&plan(&[(0x1_0000_0000, 2 * P)]), &[p1], 2);
        assert!(c.lookup(p0).is_some());
        assert!(c.lookup(p1).is_none(), "dirty page retired");
    }

    #[test]
    fn pages_leaving_the_plan_are_retired() {
        let mut c = PageCache::new();
        let p0 = Addr::new(0x1_0000_0000).page();
        c.begin_sweep(&plan(&[(0x1_0000_0000, P)]), &[], 1);
        c.record(p0, 0, vec![1]);
        // Next sweep's plan no longer covers the page.
        c.begin_sweep(&plan(&[(0x1_0000_0000 + 8 * P, P)]), &[], 2);
        assert!(c.lookup(p0).is_none());
    }

    #[test]
    fn partially_covered_pages_never_survive() {
        let mut c = PageCache::new();
        let p0 = Addr::new(0x1_0000_0000).page();
        c.begin_sweep(&plan(&[(0x1_0000_0000, 2 * P)]), &[], 1);
        c.record(p0, 0, vec![1]);
        // The plan now covers only half of the page: the digest would
        // replay marks the scan wouldn't find (or miss coverage), so out.
        c.begin_sweep(&plan(&[(0x1_0000_0000 + P / 2, P)]), &[], 2);
        assert!(c.lookup(p0).is_none());
    }

    #[test]
    fn invalidate_all_is_an_epoch_bump() {
        let mut c = PageCache::new();
        let p0 = Addr::new(0x1_0000_0000).page();
        c.begin_sweep(&plan(&[(0x1_0000_0000, P)]), &[], 1);
        c.record(p0, 3, vec![1, 2, 3]);
        c.invalidate_all();
        assert!(c.lookup(p0).is_none());
        assert!(c.is_empty());
        // Entries recorded after the bump resolve again.
        c.begin_sweep(&plan(&[(0x1_0000_0000, P)]), &[], 2);
        c.record(p0, 4, vec![9]);
        assert_eq!(c.lookup(p0), Some(&[9u64][..]));
    }
}
