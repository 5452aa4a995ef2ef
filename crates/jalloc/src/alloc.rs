//! The allocator facade: arenas, bins, extent recycling, purging.

use std::collections::BTreeSet;

use vmem::{Addr, AddrSpace, PageRange, Protection, PAGE_SIZE};

use crate::classes::SizeClasses;
use crate::config::{JallocConfig, PurgePolicy};
use crate::emap::{ExtentId, ExtentMap};
use crate::error::FreeError;
use crate::extent::{Extent, ExtentKind, FreeExtents};
use crate::stats::AllocStats;
use crate::tcache::Tcache;

/// A jemalloc-style heap allocator over a simulated address space.
///
/// All methods that can touch page mappings take the [`AddrSpace`]
/// explicitly; the allocator holds no reference to it, so the quarantine
/// layer above can interleave its own mapping operations freely.
///
/// See the [crate docs](crate) for design notes and an example.
#[derive(Debug)]
pub struct JAlloc {
    cfg: JallocConfig,
    classes: SizeClasses,
    /// Active extents, found by any address inside them.
    active: ExtentMap,
    /// Per class: bases of slabs with at least one free region.
    bins: Vec<BTreeSet<u64>>,
    free_extents: FreeExtents,
    tcache: Tcache,
    clock: u64,
    stats: AllocStats,
}

impl JAlloc {
    /// Creates an allocator with stock-JeMalloc configuration.
    pub fn new() -> Self {
        Self::with_config(JallocConfig::stock())
    }

    /// Creates an allocator with the given configuration.
    pub fn with_config(cfg: JallocConfig) -> Self {
        let classes = SizeClasses::new();
        let sizes: Vec<u64> = (0..classes.count()).map(|i| classes.size_of(i)).collect();
        JAlloc {
            cfg,
            bins: vec![BTreeSet::new(); sizes.len()],
            tcache: Tcache::new(&sizes),
            classes,
            active: ExtentMap::default(),
            free_extents: FreeExtents::new(),
            clock: 0,
            stats: AllocStats::default(),
        }
    }

    /// The configuration this allocator was built with.
    pub fn config(&self) -> &JallocConfig {
        &self.cfg
    }

    /// The size-class table.
    pub fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Advances the allocator's virtual clock (monotonic), which timestamps
    /// freed extents for decay purging.
    pub fn advance_clock(&mut self, now: u64) {
        self.clock = self.clock.max(now);
    }

    /// Current virtual time.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Allocates `size` bytes and returns the base address.
    ///
    /// With `end_padding` configured (the paper's modified JeMalloc) the
    /// effective request is `size + 1`, so one-past-the-end pointers remain
    /// inside the allocation (§3.2). Requests of zero bytes are served as
    /// one byte, like `malloc(0)` returning a unique pointer.
    pub fn malloc(&mut self, space: &mut AddrSpace, size: u64) -> Addr {
        self.stats.mallocs += 1;
        self.stats.requested_bytes += size;
        let req = size.max(1) + u64::from(self.cfg.end_padding);
        match self.classes.class_for(req) {
            Some(class) => self.malloc_small(space, class),
            None => self.malloc_large(space, req),
        }
    }

    fn malloc_small(&mut self, space: &mut AddrSpace, class: usize) -> Addr {
        let class_size = self.classes.size_of(class);
        self.stats.allocated_bytes += class_size;
        if self.cfg.tcache {
            if let Some(addr) = self.tcache.pop(class) {
                self.stats.tcache_hits += 1;
                return addr;
            }
        }
        self.malloc_small_arena(space, class)
    }

    fn malloc_small_arena(&mut self, space: &mut AddrSpace, class: usize) -> Addr {
        let class_size = self.classes.size_of(class);
        if let Some(&slab_base) = self.bins[class].first() {
            let slab = self.active.containing(Addr::new(slab_base));
            let ext = self.active.get_mut(slab.expect("binned slab is active"));
            let idx = ext.slab_alloc().expect("binned slab has a free region");
            if ext.slab_is_full() {
                self.bins[class].remove(&slab_base);
            }
            return Addr::new(slab_base) + idx * class_size;
        }
        // No partially-free slab: create one.
        let pages = self.classes.slab_pages(class);
        let regions = self.classes.regions_per_slab(class);
        let base = self.acquire_extent(space, pages);
        let mut ext = Extent::new_slab(base, pages, class, regions);
        let idx = ext.slab_alloc().expect("fresh slab has free regions");
        self.stats.slabs_created += 1;
        self.stats.active_extent_bytes += ext.byte_len();
        self.active.insert(ext);
        self.bins[class].insert(base.raw());
        base + idx * class_size
    }

    fn malloc_large(&mut self, space: &mut AddrSpace, req: u64) -> Addr {
        let pages = req.div_ceil(PAGE_SIZE as u64);
        let base = self.acquire_extent(space, pages);
        let ext = Extent::new_large(base, pages);
        self.stats.allocated_bytes += ext.byte_len();
        self.stats.active_extent_bytes += ext.byte_len();
        self.active.insert(ext);
        base
    }

    /// Obtains `pages` contiguous pages: best-fit recycle from the free
    /// cache (splitting any remainder back) or a fresh OS mapping. Recycled
    /// ranges get their protection restored; physical backing is whatever
    /// survives (dirty reuse — jemalloc does not zero).
    fn acquire_extent(&mut self, space: &mut AddrSpace, pages: u64) -> Addr {
        if let Some((base, info)) = self.free_extents.take_fit(pages) {
            if info.pages > pages {
                self.free_extents.insert(
                    base.add_bytes(pages * PAGE_SIZE as u64),
                    info.pages - pages,
                    info.freed_at,
                );
            }
            let range = PageRange::new(base.page(), pages);
            if self.cfg.purge_policy == PurgePolicy::CommitDecommit {
                space
                    .protect(range, Protection::ReadWrite)
                    .expect("recycled extent is mapped");
            }
            self.stats.extent_recycles += 1;
            return base;
        }
        let base = space.reserve_heap(pages);
        space.map(base, pages).expect("fresh heap VA is unmapped");
        self.stats.fresh_maps += 1;
        base
    }

    /// Frees the allocation whose base address is `addr`.
    ///
    /// # Errors
    ///
    /// [`FreeError::InvalidPointer`] if `addr` is not the base of a live
    /// allocation; [`FreeError::DoubleFree`] if the region is already free
    /// (including regions parked in the tcache). These are the
    /// undefined-behaviour events a quarantine layer must never forward.
    pub fn free(&mut self, space: &mut AddrSpace, addr: Addr) -> Result<(), FreeError> {
        let id = self
            .active
            .containing(addr)
            .ok_or(FreeError::InvalidPointer(addr))?;
        let ext = self.active.get(id);
        match ext.kind {
            ExtentKind::Large => {
                if addr != ext.base {
                    return Err(FreeError::InvalidPointer(addr));
                }
                let ext = self.active.remove(id);
                self.stats.allocated_bytes -= ext.byte_len();
                self.stats.active_extent_bytes -= ext.byte_len();
                self.stats.frees += 1;
                self.release_extent(ext.base, ext.pages);
                let _ = space; // large frees touch no pages here
                Ok(())
            }
            ExtentKind::Slab { class, .. } => {
                let class_size = self.classes.size_of(class);
                let offset = addr - ext.base;
                if !offset.is_multiple_of(class_size) {
                    return Err(FreeError::InvalidPointer(addr));
                }
                if !ext.slab_region_live(offset / class_size) {
                    return Err(FreeError::DoubleFree(addr));
                }
                if self.cfg.tcache {
                    if self.tcache_contains(class, addr) {
                        return Err(FreeError::DoubleFree(addr));
                    }
                    self.stats.allocated_bytes -= class_size;
                    self.stats.frees += 1;
                    if !self.tcache.push(class, addr) {
                        for old in self.tcache.flush_half(class) {
                            let slab = self.active.containing(old);
                            let slab = slab.expect("tcache region is in a slab");
                            self.release_region(old, slab, class);
                        }
                        assert!(self.tcache.push(class, addr), "bin just flushed");
                    }
                    Ok(())
                } else {
                    self.stats.allocated_bytes -= class_size;
                    self.stats.frees += 1;
                    self.release_region(addr, id, class);
                    Ok(())
                }
            }
        }
    }

    fn tcache_contains(&self, class: usize, addr: Addr) -> bool {
        self.tcache.contains(class, addr)
    }

    /// Returns a region to its slab; retires the slab when it empties.
    fn release_region(&mut self, addr: Addr, slab: ExtentId, class: usize) {
        let ext = self.active.get_mut(slab);
        let slab_base = ext.base.raw();
        let idx = (addr - ext.base) / self.classes.size_of(class);
        let was_full = ext.slab_is_full();
        ext.slab_free(idx).expect("region was live");
        if was_full {
            self.bins[class].insert(slab_base);
        }
        if ext.slab_used() == 0 {
            let ext = self.active.remove(slab);
            self.bins[class].remove(&slab_base);
            self.stats.active_extent_bytes -= ext.byte_len();
            self.release_extent(ext.base, ext.pages);
        }
    }

    fn release_extent(&mut self, base: Addr, pages: u64) {
        self.free_extents.insert(base, pages, self.clock);
    }

    /// Usable size of the live allocation based at `addr` (class size for
    /// small, page span for large), or `None` if `addr` is not a live
    /// allocation base.
    pub fn usable_size(&self, addr: Addr) -> Option<u64> {
        let (base, len) = self.allocation_range(addr)?;
        (base == addr).then_some(len)
    }

    /// The live allocation containing `addr`, as `(base, usable_size)`.
    /// Regions parked in the tcache still count as arena-live here (their
    /// slab bits are set), matching what a sweep of allocator state sees.
    pub fn allocation_range(&self, addr: Addr) -> Option<(Addr, u64)> {
        let ext = self.active.get(self.active.containing(addr)?);
        match ext.kind {
            ExtentKind::Large => Some((ext.base, ext.byte_len())),
            ExtentKind::Slab { class, .. } => {
                let class_size = self.classes.size_of(class);
                let idx = (addr - ext.base) / class_size;
                ext.slab_region_live(idx)
                    .then(|| (ext.base + idx * class_size, class_size))
            }
        }
    }

    /// Address-ordered list of active extents as `(base, byte_len)`. These
    /// are the heap ranges a memory sweep must examine (§3.2 — slightly
    /// extending the allocator API "to efficiently identify active memory
    /// ranges" and "exclude allocator metadata structures"; metadata here
    /// is out-of-line Rust state, so exclusion is inherent).
    pub fn active_ranges(&self) -> Vec<(Addr, u64)> {
        let mut ranges: Vec<(Addr, u64)> =
            self.active.iter().map(|e| (e.base, e.byte_len())).collect();
        ranges.sort_unstable_by_key(|&(base, _)| base);
        ranges
    }

    /// Address-ordered list of free (recyclable) extents as
    /// `(base, byte_len)`.
    pub fn free_ranges(&self) -> Vec<(Addr, u64)> {
        self.free_extents
            .iter()
            .map(|(base, pages)| (base, pages * PAGE_SIZE as u64))
            .collect()
    }

    /// Total bytes held in the free-extent cache.
    pub fn free_extent_bytes(&self) -> u64 {
        self.free_extents.total_pages() * PAGE_SIZE as u64
    }

    /// Bytes in free extents that still hold committed (dirty) pages.
    pub fn free_committed_bytes(&self, space: &AddrSpace) -> u64 {
        self.free_extents
            .iter()
            .map(|(base, pages)| {
                space.committed_pages_in(PageRange::new(base.page(), pages))
                    * PAGE_SIZE as u64
            })
            .sum()
    }

    /// Purges free extents older than the decay window: their pages are
    /// decommitted (and protected under
    /// [`PurgePolicy::CommitDecommit`]). Models jemalloc's background decay
    /// purging.
    pub fn purge_aged(&mut self, space: &mut AddrSpace) {
        let aged = self.free_extents.aged(self.clock, self.cfg.decay_cycles);
        self.purge_ranges(space, &aged);
    }

    /// Purges **all** free extents immediately. MineSweeper triggers this
    /// after every sweep (§4.5): "allocators with large, variable-sized
    /// quarantines must clean their free structures more aggressively".
    pub fn purge_all(&mut self, space: &mut AddrSpace) {
        self.stats.purge_all_calls += 1;
        let all: Vec<(Addr, u64)> = self.free_extents.iter().collect();
        self.purge_ranges(space, &all);
    }

    fn purge_ranges(&mut self, space: &mut AddrSpace, ranges: &[(Addr, u64)]) {
        for &(base, pages) in ranges {
            let range = PageRange::new(base.page(), pages);
            self.stats.purged_pages += space.committed_pages_in(range);
            space.decommit(range).expect("free extent is mapped");
            if self.cfg.purge_policy == PurgePolicy::CommitDecommit {
                space.protect(range, Protection::None).expect("free extent is mapped");
            }
        }
    }

    /// Flushes the thread cache back to the arena (thread teardown, or the
    /// enhanced cleanup MineSweeper performs with sweeps).
    pub fn flush_tcache(&mut self) {
        for (class, addr) in self.tcache.flush_all() {
            let slab = self.active.containing(addr).expect("tcache region is in a slab");
            self.release_region(addr, slab, class);
        }
    }
}

impl Default for JAlloc {
    fn default() -> Self {
        JAlloc::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AddrSpace, JAlloc) {
        (AddrSpace::new(), JAlloc::new())
    }

    #[test]
    fn small_allocations_come_from_one_slab() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 32);
        let b = heap.malloc(&mut space, 32);
        assert_eq!(b - a, 32, "adjacent regions of the same slab");
        assert_eq!(heap.stats().slabs_created, 1);
    }

    #[test]
    fn distinct_classes_use_distinct_slabs() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 32);
        let b = heap.malloc(&mut space, 100);
        assert_ne!(a.page(), b.page());
        assert_eq!(heap.stats().slabs_created, 2);
    }

    #[test]
    fn end_padding_bumps_class() {
        let mut space = AddrSpace::new();
        let mut padded = JAlloc::with_config(JallocConfig::minesweeper());
        let a = padded.malloc(&mut space, 32); // 33 B -> class 48
        assert_eq!(padded.usable_size(a), Some(48));
        let mut stock = JAlloc::new();
        let b = stock.malloc(&mut space, 32);
        assert_eq!(stock.usable_size(b), Some(32));
    }

    #[test]
    fn large_allocation_is_page_granular() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 100_000);
        assert!(a.is_aligned(PAGE_SIZE as u64));
        assert_eq!(heap.usable_size(a), Some(25 * PAGE_SIZE as u64));
    }

    #[test]
    fn free_and_reuse_through_tcache() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 64);
        heap.free(&mut space, a).unwrap();
        let b = heap.malloc(&mut space, 64);
        assert_eq!(a, b, "tcache returns the hot region");
        assert_eq!(heap.stats().tcache_hits, 1);
    }

    #[test]
    fn double_free_detected_even_in_tcache() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 64);
        heap.free(&mut space, a).unwrap();
        assert_eq!(heap.free(&mut space, a), Err(FreeError::DoubleFree(a)));
    }

    #[test]
    fn double_free_detected_in_arena() {
        let mut space = AddrSpace::new();
        let mut heap =
            JAlloc::with_config(JallocConfig { tcache: false, ..JallocConfig::stock() });
        let a = heap.malloc(&mut space, 64);
        let _keep = heap.malloc(&mut space, 64); // keep slab alive
        heap.free(&mut space, a).unwrap();
        assert_eq!(heap.free(&mut space, a), Err(FreeError::DoubleFree(a)));
    }

    #[test]
    fn wild_pointer_free_rejected() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 64);
        assert_eq!(
            heap.free(&mut space, a + 8),
            Err(FreeError::InvalidPointer(a + 8)),
            "interior pointer"
        );
        let wild = Addr::new(0x9999_0000_0000);
        assert_eq!(heap.free(&mut space, wild), Err(FreeError::InvalidPointer(wild)));
    }

    #[test]
    fn empty_slab_retires_to_free_cache() {
        let mut space = AddrSpace::new();
        let mut heap =
            JAlloc::with_config(JallocConfig { tcache: false, ..JallocConfig::stock() });
        let a = heap.malloc(&mut space, 4096);
        heap.free(&mut space, a).unwrap();
        // 4096-byte class slab: 4 regions over 4 pages; one alloc+free
        // leaves it empty, so it must retire.
        assert_eq!(heap.active_ranges().len(), 0);
        assert!(heap.free_extent_bytes() > 0);
    }

    #[test]
    fn large_free_recycles_extent() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 10 * PAGE_SIZE as u64);
        space.write_word(a, 7).unwrap();
        heap.free(&mut space, a).unwrap();
        let b = heap.malloc(&mut space, 10 * PAGE_SIZE as u64);
        assert_eq!(a, b, "best-fit recycles the same extent");
        assert_eq!(heap.stats().extent_recycles, 1);
        assert_eq!(space.read_word(b).unwrap(), 7, "dirty reuse: no zeroing");
    }

    #[test]
    fn purge_all_decommits_free_extents() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 10 * PAGE_SIZE as u64);
        space.write_word(a, 7).unwrap();
        heap.free(&mut space, a).unwrap();
        assert!(space.rss_bytes() > 0);
        heap.purge_all(&mut space);
        assert_eq!(space.rss_bytes(), 0);
        // Madvise policy: the range demand-zeroes on next touch.
        assert_eq!(space.read_word(a).unwrap(), 0);
    }

    #[test]
    fn commit_decommit_policy_protects_purged_ranges() {
        let mut space = AddrSpace::new();
        let mut heap = JAlloc::with_config(JallocConfig::minesweeper());
        let a = heap.malloc(&mut space, 10 * PAGE_SIZE as u64);
        space.write_word(a, 7).unwrap();
        heap.free(&mut space, a).unwrap();
        heap.purge_all(&mut space);
        assert!(space.read_word(a).is_err(), "purged range must fault, not fault-in");
        // Reuse restores access.
        let b = heap.malloc(&mut space, 10 * PAGE_SIZE as u64);
        assert_eq!(a, b);
        assert_eq!(space.read_word(b).unwrap(), 0, "decommit discarded contents");
    }

    #[test]
    fn decay_purging_respects_age() {
        let mut space = AddrSpace::new();
        let mut heap = JAlloc::with_config(JallocConfig {
            decay_cycles: 1000,
            ..JallocConfig::stock()
        });
        let a = heap.malloc(&mut space, 10 * PAGE_SIZE as u64);
        space.write_word(a, 7).unwrap();
        heap.advance_clock(100);
        heap.free(&mut space, a).unwrap();
        heap.purge_aged(&mut space);
        assert!(space.rss_bytes() > 0, "too young to purge");
        heap.advance_clock(2000);
        heap.purge_aged(&mut space);
        assert_eq!(space.rss_bytes(), 0, "aged extent purged");
    }

    #[test]
    fn allocation_range_finds_interior_pointers() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 200); // class 224
        let (base, len) = heap.allocation_range(a + 100).unwrap();
        assert_eq!(base, a);
        assert_eq!(len, 224);
        assert!(heap.allocation_range(Addr::new(0x5000_0000_0000)).is_none());
    }

    #[test]
    fn allocated_bytes_track_class_rounding() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 100); // class 112
        assert_eq!(heap.stats().allocated_bytes, 112);
        assert_eq!(heap.stats().requested_bytes, 100);
        heap.free(&mut space, a).unwrap();
        assert_eq!(heap.stats().allocated_bytes, 0);
        assert_eq!(heap.stats().live_allocations(), 0);
    }

    #[test]
    fn malloc_zero_returns_usable_allocation() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 0);
        assert!(heap.usable_size(a).unwrap() >= 1);
        heap.free(&mut space, a).unwrap();
    }

    #[test]
    fn flush_tcache_retires_empty_slabs() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 64);
        heap.free(&mut space, a).unwrap();
        assert_eq!(heap.active_ranges().len(), 1, "slab pinned by tcache");
        heap.flush_tcache();
        assert_eq!(heap.active_ranges().len(), 0, "flushed slab retires");
    }

    #[test]
    fn active_ranges_cover_live_allocations() {
        let (mut space, mut heap) = setup();
        let small = heap.malloc(&mut space, 64);
        let large = heap.malloc(&mut space, 5 * PAGE_SIZE as u64);
        let ranges = heap.active_ranges();
        let covered = |p: Addr| ranges.iter().any(|&(b, l)| p >= b && p < b.add_bytes(l));
        assert!(covered(small));
        assert!(covered(large));
        assert!(covered(large.add_bytes(5 * PAGE_SIZE as u64 - 8)));
    }

    #[test]
    fn churn_frees_every_extent_map_leaf() {
        // Like vmem's monotone-VA churn test: once every allocation is
        // freed, no leaf of the page -> extent map survives, and the slot
        // store is exactly as long as the peak number of active extents.
        let (mut space, mut heap) = setup();
        let (mut peak_extents, mut peak_leaves) = (0, 0);
        let mut live = Vec::new();
        for round in 0..64u64 {
            for i in 0..40 {
                live.push(heap.malloc(&mut space, (round * 131 + i * 37) % 3000 + 1));
            }
            live.push(heap.malloc(&mut space, (round % 9 + 1) * 100 * PAGE_SIZE as u64));
            peak_extents = peak_extents.max(heap.active.iter().count());
            peak_leaves = peak_leaves.max(heap.active.resident_leaves());
            // Keep every third allocation for a while, so extents of
            // different ages interleave across leaves.
            let mut keep = Vec::new();
            for (i, a) in live.drain(..).enumerate() {
                if i % 3 == 0 && round % 4 != 3 {
                    keep.push(a);
                } else {
                    heap.free(&mut space, a).unwrap();
                }
            }
            live = keep;
        }
        for a in live {
            heap.free(&mut space, a).unwrap();
        }
        heap.flush_tcache();
        assert!(peak_leaves > 1, "churn spanned {peak_leaves} leaf");
        assert_eq!(heap.active_ranges(), vec![]);
        assert_eq!(heap.active.resident_leaves(), 0, "no leaf survives");
        assert_eq!(heap.active.slot_capacity(), peak_extents);
    }

    #[test]
    fn fragmentation_split_and_coalesce() {
        let (mut space, mut heap) = setup();
        let a = heap.malloc(&mut space, 16 * PAGE_SIZE as u64);
        heap.free(&mut space, a).unwrap();
        // Best-fit splits the 16-page extent (both sizes are > SMALL_MAX).
        let b = heap.malloc(&mut space, 4 * PAGE_SIZE as u64);
        assert_eq!(b, a);
        assert_eq!(heap.free_extent_bytes(), 12 * PAGE_SIZE as u64);
        // Freeing coalesces back to one extent.
        heap.free(&mut space, b).unwrap();
        assert_eq!(heap.free_ranges().len(), 1);
        assert_eq!(heap.free_extent_bytes(), 16 * PAGE_SIZE as u64);
    }
}
