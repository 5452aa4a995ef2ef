//! The simulated address space: mapping, commit, protection, access.

use crate::addr::{Addr, PageIdx, PageRange, PAGE_SIZE, WORD_SIZE};
use crate::error::MemError;
use crate::layout::{Layout, Segment};
use crate::page::{HeapMap, PageSlot, Protection};
use crate::stats::MemStats;
use crate::table::PageTable;

/// A simulated 64-bit virtual address space.
///
/// This is the substrate every allocator and mitigation in the workspace
/// runs on. It distinguishes *mapped* pages (VA reserved) from *committed*
/// pages (physically backed, counted in RSS), supports `mprotect`-style
/// protection, demand paging, and Linux-style soft-dirty write tracking.
///
/// Reads and writes are word-granular (8 bytes, aligned): the sweep only
/// ever inspects aligned words (§3.2 — "MineSweeper is designed to find
/// pointers that are correctly aligned"), and modelling sub-word accesses
/// would add nothing to the reproduction.
///
/// # Example
///
/// ```
/// use vmem::{AddrSpace, Protection, PageRange, PAGE_SIZE, MemError};
///
/// # fn main() -> Result<(), MemError> {
/// let mut space = AddrSpace::new();
/// let a = space.reserve_heap(1);
/// space.map(a, 1)?;
/// space.write_word(a, 7)?;
///
/// // Decommit + protect, like a quarantined large allocation (§4.2):
/// let pages = PageRange::spanning(a, PAGE_SIZE as u64);
/// space.decommit(pages)?;
/// space.protect(pages, Protection::None)?;
/// assert_eq!(space.read_word(a), Err(MemError::Protected(a)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AddrSpace {
    layout: Layout,
    pages: PageTable,
    heap_cursor: Addr,
    stats: MemStats,
}

impl AddrSpace {
    /// Creates an empty address space with the default [`Layout`] and the
    /// globals and stack segments pre-mapped (they exist for the lifetime of
    /// a process image).
    pub fn new() -> Self {
        Self::with_layout(Layout::default())
    }

    /// Creates an empty address space with a custom layout.
    pub fn with_layout(layout: Layout) -> Self {
        let mut space = AddrSpace {
            layout,
            pages: PageTable::default(),
            heap_cursor: layout.segment_base(Segment::Heap),
            stats: MemStats::default(),
        };
        for seg in [Segment::Globals, Segment::Stack] {
            space
                .map(layout.segment_base(seg), layout.segment_pages(seg))
                .expect("fresh layout segments cannot overlap");
        }
        space
    }

    /// The address-space layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Current resident set size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        self.stats.rss_bytes()
    }

    /// Currently mapped virtual memory in bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.stats.mapped_bytes()
    }

    /// Reserves `pages` pages of fresh heap virtual address space and
    /// returns the base address. The range is *not* mapped; allocators call
    /// [`AddrSpace::map`] when they actually use it. Reservations are
    /// monotonically increasing, which is what both JeMalloc extents (via
    /// `sbrk`, per the artifact's modification) and FFmalloc's one-time
    /// allocator rely on.
    ///
    /// # Panics
    ///
    /// Panics if the heap segment is exhausted (1 TiB by default).
    pub fn reserve_heap(&mut self, pages: u64) -> Addr {
        let base = self.heap_cursor;
        let end = base.add_bytes(pages * PAGE_SIZE as u64);
        assert!(
            end <= self.layout.segment_end(Segment::Heap),
            "heap segment exhausted at {base}"
        );
        self.heap_cursor = end;
        base
    }

    /// Maps `pages` pages starting at page-aligned `addr` (uncommitted,
    /// read-write).
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] if `addr` is not page aligned;
    /// [`MemError::AlreadyMapped`] if any page in the range is mapped
    /// (nothing is mapped in that case).
    pub fn map(&mut self, addr: Addr, pages: u64) -> Result<(), MemError> {
        if !addr.is_aligned(PAGE_SIZE as u64) {
            return Err(MemError::Misaligned(addr));
        }
        let range = PageRange::new(addr.page(), pages);
        for p in range.iter() {
            if self.pages.contains(p.raw()) {
                return Err(MemError::AlreadyMapped(p.base()));
            }
        }
        for p in range.iter() {
            self.pages.insert(p.raw(), PageSlot::new());
        }
        self.stats.mapped_pages += pages;
        self.stats.maps += 1;
        Ok(())
    }

    /// Unmaps every page in `range`, releasing any physical backing.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if any page in the range is not mapped
    /// (the range is left untouched in that case).
    pub fn unmap(&mut self, range: PageRange) -> Result<(), MemError> {
        for p in range.iter() {
            if !self.pages.contains(p.raw()) {
                return Err(MemError::Unmapped(p.base()));
            }
        }
        for p in range.iter() {
            let slot = self.pages.remove(p.raw()).expect("checked above");
            if slot.is_committed() {
                self.stats.on_decommit();
            }
        }
        self.stats.mapped_pages -= range.page_count();
        self.stats.unmaps += 1;
        Ok(())
    }

    /// Commits (physically backs, zero-filled) every page in `range`.
    /// Already-committed pages are untouched.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if any page in the range is not mapped; pages
    /// before the faulting one remain committed.
    pub fn commit(&mut self, range: PageRange) -> Result<(), MemError> {
        for p in range.iter() {
            let (_, fresh) = self.pages.commit(p.raw()).ok_or(MemError::Unmapped(p.base()))?;
            if fresh {
                self.stats.on_commit(false);
            }
        }
        Ok(())
    }

    /// Discards the physical backing of every page in `range` (contents are
    /// lost; a later access demand-commits to zeroes). Uncommitted pages are
    /// untouched.
    ///
    /// Decommitting a committed page sets its soft-dirty bit: the contents
    /// observably change (to zeroes on the next access), so any cached
    /// per-page sweep summary is stale. A heap-word map the page carries
    /// is emptied.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if any page in the range is not mapped.
    pub fn decommit(&mut self, range: PageRange) -> Result<(), MemError> {
        for p in range.iter() {
            if self.pages.decommit(p.raw()).ok_or(MemError::Unmapped(p.base()))? {
                self.stats.on_decommit();
            }
        }
        Ok(())
    }

    /// Sets the protection of every page in `range`.
    ///
    /// A protection *change* sets the soft-dirty bit on the affected pages
    /// (like `mprotect` remapping PTEs without `VM_SOFTDIRTY` preserved):
    /// cached sweep summaries for reprotected pages must be conservatively
    /// invalidated.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if any page in the range is not mapped.
    pub fn protect(&mut self, range: PageRange, prot: Protection) -> Result<(), MemError> {
        for p in range.iter() {
            if !self.pages.contains(p.raw()) {
                return Err(MemError::Unmapped(p.base()));
            }
        }
        for p in range.iter() {
            self.pages.protect(p.raw(), prot).expect("checked above");
        }
        self.stats.protects += 1;
        Ok(())
    }

    /// Maps a single **alias page** at `va` (page aligned, unmapped)
    /// whose accesses resolve to the storage of `frame` — one level of
    /// virtual aliasing, as used by Oscar-style shadow pages (§6.3).
    /// The alias has its own protection but no backing of its own (no
    /// RSS); `frame` must be a mapped, non-alias page.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] if `va` is not page aligned;
    /// [`MemError::AlreadyMapped`] if `va` is mapped;
    /// [`MemError::Unmapped`] if `frame` is not a plain mapped page.
    pub fn map_alias(&mut self, va: Addr, frame: PageIdx) -> Result<(), MemError> {
        if !va.is_aligned(PAGE_SIZE as u64) {
            return Err(MemError::Misaligned(va));
        }
        if self.pages.contains(va.page().raw()) {
            return Err(MemError::AlreadyMapped(va));
        }
        let target = self.pages.get(frame.raw()).ok_or(MemError::Unmapped(frame.base()))?;
        if target.alias_of().is_some() {
            return Err(MemError::Unmapped(frame.base()));
        }
        self.pages.insert(va.page().raw(), PageSlot::new_alias(frame.raw()));
        self.stats.mapped_pages += 1;
        self.stats.maps += 1;
        Ok(())
    }

    /// The frame an alias page resolves to, if `addr` lies on an alias.
    pub fn alias_target(&self, addr: Addr) -> Option<PageIdx> {
        self.pages.get(addr.page().raw())?.alias_of().map(PageIdx::new)
    }

    /// Resolves `page` to its storage page, honouring (one level of)
    /// aliasing and the *addressed* page's protection.
    fn resolve_storage(&self, page: u64, fault_at: Addr) -> Result<u64, MemError> {
        let slot = self.pages.get(page).ok_or(MemError::Unmapped(fault_at))?;
        if slot.prot == Protection::None {
            return Err(MemError::Protected(fault_at));
        }
        match slot.alias_of() {
            None => Ok(page),
            Some(frame) => {
                if self.pages.contains(frame) {
                    Ok(frame)
                } else {
                    Err(MemError::Unmapped(fault_at))
                }
            }
        }
    }

    /// Whether the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.pages.contains(addr.page().raw())
    }

    /// Whether the page containing `addr` is committed (physically backed).
    pub fn is_committed(&self, addr: Addr) -> bool {
        self.pages.get(addr.page().raw()).is_some_and(PageSlot::is_committed)
    }

    /// Protection of the page containing `addr`, if mapped.
    pub fn protection(&self, addr: Addr) -> Option<Protection> {
        self.pages.get(addr.page().raw()).map(|s| s.prot)
    }

    /// Reads the aligned word at `addr`, demand-committing the page if it is
    /// mapped but unbacked (this is what makes naive sweeps of purged pages
    /// re-inflate RSS, §4.5).
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`], [`MemError::Unmapped`] or
    /// [`MemError::Protected`].
    pub fn read_word(&mut self, addr: Addr) -> Result<u64, MemError> {
        if !addr.is_aligned(WORD_SIZE as u64) {
            return Err(MemError::Misaligned(addr));
        }
        let storage = self.resolve_storage(addr.page().raw(), addr)?;
        let (slot, fresh) = self.pages.commit(storage).expect("resolved");
        if fresh {
            self.stats.on_commit(true);
        }
        Ok(slot.data.as_ref().expect("just committed")[addr.word_in_page()])
    }

    /// Reads the aligned word at `addr` without any side effect: an
    /// uncommitted mapped page reads as zero and stays uncommitted.
    ///
    /// This is the access the parallel one-shot sweeper uses from multiple
    /// threads (`&self`); zero is never a heap pointer, so treating unbacked
    /// pages as zero is exactly the "exclude purged pages from the sweep"
    /// behaviour of the commit/decommit extent hooks (§4.5).
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`], [`MemError::Unmapped`] or
    /// [`MemError::Protected`].
    pub fn peek_word(&self, addr: Addr) -> Result<u64, MemError> {
        if !addr.is_aligned(WORD_SIZE as u64) {
            return Err(MemError::Misaligned(addr));
        }
        let storage = self.resolve_storage(addr.page().raw(), addr)?;
        let slot = self.pages.get(storage).expect("resolved");
        Ok(slot.data.as_ref().map_or(0, |d| d[addr.word_in_page()]))
    }

    /// Writes the aligned word at `addr`, demand-committing the page and
    /// setting its soft-dirty bit. A page that carries a heap-word map
    /// (the frame's, for a write through an alias) has the word's bit
    /// updated.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`], [`MemError::Unmapped`] or
    /// [`MemError::Protected`].
    pub fn write_word(&mut self, addr: Addr, value: u64) -> Result<(), MemError> {
        if !addr.is_aligned(WORD_SIZE as u64) {
            return Err(MemError::Misaligned(addr));
        }
        let storage = self.resolve_storage(addr.page().raw(), addr)?;
        let (slot, fresh) = self.pages.commit(storage).expect("resolved");
        if fresh {
            self.stats.on_commit(true);
        }
        let word = addr.word_in_page();
        slot.data.as_mut().expect("just committed")[word] = value;
        if let Some(map) = slot.heap.as_deref_mut() {
            map.set(word, self.layout.heap_contains(Addr::new(value)));
        }
        slot.soft_dirty = true;
        Ok(())
    }

    /// Zero-fills `[addr, addr + len)` (word aligned/sized), as
    /// MineSweeper's `free()` does before quarantining (§4.1).
    ///
    /// Committed pages are zeroed in place and marked soft-dirty, and the
    /// zeroed words leave their heap-word map; mapped-but-uncommitted
    /// pages are skipped (they already read as zero).
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] if `addr` or `len` is not word aligned,
    /// [`MemError::Unmapped`]/[`MemError::Protected`] on the first
    /// inaccessible page (earlier pages stay zeroed).
    pub fn fill_zero(&mut self, addr: Addr, len: u64) -> Result<(), MemError> {
        if !addr.is_aligned(WORD_SIZE as u64) || !len.is_multiple_of(WORD_SIZE as u64) {
            return Err(MemError::Misaligned(addr));
        }
        let mut cur = addr;
        let end = addr.add_bytes(len);
        while cur < end {
            let page_end = cur.page().next().base();
            let chunk_end = if page_end < end { page_end } else { end };
            let storage = self.resolve_storage(cur.page().raw(), cur)?;
            // A pristine page has no slot to update: it is uncommitted.
            if let Some(slot) = self.pages.get_mut(storage) {
                if let Some(data) = slot.data.as_mut() {
                    let w0 = cur.word_in_page();
                    let w1 = w0 + ((chunk_end - cur) / WORD_SIZE as u64) as usize;
                    data[w0..w1].fill(0);
                    if let Some(map) = slot.heap.as_deref_mut() {
                        map.clear_range(w0, w1);
                    }
                    slot.soft_dirty = true;
                }
            }
            cur = chunk_end;
        }
        Ok(())
    }

    /// Clears the soft-dirty bit on every mapped page, like writing `4` to
    /// `/proc/pid/clear_refs` at the start of a mostly-concurrent sweep.
    pub fn clear_soft_dirty(&mut self) {
        for slot in self.pages.values_mut() {
            slot.soft_dirty = false;
        }
    }

    /// Pages whose soft-dirty bit is set (committed pages only), sorted by
    /// index. These are the pages the mostly-concurrent stop-the-world pass
    /// re-checks (§4.3).
    pub fn soft_dirty_pages(&self) -> Vec<PageIdx> {
        self.pages
            .iter_committed()
            .filter(|(_, s)| s.soft_dirty)
            .map(|(idx, _)| PageIdx::new(idx))
            .collect()
    }

    /// Whether the page containing `addr` has its soft-dirty bit set.
    pub fn is_soft_dirty(&self, addr: Addr) -> bool {
        self.pages.get(addr.page().raw()).is_some_and(|s| s.soft_dirty)
    }

    /// Bulk soft-dirty snapshot over `range`, one `pagemap`-style read per
    /// sweep instead of a per-page query: the sorted pages in `range` that
    /// must be treated as **dirty** by anything caching per-page state.
    ///
    /// A page is reported dirty unless it is mapped, committed, readable
    /// and its soft-dirty bit is clear. Unmapped, unbacked, protected and
    /// alias pages have no stable directly-owned contents to be clean
    /// *relative to*, so they are always reported dirty — exactly like
    /// absent PTEs under `/proc/pid/pagemap`, which carry no soft-dirty
    /// history either.
    pub fn snapshot_soft_dirty(&self, range: PageRange) -> Vec<PageIdx> {
        range
            .iter()
            .filter(|p| {
                !self.pages.get(p.raw()).is_some_and(|s| {
                    s.is_committed()
                        && s.prot == Protection::ReadWrite
                        && s.alias_of().is_none()
                        && !s.soft_dirty
                })
            })
            .collect()
    }

    /// Clears the soft-dirty bit on every mapped page in `range` only —
    /// the targeted counterpart of [`AddrSpace::clear_soft_dirty`], so a
    /// sweep can reset exactly the pages it is about to scan without
    /// erasing dirtiness history for pages outside its plan. Unmapped
    /// pages in the range are skipped.
    pub fn clear_soft_dirty_range(&mut self, range: PageRange) {
        for p in range.iter() {
            if let Some(slot) = self.pages.get_mut(p.raw()) {
                slot.soft_dirty = false;
            }
        }
    }

    /// Word contents of a whole page for bulk scanning, without side
    /// effects: `Ok(Some(words))` for a committed readable page,
    /// `Ok(None)` for a mapped readable page with no backing (reads as
    /// zeroes — zero is never a heap pointer).
    ///
    /// One lookup per page instead of one per word: the bulk read of
    /// scanners that look at every word (MarkUs's transitive mark, the
    /// MTE stub). The MineSweeper sweep reads through
    /// [`AddrSpace::scan_heap_words`] instead.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] or [`MemError::Protected`].
    pub fn scan_page(&self, page: PageIdx) -> Result<Option<&[u64; 512]>, MemError> {
        // One lookup for directly-backed pages (the overwhelmingly common
        // case on the sweep's hot path); only aliases chase the frame with
        // a second lookup.
        let slot = self.pages.get(page.raw()).ok_or(MemError::Unmapped(page.base()))?;
        if slot.prot == Protection::None {
            return Err(MemError::Protected(page.base()));
        }
        match slot.alias_of() {
            None => Ok(slot.data.as_deref()),
            Some(frame) => match self.pages.get(frame) {
                Some(s) => Ok(s.data.as_deref()),
                None => Err(MemError::Unmapped(page.base())),
            },
        }
    }

    /// Word contents and heap-word map of a whole page, for the sweep:
    /// `Ok(Some((words, map)))` for a committed readable page, `Ok(None)`
    /// for a mapped readable page with no backing (reads as zeroes, and
    /// zero is never a heap pointer). An alias reads its frame's words
    /// and map.
    ///
    /// The first read of a committed page builds its map:
    /// `classify(words, lo, hi)` must return the map of `words` against
    /// the heap segment `[lo, hi)`. From then on the page keeps the map
    /// exact through [`AddrSpace::write_word`], [`AddrSpace::fill_zero`]
    /// and [`AddrSpace::decommit`] (which empties it), so later reads
    /// cost no classification; unmapping the page drops it. Pages no
    /// sweep reads never carry a map.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] or [`MemError::Protected`].
    pub fn scan_heap_words(
        &mut self,
        page: PageIdx,
        classify: impl FnOnce(&[u64; 512], u64, u64) -> HeapMap,
    ) -> Result<Option<(&[u64; 512], &HeapMap)>, MemError> {
        let storage = self.resolve_storage(page.raw(), page.base())?;
        // A page of a pristine leaf has no slot here: it is uncommitted.
        let Some(slot) = self.pages.get_mut(storage) else { return Ok(None) };
        let Some(words) = slot.data.as_deref() else { return Ok(None) };
        let map = slot.heap.get_or_insert_with(|| {
            let heap = Segment::Heap;
            let (lo, hi) = (self.layout.segment_base(heap), self.layout.segment_end(heap));
            Box::new(classify(words, lo.raw(), hi.raw()))
        });
        Ok(Some((words, map)))
    }

    /// Demand-commits a mapped, readable page as an actual read access
    /// would (the §4.5 cost of sweeping `madvise`-purged memory). No-op on
    /// already-committed pages.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] or [`MemError::Protected`].
    pub fn touch_page(&mut self, page: PageIdx) -> Result<(), MemError> {
        let storage = self.resolve_storage(page.raw(), page.base())?;
        if self.pages.commit(storage).expect("resolved").1 {
            self.stats.on_commit(true);
        }
        Ok(())
    }

    /// Number of committed pages in `range`. The sweep cost model charges
    /// for committed pages only — unbacked pages are skipped via the extent
    /// shadow bitmap (§4.5).
    pub fn committed_pages_in(&self, range: PageRange) -> u64 {
        self.pages.committed_in(range.start().raw(), range.end().raw())
    }

    /// Maximal runs of committed pages in `range`, in address order, as
    /// `(base, length in bytes)` — the shape of a sweep plan's ranges.
    /// The sweep's root walk: only committed pages can hold pointers, and
    /// whole 2 MiB stretches with nothing committed are skipped at once.
    pub fn committed_runs(&self, range: PageRange) -> Vec<(Addr, u64)> {
        self.pages
            .committed_runs(range.start().raw(), range.end().raw())
            .into_iter()
            .map(|(first, pages)| (PageIdx::new(first).base(), pages * PAGE_SIZE as u64))
            .collect()
    }

    /// Page-table leaves in memory, as `(full, pristine)`. A full leaf
    /// holds a 32-byte slot for each of its 512 pages; a pristine one,
    /// whose mapped pages are all uncommitted, read-write, not soft-dirty
    /// and not aliases, holds a 64-byte bitmap. A leaf of either kind is
    /// freed with its last mapped page.
    pub fn page_table_leaves(&self) -> (usize, usize) {
        self.pages.leaves()
    }
}

impl Default for AddrSpace {
    fn default() -> Self {
        AddrSpace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_page(space: &mut AddrSpace) -> Addr {
        let a = space.reserve_heap(1);
        space.map(a, 1).unwrap();
        a
    }

    #[test]
    fn fresh_space_has_root_segments_mapped_but_unbacked() {
        let space = AddrSpace::new();
        let l = *space.layout();
        assert!(space.is_mapped(l.segment_base(Segment::Globals)));
        assert!(space.is_mapped(l.segment_base(Segment::Stack)));
        assert!(!space.is_mapped(l.segment_base(Segment::Heap)));
        assert_eq!(space.rss_bytes(), 0, "nothing committed yet");
    }

    #[test]
    fn fresh_space_holds_no_full_leaf() {
        // 64 MiB of globals and 8 MiB of stack: 36 leaves, all pristine.
        let mut space = AddrSpace::new();
        assert_eq!(space.page_table_leaves(), (0, 36));
        let globals = space.layout().segment_base(Segment::Globals);
        assert_eq!(space.peek_word(globals).unwrap(), 0);
        assert!(matches!(space.scan_page(globals.page()), Ok(None)));
        assert_eq!(space.snapshot_soft_dirty(PageRange::spanning(globals, 8192)).len(), 2);
        assert!(space.committed_runs(PageRange::new(globals.page(), 16 * 1024)).is_empty());
        space.clear_soft_dirty();
        space.fill_zero(globals, 8192).unwrap();
        assert_eq!(space.page_table_leaves(), (0, 36), "reads keep leaves pristine");
        // The first write promotes the one leaf it lands in.
        space.write_word(globals + 8, 1).unwrap();
        assert_eq!(space.page_table_leaves(), (1, 35));
        assert_eq!(space.soft_dirty_pages(), vec![globals.page()]);
    }

    #[test]
    fn reserve_heap_is_monotone() {
        let mut space = AddrSpace::new();
        let a = space.reserve_heap(3);
        let b = space.reserve_heap(1);
        assert_eq!(b - a, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space.write_word(a + 16, 0x1234).unwrap();
        assert_eq!(space.read_word(a + 16).unwrap(), 0x1234);
        assert_eq!(space.read_word(a + 24).unwrap(), 0, "fresh memory is zero");
    }

    #[test]
    fn misaligned_access_is_rejected() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        let odd = a + 4;
        assert_eq!(space.read_word(odd), Err(MemError::Misaligned(odd)));
        assert_eq!(space.write_word(odd, 1), Err(MemError::Misaligned(odd)));
    }

    #[test]
    fn unmapped_access_faults() {
        let mut space = AddrSpace::new();
        let a = space.reserve_heap(1); // reserved but never mapped
        assert_eq!(space.read_word(a), Err(MemError::Unmapped(a)));
        assert_eq!(space.write_word(a, 1), Err(MemError::Unmapped(a)));
        assert_eq!(space.peek_word(a), Err(MemError::Unmapped(a)));
    }

    #[test]
    fn double_map_is_rejected_atomically() {
        let mut space = AddrSpace::new();
        let a = space.reserve_heap(4);
        space.map(a, 2).unwrap();
        // Overlapping map fails and maps nothing new.
        let third = a + 2 * PAGE_SIZE as u64;
        let err = space.map(a + PAGE_SIZE as u64, 2).unwrap_err();
        assert_eq!(err, MemError::AlreadyMapped(a + PAGE_SIZE as u64));
        assert!(!space.is_mapped(third));
    }

    #[test]
    fn demand_commit_on_read_grows_rss() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        assert_eq!(space.rss_bytes(), 0);
        space.read_word(a).unwrap();
        assert_eq!(space.rss_bytes(), PAGE_SIZE as u64);
        assert_eq!(space.stats().demand_commits, 1);
    }

    #[test]
    fn peek_does_not_commit() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        assert_eq!(space.peek_word(a).unwrap(), 0);
        assert_eq!(space.rss_bytes(), 0, "peek must not demand-commit");
    }

    #[test]
    fn decommit_discards_contents_and_rss() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space.write_word(a, 99).unwrap();
        let range = PageRange::spanning(a, PAGE_SIZE as u64);
        space.decommit(range).unwrap();
        assert_eq!(space.rss_bytes(), 0);
        assert_eq!(space.read_word(a).unwrap(), 0, "demand-zero after decommit");
    }

    #[test]
    fn protection_none_faults_all_access() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        let range = PageRange::spanning(a, PAGE_SIZE as u64);
        space.protect(range, Protection::None).unwrap();
        assert_eq!(space.read_word(a), Err(MemError::Protected(a)));
        assert_eq!(space.write_word(a, 1), Err(MemError::Protected(a)));
        assert_eq!(space.peek_word(a), Err(MemError::Protected(a)));
        space.protect(range, Protection::ReadWrite).unwrap();
        assert_eq!(space.read_word(a).unwrap(), 0);
    }

    #[test]
    fn unmap_releases_mapping_and_rss() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space.write_word(a, 7).unwrap();
        let before = space.mapped_bytes();
        space.unmap(PageRange::spanning(a, PAGE_SIZE as u64)).unwrap();
        assert_eq!(space.mapped_bytes(), before - PAGE_SIZE as u64);
        assert_eq!(space.rss_bytes(), 0);
        assert_eq!(space.read_word(a), Err(MemError::Unmapped(a)));
    }

    #[test]
    fn soft_dirty_tracks_writes_since_clear() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        let b = heap_page(&mut space);
        space.write_word(a, 1).unwrap();
        space.write_word(b, 2).unwrap();
        space.clear_soft_dirty();
        assert!(space.soft_dirty_pages().is_empty());
        space.write_word(b, 3).unwrap();
        assert_eq!(space.soft_dirty_pages(), vec![b.page()]);
        assert!(!space.is_soft_dirty(a));
    }

    #[test]
    fn reads_do_not_set_soft_dirty() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space.write_word(a, 1).unwrap();
        space.clear_soft_dirty();
        space.read_word(a).unwrap();
        assert!(!space.is_soft_dirty(a), "reads must not dirty pages");
    }

    #[test]
    fn snapshot_reports_unscannable_pages_as_dirty() {
        let mut space = AddrSpace::new();
        let a = space.reserve_heap(4);
        space.map(a, 4).unwrap();
        space.write_word(a, 1).unwrap(); // page 0: committed
        space.write_word(a + PAGE_SIZE as u64, 2).unwrap(); // page 1: committed
        // page 2 stays unbacked; page 3 committed then protected.
        space.write_word(a + 3 * PAGE_SIZE as u64, 3).unwrap();
        space
            .protect(
                PageRange::spanning(a + 3 * PAGE_SIZE as u64, PAGE_SIZE as u64),
                Protection::None,
            )
            .unwrap();
        space.clear_soft_dirty();
        space.write_word(a + PAGE_SIZE as u64, 9).unwrap(); // re-dirty page 1
        let range = PageRange::spanning(a, 4 * PAGE_SIZE as u64);
        let dirty = space.snapshot_soft_dirty(range);
        // Page 0 is the only provably-clean page: 1 is written, 2 is
        // unbacked, 3 is protected.
        assert_eq!(
            dirty,
            vec![
                (a + PAGE_SIZE as u64).page(),
                (a + 2 * PAGE_SIZE as u64).page(),
                (a + 3 * PAGE_SIZE as u64).page()
            ]
        );
    }

    #[test]
    fn decommit_recommit_round_trip_is_never_clean() {
        // The page-summary cache's key invariant: a page whose contents
        // were discarded (decommit) and re-faulted (commit) must not look
        // clean, even though no write touched it.
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space.write_word(a, 1).unwrap();
        space.clear_soft_dirty();
        let range = PageRange::spanning(a, PAGE_SIZE as u64);
        space.decommit(range).unwrap();
        assert!(space.is_soft_dirty(a), "decommit changes observable contents");
        space.clear_soft_dirty();
        space.touch_page(a.page()).unwrap(); // demand-commit, no write
        assert!(space.is_soft_dirty(a), "a fresh commit is born dirty");
    }

    #[test]
    fn protection_change_sets_soft_dirty() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space.write_word(a, 1).unwrap();
        space.clear_soft_dirty();
        let range = PageRange::spanning(a, PAGE_SIZE as u64);
        space.protect(range, Protection::None).unwrap();
        assert!(space.is_soft_dirty(a));
        space.clear_soft_dirty();
        space.protect(range, Protection::None).unwrap(); // no-op change
        assert!(!space.is_soft_dirty(a), "same-protection calls stay clean");
        space.protect(range, Protection::ReadWrite).unwrap();
        assert!(space.is_soft_dirty(a), "reopening a page invalidates too");
    }

    #[test]
    fn clear_soft_dirty_range_is_targeted() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        let b = heap_page(&mut space);
        space.write_word(a, 1).unwrap();
        space.write_word(b, 2).unwrap();
        space.clear_soft_dirty_range(PageRange::spanning(a, PAGE_SIZE as u64));
        assert!(!space.is_soft_dirty(a));
        assert!(space.is_soft_dirty(b), "out-of-range pages keep their bit");
        // Unmapped pages in the range are tolerated.
        let far = Addr::new(b.raw() + 64 * PAGE_SIZE as u64);
        space.clear_soft_dirty_range(PageRange::spanning(far, PAGE_SIZE as u64));
    }

    #[test]
    fn fill_zero_clears_only_committed_pages() {
        let mut space = AddrSpace::new();
        let a = space.reserve_heap(2);
        space.map(a, 2).unwrap();
        space.write_word(a, 42).unwrap(); // commit page 0 only
        space.fill_zero(a, 2 * PAGE_SIZE as u64).unwrap();
        assert_eq!(space.read_word(a).unwrap(), 0);
        assert_eq!(space.stats().committed_pages, 1, "zeroing must not commit");
    }

    #[test]
    fn fill_zero_partial_range() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space.write_word(a, 1).unwrap();
        space.write_word(a + 8, 2).unwrap();
        space.write_word(a + 16, 3).unwrap();
        space.fill_zero(a + 8, 8).unwrap();
        assert_eq!(space.read_word(a).unwrap(), 1);
        assert_eq!(space.read_word(a + 8).unwrap(), 0);
        assert_eq!(space.read_word(a + 16).unwrap(), 3);
    }

    #[test]
    fn committed_pages_in_counts_backed_pages_only() {
        let mut space = AddrSpace::new();
        let a = space.reserve_heap(4);
        space.map(a, 4).unwrap();
        space.write_word(a, 1).unwrap();
        space.write_word(a + 3 * PAGE_SIZE as u64, 1).unwrap();
        let range = PageRange::spanning(a, 4 * PAGE_SIZE as u64);
        assert_eq!(space.committed_pages_in(range), 2);
    }

    #[test]
    fn scan_page_returns_contents_without_committing() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        // Unbacked: Ok(None), no commit.
        assert!(matches!(space.scan_page(a.page()), Ok(None)));
        assert_eq!(space.rss_bytes(), 0);
        // Committed: contents visible.
        space.write_word(a + 16, 77).unwrap();
        let words = space.scan_page(a.page()).unwrap().unwrap();
        assert_eq!(words[2], 77);
        assert_eq!(words[0], 0);
    }

    #[test]
    fn scan_page_respects_protection_and_mapping() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space
            .protect(PageRange::spanning(a, PAGE_SIZE as u64), Protection::None)
            .unwrap();
        assert_eq!(space.scan_page(a.page()), Err(MemError::Protected(a)));
        let unmapped = space.reserve_heap(1);
        assert_eq!(space.scan_page(unmapped.page()), Err(MemError::Unmapped(unmapped)));
    }

    #[test]
    fn touch_page_demand_commits_like_a_read() {
        let mut space = AddrSpace::new();
        let a = heap_page(&mut space);
        space.touch_page(a.page()).unwrap();
        assert_eq!(space.rss_bytes(), PAGE_SIZE as u64);
        assert_eq!(space.stats().demand_commits, 1);
        // Idempotent.
        space.touch_page(a.page()).unwrap();
        assert_eq!(space.stats().demand_commits, 1);
        // Protected pages fault instead.
        space
            .protect(PageRange::spanning(a, PAGE_SIZE as u64), Protection::None)
            .unwrap();
        assert_eq!(space.touch_page(a.page()), Err(MemError::Protected(a)));
    }

    #[test]
    fn alias_pages_share_storage_without_rss() {
        let mut space = AddrSpace::new();
        let frame_base = heap_page(&mut space);
        space.write_word(frame_base + 8, 0x11).unwrap();
        let rss = space.rss_bytes();
        // Two aliases onto the same frame.
        let va1 = space.reserve_heap(1);
        let va2 = space.reserve_heap(1);
        space.map_alias(va1, frame_base.page()).unwrap();
        space.map_alias(va2, frame_base.page()).unwrap();
        assert_eq!(space.read_word(va1 + 8).unwrap(), 0x11, "alias sees frame data");
        space.write_word(va2 + 16, 0x22).unwrap();
        assert_eq!(space.read_word(frame_base + 16).unwrap(), 0x22, "writes land in frame");
        assert_eq!(space.read_word(va1 + 16).unwrap(), 0x22, "aliases see each other");
        assert_eq!(space.rss_bytes(), rss, "aliases cost no physical memory");
        assert_eq!(space.alias_target(va1), Some(frame_base.page()));
        assert_eq!(space.alias_target(frame_base), None);
    }

    #[test]
    fn alias_protection_is_independent() {
        // Oscar's revocation: protect ONE dangling alias; the object's
        // other aliases and the frame stay usable.
        let mut space = AddrSpace::new();
        let frame = heap_page(&mut space);
        let va1 = space.reserve_heap(1);
        let va2 = space.reserve_heap(1);
        space.map_alias(va1, frame.page()).unwrap();
        space.map_alias(va2, frame.page()).unwrap();
        space.protect(PageRange::spanning(va1, PAGE_SIZE as u64), Protection::None).unwrap();
        assert_eq!(space.read_word(va1), Err(MemError::Protected(va1)));
        assert_eq!(space.read_word(va2).unwrap(), 0, "sibling alias unaffected");
        assert_eq!(space.read_word(frame).unwrap(), 0, "frame unaffected");
    }

    #[test]
    fn alias_to_missing_or_alias_frame_rejected() {
        let mut space = AddrSpace::new();
        let frame = heap_page(&mut space);
        let va1 = space.reserve_heap(1);
        space.map_alias(va1, frame.page()).unwrap();
        let va2 = space.reserve_heap(1);
        // Chaining aliases is not allowed (one level only).
        assert!(space.map_alias(va2, va1.page()).is_err());
        // Nor aliasing unmapped frames.
        let unmapped = space.reserve_heap(1);
        assert!(space.map_alias(va2, unmapped.page()).is_err());
        // Double-mapping the alias VA is rejected.
        assert!(space.map_alias(va1, frame.page()).is_err());
    }

    #[test]
    fn unmapping_alias_leaves_frame_intact() {
        let mut space = AddrSpace::new();
        let frame = heap_page(&mut space);
        space.write_word(frame, 7).unwrap();
        let va = space.reserve_heap(1);
        space.map_alias(va, frame.page()).unwrap();
        space.unmap(PageRange::spanning(va, PAGE_SIZE as u64)).unwrap();
        assert_eq!(space.read_word(frame).unwrap(), 7);
        assert_eq!(space.read_word(va), Err(MemError::Unmapped(va)));
    }

    #[test]
    fn monotone_va_churn_frees_every_heap_leaf() {
        // FFmalloc-style one-time allocation: map fresh VA, use it, unmap
        // it, never reuse it. Every leaf must be freed with its last page,
        // or the table would grow with the VA ever handed out.
        let mut space = AddrSpace::new();
        let roots = space.page_table_leaves();
        let step = 64 * 1024 / PAGE_SIZE as u64;
        let mut peak = (0, 0);
        for i in 0..(1u64 << 30) / (step * PAGE_SIZE as u64) {
            let a = space.reserve_heap(step);
            space.map(a, step).unwrap();
            // Every other mapping is written: its leaf is promoted.
            if i % 2 == 0 {
                space.write_word(a, 1).unwrap();
            }
            let (full, pristine) = space.page_table_leaves();
            peak = (peak.0.max(full - roots.0), peak.1.max(pristine - roots.1));
            space.unmap(PageRange::spanning(a, step * PAGE_SIZE as u64)).unwrap();
        }
        assert_eq!(peak, (1, 1), "64 KiB mappings never straddle a 2 MiB leaf");
        assert_eq!(space.page_table_leaves(), roots, "no heap leaf survives");
        assert_eq!(space.pages.committed_counter_sum(), 0);
    }

    #[test]
    fn committed_runs_skip_empty_leaves_and_split_at_gaps() {
        let mut space = AddrSpace::new();
        let a = space.reserve_heap(2048);
        space.map(a, 2048).unwrap();
        let page = |i: u64| a + i * PAGE_SIZE as u64;
        for i in [0, 1, 510, 511, 512, 513, 2047] {
            space.touch_page(page(i).page()).unwrap();
        }
        let all = PageRange::spanning(a, 2048 * PAGE_SIZE as u64);
        assert_eq!(
            space.committed_runs(all),
            vec![
                (page(0), 2 * PAGE_SIZE as u64),
                (page(510), 4 * PAGE_SIZE as u64),
                (page(2047), PAGE_SIZE as u64)
            ]
        );
        // A range starting mid-run clips the run.
        let tail = PageRange::spanning(page(512), 1536 * PAGE_SIZE as u64);
        assert_eq!(space.committed_runs(tail)[0], (page(512), 2 * PAGE_SIZE as u64));
        assert_eq!(space.committed_pages_in(all), 7);
        assert_eq!(space.pages.committed_counter_sum(), 7);
    }

    #[test]
    fn peak_rss_is_sticky() {
        let mut space = AddrSpace::new();
        let a = space.reserve_heap(3);
        space.map(a, 3).unwrap();
        space.commit(PageRange::spanning(a, 3 * PAGE_SIZE as u64)).unwrap();
        space.decommit(PageRange::spanning(a, 3 * PAGE_SIZE as u64)).unwrap();
        assert_eq!(space.stats().peak_rss_bytes(), 3 * PAGE_SIZE as u64);
        assert_eq!(space.rss_bytes(), 0);
    }
}
