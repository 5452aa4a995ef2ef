//! Per-page state: protection, commit status, soft-dirty tracking and
//! the heap-word map of swept pages.

use crate::addr::{PAGE_SIZE, WORD_SIZE};

/// Words per page.
pub(crate) const WORDS_PER_PAGE: usize = PAGE_SIZE / WORD_SIZE;

/// Which words of one page hold heap addresses: bit `i % 64` of
/// `self.0[i / 64]` is set exactly when word `i` lies in
/// `[segment_base(Heap), segment_end(Heap))`.
///
/// A page gets its map the first time a sweep reads it
/// ([`crate::AddrSpace::scan_heap_words`]); from then on every write,
/// zero-fill and decommit keeps it exact, so the sweep visits only the
/// words the map names.
///
/// A map is 64 bytes aligned to 16, which is what `malloc` returns
/// anyway: a 64-byte alignment would send every map through the
/// allocator's slower aligned path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(C, align(16))]
pub struct HeapMap(pub [u64; WORDS_PER_PAGE / 64]);

impl HeapMap {
    /// Sets or clears the bit of word `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, heap: bool) {
        let w = &mut self.0[i / 64];
        *w = (*w & !(1 << (i % 64))) | (u64::from(heap) << (i % 64));
    }

    /// The map's bits of words `[start, end)`; the rest are clear.
    #[inline]
    pub fn range(&self, start: usize, end: usize) -> HeapMap {
        if (start, end) == (0, WORDS_PER_PAGE) {
            return *self;
        }
        let mut part = HeapMap::default();
        for_each_mask(start, end, |k, mask| part.0[k] = self.0[k] & mask);
        part
    }

    /// Clears the bits of words `[start, end)`.
    #[inline]
    pub(crate) fn clear_range(&mut self, start: usize, end: usize) {
        for_each_mask(start, end, |k, mask| self.0[k] &= !mask);
    }

    /// Number of heap words.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.iter().map(|bits| u64::from(bits.count_ones())).sum()
    }

    /// The heap words, in increasing index order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        let mut k = 0;
        std::iter::from_fn(move || {
            while k < bits.len() {
                if bits[k] != 0 {
                    let j = bits[k].trailing_zeros() as usize;
                    bits[k] &= bits[k] - 1;
                    return Some(k * 64 + j);
                }
                k += 1;
            }
            None
        })
    }
}

/// Calls `f(k, mask)` for each map word `k` that words `[start, end)`
/// touch, with `mask` selecting their bits in it: a zero-fill of a small
/// block costs one call, not a pass over the whole map.
#[inline]
fn for_each_mask(start: usize, end: usize, mut f: impl FnMut(usize, u64)) {
    let mut i = start;
    while i < end {
        let (k, lo) = (i / 64, i % 64);
        let hi = (end - k * 64).min(64);
        f(k, (u64::MAX >> (64 - (hi - lo))) << lo);
        i = k * 64 + hi;
    }
}

/// Access protection of a mapped page.
///
/// The simulation only needs the two states the paper uses: normal data
/// pages, and pages MineSweeper has protected against all access after
/// decommitting a large quarantined allocation (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Protection {
    /// Normal readable/writable data page.
    #[default]
    ReadWrite,
    /// All accesses fault (`PROT_NONE`).
    None,
}

/// A mapped page and its physical backing.
///
/// `data == None` means the page is mapped but not committed: it occupies
/// virtual address space but no physical memory (no RSS). A read through the
/// normal access path demand-commits it to zeroes.
///
/// `heap` is the page's [`HeapMap`] once a sweep has read it; a page no
/// sweep has read has none. A decommit keeps the map, emptied: the page
/// reads as zeroes until a write, which updates it.
///
/// An alias (`alias_of() == Some(frame)`) is a **virtual alias**:
/// accesses resolve to `frame`'s storage (one level only; the target must
/// be a plain page). Aliases have their own protection but no storage or
/// RSS — the mechanism behind Oscar-style shadow virtual pages (§6.3).
/// The frame is stored with a sentinel for "none", which keeps a slot at
/// 32 bytes.
#[derive(Debug)]
pub(crate) struct PageSlot {
    pub(crate) data: Option<Box<[u64; WORDS_PER_PAGE]>>,
    pub(crate) heap: Option<Box<HeapMap>>,
    pub(crate) prot: Protection,
    pub(crate) soft_dirty: bool,
    alias: u64,
}

/// `PageSlot::alias` of a page that is not an alias. No page index
/// reaches it: the highest is `u64::MAX / PAGE_SIZE`.
const NO_ALIAS: u64 = u64::MAX;

impl PageSlot {
    /// Fresh mapped, uncommitted, read-write page.
    pub(crate) const fn new() -> Self {
        PageSlot {
            data: None,
            heap: None,
            prot: Protection::ReadWrite,
            soft_dirty: false,
            alias: NO_ALIAS,
        }
    }

    /// Fresh alias slot resolving to `frame`.
    pub(crate) fn new_alias(frame: u64) -> Self {
        PageSlot { alias: frame, ..PageSlot::new() }
    }

    /// The frame this page aliases, if it is an alias.
    pub(crate) fn alias_of(&self) -> Option<u64> {
        (self.alias != NO_ALIAS).then_some(self.alias)
    }

    pub(crate) fn is_committed(&self) -> bool {
        self.data.is_some()
    }

    /// Whether the page is as [`PageSlot::new`] makes it: uncommitted,
    /// read-write, not soft-dirty, not an alias and with no heap-word map.
    pub(crate) fn is_pristine(&self) -> bool {
        self.data.is_none()
            && self.heap.is_none()
            && self.prot == Protection::ReadWrite
            && !self.soft_dirty
            && self.alias_of().is_none()
    }

    /// Commits the page (idempotent), zero-filling fresh backing.
    /// Returns `true` if the page was newly committed.
    ///
    /// A fresh commit sets the soft-dirty bit: the page's observable
    /// contents change (whatever a decommit discarded is now zeroes), and
    /// Linux likewise reports newly faulted pages as soft-dirty after a
    /// `clear_refs` cycle. Consumers that skip clean pages (the sweep's
    /// page-summary cache) rely on this to never treat a
    /// decommit/recommit round-trip as "unchanged".
    pub(crate) fn commit(&mut self) -> bool {
        if self.data.is_none() {
            self.data = Some(Box::new([0u64; WORDS_PER_PAGE]));
            self.soft_dirty = true;
            true
        } else {
            false
        }
    }

    /// Discards physical backing (idempotent). Returns `true` if the page
    /// was committed before the call.
    ///
    /// Discarding sets the soft-dirty bit: the contents observably change
    /// (to zeroes on the next access), so any cached per-page sweep
    /// summary is stale. The page comes back as a zero page, so a
    /// heap-word map it carries is emptied, not dropped.
    pub(crate) fn decommit(&mut self) -> bool {
        if let Some(map) = self.heap.as_deref_mut() {
            *map = HeapMap::default();
        }
        let was = self.data.take().is_some();
        self.soft_dirty |= was;
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_decommit_cycle() {
        let mut slot = PageSlot::new();
        assert!(slot.is_pristine());
        assert!(!slot.is_committed());
        assert!(slot.commit());
        assert!(!slot.commit(), "second commit is a no-op");
        assert!(slot.is_committed());
        assert!(slot.decommit());
        assert!(!slot.decommit(), "second decommit is a no-op");
        assert!(!slot.is_committed());
        assert!(!slot.is_pristine(), "the discarded contents leave it soft-dirty");
    }

    #[test]
    fn commit_zero_fills() {
        let mut slot = PageSlot::new();
        slot.commit();
        assert!(slot.data.as_ref().unwrap().iter().all(|&w| w == 0));
    }

    #[test]
    fn a_slot_stays_at_32_bytes() {
        assert_eq!(std::mem::size_of::<Option<PageSlot>>(), 32);
    }

    #[test]
    fn heap_map_ranges_cut_at_any_word() {
        let mut map = HeapMap::default();
        for i in [0, 1, 63, 64, 100, 127, 128, 511] {
            map.set(i, true);
        }
        assert_eq!(map.iter().collect::<Vec<_>>(), [0, 1, 63, 64, 100, 127, 128, 511]);
        assert_eq!(map.count(), 8);
        let part = map.range(1, 128);
        assert_eq!(part.iter().collect::<Vec<_>>(), [1, 63, 64, 100, 127]);
        assert_eq!(part.count(), 5);
        assert_eq!(map.range(0, 512), map);
        assert_eq!(map.range(64, 64).count() + map.range(5, 5).count(), 0);
        map.clear_range(63, 101);
        assert_eq!(map.iter().collect::<Vec<_>>(), [0, 1, 127, 128, 511]);
        map.set(0, false);
        map.set(1, true);
        assert_eq!(map.iter().collect::<Vec<_>>(), [1, 127, 128, 511]);
        map.clear_range(0, 512);
        assert_eq!(map, HeapMap::default());
    }

    #[test]
    fn decommit_empties_the_map_and_keeps_it() {
        let mut slot = PageSlot::new();
        slot.commit();
        slot.heap = Some(Box::new(HeapMap([1; 8])));
        slot.decommit();
        assert_eq!(slot.heap.as_deref(), Some(&HeapMap::default()));
        assert!(!slot.is_committed());
    }

    #[test]
    fn default_protection_is_read_write() {
        assert_eq!(Protection::default(), Protection::ReadWrite);
    }
}
