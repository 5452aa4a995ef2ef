//! Two-level radix page table: the page store behind [`crate::AddrSpace`].
//!
//! A directory indexed by `page >> 9` points at 512-slot leaves (one leaf
//! covers 2 MiB of VA). The directory grows only when a page is mapped, so
//! its length follows the highest mapped page: 8 bytes per 2 MiB of VA
//! below it. Each leaf counts its mapped and committed pages. A leaf is
//! freed as soon as its last page is unmapped, so allocators that never
//! reuse VA (FFmalloc's one-time allocation) cannot grow the table without
//! bound, and range walks skip leaves with nothing committed without
//! looking at their slots.

use std::fmt;

use crate::page::PageSlot;

const LEAF_BITS: u32 = 9;

/// Pages per leaf.
const LEAF_PAGES: u64 = 1 << LEAF_BITS;

/// 512 consecutive page slots plus their occupancy counters.
struct Leaf {
    slots: [Option<PageSlot>; LEAF_PAGES as usize],
    /// Slots holding a mapped page.
    mapped: u32,
    /// Mapped slots whose page is committed.
    committed: u32,
}

impl Leaf {
    fn new() -> Box<Self> {
        Box::new(Leaf {
            slots: std::array::from_fn(|_| None),
            mapped: 0,
            committed: 0,
        })
    }
}

/// Splits a page index into (directory index, slot index).
fn split(page: u64) -> (usize, usize) {
    (
        (page >> LEAF_BITS) as usize,
        (page & (LEAF_PAGES - 1)) as usize,
    )
}

/// The per-leaf pieces of the page range `[start, end)`, in order:
/// `(directory index, first slot, one past the last slot)`.
fn spans(start: u64, end: u64) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut page = start;
    std::iter::from_fn(move || {
        (page < end).then(|| {
            let (leaf, lo) = split(page);
            let hi = lo + (end - page).min(LEAF_PAGES - lo as u64) as usize;
            page += (hi - lo) as u64;
            (leaf, lo, hi)
        })
    })
}

/// Mapped pages keyed by page index.
///
/// Commit status changes only through [`PageTable::commit`],
/// [`PageTable::decommit`] and [`PageTable::remove`], which keep each
/// leaf's `committed` counter in step; [`PageTable::get_mut`] is for
/// protection, soft-dirty and word updates.
#[derive(Default)]
pub(crate) struct PageTable {
    dir: Vec<Option<Box<Leaf>>>,
}

impl PageTable {
    fn leaf(&self, idx: usize) -> Option<&Leaf> {
        self.dir.get(idx)?.as_deref()
    }

    fn leaf_mut(&mut self, idx: usize) -> Option<&mut Leaf> {
        self.dir.get_mut(idx)?.as_deref_mut()
    }

    /// The slot of `page`, if mapped.
    pub(crate) fn get(&self, page: u64) -> Option<&PageSlot> {
        let (leaf, slot) = split(page);
        self.leaf(leaf)?.slots[slot].as_ref()
    }

    /// Whether `page` is mapped.
    pub(crate) fn contains(&self, page: u64) -> bool {
        self.get(page).is_some()
    }

    /// The slot of `page` for updates that leave its commit status alone.
    pub(crate) fn get_mut(&mut self, page: u64) -> Option<&mut PageSlot> {
        let (leaf, slot) = split(page);
        self.leaf_mut(leaf)?.slots[slot].as_mut()
    }

    /// Maps the uncommitted `slot` at the unmapped `page`, allocating its
    /// leaf (and growing the directory) if needed.
    pub(crate) fn insert(&mut self, page: u64, slot: PageSlot) {
        debug_assert!(!slot.is_committed(), "pages are mapped uncommitted");
        let (idx, s) = split(page);
        if idx >= self.dir.len() {
            self.dir.resize_with(idx + 1, || None);
        }
        let leaf = self.dir[idx].get_or_insert_with(Leaf::new);
        debug_assert!(leaf.slots[s].is_none(), "page {page:#x} already mapped");
        leaf.slots[s] = Some(slot);
        leaf.mapped += 1;
    }

    /// Unmaps `page`, freeing its leaf if it was the leaf's last page.
    pub(crate) fn remove(&mut self, page: u64) -> Option<PageSlot> {
        let (idx, s) = split(page);
        let leaf = self.leaf_mut(idx)?;
        let slot = leaf.slots[s].take()?;
        leaf.mapped -= 1;
        leaf.committed -= u32::from(slot.is_committed());
        if leaf.mapped == 0 {
            self.dir[idx] = None;
        }
        Some(slot)
    }

    /// Commits `page` (see [`PageSlot::commit`]): the slot, and whether it
    /// was newly committed. `None` if `page` is unmapped.
    pub(crate) fn commit(&mut self, page: u64) -> Option<(&mut PageSlot, bool)> {
        let (idx, s) = split(page);
        let leaf = self.leaf_mut(idx)?;
        let slot = leaf.slots[s].as_mut()?;
        let fresh = slot.commit();
        leaf.committed += u32::from(fresh);
        Some((slot, fresh))
    }

    /// Decommits `page` (see [`PageSlot::decommit`]): the slot, and
    /// whether it was committed before. `None` if `page` is unmapped.
    pub(crate) fn decommit(&mut self, page: u64) -> Option<(&mut PageSlot, bool)> {
        let (idx, s) = split(page);
        let leaf = self.leaf_mut(idx)?;
        let slot = leaf.slots[s].as_mut()?;
        let was = slot.decommit();
        leaf.committed -= u32::from(was);
        Some((slot, was))
    }

    /// Every committed page and its slot, in page order. Leaves with no
    /// committed page are skipped whole.
    pub(crate) fn iter_committed(&self) -> impl Iterator<Item = (u64, &PageSlot)> {
        self.dir.iter().enumerate().flat_map(|(idx, leaf)| {
            let base = (idx as u64) << LEAF_BITS;
            leaf.iter()
                .filter(|leaf| leaf.committed > 0)
                .flat_map(move |leaf| {
                    leaf.slots.iter().enumerate().filter_map(move |(s, slot)| {
                        slot.as_ref()
                            .filter(|slot| slot.is_committed())
                            .map(|slot| (base + s as u64, slot))
                    })
                })
        })
    }

    /// Every mapped slot, for updates that leave commit status alone.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut PageSlot> {
        self.dir
            .iter_mut()
            .flatten()
            .flat_map(|leaf| leaf.slots.iter_mut().flatten())
    }

    /// Number of committed pages in `[start, end)`. Leaves the range
    /// covers entirely are counted from their counter alone.
    pub(crate) fn committed_in(&self, start: u64, end: u64) -> u64 {
        spans(start, end)
            .filter_map(|(idx, lo, hi)| Some((self.leaf(idx)?, lo, hi)))
            .map(|(leaf, lo, hi)| {
                if leaf.committed == 0 || hi - lo == LEAF_PAGES as usize {
                    u64::from(leaf.committed)
                } else {
                    leaf.slots[lo..hi]
                        .iter()
                        .flatten()
                        .filter(|s| s.is_committed())
                        .count() as u64
                }
            })
            .sum()
    }

    /// Maximal runs of committed pages in `[start, end)` as
    /// `(first page, page count)`, in page order. Absent leaves and
    /// leaves with no committed page end a run without a slot scan.
    pub(crate) fn committed_runs(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        let mut open: Option<u64> = None;
        let mut close = |open: &mut Option<u64>, at: u64| {
            if let Some(first) = open.take() {
                runs.push((first, at - first));
            }
        };
        for (idx, lo, hi) in spans(start, end) {
            let base = (idx as u64) << LEAF_BITS;
            match self.leaf(idx).filter(|leaf| leaf.committed > 0) {
                None => close(&mut open, base + lo as u64),
                Some(leaf) => {
                    for (s, slot) in leaf.slots[lo..hi].iter().enumerate() {
                        let page = base + (lo + s) as u64;
                        if slot.as_ref().is_some_and(PageSlot::is_committed) {
                            open.get_or_insert(page);
                        } else {
                            close(&mut open, page);
                        }
                    }
                }
            }
        }
        close(&mut open, end);
        runs
    }

    /// Allocated leaves.
    pub(crate) fn resident_leaves(&self) -> usize {
        self.dir.iter().flatten().count()
    }

    /// Sum of every leaf's `committed` counter.
    #[cfg(test)]
    pub(crate) fn committed_counter_sum(&self) -> u64 {
        self.dir
            .iter()
            .flatten()
            .map(|leaf| u64::from(leaf.committed))
            .sum()
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageTable")
            .field("dir_len", &self.dir.len())
            .field("leaves", &self.resident_leaves())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_split_at_leaf_boundaries() {
        let got: Vec<_> = spans(510, 1030).collect();
        assert_eq!(got, vec![(0, 510, 512), (1, 0, 512), (2, 0, 6)]);
        assert_eq!(spans(7, 7).count(), 0);
    }

    #[test]
    fn counters_follow_commit_and_unmap() {
        let mut t = PageTable::default();
        for page in 510..514 {
            t.insert(page, PageSlot::new());
        }
        assert_eq!(t.resident_leaves(), 2);
        assert!(t.commit(511).unwrap().1);
        assert!(!t.commit(511).unwrap().1, "second commit is a no-op");
        assert!(t.commit(512).unwrap().1);
        assert_eq!(t.committed_counter_sum(), 2);
        assert_eq!(t.committed_runs(0, 2048), vec![(511, 2)]);
        assert_eq!(t.committed_in(0, 2048), 2);
        assert!(t.decommit(512).unwrap().1);
        assert_eq!(t.committed_counter_sum(), 1);
        t.remove(511).unwrap();
        assert_eq!(t.committed_counter_sum(), 0, "unmapping drops the commit");
        t.remove(510).unwrap();
        assert_eq!(t.resident_leaves(), 1, "leaf 0 freed with its last page");
        assert!(t.commit(510).is_none());
    }

    #[test]
    fn iter_committed_is_in_page_order() {
        let mut t = PageTable::default();
        for page in [2000, 3, 700, 511, 512, 4] {
            t.insert(page, PageSlot::new());
        }
        for page in [2000, 3, 700, 511, 512] {
            t.commit(page);
        }
        let pages: Vec<u64> = t.iter_committed().map(|(p, _)| p).collect();
        assert_eq!(pages, vec![3, 511, 512, 700, 2000]);
    }
}
