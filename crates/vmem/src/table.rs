//! Two-level radix page table: the page store behind [`crate::AddrSpace`].
//!
//! A directory indexed by `page >> 9` holds 512-page leaves (one leaf
//! covers 2 MiB of VA). A leaf costs memory in proportion to what the run
//! does with its pages, not to how many it maps:
//!
//! * A **pristine** leaf is one whose mapped pages are all in the state
//!   [`crate::AddrSpace::map`] leaves them: uncommitted, read-write, not
//!   soft-dirty and not an alias. It is a 64-byte bitmap of its mapped
//!   pages plus a count, kept in `plain`, a vector parallel to the
//!   directory, so the root segments a process maps whole but barely
//!   touches cost 72 bytes per 2 MiB.
//! * A **full** leaf holds a [`PageSlot`] for each of its 512 pages
//!   (16 KiB) and counts its mapped and committed pages. A pristine leaf
//!   is promoted to a full one, out of line, when one of its pages first
//!   leaves the pristine state: a commit, a protection change, a
//!   soft-dirty bit or an alias mapping. A full leaf is never demoted.
//!
//! A word access resolves its page in one walk ([`PageTable::access`]):
//! a directory load and a slot load, then the page's protection and alias
//! checks, after which the access acts on the slot the walk holds. Only a
//! miss in the directory looks at `plain`, and only an alias walks again,
//! to its frame. The uncommon cases (a pristine leaf, an alias, a page to
//! commit) continue out of line from the storage page the walk found.
//!
//! The vectors grow only when a page is mapped, so their length follows
//! the highest mapped page: 24 bytes per 2 MiB of VA below it. A leaf of
//! either kind is freed as soon as its last page is unmapped, so
//! allocators that never reuse VA (FFmalloc's one-time allocation) cannot
//! grow the table without bound. Range walks skip pristine leaves
//! (nothing in them is committed or soft-dirty) and full leaves with
//! nothing committed without looking at their slots.

use std::fmt;

use crate::addr::Addr;
use crate::error::MemError;
use crate::page::{PageSlot, Protection};
use crate::stats::MemStats;

const LEAF_BITS: u32 = 9;

/// Pages per leaf.
const LEAF_PAGES: u64 = 1 << LEAF_BITS;

/// The slot every page of a pristine leaf reads as.
static PRISTINE: PageSlot = PageSlot::new();

/// A full leaf: 512 consecutive page slots plus their occupancy counters.
struct Leaf {
    slots: Box<[Option<PageSlot>; LEAF_PAGES as usize]>,
    /// Slots holding a mapped page.
    mapped: u32,
    /// Mapped slots whose page is committed.
    committed: u32,
}

impl Leaf {
    /// A full leaf holding a fresh slot for each page `plain` maps (no
    /// page when `plain` is `None`). The slots are written straight into
    /// their heap array: 16 KiB never crosses the stack.
    fn from_plain(plain: Option<&Plain>) -> Leaf {
        let slots: Box<[Option<PageSlot>]> = (0..LEAF_PAGES as usize)
            .map(|s| plain.is_some_and(|p| p.has(s)).then(PageSlot::new))
            .collect();
        Leaf {
            slots: slots.try_into().expect("one slot per page"),
            mapped: plain.map_or(0, |p| p.mapped),
            committed: 0,
        }
    }
}

/// A pristine leaf: which of its pages are mapped.
#[derive(Default)]
struct Plain {
    bits: [u64; LEAF_PAGES as usize / 64],
    /// Set bits in `bits`.
    mapped: u32,
}

impl Plain {
    fn has(&self, s: usize) -> bool {
        self.bits[s / 64] & (1 << (s % 64)) != 0
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
/// Word accesses go through [`PageTable::access`], and state changes
/// through [`PageTable::commit`], [`PageTable::decommit`],
/// [`PageTable::protect`], [`PageTable::insert`] and
/// [`PageTable::remove`]; all of them keep each leaf's counters in step
/// and promote a pristine leaf when a page leaves the pristine state.
/// [`PageTable::get_mut`] is for soft-dirty updates of pages that already
/// left it.
#[derive(Default)]
pub(crate) struct PageTable {
    /// The space's statistics: the table counts the commits it makes,
    /// and [`crate::AddrSpace`] counts the rest.
    pub(crate) stats: MemStats,
    /// Full leaves by directory index.
    dir: Vec<Option<Leaf>>,
    /// Pristine leaves by directory index; never set where `dir` is.
    plain: Vec<Option<Box<Plain>>>,
}

impl PageTable {
    fn leaf(&self, idx: usize) -> Option<&Leaf> {
        self.dir.get(idx)?.as_ref()
    }

    fn leaf_mut(&mut self, idx: usize) -> Option<&mut Leaf> {
        self.dir.get_mut(idx)?.as_mut()
    }

    fn plain(&self, idx: usize) -> Option<&Plain> {
        self.plain.get(idx)?.as_deref()
    }

    /// The slot of `page`, if mapped.
    pub(crate) fn get(&self, page: u64) -> Option<&PageSlot> {
        let (idx, s) = split(page);
        match self.leaf(idx) {
            Some(leaf) => leaf.slots[s].as_ref(),
            None => self.plain(idx)?.has(s).then_some(&PRISTINE),
        }
    }

    /// Whether `page` is mapped.
    pub(crate) fn contains(&self, page: u64) -> bool {
        self.get(page).is_some()
    }

    /// The slot of `page` for an update a pristine page never needs
    /// (clearing soft-dirty bits): `None` if `page` is unmapped or lies in
    /// a pristine leaf.
    pub(crate) fn get_mut(&mut self, page: u64) -> Option<&mut PageSlot> {
        let (idx, s) = split(page);
        self.leaf_mut(idx)?.slots[s].as_mut()
    }

    /// Runs `access` on the storage slot of an access to `at`, found in
    /// one walk: the page's own slot, or its frame's if it is an alias
    /// (only an alias pays a second lookup). The *addressed* page's
    /// protection applies; the frame's does not. `access` also gets the
    /// index of `at`'s word in the page.
    ///
    /// With `commit` the slot is committed first (see
    /// [`PageSlot::commit`]), promoting a pristine leaf, and a fresh commit
    /// counts as a demand commit. Without, a page of a pristine leaf has
    /// no slot: `access` gets `None`, as the page is uncommitted and holds
    /// no words.
    ///
    /// The common case (a page of a full leaf, read-write, no alias, and
    /// committed if the access commits) runs `access` inline. Every other
    /// case leaves the walk with its storage page for the one call to
    /// [`PageTable::access_rest`], whose arguments fit in registers as
    /// long as `access` holds at most two words: the accessor then neither
    /// saves registers nor spills `access` on the common path.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if the page or its frame is unmapped,
    /// [`MemError::Protected`] if the page is [`Protection::None`], both
    /// at `at`.
    #[inline(always)]
    pub(crate) fn access<'a, R>(
        &'a mut self,
        at: Addr,
        commit: bool,
        access: impl FnOnce(Option<&'a mut PageSlot>, usize) -> R,
    ) -> Result<R, MemError> {
        let page = at.page().raw();
        let (idx, s) = split(page);
        let storage = 'rest: {
            let Some(leaf) = self.leaf(idx) else {
                // A page of a pristine leaf is read-write and no alias.
                break 'rest page;
            };
            let slot = leaf.slots[s].as_ref().ok_or(MemError::Unmapped(at))?;
            if slot.prot == Protection::None {
                return Err(MemError::Protected(at));
            }
            if let Some(frame) = slot.alias_of() {
                break 'rest frame;
            }
            if commit && !slot.is_committed() {
                break 'rest page;
            }
            // The same leaf and slot again: these loads fold into the
            // walk above.
            let leaf = self.leaf_mut(idx).expect("looked up above");
            return Ok(access(leaf.slots[s].as_mut(), at.word_in_page()));
        };
        self.access_rest(storage, commit, at, access)
    }

    /// The out-of-line rest of [`PageTable::access`]: runs `access` on the
    /// slot of the storage page the walk found, after a commit if
    /// `commit`. `Unmapped(at)` if that page is unmapped.
    #[cold]
    #[inline(never)]
    fn access_rest<'a, R>(
        &'a mut self,
        storage: u64,
        commit: bool,
        at: Addr,
        access: impl FnOnce(Option<&'a mut PageSlot>, usize) -> R,
    ) -> Result<R, MemError> {
        let slot = self.own_slot(storage, commit, true).ok_or(MemError::Unmapped(at))?;
        Ok(access(slot, at.word_in_page()))
    }

    /// Commits `page` (see [`PageSlot::commit`]), with no protection or
    /// alias check, and counts a fresh commit as an explicit one. `None`
    /// if `page` is unmapped.
    pub(crate) fn commit(&mut self, page: u64) -> Option<()> {
        self.own_slot(page, true, false).map(|_| ())
    }

    /// The slot of `page`, committed first if `commit`, with a fresh
    /// commit counted as a demand commit if `on_demand` and an explicit
    /// one if not; `Some(None)` for a page of a pristine leaf when not
    /// committing, and `None` if `page` is unmapped. No protection or
    /// alias check.
    fn own_slot(
        &mut self,
        page: u64,
        commit: bool,
        on_demand: bool,
    ) -> Option<Option<&mut PageSlot>> {
        let (idx, s) = split(page);
        if self.leaf(idx).is_none() {
            if !self.plain(idx)?.has(s) {
                return None;
            }
            if !commit {
                return Some(None);
            }
            self.promote(idx);
        }
        let leaf = self.dir.get_mut(idx)?.as_mut()?;
        let slot = leaf.slots[s].as_mut()?;
        if commit && slot.commit() {
            leaf.committed += 1;
            self.stats.on_commit(on_demand);
        }
        Some(Some(slot))
    }

    /// Replaces leaf `idx`, pristine or absent, by a full leaf holding the
    /// same mapped pages.
    #[cold]
    #[inline(never)]
    fn promote(&mut self, idx: usize) {
        let plain = self.plain.get_mut(idx).and_then(Option::take);
        if idx >= self.dir.len() {
            self.dir.resize_with(idx + 1, || None);
        }
        self.dir[idx] = Some(Leaf::from_plain(plain.as_deref()));
    }

    /// Maps the uncommitted `slot` at the unmapped `page`. A pristine slot
    /// outside a full leaf only sets its bit in a pristine leaf; any other
    /// slot promotes (or allocates) a full one.
    pub(crate) fn insert(&mut self, page: u64, slot: PageSlot) {
        debug_assert!(!slot.is_committed(), "pages are mapped uncommitted");
        debug_assert!(!self.contains(page), "page {page:#x} already mapped");
        let (idx, s) = split(page);
        if self.leaf(idx).is_none() {
            if slot.is_pristine() {
                if idx >= self.plain.len() {
                    self.plain.resize_with(idx + 1, || None);
                }
                let plain = self.plain[idx].get_or_insert_with(Box::default);
                plain.bits[s / 64] |= 1 << (s % 64);
                plain.mapped += 1;
                return;
            }
            self.promote(idx);
        }
        let leaf = self.leaf_mut(idx).expect("full leaf");
        leaf.slots[s] = Some(slot);
        leaf.mapped += 1;
    }

    /// Unmaps `page`, freeing its leaf if it was the leaf's last page.
    pub(crate) fn remove(&mut self, page: u64) -> Option<PageSlot> {
        let (idx, s) = split(page);
        if let Some(leaf) = self.leaf_mut(idx) {
            let slot = leaf.slots[s].take()?;
            leaf.mapped -= 1;
            leaf.committed -= u32::from(slot.is_committed());
            if leaf.mapped == 0 {
                self.dir[idx] = None;
            }
            return Some(slot);
        }
        let plain = self.plain.get_mut(idx)?.as_mut()?;
        if !plain.has(s) {
            return None;
        }
        plain.bits[s / 64] &= !(1 << (s % 64));
        plain.mapped -= 1;
        if plain.mapped == 0 {
            self.plain[idx] = None;
        }
        Some(PageSlot::new())
    }

    /// Decommits `page` (see [`PageSlot::decommit`]): whether it was
    /// committed before. `None` if `page` is unmapped. A pristine page is
    /// uncommitted already, so its leaf stays pristine.
    pub(crate) fn decommit(&mut self, page: u64) -> Option<bool> {
        let (idx, s) = split(page);
        let Some(leaf) = self.leaf_mut(idx) else {
            return self.plain(idx)?.has(s).then_some(false);
        };
        let was = leaf.slots[s].as_mut()?.decommit();
        leaf.committed -= u32::from(was);
        Some(was)
    }

    /// Sets the protection of `page`; a change sets its soft-dirty bit.
    /// `None` if `page` is unmapped.
    pub(crate) fn protect(&mut self, page: u64, prot: Protection) -> Option<()> {
        if self.get(page)?.prot != prot {
            let (idx, s) = split(page);
            if self.leaf(idx).is_none() {
                self.promote(idx);
            }
            let slot = self.leaf_mut(idx)?.slots[s].as_mut()?;
            slot.prot = prot;
            slot.soft_dirty = true;
        }
        Some(())
    }

    /// Every committed page and its slot, in page order. Pristine leaves
    /// and full leaves with no committed page are skipped whole.
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

    /// Every mapped slot of a full leaf, for updates a pristine page never
    /// needs (clearing soft-dirty bits).
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut PageSlot> {
        self.dir
            .iter_mut()
            .flatten()
            .flat_map(|leaf| leaf.slots.iter_mut().flatten())
    }

    /// Number of committed pages in `[start, end)`. Leaves the range
    /// covers entirely are counted from their counter alone; pristine
    /// leaves count nothing.
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
    /// `(first page, page count)`, in page order. Absent and pristine
    /// leaves, and full leaves with no committed page, end a run without
    /// a slot scan.
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

    /// Allocated leaves: `(full, pristine)`.
    pub(crate) fn leaves(&self) -> (usize, usize) {
        (
            self.dir.iter().flatten().count(),
            self.plain.iter().flatten().count(),
        )
    }

    /// Sum of every full leaf's `committed` counter.
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
        let (full, pristine) = self.leaves();
        f.debug_struct("PageTable")
            .field("stats", &self.stats)
            .field("dir_len", &self.dir.len())
            .field("full_leaves", &full)
            .field("pristine_leaves", &pristine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageIdx;

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
        assert_eq!(t.leaves(), (0, 2), "fresh pages leave both leaves pristine");
        t.commit(511).unwrap();
        t.commit(511).unwrap();
        assert_eq!(t.stats.explicit_commits, 1, "second commit is a no-op");
        t.commit(512).unwrap();
        assert_eq!(t.committed_counter_sum(), 2);
        assert_eq!(t.committed_runs(0, 2048), vec![(511, 2)]);
        assert_eq!(t.committed_in(0, 2048), 2);
        assert_eq!(t.decommit(512), Some(true));
        assert_eq!(t.committed_counter_sum(), 1);
        t.remove(511).unwrap();
        assert_eq!(t.committed_counter_sum(), 0, "unmapping drops the commit");
        t.remove(510).unwrap();
        assert_eq!(t.leaves(), (1, 0), "leaf 0 freed with its last page");
        assert!(t.commit(510).is_none());
    }

    /// A table with pages 0..4 of leaf 0 mapped fresh, and the unmapped
    /// page 4.
    fn pristine_leaf() -> PageTable {
        let mut t = PageTable::default();
        for page in 0..4 {
            t.insert(page, PageSlot::new());
        }
        t
    }

    #[test]
    fn reads_and_no_op_updates_keep_a_leaf_pristine() {
        let mut t = pristine_leaf();
        assert!(t.get(3).is_some_and(PageSlot::is_pristine));
        assert!(t.get(4).is_none() && !t.contains(4));
        assert!(t.get_mut(3).is_none(), "no slot to update");
        assert_eq!(t.decommit(3), Some(false));
        assert_eq!(t.decommit(4), None, "unmapped");
        assert_eq!(t.protect(3, Protection::ReadWrite), Some(()));
        assert_eq!(t.protect(4, Protection::None), None, "unmapped");
        assert!(t.commit(4).is_none(), "unmapped");
        let at = |page| PageIdx::new(page).base();
        let words = |slot: Option<&mut PageSlot>, _| slot.map(|s| s.is_committed());
        assert_eq!(t.access(at(3), false, words), Ok(None), "no slot to access");
        assert_eq!(t.access(at(4), true, words), Err(MemError::Unmapped(at(4))));
        assert_eq!(t.iter_committed().count() + t.values_mut().count(), 0);
        assert_eq!(t.committed_in(0, 512), 0);
        assert!(t.committed_runs(0, 512).is_empty());
        assert_eq!(t.leaves(), (0, 1));
    }

    #[test]
    fn a_leaf_is_promoted_at_its_first_non_pristine_page() {
        let promoted: [fn(&mut PageTable); 3] = [
            |t| t.commit(2).unwrap(),
            |t| t.protect(2, Protection::None).unwrap(),
            |t| t.insert(4, PageSlot::new_alias(0)),
        ];
        for promote in promoted {
            let mut t = pristine_leaf();
            promote(&mut t);
            assert_eq!(t.leaves(), (1, 0));
            for page in 0..4 {
                assert!(t.get(page).is_some(), "page {page} stays mapped");
            }
            assert!(t.get(5).is_none());
        }
        // An alias mapped where nothing is gets a full leaf of its own.
        let mut t = PageTable::default();
        t.insert(700, PageSlot::new_alias(0));
        assert_eq!(t.leaves(), (1, 0));
        // A fresh page mapped into a full leaf takes a slot there.
        t.insert(701, PageSlot::new());
        assert_eq!(t.leaves(), (1, 0));
        assert!(t.get_mut(701).is_some());
    }

    #[test]
    fn a_leaf_of_either_kind_is_freed_with_its_last_page() {
        let mut t = pristine_leaf();
        t.insert(600, PageSlot::new());
        t.commit(600);
        assert_eq!(t.leaves(), (1, 1));
        assert!(t.remove(4).is_none(), "unmapped");
        for page in 0..4 {
            assert!(t.remove(page).is_some_and(|s| s.is_pristine()));
        }
        assert_eq!(t.leaves(), (1, 0));
        assert!(t.remove(600).is_some_and(|s| s.is_committed()));
        assert_eq!(t.leaves(), (0, 0));
        assert!(t.get(0).is_none() && t.get(600).is_none());
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
