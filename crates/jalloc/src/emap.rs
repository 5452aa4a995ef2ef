//! Page → extent map: jemalloc's emap (its page-keyed radix tree, the
//! rtree).
//!
//! Active extents live in a slot store: a `Vec` plus a free list of slot
//! ids, so the store never grows past the peak number of active extents.
//! A two-level radix map sends every page of an active extent to its slot
//! id, so finding the extent that contains an address costs two array
//! loads, however many extents are live. Like `vmem`'s page table, the
//! directory is indexed by `page >> 9` and holds 512-entry leaves; a leaf
//! is freed when its last page goes. The directory starts at the leaf of
//! the first extent inserted, so a heap segment far above address zero
//! pays nothing for the directory entries below it. No later extent lies
//! below that one: a heap's first extent comes from the heap cursor, and
//! every later one is either recycled or comes from the cursor, which only
//! moves up.

use std::fmt;

use vmem::{Addr, PageRange};

use crate::extent::Extent;

const LEAF_BITS: u32 = 9;

/// Pages per leaf.
const LEAF_PAGES: u64 = 1 << LEAF_BITS;

/// Leaf entry of a page that no active extent covers.
const VACANT: u32 = u32::MAX;

/// Index of an active extent in the slot store.
pub(crate) type ExtentId = u32;

/// 512 consecutive pages' slot ids plus a count of the occupied ones.
struct Leaf {
    ids: [u32; LEAF_PAGES as usize],
    used: u32,
}

/// Active extents, found by any address inside them.
#[derive(Default)]
pub(crate) struct ExtentMap {
    slots: Vec<Option<Extent>>,
    vacant_slots: Vec<ExtentId>,
    /// Leaf number (`page >> LEAF_BITS`) that `dir[0]` covers.
    dir_base: u64,
    dir: Vec<Option<Box<Leaf>>>,
}

/// The per-leaf pieces of `pages`, in order: `(leaf number, first entry,
/// one past the last entry)`.
fn spans(pages: PageRange) -> impl Iterator<Item = (u64, usize, usize)> {
    let (mut page, end) = (pages.start().raw(), pages.end().raw());
    std::iter::from_fn(move || {
        (page < end).then(|| {
            let lo = (page & (LEAF_PAGES - 1)) as usize;
            let hi = lo + (end - page).min(LEAF_PAGES - lo as u64) as usize;
            let leaf = page >> LEAF_BITS;
            page += (hi - lo) as u64;
            (leaf, lo, hi)
        })
    })
}

impl ExtentMap {
    /// The active extent containing `addr`, if any.
    pub(crate) fn containing(&self, addr: Addr) -> Option<ExtentId> {
        let page = addr.page().raw();
        let idx = (page >> LEAF_BITS).checked_sub(self.dir_base)?;
        let leaf = self.dir.get(idx as usize)?.as_deref()?;
        let id = leaf.ids[(page & (LEAF_PAGES - 1)) as usize];
        debug_assert!(
            id == VACANT || self.get(id).contains(addr),
            "stale entry for {addr}"
        );
        (id != VACANT).then_some(id)
    }

    /// The active extent in slot `id`.
    pub(crate) fn get(&self, id: ExtentId) -> &Extent {
        self.slots[id as usize]
            .as_ref()
            .expect("slot holds an active extent")
    }

    /// The active extent in slot `id`, for updates.
    pub(crate) fn get_mut(&mut self, id: ExtentId) -> &mut Extent {
        self.slots[id as usize]
            .as_mut()
            .expect("slot holds an active extent")
    }

    /// Adds an extent whose pages no active extent covers.
    pub(crate) fn insert(&mut self, ext: Extent) -> ExtentId {
        let pages = PageRange::new(ext.base.page(), ext.pages);
        let id = match self.vacant_slots.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(ext);
                id
            }
            None => {
                self.slots.push(Some(ext));
                ExtentId::try_from(self.slots.len() - 1).expect("fewer than 2^32 extents")
            }
        };
        for (leaf, lo, hi) in spans(pages) {
            let leaf = self.leaf_for_insert(leaf);
            debug_assert!(
                leaf.ids[lo..hi].iter().all(|&e| e == VACANT),
                "extents overlap"
            );
            leaf.ids[lo..hi].fill(id);
            leaf.used += (hi - lo) as u32;
        }
        id
    }

    /// Removes the extent in slot `id`, freeing every leaf it leaves empty.
    pub(crate) fn remove(&mut self, id: ExtentId) -> Extent {
        let ext = self.slots[id as usize]
            .take()
            .expect("slot holds an active extent");
        for (leaf, lo, hi) in spans(PageRange::new(ext.base.page(), ext.pages)) {
            let slot = &mut self.dir[(leaf - self.dir_base) as usize];
            let entry = slot.as_deref_mut().expect("extent pages are mapped");
            entry.ids[lo..hi].fill(VACANT);
            entry.used -= (hi - lo) as u32;
            if entry.used == 0 {
                *slot = None;
            }
        }
        self.vacant_slots.push(id);
        ext
    }

    /// The leaf numbered `leaf`, allocated (and the directory grown) if
    /// needed.
    fn leaf_for_insert(&mut self, leaf: u64) -> &mut Leaf {
        if self.dir.is_empty() {
            self.dir_base = leaf;
        }
        assert!(
            leaf >= self.dir_base,
            "extent below the heap's first extent"
        );
        let idx = (leaf - self.dir_base) as usize;
        if idx >= self.dir.len() {
            self.dir.resize_with(idx + 1, || None);
        }
        self.dir[idx].get_or_insert_with(|| {
            Box::new(Leaf {
                ids: [VACANT; LEAF_PAGES as usize],
                used: 0,
            })
        })
    }

    /// Every active extent, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Extent> {
        self.slots.iter().flatten()
    }

    /// Allocated leaves.
    #[cfg(test)]
    pub(crate) fn resident_leaves(&self) -> usize {
        self.dir.iter().flatten().count()
    }

    /// Length of the slot store, vacant slots included.
    #[cfg(test)]
    pub(crate) fn slot_capacity(&self) -> usize {
        self.slots.len()
    }
}

impl fmt::Debug for ExtentMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExtentMap")
            .field("extents", &self.iter().count())
            .field("dir_base", &self.dir_base)
            .field("dir_len", &self.dir.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmem::PAGE_SIZE;

    const P: u64 = PAGE_SIZE as u64;

    fn large(page: u64, pages: u64) -> Extent {
        Extent::new_large(Addr::new(page * P), pages)
    }

    #[test]
    fn spans_split_at_leaf_boundaries() {
        let got: Vec<_> = spans(PageRange::new(vmem::PageIdx::new(510), 520)).collect();
        assert_eq!(got, vec![(0, 510, 512), (1, 0, 512), (2, 0, 6)]);
    }

    #[test]
    fn every_page_resolves_to_its_extent_and_no_other() {
        let mut map = ExtentMap::default();
        let a = map.insert(large(1 << 20, 3));
        let b = map.insert(large((1 << 20) + 510, 4)); // straddles two leaves
        for (id, first, pages) in [(a, 1 << 20, 3), (b, (1 << 20) + 510, 4)] {
            for page in first..first + pages {
                assert_eq!(map.containing(Addr::new(page * P)), Some(id));
                assert_eq!(map.containing(Addr::new(page * P + P - 1)), Some(id));
            }
        }
        assert_eq!(map.containing(Addr::new(((1 << 20) + 3) * P)), None, "gap");
        assert_eq!(map.containing(Addr::new((1 << 20) * P - 1)), None, "below");
        assert_eq!(
            map.containing(Addr::new(((1 << 20) + 514) * P)),
            None,
            "above"
        );
        assert_eq!(map.containing(Addr::NULL), None);
        assert_eq!(map.resident_leaves(), 2);
    }

    #[test]
    fn directory_starts_at_the_first_extent() {
        let mut map = ExtentMap::default();
        map.insert(large(1 << 20, 1));
        assert_eq!(map.dir.len(), 1, "no entries below the heap");
        assert_eq!(map.containing(Addr::new(5 * LEAF_PAGES * P)), None);
    }

    #[test]
    fn remove_frees_empty_leaves_and_reuses_the_slot() {
        let mut map = ExtentMap::default();
        let a = map.insert(large(1 << 20, 600));
        let b = map.insert(large((1 << 20) + 600, 1));
        assert_eq!(map.resident_leaves(), 2);
        assert_eq!(map.remove(a).pages, 600);
        assert_eq!(map.resident_leaves(), 1, "leaf holding only `a` freed");
        assert_eq!(map.containing(Addr::new((1 << 20) * P)), None);
        let c = map.insert(large(1 << 20, 1));
        assert_eq!(c, a, "vacant slot reused");
        assert_eq!(map.slot_capacity(), 2);
        map.remove(b);
        map.remove(c);
        assert_eq!(map.resident_leaves(), 0);
        assert_eq!(map.iter().count(), 0);
    }
}
