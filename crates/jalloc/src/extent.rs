//! Extents: page-granular regions backing slabs and large allocations,
//! plus the address-ordered free-extent cache with coalescing.

use std::collections::BTreeMap;

use vmem::{Addr, PAGE_SIZE};

/// What an active extent is used for.
#[derive(Clone, Debug)]
pub(crate) enum ExtentKind {
    /// A slab subdivided into equal regions of one size class. `bitmap`
    /// marks the allocated regions; `cached` marks those of them parked in
    /// the tcache, which are free to the program but still allocated to
    /// the arena.
    Slab { class: usize, bitmap: Vec<u64>, cached: Vec<u64>, used: u64, regions: u64 },
    /// A single large allocation.
    Large,
}

/// An active (live-allocation-bearing) extent.
#[derive(Clone, Debug)]
pub(crate) struct Extent {
    pub(crate) base: Addr,
    pub(crate) pages: u64,
    pub(crate) kind: ExtentKind,
}

impl Extent {
    pub(crate) fn new_slab(base: Addr, pages: u64, class: usize, regions: u64) -> Self {
        let words = regions.div_ceil(64) as usize;
        Extent {
            base,
            pages,
            kind: ExtentKind::Slab {
                class,
                bitmap: vec![0; words],
                cached: vec![0; words],
                used: 0,
                regions,
            },
        }
    }

    pub(crate) fn new_large(base: Addr, pages: u64) -> Self {
        Extent { base, pages, kind: ExtentKind::Large }
    }

    pub(crate) fn byte_len(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    pub(crate) fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base.add_bytes(self.byte_len())
    }

    /// Allocates the lowest free region of a slab. Returns its index, or
    /// `None` if the slab is full.
    pub(crate) fn slab_alloc(&mut self) -> Option<u64> {
        let ExtentKind::Slab { bitmap, used, regions, .. } = &mut self.kind else {
            unreachable!("slab_alloc on a large extent");
        };
        if *used == *regions {
            return None;
        }
        for (w, word) in bitmap.iter_mut().enumerate() {
            if *word != u64::MAX {
                let bit = word.trailing_ones() as u64;
                let idx = w as u64 * 64 + bit;
                if idx >= *regions {
                    return None;
                }
                *word |= 1 << bit;
                *used += 1;
                return Some(idx);
            }
        }
        None
    }

    /// Frees region `idx` of a slab, out of the tcache if it was parked
    /// there. Returns `Err(())` if it was not allocated (double free).
    pub(crate) fn slab_free(&mut self, idx: u64) -> Result<(), ()> {
        let ExtentKind::Slab { bitmap, cached, used, .. } = &mut self.kind else {
            unreachable!("slab_free on a large extent");
        };
        let (w, bit) = ((idx / 64) as usize, idx % 64);
        if bitmap[w] & (1 << bit) == 0 {
            return Err(());
        }
        bitmap[w] &= !(1 << bit);
        cached[w] &= !(1 << bit);
        *used -= 1;
        Ok(())
    }

    /// Records that allocated region `idx` entered (`true`) or left the
    /// tcache.
    pub(crate) fn slab_set_cached(&mut self, idx: u64, parked: bool) {
        let ExtentKind::Slab { cached, .. } = &mut self.kind else {
            unreachable!("slab_set_cached on a large extent");
        };
        let (w, mask) = ((idx / 64) as usize, 1u64 << (idx % 64));
        if parked {
            cached[w] |= mask;
        } else {
            cached[w] &= !mask;
        }
    }

    /// Whether slab region `idx` is parked in the tcache.
    pub(crate) fn slab_region_cached(&self, idx: u64) -> bool {
        let ExtentKind::Slab { cached, regions, .. } = &self.kind else {
            return false;
        };
        idx < *regions && cached[(idx / 64) as usize] & (1 << (idx % 64)) != 0
    }

    /// Whether slab region `idx` is currently allocated.
    pub(crate) fn slab_region_live(&self, idx: u64) -> bool {
        let ExtentKind::Slab { bitmap, regions, .. } = &self.kind else {
            return false;
        };
        idx < *regions && bitmap[(idx / 64) as usize] & (1 << (idx % 64)) != 0
    }

    pub(crate) fn slab_used(&self) -> u64 {
        match &self.kind {
            ExtentKind::Slab { used, .. } => *used,
            ExtentKind::Large => unreachable!("slab_used on a large extent"),
        }
    }

    pub(crate) fn slab_is_full(&self) -> bool {
        match &self.kind {
            ExtentKind::Slab { used, regions, .. } => used == regions,
            ExtentKind::Large => unreachable!("slab_is_full on a large extent"),
        }
    }
}

/// Metadata for a free (recyclable) extent.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FreeInfo {
    pub(crate) pages: u64,
    /// Virtual time at which the extent (or its newest merged fragment)
    /// became free; drives decay purging.
    pub(crate) freed_at: u64,
}

/// Address-ordered cache of free extents with neighbour coalescing —
/// jemalloc's retained/dirty extent structure, simplified to a single tier
/// (commit state is tracked by the pages themselves in [`vmem`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct FreeExtents {
    by_addr: BTreeMap<u64, FreeInfo>,
}

impl FreeExtents {
    pub(crate) fn new() -> Self {
        FreeExtents { by_addr: BTreeMap::new() }
    }

    /// Inserts a free extent, merging with adjacent free neighbours.
    pub(crate) fn insert(&mut self, base: Addr, pages: u64, now: u64) {
        debug_assert!(pages > 0);
        let mut base = base.raw();
        let mut pages = pages;
        let mut freed_at = now;
        // Merge with predecessor if adjacent.
        if let Some((&pbase, &pinfo)) = self.by_addr.range(..base).next_back() {
            if pbase + pinfo.pages * PAGE_SIZE as u64 == base {
                self.by_addr.remove(&pbase);
                base = pbase;
                pages += pinfo.pages;
                freed_at = freed_at.max(pinfo.freed_at);
            }
        }
        // Merge with successor if adjacent.
        let end = base + pages * PAGE_SIZE as u64;
        if let Some(&sinfo) = self.by_addr.get(&end) {
            self.by_addr.remove(&end);
            pages += sinfo.pages;
            freed_at = freed_at.max(sinfo.freed_at);
        }
        self.by_addr.insert(base, FreeInfo { pages, freed_at });
    }

    /// Removes and returns the best-fit extent for `need` pages: the
    /// smallest free extent with at least `need` pages, lowest address on
    /// ties (jemalloc's first-fit-within-size policy keeps the heap
    /// compact).
    pub(crate) fn take_fit(&mut self, need: u64) -> Option<(Addr, FreeInfo)> {
        let best = self
            .by_addr
            .iter()
            .filter(|(_, info)| info.pages >= need)
            .min_by_key(|(&base, info)| (info.pages, base))
            .map(|(&base, &info)| (base, info))?;
        self.by_addr.remove(&best.0);
        Some((Addr::new(best.0), best.1))
    }

    /// Free extents whose age exceeds `decay` at time `now`.
    pub(crate) fn aged(&self, now: u64, decay: u64) -> Vec<(Addr, u64)> {
        self.by_addr
            .iter()
            .filter(|(_, info)| now.saturating_sub(info.freed_at) >= decay)
            .map(|(&base, info)| (Addr::new(base), info.pages))
            .collect()
    }

    /// All free extents, address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.by_addr.iter().map(|(&base, info)| (Addr::new(base), info.pages))
    }

    /// Total free pages in the cache.
    pub(crate) fn total_pages(&self) -> u64 {
        self.by_addr.values().map(|i| i.pages).sum()
    }

    #[allow(dead_code)] // used by unit tests
    pub(crate) fn len(&self) -> usize {
        self.by_addr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = PAGE_SIZE as u64;

    #[test]
    fn slab_alloc_free_roundtrip() {
        let mut e = Extent::new_slab(Addr::new(0x1000), 1, 0, 70);
        let a = e.slab_alloc().unwrap();
        let b = e.slab_alloc().unwrap();
        assert_eq!((a, b), (0, 1), "lowest region first");
        assert!(e.slab_region_live(0));
        e.slab_free(0).unwrap();
        assert!(!e.slab_region_live(0));
        assert_eq!(e.slab_alloc().unwrap(), 0, "freed region is reused first");
    }

    #[test]
    fn slab_double_free_detected() {
        let mut e = Extent::new_slab(Addr::new(0x1000), 1, 0, 10);
        e.slab_alloc().unwrap();
        e.slab_free(0).unwrap();
        assert!(e.slab_free(0).is_err());
    }

    #[test]
    fn slab_fills_exactly_to_region_count() {
        // 70 regions spans two bitmap words with a partial tail.
        let mut e = Extent::new_slab(Addr::new(0x1000), 1, 0, 70);
        for i in 0..70 {
            assert_eq!(e.slab_alloc(), Some(i));
        }
        assert!(e.slab_is_full());
        assert_eq!(e.slab_alloc(), None);
    }

    #[test]
    fn free_extents_coalesce_both_sides() {
        let mut f = FreeExtents::new();
        f.insert(Addr::new(0), 1, 10);
        f.insert(Addr::new(2 * P), 1, 20);
        assert_eq!(f.len(), 2);
        f.insert(Addr::new(P), 1, 30); // bridges the gap
        assert_eq!(f.len(), 1);
        let (base, info) = f.take_fit(3).unwrap();
        assert_eq!(base, Addr::new(0));
        assert_eq!(info.pages, 3);
        assert_eq!(info.freed_at, 30, "merged extent keeps newest timestamp");
    }

    #[test]
    fn non_adjacent_extents_stay_separate() {
        let mut f = FreeExtents::new();
        f.insert(Addr::new(0), 1, 0);
        f.insert(Addr::new(4 * P), 1, 0);
        assert_eq!(f.len(), 2);
        assert_eq!(f.total_pages(), 2);
    }

    #[test]
    fn take_fit_prefers_smallest_then_lowest() {
        let mut f = FreeExtents::new();
        f.insert(Addr::new(0), 8, 0);
        f.insert(Addr::new(100 * P), 2, 0);
        f.insert(Addr::new(200 * P), 2, 0);
        let (base, info) = f.take_fit(2).unwrap();
        assert_eq!(base, Addr::new(100 * P), "smallest fit, lowest address");
        assert_eq!(info.pages, 2);
        assert!(f.take_fit(100).is_none());
    }

    #[test]
    fn aged_respects_decay() {
        let mut f = FreeExtents::new();
        f.insert(Addr::new(0), 1, 1000);
        f.insert(Addr::new(4 * P), 1, 5000);
        let old = f.aged(6000, 2000);
        assert_eq!(old, vec![(Addr::new(0), 1)]);
        assert_eq!(f.aged(100_000, 2000).len(), 2);
    }

    #[test]
    fn extent_contains() {
        let e = Extent::new_large(Addr::new(P), 2);
        assert!(e.contains(Addr::new(P)));
        assert!(e.contains(Addr::new(3 * P - 1)));
        assert!(!e.contains(Addr::new(3 * P)));
        assert!(!e.contains(Addr::new(P - 1)));
    }
}
