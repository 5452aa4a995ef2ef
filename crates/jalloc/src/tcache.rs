//! Thread-local cache of small regions.
//!
//! JeMalloc's tcache absorbs most malloc/free traffic without touching the
//! arena. MineSweeper's evaluation keeps tcaches enabled, and its
//! thread-local *quarantine* buffers (contribution d) mirror this structure.
//! The simulation models one tcache per mutator thread; the cost model in
//! `ms-sim` charges less for cache hits than for arena round trips.

use vmem::Addr;

use crate::emap::ExtentId;

/// A region parked in the cache, with the slab slot and region index that
/// find its state bits without an address lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Parked {
    pub(crate) addr: Addr,
    pub(crate) slab: ExtentId,
    pub(crate) idx: u32,
}

/// Per-class cached region stacks.
#[derive(Clone, Debug)]
pub(crate) struct Tcache {
    bins: Vec<Vec<Parked>>,
    caps: Vec<usize>,
}

impl Tcache {
    /// Creates a tcache for `class_sizes` (bytes per class). Capacity
    /// shrinks as classes grow, like jemalloc's `tcache_max` ladder.
    pub(crate) fn new(class_sizes: &[u64]) -> Self {
        let caps = class_sizes
            .iter()
            .map(|&s| match s {
                0..=256 => 32,
                257..=1024 => 16,
                1025..=4096 => 8,
                _ => 4,
            })
            .collect();
        Tcache { bins: vec![Vec::new(); class_sizes.len()], caps }
    }

    /// Pops a cached region of `class`, if any.
    pub(crate) fn pop(&mut self, class: usize) -> Option<Parked> {
        self.bins[class].pop()
    }

    /// Pushes a freed region. Returns `false` (leaving the region to the
    /// caller) when the bin is full and must be flushed first.
    pub(crate) fn push(&mut self, class: usize, region: Parked) -> bool {
        if self.bins[class].len() >= self.caps[class] {
            return false;
        }
        self.bins[class].push(region);
        true
    }

    /// Drains the oldest half of a bin for return to the arena (jemalloc's
    /// flush-half policy on overflow).
    pub(crate) fn flush_half(&mut self, class: usize) -> Vec<Parked> {
        let bin = &mut self.bins[class];
        let keep = bin.len() / 2;
        bin.drain(..bin.len() - keep).collect()
    }

    /// Drains every bin (thread teardown / explicit flush).
    pub(crate) fn flush_all(&mut self) -> Vec<(usize, Parked)> {
        let mut out = Vec::new();
        for (class, bin) in self.bins.iter_mut().enumerate() {
            out.extend(bin.drain(..).map(|a| (class, a)));
        }
        out
    }

    /// Number of cached regions of `class`.
    #[cfg(test)]
    pub(crate) fn cached(&self, class: usize) -> usize {
        self.bins[class].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc() -> Tcache {
        Tcache::new(&[16, 512, 2048, 8192])
    }

    /// A parked region at `addr` (slot and index do not matter here).
    fn at(addr: u64) -> Parked {
        Parked { addr: Addr::new(addr), slab: 0, idx: 0 }
    }

    #[test]
    fn caps_follow_class_size() {
        let t = tc();
        assert_eq!(t.caps, vec![32, 16, 8, 4]);
    }

    #[test]
    fn lifo_reuse() {
        let mut t = tc();
        assert!(t.push(0, at(16)));
        assert!(t.push(0, at(32)));
        assert_eq!(t.pop(0), Some(at(32)), "LIFO for cache warmth");
        assert_eq!(t.pop(0), Some(at(16)));
        assert_eq!(t.pop(0), None);
    }

    #[test]
    fn overflow_then_flush_half() {
        let mut t = tc();
        for i in 0..4 {
            assert!(t.push(3, at(i * 8192)));
        }
        assert!(!t.push(3, at(999 * 8192)), "full bin rejects");
        let flushed = t.flush_half(3);
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed, vec![at(0), at(8192)], "oldest first");
        assert_eq!(t.cached(3), 2);
    }

    #[test]
    fn flush_all_empties_and_tags_class() {
        let mut t = tc();
        t.push(0, at(16));
        t.push(2, at(4096));
        let mut all = t.flush_all();
        all.sort_by_key(|&(c, _)| c);
        assert_eq!(all, vec![(0, at(16)), (2, at(4096))]);
        assert_eq!(t.cached(0) + t.cached(2), 0);
    }
}
