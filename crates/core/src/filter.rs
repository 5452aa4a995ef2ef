//! Quarantine candidate filter: a coarse 1-bit-per-4 KiB bitmap over heap
//! VA marking pages that contain at least one quarantined granule.
//!
//! Only marks that land inside a locked-in quarantine entry can change a
//! release decision (`ShadowMap::range_marked` is consulted per entry,
//! nothing else). The common swept word — zero after zero-on-free, or a
//! pointer to *live* memory — therefore never needs the shadow map at
//! all: the mark loop tests this bitmap first, trading the shadow map's
//! radix walk + bitmap write for one predictable branch over a dense,
//! read-only bitmap. The filter is rebuilt when the quarantine generation
//! is locked in at sweep start, so it covers exactly the candidate set of
//! the running sweep.
//!
//! Filtering changes which *irrelevant* marks exist in the shadow map
//! (pointers to live memory are dropped), but for every page the filter
//! covers, all marks are preserved — release decisions are bit-for-bit
//! identical to an unfiltered sweep.

use vmem::Addr;
#[cfg(test)]
use vmem::PAGE_SIZE;

/// Dense page-granular bitmap over the span of quarantined allocations.
///
/// The span is `[base_page, base_page + 64 * bits.len())`; addresses
/// outside it are rejected with the same single branch as in-span misses.
/// Built once per sweep from the locked entries, queried once per
/// heap-pointing word.
#[derive(Clone, Debug, Default)]
pub struct CandidateFilter {
    base_page: u64,
    bits: Box<[u64]>,
}

impl CandidateFilter {
    /// Builds the filter from `(base, usable)` allocation ranges — every
    /// page any range touches gets its bit set. An empty iterator yields a
    /// filter that rejects everything (no candidates: no mark can matter).
    pub fn build(ranges: impl IntoIterator<Item = (Addr, u64)>) -> Self {
        let spans: Vec<(u64, u64)> = ranges
            .into_iter()
            .filter(|&(_, usable)| usable > 0)
            .map(|(base, usable)| {
                (base.page().raw(), base.add_bytes(usable - 1).page().raw())
            })
            .collect();
        if spans.is_empty() {
            return CandidateFilter::default();
        }
        let base_page = spans.iter().map(|&(lo, _)| lo).min().expect("non-empty");
        let last_page = spans.iter().map(|&(_, hi)| hi).max().expect("non-empty");
        let words = ((last_page - base_page) / 64 + 1) as usize;
        let mut bits = vec![0u64; words].into_boxed_slice();
        for (lo, hi) in spans {
            for p in lo..=hi {
                let off = p - base_page;
                bits[(off / 64) as usize] |= 1 << (off % 64);
            }
        }
        CandidateFilter { base_page, bits }
    }

    /// Whether `addr` lies on a page holding at least one quarantined
    /// granule — i.e. whether a mark at `addr` could influence any release
    /// decision this sweep.
    #[inline]
    pub fn allows(&self, addr: Addr) -> bool {
        let off = addr.page().raw().wrapping_sub(self.base_page);
        self.bits
            .get((off / 64) as usize)
            .is_some_and(|&w| w >> (off % 64) & 1 == 1)
    }

    /// Number of pages with the candidate bit set (introspection/tests).
    pub fn candidate_pages(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Bitmap footprint in bytes (telemetry: the cost of the filter).
    pub fn bitmap_bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = PAGE_SIZE as u64;

    #[test]
    fn empty_filter_rejects_everything() {
        let f = CandidateFilter::default();
        assert!(!f.allows(Addr::new(0)));
        assert!(!f.allows(Addr::new(0x4000_0000)));
        assert_eq!(f.candidate_pages(), 0);
    }

    #[test]
    fn covers_every_page_a_range_touches() {
        // 3 bytes straddling a page boundary cover both pages.
        let base = Addr::new(0x1_0000_0000 + P - 8);
        let f = CandidateFilter::build([(base, 16)]);
        assert!(f.allows(base));
        assert!(f.allows(Addr::new(0x1_0000_0000)), "first page");
        assert!(f.allows(Addr::new(0x1_0000_0000 + P)), "second page");
        assert!(!f.allows(Addr::new(0x1_0000_0000 + 2 * P)));
        assert_eq!(f.candidate_pages(), 2);
    }

    #[test]
    fn rejects_outside_span_without_panicking() {
        let f = CandidateFilter::build([(Addr::new(0x2_0000_0000), 64)]);
        assert!(f.allows(Addr::new(0x2_0000_0000 + 63)));
        assert!(!f.allows(Addr::new(0x2_0000_0000 - 8)), "below span");
        assert!(!f.allows(Addr::new(0x7_0000_0000)), "above span");
        assert!(!f.allows(Addr::new(0)), "wrapping offsets reject");
    }

    #[test]
    fn sparse_entries_share_one_span() {
        let lo = Addr::new(0x3_0000_0000);
        let hi = Addr::new(0x3_0000_0000 + 1000 * P);
        let f = CandidateFilter::build([(lo, 64), (hi, 64)]);
        assert!(f.allows(lo));
        assert!(f.allows(hi));
        assert!(!f.allows(Addr::new(0x3_0000_0000 + 500 * P)));
        assert_eq!(f.candidate_pages(), 2);
        assert!(f.bitmap_bytes() <= 1024 / 8 * 2 + 16, "1 bit per page in span");
    }
}
