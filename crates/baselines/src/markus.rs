//! MarkUs: quarantine + transitive conservative marking (S&P 2020).

use jalloc::{JAlloc, JallocConfig};
use minesweeper::{GranuleSet, ShadowMap};
use vmem::{Addr, AddrSpace, PageRange, Segment, WORD_SIZE};

/// MarkUs configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MarkUsConfig {
    /// Garbage-collect when quarantined bytes reach this fraction of the
    /// heap. MarkUs chose 25 %, "targeting a memory usage increase of a
    /// third" (§3.2 of the MineSweeper paper).
    pub gc_threshold: f64,
    /// Release the physical pages of page-spanning quarantined allocations
    /// (§4.2: "as in MarkUs").
    pub unmapping: bool,
    /// Aggressively clean the allocator's free structures after each
    /// collection (MarkUs's small-block sweeping analogue).
    pub purge_after_gc: bool,
}

impl MarkUsConfig {
    /// The published defaults.
    pub fn standard() -> Self {
        MarkUsConfig { gc_threshold: 0.25, unmapping: true, purge_after_gc: true }
    }
}

impl Default for MarkUsConfig {
    fn default() -> Self {
        MarkUsConfig::standard()
    }
}

/// Outcome of a MarkUs `free()`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MarkUsFreeOutcome {
    /// Quarantined until proven unreachable.
    Quarantined,
    /// Already quarantined: double free absorbed.
    DoubleFree,
    /// Not a live allocation base; rejected.
    Invalid,
}

/// Report from one marking pass + quarantine walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GcReport {
    /// Words examined (roots + transitively scanned objects). This is the
    /// cost driver: unlike MineSweeper's linear sweep it revisits the
    /// object graph in pointer order.
    pub scanned_words: u64,
    /// Objects marked reachable.
    pub marked_objects: u64,
    /// Quarantined allocations recycled.
    pub released: u64,
    /// Bytes recycled.
    pub released_bytes: u64,
    /// Quarantined allocations retained (reachable).
    pub retained: u64,
}

/// MarkUs statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MarkUsStats {
    /// Collections performed.
    pub collections: u64,
    /// Allocations quarantined.
    pub quarantined: u64,
    /// Allocations released.
    pub released: u64,
    /// Double frees absorbed.
    pub double_frees: u64,
    /// Invalid frees rejected.
    pub invalid_frees: u64,
    /// Total words scanned by marking over all collections.
    pub scanned_words: u64,
    /// Pages decommitted by large-allocation unmapping.
    pub unmapped_pages: u64,
}

/// A quarantined allocation awaiting a reachability verdict.
#[derive(Clone, Copy, Debug)]
struct QEntry {
    base: Addr,
    usable: u64,
    unmapped_pages: u64,
}

/// The MarkUs mitigation layer.
///
/// # Example
///
/// ```
/// use baselines::{MarkUs, MarkUsConfig};
/// use vmem::AddrSpace;
///
/// let mut space = AddrSpace::new();
/// let mut mu = MarkUs::new(MarkUsConfig::standard());
/// let p = mu.malloc(&mut space, 64);
/// mu.free(&mut space, p);
/// let report = mu.collect(&mut space);
/// assert_eq!(report.released, 1); // unreachable => recycled
/// ```
#[derive(Debug)]
pub struct MarkUs {
    cfg: MarkUsConfig,
    heap: JAlloc,
    quarantine: Vec<QEntry>,
    quarantined_bases: GranuleSet,
    quarantine_bytes: u64,
    retained_bytes: u64,
    stats: MarkUsStats,
}

impl MarkUs {
    /// Creates a MarkUs layer over a stock-configured heap.
    pub fn new(cfg: MarkUsConfig) -> Self {
        MarkUs {
            cfg,
            heap: JAlloc::with_config(JallocConfig::stock()),
            quarantine: Vec::new(),
            quarantined_bases: GranuleSet::new(),
            quarantine_bytes: 0,
            retained_bytes: 0,
            stats: MarkUsStats::default(),
        }
    }

    /// The underlying heap (read-only).
    pub fn heap(&self) -> &JAlloc {
        &self.heap
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &MarkUsStats {
        &self.stats
    }

    /// Bytes currently quarantined.
    pub fn quarantine_bytes(&self) -> u64 {
        self.quarantine_bytes
    }

    /// Number of quarantined allocations.
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }

    /// Whether `base` is quarantined.
    pub fn is_quarantined(&self, base: Addr) -> bool {
        self.quarantined_bases.contains(base)
    }

    /// Allocates `size` bytes.
    pub fn malloc(&mut self, space: &mut AddrSpace, size: u64) -> Addr {
        self.heap.malloc(space, size)
    }

    /// Advances virtual time (allocator decay purging).
    pub fn advance_clock(&mut self, now: u64) {
        self.heap.advance_clock(now);
    }

    /// Intercepts `free()`: quarantine without zeroing (pointers inside the
    /// object survive, so marking must be transitive).
    pub fn free(&mut self, space: &mut AddrSpace, addr: Addr) -> MarkUsFreeOutcome {
        if self.quarantined_bases.contains(addr) {
            self.stats.double_frees += 1;
            return MarkUsFreeOutcome::DoubleFree;
        }
        let Some(usable) = self.heap.usable_size(addr) else {
            self.stats.invalid_frees += 1;
            return MarkUsFreeOutcome::Invalid;
        };
        let mut unmapped_pages = 0;
        if self.cfg.unmapping {
            let interior = PageRange::interior(addr, usable);
            if !interior.is_empty() {
                // Physically release; contents (including any pointers the
                // object held) are destroyed, exactly like MarkUs's page
                // freeing.
                space.decommit(interior).expect("live allocation is mapped");
                unmapped_pages = interior.page_count();
                self.stats.unmapped_pages += unmapped_pages;
            }
        }
        self.quarantined_bases.insert(addr);
        self.quarantine_bytes += usable;
        self.quarantine.push(QEntry { base: addr, usable, unmapped_pages });
        self.stats.quarantined += 1;
        MarkUsFreeOutcome::Quarantined
    }

    /// Whether the collection trigger has fired: "when the programmer's
    /// quarantined frees take up 25 % of the total heap".
    ///
    /// Entries retained by the previous collection (still reachable) are
    /// discounted — like MineSweeper's failed frees (§3.2), counting them
    /// would re-trigger a collection after every subsequent `free()`.
    pub fn gc_needed(&self) -> bool {
        const MIN_GC_BYTES: u64 = 64 * 1024;
        let fresh = self.quarantine_bytes.saturating_sub(self.retained_bytes);
        fresh >= MIN_GC_BYTES
            && fresh as f64
                >= self.cfg.gc_threshold
                    * self.heap.stats().allocated_bytes.saturating_sub(self.retained_bytes)
                        as f64
    }

    /// Runs a full marking pass and quarantine walk.
    ///
    /// Marking is Boehm-style conservative reachability: every committed
    /// root word is a candidate pointer; every object it hits is scanned
    /// transitively. A quarantined object is released only if unreachable.
    pub fn collect(&mut self, space: &mut AddrSpace) -> GcReport {
        let mut report = GcReport::default();
        let layout = *space.layout();
        // The marked-object set is a shadow map over allocation bases: the
        // minimum size class is one 16-byte granule, so distinct bases
        // always occupy distinct granule bits, and `mark`'s newly-set
        // return drives worklist insertion exactly like `HashSet::insert`.
        let mut marked = ShadowMap::new();
        let mut worklist: Vec<(Addr, u64)> = Vec::new();

        // Root scan: committed pages of globals and stack (page slices),
        // in page order, walked run by run as `SweepPlan::build` does so
        // the rest of the segments costs nothing.
        for seg in [Segment::Globals, Segment::Stack] {
            let segment = PageRange::new(layout.segment_base(seg).page(), layout.segment_pages(seg));
            for (base, len) in space.committed_runs(segment) {
                for page in PageRange::spanning(base, len).iter() {
                    let Ok(Some(words)) = space.scan_page(page) else { continue };
                    report.scanned_words += words.len() as u64;
                    for &value in words.iter() {
                        self.visit(value, &layout, &mut marked, &mut worklist);
                    }
                }
            }
        }

        // Transitive closure over the object graph, page chunk by chunk.
        // Unbacked (unmapped-quarantined) ranges read as zero: their
        // pointers were physically destroyed with the pages.
        while let Some((base, usable)) = worklist.pop() {
            report.scanned_words += usable / WORD_SIZE as u64;
            let mut off = 0;
            while off < usable {
                let addr = base.add_bytes(off);
                let page_end =
                    addr.page().next().base().offset_from(base).min(usable);
                if let Ok(Some(words)) = space.scan_page(addr.page()) {
                    let w0 = addr.word_in_page();
                    let w1 = w0 + ((page_end - off) / WORD_SIZE as u64) as usize;
                    // `visit` needs `&self` only; the worklist and marked
                    // set are locals, so the page borrow is undisturbed.
                    for &value in &words[w0..w1] {
                        self.visit(value, &layout, &mut marked, &mut worklist);
                    }
                }
                off = page_end;
            }
        }
        report.marked_objects = marked.marked_count();

        // Quarantine walk: release unmarked entries.
        let entries = std::mem::take(&mut self.quarantine);
        self.retained_bytes = 0;
        for entry in entries {
            if marked.is_marked(entry.base) {
                report.retained += 1;
                self.retained_bytes += entry.usable;
                self.quarantine.push(entry);
            } else {
                if entry.unmapped_pages > 0 {
                    // Pages were already decommitted; nothing to restore
                    // (no protection was applied).
                }
                self.heap.free(space, entry.base).expect("quarantine owns this");
                self.quarantined_bases.remove(entry.base);
                self.quarantine_bytes -= entry.usable;
                report.released += 1;
                report.released_bytes += entry.usable;
                self.stats.released += 1;
            }
        }

        if self.cfg.purge_after_gc {
            self.heap.purge_all(space);
        }
        self.stats.collections += 1;
        self.stats.scanned_words += report.scanned_words;
        report
    }

    /// Conservative pointer test + mark + enqueue.
    fn visit(
        &self,
        value: u64,
        layout: &vmem::Layout,
        marked: &mut ShadowMap,
        worklist: &mut Vec<(Addr, u64)>,
    ) {
        if !layout.heap_contains(Addr::new(value)) {
            return;
        }
        let Some((base, usable)) = self.heap.allocation_range(Addr::new(value)) else {
            return;
        };
        if marked.mark(base) {
            worklist.push((base, usable));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmem::PAGE_SIZE;

    fn setup() -> (AddrSpace, MarkUs) {
        (AddrSpace::new(), MarkUs::new(MarkUsConfig::standard()))
    }

    fn stack_slot(space: &AddrSpace, i: u64) -> Addr {
        space.layout().segment_base(Segment::Stack) + i * 8
    }

    #[test]
    fn unreachable_quarantined_object_is_released() {
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 64);
        mu.free(&mut space, a);
        let report = mu.collect(&mut space);
        assert_eq!((report.released, report.retained), (1, 0));
    }

    #[test]
    fn rooted_dangling_pointer_retains_object() {
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 64);
        let slot = stack_slot(&space, 0);
        space.write_word(slot, a.raw()).unwrap();
        mu.free(&mut space, a);
        let report = mu.collect(&mut space);
        assert_eq!((report.released, report.retained), (0, 1));
        assert!(mu.is_quarantined(a));
        // Erase the root: next collection releases it.
        space.write_word(slot, 0).unwrap();
        assert_eq!(mu.collect(&mut space).released, 1);
    }

    #[test]
    fn transitive_reachability_through_live_objects() {
        // root -> live A -> quarantined B: B must be retained even though
        // no root points at it directly.
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 64);
        let b = mu.malloc(&mut space, 64);
        space.write_word(stack_slot(&space, 0), a.raw()).unwrap();
        space.write_word(a, b.raw()).unwrap();
        mu.free(&mut space, b);
        let report = mu.collect(&mut space);
        assert_eq!(report.retained, 1, "B reachable via A");
    }

    #[test]
    fn transitive_reachability_through_quarantined_objects() {
        // root -> quarantined A -> quarantined B: MarkUs does NOT zero, so
        // A's pointer to B survives and pins B too. (MineSweeper's zeroing
        // would release B.)
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 64);
        let b = mu.malloc(&mut space, 64);
        space.write_word(a, b.raw()).unwrap();
        space.write_word(stack_slot(&space, 0), a.raw()).unwrap();
        mu.free(&mut space, a);
        mu.free(&mut space, b);
        let report = mu.collect(&mut space);
        assert_eq!((report.released, report.retained), (0, 2));
    }

    #[test]
    fn unreachable_cycles_are_collected() {
        // Unlike a non-transitive no-zeroing scheme, a GC handles cycles:
        // unreachable quarantined A <-> B are both released.
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 64);
        let b = mu.malloc(&mut space, 64);
        space.write_word(a, b.raw()).unwrap();
        space.write_word(b, a.raw()).unwrap();
        mu.free(&mut space, a);
        mu.free(&mut space, b);
        let report = mu.collect(&mut space);
        assert_eq!((report.released, report.retained), (2, 0));
    }

    #[test]
    fn double_free_absorbed() {
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 64);
        assert_eq!(mu.free(&mut space, a), MarkUsFreeOutcome::Quarantined);
        assert_eq!(mu.free(&mut space, a), MarkUsFreeOutcome::DoubleFree);
        mu.collect(&mut space);
        assert_eq!(mu.heap().stats().frees, 1);
    }

    #[test]
    fn refree_after_collection_is_invalid() {
        // The released block sits in the heap's tcache, but the program no
        // longer owns it: quarantining it again would free it twice.
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 64);
        mu.free(&mut space, a);
        assert_eq!(mu.collect(&mut space).released, 1);
        assert_eq!(mu.free(&mut space, a), MarkUsFreeOutcome::Invalid);
        assert_eq!(mu.collect(&mut space).released, 0);
    }

    #[test]
    fn invalid_free_rejected() {
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 64);
        assert_eq!(mu.free(&mut space, a + 8), MarkUsFreeOutcome::Invalid);
        assert_eq!(mu.stats().invalid_frees, 1);
    }

    #[test]
    fn gc_trigger_at_quarter_heap() {
        let (mut space, mut mu) = setup();
        let addrs: Vec<Addr> = (0..512).map(|_| mu.malloc(&mut space, 4096)).collect();
        assert!(!mu.gc_needed());
        for &a in addrs.iter().take(100) {
            mu.free(&mut space, a);
        }
        assert!(!mu.gc_needed(), "19.5% < 25%");
        for &a in addrs.iter().skip(100).take(30) {
            mu.free(&mut space, a);
        }
        assert!(mu.gc_needed(), "25.4% >= 25%");
    }

    #[test]
    fn large_quarantined_allocations_release_physical_pages() {
        let (mut space, mut mu) = setup();
        let size = 32 * PAGE_SIZE as u64;
        let a = mu.malloc(&mut space, size);
        for p in 0..32u64 {
            space.write_word(a + p * PAGE_SIZE as u64, 1).unwrap();
        }
        let before = space.rss_bytes();
        mu.free(&mut space, a);
        assert!(space.rss_bytes() + 31 * PAGE_SIZE as u64 <= before);
    }

    #[test]
    fn unmapped_quarantined_pages_lose_their_pointers() {
        // A dangling pointer stored *inside* a large quarantined object is
        // physically destroyed by page release; it cannot pin anything.
        let (mut space, mut mu) = setup();
        let victim = mu.malloc(&mut space, 64);
        let big = mu.malloc(&mut space, 32 * PAGE_SIZE as u64);
        space.write_word(big + PAGE_SIZE as u64, victim.raw()).unwrap();
        space.write_word(stack_slot(&space, 0), big.raw()).unwrap(); // big reachable
        mu.free(&mut space, big);
        mu.free(&mut space, victim);
        let report = mu.collect(&mut space);
        // big retained (rooted), victim released (its only pointer died
        // with big's pages).
        assert_eq!((report.retained, report.released), (1, 1));
    }

    #[test]
    fn interior_pointers_retain_objects() {
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 256);
        space.write_word(stack_slot(&space, 0), a.raw() + 128).unwrap();
        mu.free(&mut space, a);
        assert_eq!(mu.collect(&mut space).retained, 1);
    }

    #[test]
    fn quarantine_bytes_balance() {
        let (mut space, mut mu) = setup();
        let a = mu.malloc(&mut space, 100); // class 112
        let b = mu.malloc(&mut space, 100);
        mu.free(&mut space, a);
        mu.free(&mut space, b);
        assert_eq!(mu.quarantine_bytes(), 224);
        mu.collect(&mut space);
        assert_eq!(mu.quarantine_bytes(), 0);
        assert_eq!(mu.quarantine_len(), 0);
    }
}
