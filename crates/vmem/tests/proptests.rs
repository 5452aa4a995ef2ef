//! Property-based tests for the virtual-memory substrate.
//!
//! Invariants checked:
//! * RSS never exceeds mapped bytes and both are non-negative multiples of
//!   the page size.
//! * `read_word` always returns the last value written to an address
//!   (until decommit/unmap), regardless of the interleaving of mapping,
//!   commit, decommit and protection operations.
//! * Decommit + re-access always yields zero (demand-zero paging).
//! * Soft-dirty tracking is a superset of the pages actually written since
//!   the last clear.
//! * The radix page table behaves exactly like a `BTreeMap` of pages, across
//!   a 512-page leaf boundary and a far leaf, for every operation and query,
//!   and keeps a full leaf exactly where a page has left the pristine state
//!   since its leaf was last empty (`table_matches_btreemap_model`).
//! * A page's heap-word map equals a brute-force classification of its
//!   words after every operation, and only pages a sweep has read since
//!   they were mapped carry one (`heap_word_maps_stay_exact`).

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use vmem::{
    Addr, AddrSpace, HeapMap, MemError, MemStats, PageIdx, PageRange, Protection, Segment,
    PAGE_SIZE, WORD_SIZE,
};

/// Operations the state machine may apply to a small heap region.
#[derive(Clone, Debug)]
enum Op {
    Write { page: u8, word: u8, value: u64 },
    Read { page: u8, word: u8 },
    Decommit { page: u8 },
    Commit { page: u8 },
    ProtectNone { page: u8 },
    ProtectRw { page: u8 },
    ClearSoftDirty,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, 0u8..64, any::<u64>())
            .prop_map(|(page, word, value)| Op::Write { page, word, value }),
        (0u8..8, 0u8..64).prop_map(|(page, word)| Op::Read { page, word }),
        (0u8..8).prop_map(|page| Op::Decommit { page }),
        (0u8..8).prop_map(|page| Op::Commit { page }),
        (0u8..8).prop_map(|page| Op::ProtectNone { page }),
        (0u8..8).prop_map(|page| Op::ProtectRw { page }),
        Just(Op::ClearSoftDirty),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn space_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut space = AddrSpace::new();
        let base = space.reserve_heap(8);
        space.map(base, 8).unwrap();

        // Reference model: word address -> value, page -> protected?, page -> dirty?
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut protected = [false; 8];
        let mut dirtied = [false; 8];

        for op in ops {
            match op {
                Op::Write { page, word, value } => {
                    let addr = base + page as u64 * PAGE_SIZE as u64 + word as u64 * WORD_SIZE as u64;
                    let res = space.write_word(addr, value);
                    if protected[page as usize] {
                        prop_assert!(res.is_err(), "write through PROT_NONE must fault");
                    } else {
                        prop_assert!(res.is_ok());
                        model.insert(addr.raw(), value);
                        dirtied[page as usize] = true;
                    }
                }
                Op::Read { page, word } => {
                    let addr = base + page as u64 * PAGE_SIZE as u64 + word as u64 * WORD_SIZE as u64;
                    let res = space.read_word(addr);
                    if protected[page as usize] {
                        prop_assert!(res.is_err(), "read through PROT_NONE must fault");
                    } else {
                        let expected = model.get(&addr.raw()).copied().unwrap_or(0);
                        prop_assert_eq!(res.unwrap(), expected);
                    }
                }
                Op::Decommit { page } => {
                    let addr = base + page as u64 * PAGE_SIZE as u64;
                    space.decommit(PageRange::spanning(addr, PAGE_SIZE as u64)).unwrap();
                    // All words on the page now read as zero.
                    let lo = addr.raw();
                    model.retain(|&a, _| !(lo..lo + PAGE_SIZE as u64).contains(&a));
                }
                Op::Commit { page } => {
                    let addr = base + page as u64 * PAGE_SIZE as u64;
                    space.commit(PageRange::spanning(addr, PAGE_SIZE as u64)).unwrap();
                }
                Op::ProtectNone { page } => {
                    let addr = base + page as u64 * PAGE_SIZE as u64;
                    space.protect(PageRange::spanning(addr, PAGE_SIZE as u64), Protection::None).unwrap();
                    protected[page as usize] = true;
                }
                Op::ProtectRw { page } => {
                    let addr = base + page as u64 * PAGE_SIZE as u64;
                    space.protect(PageRange::spanning(addr, PAGE_SIZE as u64), Protection::ReadWrite).unwrap();
                    protected[page as usize] = false;
                }
                Op::ClearSoftDirty => {
                    space.clear_soft_dirty();
                    dirtied = [false; 8];
                }
            }

            // Global invariants after every step.
            prop_assert!(space.rss_bytes() <= space.mapped_bytes());
            prop_assert_eq!(space.rss_bytes() % PAGE_SIZE as u64, 0);
            prop_assert!(space.stats().peak_rss_bytes() >= space.rss_bytes());

            // Every page we wrote since the last clear is soft-dirty
            // (the space may report more, e.g. zero-fills, never fewer).
            for (i, &was_written) in dirtied.iter().enumerate() {
                if was_written && space.is_committed(base + i as u64 * PAGE_SIZE as u64) {
                    prop_assert!(
                        space.is_soft_dirty(base + i as u64 * PAGE_SIZE as u64),
                        "page {i} written but not soft-dirty"
                    );
                }
            }
        }
    }

    #[test]
    fn peek_never_changes_state(
        words in proptest::collection::vec((0u64..8 * 512, any::<u64>()), 1..50)
    ) {
        let mut space = AddrSpace::new();
        let base = space.reserve_heap(8);
        space.map(base, 8).unwrap();
        for &(w, v) in words.iter().take(words.len() / 2) {
            space.write_word(base + w * WORD_SIZE as u64, v).unwrap();
        }
        let rss = space.rss_bytes();
        let dirty = space.soft_dirty_pages();
        for &(w, _) in &words {
            let _ = space.peek_word(base + w * WORD_SIZE as u64);
        }
        prop_assert_eq!(space.rss_bytes(), rss);
        prop_assert_eq!(space.soft_dirty_pages(), dirty);
    }

    #[test]
    fn fill_zero_matches_word_writes(
        start_word in 0u64..500,
        len_words in 0u64..300,
        seed in any::<u64>(),
    ) {
        let mut a = AddrSpace::new();
        let mut b = AddrSpace::new();
        let base_a = a.reserve_heap(2);
        let base_b = b.reserve_heap(2);
        a.map(base_a, 2).unwrap();
        b.map(base_b, 2).unwrap();
        // Fill both spaces identically.
        let mut x = seed | 1;
        for w in 0..1024u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            a.write_word(base_a + w * 8, x).unwrap();
            b.write_word(base_b + w * 8, x).unwrap();
        }
        let len_words = len_words.min(1024 - start_word);
        a.fill_zero(base_a + start_word * 8, len_words * 8).unwrap();
        for w in start_word..start_word + len_words {
            b.write_word(base_b + w * 8, 0).unwrap();
        }
        for w in 0..1024u64 {
            prop_assert_eq!(
                a.read_word(base_a + w * 8).unwrap(),
                b.read_word(base_b + w * 8).unwrap(),
                "word {} differs", w
            );
        }
    }
}

/// Pages per page-table leaf.
const LEAF: u64 = 512;

/// Candidate pages, as offsets from the heap base (which is leaf aligned):
/// sixteen straddling the boundary between leaves 0 and 1, and the last
/// four slots of leaf 5. Multi-page ops starting near the end of the far
/// leaf spill into leaf 6.
fn cand(i: u8) -> u64 {
    match i {
        0..16 => LEAF - 8 + i as u64,
        _ => 6 * LEAF - 4 + (i - 16) as u64,
    }
}
const CANDS: u8 = 20;
/// Pages reserved for the test window: leaves 0 through 6.
const WINDOW: u64 = 7 * LEAF;

/// Leaves [`TOp::MapLeaf`] maps whole: the three that hold candidates.
const MAP_LEAVES: [u64; 3] = [0, 1, 5];

/// One operation of the page-table differential test. `at` indexes
/// [`cand`]; `count` pages run upwards from there.
#[derive(Clone, Debug)]
enum TOp {
    Map { at: u8, count: u8 },
    /// Maps all 512 pages of window leaf `leaf`.
    MapLeaf { leaf: u64 },
    Unmap { at: u8, count: u8 },
    /// Unmaps every mapped page of window leaf `leaf`, one call per page.
    UnmapLeaf { leaf: u64 },
    Commit { at: u8, count: u8 },
    Decommit { at: u8, count: u8 },
    Protect { at: u8, count: u8, none: bool },
    Alias { va: u8, frame: u8 },
    Write { at: u8, word: u16, value: u64 },
    Read { at: u8, word: u16 },
    Peek { at: u8, word: u16 },
    /// `scan_page`, folding the page's first four words (the only ones
    /// `Write` reaches) into one value.
    Scan { at: u8 },
    Touch { at: u8 },
    ClearAll,
    ClearRange { at: u8, count: u8 },
}

fn top_strategy() -> impl Strategy<Value = TOp> {
    let run = || (0u8..CANDS, 1u8..4);
    prop_oneof![
        4 => run().prop_map(|(at, count)| TOp::Map { at, count }),
        1 => (0u8..3).prop_map(|i| TOp::MapLeaf { leaf: MAP_LEAVES[i as usize] }),
        2 => run().prop_map(|(at, count)| TOp::Unmap { at, count }),
        1 => (0u64..7).prop_map(|leaf| TOp::UnmapLeaf { leaf }),
        2 => run().prop_map(|(at, count)| TOp::Commit { at, count }),
        2 => run().prop_map(|(at, count)| TOp::Decommit { at, count }),
        2 => (0u8..CANDS, 1u8..4, any::<bool>())
            .prop_map(|(at, count, none)| TOp::Protect { at, count, none }),
        2 => (0u8..CANDS, 0u8..CANDS).prop_map(|(va, frame)| TOp::Alias { va, frame }),
        4 => (0u8..CANDS, 0u16..4, any::<u64>())
            .prop_map(|(at, word, value)| TOp::Write { at, word, value }),
        2 => (0u8..CANDS, 0u16..4).prop_map(|(at, word)| TOp::Read { at, word }),
        2 => (0u8..CANDS, 0u16..4).prop_map(|(at, word)| TOp::Peek { at, word }),
        2 => (0u8..CANDS).prop_map(|at| TOp::Scan { at }),
        1 => (0u8..CANDS).prop_map(|at| TOp::Touch { at }),
        1 => Just(TOp::ClearAll),
        1 => run().prop_map(|(at, count)| TOp::ClearRange { at, count }),
    ]
}

/// Reference page: the state [`AddrSpace`] keeps per page.
#[derive(Clone, Debug, Default)]
struct MPage {
    /// Committed contents (absent words are zero).
    data: Option<BTreeMap<u64, u64>>,
    prot_none: bool,
    dirty: bool,
    alias_of: Option<u64>,
}

impl MPage {
    /// As a fresh mapping leaves a page.
    fn pristine(&self) -> bool {
        self.data.is_none() && !self.prot_none && !self.dirty && self.alias_of.is_none()
    }
}

/// Folds the four words `Write` can reach, as [`TOp::Scan`] reports them.
fn fold(words: impl Fn(u64) -> u64) -> u64 {
    (0..4).fold(0, |acc, w| acc ^ words(w).rotate_left(w as u32 * 16))
}

/// The executable spec: pages in a `BTreeMap`, statistics by hand.
struct Model {
    pages: BTreeMap<u64, MPage>,
    stats: MemStats,
    /// Leaves where a page has left the pristine state since the leaf was
    /// last empty: the ones the table must hold as full leaves.
    full: BTreeSet<u64>,
}

impl Model {
    fn commit(&mut self, page: u64, on_demand: bool) {
        let p = self.pages.get_mut(&page).expect("mapped");
        if p.data.is_none() {
            p.data = Some(BTreeMap::new());
            p.dirty = true;
            self.stats.committed_pages += 1;
            if on_demand {
                self.stats.demand_commits += 1;
            } else {
                self.stats.explicit_commits += 1;
            }
            self.stats.peak_committed_pages = self
                .stats
                .peak_committed_pages
                .max(self.stats.committed_pages);
        }
    }

    fn drop_backing(&mut self, had: bool) {
        if had {
            self.stats.committed_pages -= 1;
            self.stats.decommits += 1;
        }
    }

    /// Storage page for an access to `addr`, as `resolve_storage` defines.
    fn resolve(&self, addr: Addr) -> Result<u64, MemError> {
        let p = self
            .pages
            .get(&addr.page().raw())
            .ok_or(MemError::Unmapped(addr))?;
        if p.prot_none {
            return Err(MemError::Protected(addr));
        }
        match p.alias_of {
            None => Ok(addr.page().raw()),
            Some(f) if self.pages.contains_key(&f) => Ok(f),
            Some(_) => Err(MemError::Unmapped(addr)),
        }
    }

    fn first_unmapped(&self, pages: &[u64]) -> Option<u64> {
        pages.iter().copied().find(|p| !self.pages.contains_key(p))
    }

    /// Brings [`Model::full`] up to date after an op and returns the
    /// expected `(full, pristine)` leaf counts of the window.
    fn leaves(&mut self) -> (usize, usize) {
        let mapped: BTreeSet<u64> = self.pages.keys().map(|p| p / LEAF).collect();
        self.full.retain(|l| mapped.contains(l));
        self.full.extend(self.pages.iter().filter(|(_, m)| !m.pristine()).map(|(p, _)| p / LEAF));
        (self.full.len(), mapped.len() - self.full.len())
    }

    fn map(&mut self, pages: Vec<u64>) -> Result<u64, MemError> {
        if let Some(&p) = pages.iter().find(|p| self.pages.contains_key(p)) {
            return Err(MemError::AlreadyMapped(PageIdx::new(p).base()));
        }
        self.stats.mapped_pages += pages.len() as u64;
        self.stats.maps += 1;
        for p in pages {
            self.pages.insert(p, MPage::default());
        }
        Ok(0)
    }

    fn unmap(&mut self, pages: Vec<u64>) -> Result<u64, MemError> {
        if let Some(p) = self.first_unmapped(&pages) {
            return Err(MemError::Unmapped(PageIdx::new(p).base()));
        }
        self.stats.mapped_pages -= pages.len() as u64;
        self.stats.unmaps += 1;
        for p in pages {
            let had = self.pages.remove(&p).unwrap().data.is_some();
            self.drop_backing(had);
        }
        Ok(0)
    }

    fn apply(&mut self, op: &TOp, base: u64) -> Result<u64, MemError> {
        let addr = |page: u64| PageIdx::new(page).base();
        let run = |at: u8, count: u8| -> Vec<u64> {
            (0..count as u64).map(|k| base + cand(at) + k).collect()
        };
        let word_addr = |at: u8, word: u16| addr(base + cand(at)).add_bytes(word as u64 * 8);
        match *op {
            TOp::Map { at, count } => return self.map(run(at, count)),
            TOp::MapLeaf { leaf } => return self.map((0..LEAF).map(|k| base + leaf * LEAF + k).collect()),
            TOp::Unmap { at, count } => return self.unmap(run(at, count)),
            TOp::UnmapLeaf { leaf } => {
                let first = base + leaf * LEAF;
                let mapped: Vec<u64> = self.pages.range(first..first + LEAF).map(|(&p, _)| p).collect();
                for p in mapped {
                    self.unmap(vec![p])?;
                }
            }
            TOp::Commit { at, count } => {
                for p in run(at, count) {
                    if !self.pages.contains_key(&p) {
                        return Err(MemError::Unmapped(addr(p)));
                    }
                    self.commit(p, false);
                }
            }
            TOp::Decommit { at, count } => {
                for p in run(at, count) {
                    let page = self.pages.get_mut(&p).ok_or(MemError::Unmapped(addr(p)))?;
                    let had = page.data.take().is_some();
                    page.dirty |= had;
                    self.drop_backing(had);
                }
            }
            TOp::Protect { at, count, none } => {
                let pages = run(at, count);
                if let Some(p) = self.first_unmapped(&pages) {
                    return Err(MemError::Unmapped(addr(p)));
                }
                for p in pages {
                    let page = self.pages.get_mut(&p).unwrap();
                    page.dirty |= page.prot_none != none;
                    page.prot_none = none;
                }
                self.stats.protects += 1;
            }
            TOp::Alias { va, frame } => {
                let (va, frame) = (base + cand(va), base + cand(frame));
                if self.pages.contains_key(&va) {
                    return Err(MemError::AlreadyMapped(addr(va)));
                }
                match self.pages.get(&frame) {
                    Some(f) if f.alias_of.is_none() => {}
                    _ => return Err(MemError::Unmapped(addr(frame))),
                }
                self.pages.insert(
                    va,
                    MPage {
                        alias_of: Some(frame),
                        ..MPage::default()
                    },
                );
                self.stats.mapped_pages += 1;
                self.stats.maps += 1;
            }
            TOp::Write { at, word, value } => {
                let a = word_addr(at, word);
                let storage = self.resolve(a)?;
                self.commit(storage, true);
                let page = self.pages.get_mut(&storage).unwrap();
                page.data.as_mut().unwrap().insert(word as u64, value);
                page.dirty = true;
            }
            TOp::Read { at, word } => {
                let storage = self.resolve(word_addr(at, word))?;
                self.commit(storage, true);
                let data = self.pages[&storage].data.as_ref().unwrap();
                return Ok(data.get(&(word as u64)).copied().unwrap_or(0));
            }
            TOp::Peek { at, word } => {
                let storage = self.resolve(word_addr(at, word))?;
                let data = self.pages[&storage].data.as_ref();
                return Ok(data
                    .and_then(|d| d.get(&(word as u64)).copied())
                    .unwrap_or(0));
            }
            TOp::Scan { at } => {
                let storage = self.resolve(addr(base + cand(at)))?;
                let data = self.pages[&storage].data.as_ref();
                return Ok(data.map_or(0, |d| fold(|w| d.get(&w).copied().unwrap_or(0))));
            }
            TOp::Touch { at } => {
                let storage = self.resolve(addr(base + cand(at)))?;
                self.commit(storage, true);
            }
            TOp::ClearAll => self.pages.values_mut().for_each(|p| p.dirty = false),
            TOp::ClearRange { at, count } => {
                for p in run(at, count) {
                    if let Some(page) = self.pages.get_mut(&p) {
                        page.dirty = false;
                    }
                }
            }
        }
        Ok(0)
    }

    fn committed(&self, page: u64) -> bool {
        self.pages.get(&page).is_some_and(|p| p.data.is_some())
    }
}

/// Applies `op` to the real space, in the same shape as [`Model::apply`].
fn apply_space(space: &mut AddrSpace, op: &TOp, base: u64) -> Result<u64, MemError> {
    let addr = |page: u64| PageIdx::new(page).base();
    let range = |at: u8, count: u8| PageRange::new(PageIdx::new(base + cand(at)), count as u64);
    let word_addr = |at: u8, word: u16| addr(base + cand(at)).add_bytes(word as u64 * 8);
    match *op {
        TOp::Map { at, count } => space.map(addr(base + cand(at)), count as u64).map(|_| 0),
        TOp::MapLeaf { leaf } => space.map(addr(base + leaf * LEAF), LEAF).map(|_| 0),
        TOp::Unmap { at, count } => space.unmap(range(at, count)).map(|_| 0),
        TOp::UnmapLeaf { leaf } => {
            for p in (0..LEAF).map(|k| PageIdx::new(base + leaf * LEAF + k)) {
                if space.is_mapped(p.base()) {
                    space.unmap(PageRange::new(p, 1))?;
                }
            }
            Ok(0)
        }
        TOp::Commit { at, count } => space.commit(range(at, count)).map(|_| 0),
        TOp::Decommit { at, count } => space.decommit(range(at, count)).map(|_| 0),
        TOp::Protect { at, count, none } => {
            let prot = if none {
                Protection::None
            } else {
                Protection::ReadWrite
            };
            space.protect(range(at, count), prot).map(|_| 0)
        }
        TOp::Alias { va, frame } => space
            .map_alias(addr(base + cand(va)), PageIdx::new(base + cand(frame)))
            .map(|_| 0),
        TOp::Write { at, word, value } => space.write_word(word_addr(at, word), value).map(|_| 0),
        TOp::Read { at, word } => space.read_word(word_addr(at, word)),
        TOp::Peek { at, word } => space.peek_word(word_addr(at, word)),
        TOp::Scan { at } => space
            .scan_page(PageIdx::new(base + cand(at)))
            .map(|words| words.map_or(0, |d| fold(|w| d[w as usize]))),
        TOp::Touch { at } => space.touch_page(PageIdx::new(base + cand(at))).map(|_| 0),
        TOp::ClearAll => {
            space.clear_soft_dirty();
            Ok(0)
        }
        TOp::ClearRange { at, count } => {
            space.clear_soft_dirty_range(range(at, count));
            Ok(0)
        }
    }
}

/// Committed runs of `[start, end)` by brute force, one page at a time.
fn runs_by_page(model: &Model, start: u64, end: u64) -> Vec<(Addr, u64)> {
    let mut runs = Vec::new();
    let mut open = None;
    for p in start..=end {
        if p < end && model.committed(p) {
            open.get_or_insert(p);
        } else if let Some(first) = open.take() {
            runs.push((PageIdx::new(first).base(), (p - first) * PAGE_SIZE as u64));
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn table_matches_btreemap_model(ops in proptest::collection::vec(top_strategy(), 1..120)) {
        let mut space = AddrSpace::new();
        let base = space.reserve_heap(WINDOW).page().raw();
        let mut model = Model { pages: BTreeMap::new(), stats: *space.stats(), full: BTreeSet::new() };
        // The globals and stack leaves, all pristine.
        let roots = space.page_table_leaves();
        prop_assert_eq!(roots.0, 0);
        // Windows the per-op queries cover: the leaf-0/1 straddle, the far
        // leaf's tail spilling into leaf 6, and all seven leaves.
        let near = (base + LEAF - 16, base + LEAF + 16);
        let far = (base + 6 * LEAF - 8, base + 6 * LEAF + 8);
        let all = (base, base + WINDOW);
        let page_range = |(s, e): (u64, u64)| PageRange::new(PageIdx::new(s), e - s);

        for op in &ops {
            prop_assert_eq!(apply_space(&mut space, op, base), model.apply(op, base), "{:?}", op);
            prop_assert_eq!(space.stats(), &model.stats, "{:?}", op);
            let (full, pristine) = model.leaves();
            prop_assert_eq!(space.page_table_leaves(), (full, roots.1 + pristine), "{:?}", op);

            let dirty: Vec<PageIdx> = model
                .pages
                .iter()
                .filter(|(_, p)| p.dirty && p.data.is_some())
                .map(|(&i, _)| PageIdx::new(i))
                .collect();
            prop_assert_eq!(space.soft_dirty_pages(), dirty);

            for w in [near, far] {
                let snapshot: Vec<PageIdx> = (w.0..w.1)
                    .filter(|p| !model.pages.get(p).is_some_and(|m| {
                        m.data.is_some() && !m.prot_none && m.alias_of.is_none() && !m.dirty
                    }))
                    .map(PageIdx::new)
                    .collect();
                prop_assert_eq!(space.snapshot_soft_dirty(page_range(w)), snapshot);
                prop_assert_eq!(
                    space.committed_runs(page_range(w)),
                    runs_by_page(&model, w.0, w.1)
                );
                let committed = (w.0..w.1).filter(|&p| model.committed(p)).count() as u64;
                prop_assert_eq!(space.committed_pages_in(page_range(w)), committed);
            }
            for i in 0..CANDS {
                let a = PageIdx::new(base + cand(i)).base();
                let m = model.pages.get(&a.page().raw());
                prop_assert_eq!(space.is_mapped(a), m.is_some());
                prop_assert_eq!(space.is_committed(a), m.is_some_and(|p| p.data.is_some()));
                prop_assert_eq!(space.is_soft_dirty(a), m.is_some_and(|p| p.dirty));
                prop_assert_eq!(
                    space.protection(a),
                    m.map(|p| if p.prot_none { Protection::None } else { Protection::ReadWrite })
                );
                prop_assert_eq!(
                    space.alias_target(a),
                    m.and_then(|p| p.alias_of).map(PageIdx::new)
                );
            }
            // `committed_pages_in` takes a leaf the range covers whole from
            // the leaf's `committed` counter alone, so over these seven
            // aligned leaves (the only committed memory) it is the
            // counters' sum.
            prop_assert_eq!(
                space.committed_pages_in(page_range(all)),
                space.stats().committed_pages
            );
        }
        prop_assert_eq!(space.committed_runs(page_range(all)), runs_by_page(&model, all.0, all.1));
    }
}

/// Pages of the heap-word-map test window.
const MAP_PAGES: u8 = 6;

/// One operation of the heap-word-map test on the window's pages.
#[derive(Clone, Debug)]
enum MOp {
    Map { at: u8, count: u8 },
    Unmap { at: u8, count: u8 },
    Commit { at: u8, count: u8 },
    Decommit { at: u8, count: u8 },
    Protect { at: u8, count: u8, none: bool },
    Alias { va: u8, frame: u8 },
    /// Writes a value of class `class % 4` (zero, heap address, junk,
    /// heap boundary) to word `word` of page `at`.
    Write { at: u8, word: u16, class: u8, seed: u64 },
    /// Zero-fills `len` words from word `word` of page `at`, possibly
    /// running into the next pages.
    Zero { at: u8, word: u16, len: u16 },
    /// The sweep's read: `scan_heap_words`.
    Sweep { at: u8 },
}

fn mop_strategy() -> impl Strategy<Value = MOp> {
    let run = || (0u8..MAP_PAGES, 1u8..3);
    prop_oneof![
        3 => run().prop_map(|(at, count)| MOp::Map { at, count }),
        1 => run().prop_map(|(at, count)| MOp::Unmap { at, count }),
        1 => run().prop_map(|(at, count)| MOp::Commit { at, count }),
        1 => run().prop_map(|(at, count)| MOp::Decommit { at, count }),
        1 => (0u8..MAP_PAGES, 1u8..3, any::<bool>())
            .prop_map(|(at, count, none)| MOp::Protect { at, count, none }),
        1 => (0u8..MAP_PAGES, 0u8..MAP_PAGES).prop_map(|(va, frame)| MOp::Alias { va, frame }),
        8 => (0u8..MAP_PAGES, 0u16..512, any::<u8>(), any::<u64>())
            .prop_map(|(at, word, class, seed)| MOp::Write { at, word, class, seed }),
        2 => (0u8..MAP_PAGES, 0u16..512, 1u16..700)
            .prop_map(|(at, word, len)| MOp::Zero { at, word, len }),
        3 => (0u8..MAP_PAGES).prop_map(|at| MOp::Sweep { at }),
    ]
}

/// The heap-word map of `words` by brute force, one word at a time.
fn classify(words: &[u64; 512], lo: u64, hi: u64) -> HeapMap {
    let mut map = HeapMap::default();
    for (i, &w) in words.iter().enumerate() {
        if lo <= w && w < hi {
            map.0[i / 64] |= 1 << (i % 64);
        }
    }
    map
}

/// Reads `page` the sweep's way. Returns the result (words and map
/// compared as equal or not) and whether the read built the map.
fn sweep_read(space: &mut AddrSpace, page: PageIdx) -> (Result<Option<bool>, MemError>, bool) {
    let layout = *space.layout();
    let (lo, hi) = (layout.segment_base(Segment::Heap).raw(), layout.segment_end(Segment::Heap).raw());
    let mut built = false;
    let r = space.scan_heap_words(page, |words, lo, hi| {
        built = true;
        classify(words, lo, hi)
    });
    (r.map(|read| read.map(|(words, map)| *map == classify(words, lo, hi))), built)
}

/// Runs `ops` and checks every swept page's map after each one.
fn check_heap_maps(ops: &[MOp]) -> Result<(), TestCaseError> {
    let mut space = AddrSpace::new();
    let base = space.reserve_heap(MAP_PAGES as u64 + 2);
    let page = |at: u8| base.page().raw() + at as u64;
    let range = |at: u8, count: u8| PageRange::new(PageIdx::new(page(at)), count as u64);
    let (lo, hi) = {
        let l = space.layout();
        (l.segment_base(Segment::Heap).raw(), l.segment_end(Segment::Heap).raw())
    };
    // Storage pages a sweep has read since they were mapped: exactly the
    // pages that must carry a map.
    let mut swept: BTreeSet<u64> = BTreeSet::new();
    for op in ops {
        match *op {
            MOp::Map { at, count } => {
                let _ = space.map(PageIdx::new(page(at)).base(), count as u64);
            }
            MOp::Unmap { at, count } => {
                if space.unmap(range(at, count)).is_ok() {
                    for p in range(at, count).iter() {
                        swept.remove(&p.raw());
                    }
                }
            }
            MOp::Commit { at, count } => {
                let _ = space.commit(range(at, count));
            }
            MOp::Decommit { at, count } => {
                // A decommitted page keeps its map, emptied.
                let _ = space.decommit(range(at, count));
            }
            MOp::Protect { at, count, none } => {
                let prot = if none { Protection::None } else { Protection::ReadWrite };
                let _ = space.protect(range(at, count), prot);
            }
            MOp::Alias { va, frame } => {
                let _ = space.map_alias(PageIdx::new(page(va)).base(), PageIdx::new(page(frame)));
            }
            MOp::Write { at, word, class, seed } => {
                let value = match class % 4 {
                    0 => 0,
                    1 => lo + seed % (1 << 30),
                    2 => seed >> 24,
                    _ => [lo - 8, lo, hi - 8, hi][seed as usize % 4],
                };
                let addr = PageIdx::new(page(at)).base().add_bytes(word as u64 * 8);
                let _ = space.write_word(addr, value);
            }
            MOp::Zero { at, word, len } => {
                let addr = PageIdx::new(page(at)).base().add_bytes(word as u64 * 8);
                let _ = space.fill_zero(addr, len as u64 * 8);
            }
            MOp::Sweep { at } => {
                let p = PageIdx::new(page(at));
                let storage = space.alias_target(p.base()).unwrap_or(p).raw();
                let (read, built) = sweep_read(&mut space, p);
                if let Ok(Some(exact)) = read {
                    prop_assert!(exact, "map of page {} is not its words' map", at);
                    prop_assert_eq!(built, !swept.contains(&storage), "page {}", at);
                    swept.insert(storage);
                } else {
                    prop_assert!(!built, "no map for a page with no words");
                }
            }
        }
        // Every swept page that is still readable shows an exact map,
        // without building one (an uncommitted one reads as no words). A
        // slot that is an alias itself (an alias whose frame was unmapped
        // and remapped as an alias resolves to that slot) cannot be read
        // by its own index: that read resolves one level further.
        for &p in &swept {
            if space.alias_target(PageIdx::new(p).base()).is_some() {
                continue;
            }
            let (read, built) = sweep_read(&mut space, PageIdx::new(p));
            prop_assert!(!built, "swept page {:#x} lost its map after {:?}", p, op);
            if let Ok(Some(exact)) = read {
                prop_assert!(exact, "page {:#x} after {:?}", p, op);
            }
        }
    }
    // No other page carries a map: a sweep read builds one for every
    // committed, readable page outside `swept`.
    for at in 0..MAP_PAGES {
        let p = PageIdx::new(page(at));
        if space.alias_target(p.base()).is_none() && !swept.contains(&p.raw()) {
            let (read, built) = sweep_read(&mut space, p);
            if let Ok(Some(exact)) = read {
                prop_assert!(exact && built, "page {} carries a map no sweep built", at);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heap_word_maps_stay_exact(ops in proptest::collection::vec(mop_strategy(), 1..100)) {
        check_heap_maps(&ops)?;
    }
}
