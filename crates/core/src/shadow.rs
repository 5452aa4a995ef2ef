//! The shadow map: one mark bit per 16-byte granule of virtual memory.
//!
//! "The shadow map marks the targets of pointers, and is consulted for each
//! quarantined allocation, to see if pointers have been discovered to it"
//! (§3.2). One bit per 128 bits of memory is the smallest allocation
//! granule, so every allocation maps to a distinct bit range. The paper
//! implements it as a flat reservation; the simulation uses a sparse
//! radix bitmap with identical indexing semantics (the flat space would be
//! 2⁶⁰ bits here), keeping the <1 % space overhead property: its memory
//! follows the address space actually marked.
//!
//! # Layout
//!
//! A granule index (`addr >> 4`) is decomposed into four digits:
//!
//! ```text
//!  granule = [ l1 : 9 ][ l2 : 9 ][ l3 : 9 ][ bit-in-chunk : 15 ]
//! ```
//!
//! * the low 15 bits select one of 32 Ki bits inside a **chunk** — 512
//!   `u64` words, a 4 KiB bitmap page shadowing 512 KiB of address
//!   space (the same 1/128 ratio as the paper's flat map);
//! * each 9-bit digit above indexes a **node** of 512 lazily allocated
//!   child pointers, itself 4 KiB: the root (`l1`, 128 GiB of address
//!   space per entry), a level-2 node (256 MiB per entry) and a level-3
//!   node (one chunk per entry).
//!
//! Together they cover 2⁴² granules = 64 TiB of virtual address space
//! ([`MAX_SHADOWED`]), comfortably above the [`vmem::Layout`] reservation.
//! A new map is its 4 KiB root; the first mark adds a level-2 node, a
//! level-3 node and a chunk, 12 KiB.
//!
//! # One writer
//!
//! Marking takes `&mut self` — [`ShadowMap::mark`] for a single mark,
//! [`ShadowMap::writer`] for a tight loop — so a map has exactly one
//! writer at a time, and the type is not `Sync`: a second concurrent
//! writer does not compile. Directory slots are [`OnceCell`]s and bitmap
//! words [`Cell`]s only so that the writer can keep `&Chunk`s in its
//! cache while it allocates further chunks and sets bits in the ones it
//! holds. Every store is a plain store: no atomics and no locks. The
//! paper's helper marking threads (§4.4) are billed by the cost model,
//! not run.
//!
//! [`ShadowWriter`] caches the last-touched chunk so the hot marking loop
//! (consecutive pointers overwhelmingly land in the same 512 KiB window)
//! skips the radix walk entirely.

use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::fmt;

use vmem::{Addr, GRANULE_SIZE};

/// `u64` words per chunk.
const CHUNK_WORDS: usize = 512;

/// Granules covered by one chunk: 512 words × 64 bits = 32 Ki granules,
/// i.e. one 4 KiB bitmap chunk shadows 512 KiB of address space.
const CHUNK_GRANULES: u64 = (CHUNK_WORDS * 64) as u64;

/// Bitmap words per [`ShadowWriter`] write-combining line: 8 words = one
/// 64-byte cache line of bitmap = 512 granules = 8 KiB of address space.
/// Wide enough that a monotone mark walk (the sweep's common shape)
/// flushes once per 8 KiB instead of once per 1 KiB.
const LINE_WORDS: usize = 8;

/// log2 of [`CHUNK_GRANULES`].
const CHUNK_SHIFT: u32 = CHUNK_GRANULES.trailing_zeros();

/// Entries in the [`ShadowWriter`]'s direct-mapped chunk cache: 32
/// chunk pointers cover 16 MiB of address space, so a sweep whose
/// pointer targets scatter across a bounded heap resolves its chunk
/// without the radix walk on essentially every mark.
const CHUNK_CACHE: usize = 32;

/// log2 of the child pointers per radix node.
const NODE_BITS: u32 = 9;

/// Child pointers per radix node: 512 × 8 bytes = 4 KiB.
const NODE_ENTRIES: usize = 1 << NODE_BITS;

/// One past the highest address the radix covers (64 TiB): three node
/// levels above the chunks.
pub const MAX_SHADOWED: u64 = 1 << (3 * NODE_BITS + CHUNK_SHIFT + GRANULE_SIZE.trailing_zeros());

/// One 4 KiB bitmap leaf.
#[derive(Clone)]
struct Chunk {
    words: [Cell<u64>; CHUNK_WORDS],
}

impl Chunk {
    fn new_boxed() -> Box<Chunk> {
        Box::new(Chunk { words: std::array::from_fn(|_| Cell::new(0)) })
    }
}

/// A radix node: 512 lazily allocated children (4 KiB).
type Node<T> = [OnceCell<Box<T>>; NODE_ENTRIES];

const _: () = assert!(size_of::<Node<Chunk>>() == 4096, "a node is one 4 KiB page");

/// A new empty node on the heap.
fn new_node<T>() -> Box<Node<T>> {
    Box::new(std::array::from_fn(|_| OnceCell::new()))
}

/// The radix: a root node over level-2 nodes over level-3 nodes over
/// chunks.
#[derive(Clone)]
struct Directory(Box<Node<Node<Node<Chunk>>>>);

impl Directory {
    fn new() -> Self {
        Directory(new_node())
    }

    /// Splits a chunk index into (level-1, level-2, level-3) digits.
    #[inline]
    fn split(chunk_idx: u64) -> (usize, usize, usize) {
        let digit = |level: u32| (chunk_idx >> (level * NODE_BITS)) as usize & (NODE_ENTRIES - 1);
        ((chunk_idx >> (2 * NODE_BITS)) as usize, digit(1), digit(0))
    }

    /// The chunk for `chunk_idx`, if it has ever been touched.
    #[inline]
    fn get(&self, chunk_idx: u64) -> Option<&Chunk> {
        let (i1, i2, i3) = Self::split(chunk_idx);
        self.0.get(i1)?.get()?[i2].get()?[i3].get().map(|c| &**c)
    }

    /// The chunk for `chunk_idx`, allocating the nodes and the chunk as
    /// needed and counting them in `tally`.
    ///
    /// # Panics
    ///
    /// Panics if the chunk lies beyond [`MAX_SHADOWED`].
    #[inline]
    fn get_or_insert(&self, chunk_idx: u64, tally: &mut Tally) -> &Chunk {
        let (i1, i2, i3) = Self::split(chunk_idx);
        assert!(
            i1 < NODE_ENTRIES,
            "address beyond the {} TiB shadowed span",
            MAX_SHADOWED >> 40
        );
        let l2 = self.0[i1].get_or_init(|| {
            tally.nodes += 1;
            new_node()
        });
        let l3 = l2[i2].get_or_init(|| {
            tally.nodes += 1;
            new_node()
        });
        l3[i3].get_or_init(|| {
            tally.resident.push(chunk_idx);
            Chunk::new_boxed()
        })
    }
}

/// The map's counters, kept apart from the [`Directory`] so that a
/// [`ShadowWriter`] can hold the directory shared (to cache `&Chunk`s)
/// and the counters mutably.
#[derive(Clone, Default)]
struct Tally {
    /// Granules marked.
    marked: u64,
    /// Indices of the resident chunks in allocation order, so
    /// [`ShadowMap::clear`] visits only those instead of every slot of
    /// every level-3 node.
    resident: Vec<u64>,
    /// Resident nodes below the root, for O(1)
    /// [`ShadowMap::directory_bytes`].
    nodes: u64,
}

/// A sparse radix bitmap over granule indices, marked through `&mut self`
/// by one writer.
///
/// # Example
///
/// ```
/// use minesweeper::ShadowMap;
/// use vmem::Addr;
///
/// let mut shadow = ShadowMap::new();
/// shadow.mark(Addr::new(0x1_0000_0040)); // a pointer into some allocation
/// assert!(shadow.range_marked(Addr::new(0x1_0000_0040), 16));
/// assert!(!shadow.range_marked(Addr::new(0x1_0000_0100), 64));
/// ```
#[derive(Clone)]
pub struct ShadowMap {
    dir: Directory,
    tally: Tally,
}

impl Default for ShadowMap {
    fn default() -> Self {
        ShadowMap::new()
    }
}

/// Sets the bits of `mask` in `word`; returns whether any was clear.
#[inline]
fn set_bits(word: &Cell<u64>, mask: u64) -> bool {
    let cur = word.get();
    if cur & mask != 0 {
        return false;
    }
    word.set(cur | mask);
    true
}

impl ShadowMap {
    /// Creates an empty shadow map (one 4 KiB root node; lower nodes and
    /// chunks are allocated on first mark).
    pub fn new() -> Self {
        ShadowMap { dir: Directory::new(), tally: Tally::default() }
    }

    /// Marks the granule containing `target` — the operation the marking
    /// phase performs for every word of memory that looks like a pointer.
    /// Returns whether this call newly set the bit (baselines use it to
    /// drive their worklists).
    #[inline]
    pub fn mark(&mut self, target: Addr) -> bool {
        let g = target.granule();
        let chunk = self.dir.get_or_insert(g >> CHUNK_SHIFT, &mut self.tally);
        let bit = g & (CHUNK_GRANULES - 1);
        let newly = set_bits(&chunk.words[(bit >> 6) as usize], 1 << (bit & 63));
        self.tally.marked += u64::from(newly);
        newly
    }

    /// A cursor that caches chunks and write-combines same-line marks for
    /// tight mark loops. Pending marks land in the map when the cursor
    /// leaves their line or the writer drops.
    pub fn writer(&mut self) -> ShadowWriter<'_> {
        ShadowWriter {
            dir: &self.dir,
            tally: &mut self.tally,
            cached_idx: u64::MAX,
            cached: None,
            line_idx: usize::MAX,
            snapshot: [0; LINE_WORDS],
            pending: [0; LINE_WORDS],
            last_chunk: u64::MAX,
            last_line: usize::MAX,
            dirty: false,
            chunk_tags: [u64::MAX; CHUNK_CACHE],
            chunk_refs: [None; CHUNK_CACHE],
        }
    }

    /// Whether the granule containing `addr` is marked.
    #[inline]
    pub fn is_marked(&self, addr: Addr) -> bool {
        let g = addr.granule();
        self.dir.get(g >> CHUNK_SHIFT).is_some_and(|chunk| {
            let bit = g & (CHUNK_GRANULES - 1);
            chunk.words[(bit >> 6) as usize].get() & (1 << (bit & 63)) != 0
        })
    }

    /// Whether *any* granule overlapping `[base, base + len)` is marked —
    /// the release-phase test: a marked granule means a possible dangling
    /// pointer into the allocation, so it must stay quarantined. The paper
    /// checks "the full shadow-map range corresponding to the allocation"
    /// (§3.3 footnote), which includes interior pointers.
    ///
    /// Scans whole `u64` words with end masks rather than probing per
    /// granule, and skips absent chunks (512 KiB of address space) in one
    /// step.
    pub fn range_marked(&self, base: Addr, len: u64) -> bool {
        if len == 0 {
            return false;
        }
        let first = base.granule();
        let last = base.add_bytes(len - 1).granule();
        let mut g = first;
        while g <= last {
            let chunk_idx = g >> CHUNK_SHIFT;
            // Last granule this chunk covers (saturating: chunk_idx is
            // bounded by the 2⁶⁰ granule space, so no overflow).
            let chunk_last = ((chunk_idx + 1) << CHUNK_SHIFT) - 1;
            let hi = last.min(chunk_last);
            if let Some(chunk) = self.dir.get(chunk_idx) {
                let lo_bit = g & (CHUNK_GRANULES - 1);
                let hi_bit = hi & (CHUNK_GRANULES - 1);
                let (w0, b0) = ((lo_bit >> 6) as usize, lo_bit & 63);
                let (w1, b1) = ((hi_bit >> 6) as usize, hi_bit & 63);
                let head = !0u64 << b0;
                let tail = !0u64 >> (63 - b1);
                if w0 == w1 {
                    if chunk.words[w0].get() & head & tail != 0 {
                        return true;
                    }
                } else {
                    if chunk.words[w0].get() & head != 0 {
                        return true;
                    }
                    if chunk.words[w0 + 1..w1].iter().any(|w| w.get() != 0) {
                        return true;
                    }
                    if chunk.words[w1].get() & tail != 0 {
                        return true;
                    }
                }
            }
            g = chunk_last + 1;
        }
        false
    }

    /// Total granules marked.
    pub fn marked_count(&self) -> u64 {
        self.tally.marked
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.marked_count() == 0
    }

    /// Clears every mark bit **in place**, keeping chunks and tables
    /// resident so the next sweep reuses them instead of re-faulting the
    /// radix (the layer's per-epoch reset).
    pub fn clear(&mut self) {
        for &chunk_idx in &self.tally.resident {
            let chunk = self.dir.get(chunk_idx).expect("resident chunks are allocated");
            for w in &chunk.words {
                w.set(0);
            }
        }
        self.tally.marked = 0;
    }

    /// Resident size of the bitmap chunks in bytes (the paper's <1 %
    /// overhead figure; directory overhead is reported separately by
    /// [`ShadowMap::directory_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.tally.resident.len() as u64 * (CHUNK_WORDS * 8) as u64
    }

    /// Resident size of the radix nodes (root, level-2 and level-3).
    pub fn directory_bytes(&self) -> u64 {
        (1 + self.tally.nodes) * size_of::<Node<Chunk>>() as u64
    }
}

impl fmt::Debug for ShadowMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShadowMap")
            .field("marked", &self.marked_count())
            .field("resident_bytes", &self.resident_bytes())
            .field("directory_bytes", &self.directory_bytes())
            .finish()
    }
}

/// A marking cursor over a [`ShadowMap`] tuned for the sweep's hot loop.
/// It borrows the map mutably, so it is the map's only writer while it
/// lives.
///
/// Two layers of locality exploitation:
///
/// * a direct-mapped cache of `CHUNK_CACHE` **chunk** pointers, so
///   pointer targets over a bounded heap (16 MiB per cache generation)
///   skip the radix walk whether they arrive clustered or scattered;
/// * marks into the current bitmap **line** (`LINE_WORDS` words = 512
///   granules = 8 KiB of address space) are write-combined into a local
///   snapshot and stored back when the cursor moves on — turning up to
///   512 read-modify-writes into at most 8 stores. Every pending bit is
///   new by construction, so the flush counts them by popcount.
///
/// The combine window is **adaptive**: it only opens once two consecutive
/// marks land in the same line (the monotone walk a sweep over clustered
/// allocations produces). Scattered targets — a heap of small objects
/// pointed at from everywhere — take a direct single-word update instead,
/// because snapshotting and flushing an 8-word line around every isolated
/// mark costs about twice a plain update.
pub struct ShadowWriter<'a> {
    dir: &'a Directory,
    tally: &'a mut Tally,
    cached_idx: u64,
    cached: Option<&'a Chunk>,
    /// Line (aligned [`LINE_WORDS`]-word group) within the cached chunk
    /// the pending bits belong to; `usize::MAX` when no line is open.
    line_idx: usize,
    /// The line's words as last loaded, plus every pending bit.
    snapshot: [u64; LINE_WORDS],
    /// Bits set through this writer but not yet stored.
    pending: [u64; LINE_WORDS],
    /// (chunk, line) of the last mark that took the direct single-word
    /// path — when the next mark lands in the same line, locality is
    /// demonstrated and the combine window opens there.
    last_chunk: u64,
    last_line: usize,
    /// Whether the open window holds unstored pending bits — one byte
    /// the direct-mark path tests instead of folding all 8 pending words.
    dirty: bool,
    /// Direct-mapped chunk cache (tag = chunk index, [`u64::MAX`] =
    /// empty): scattered marks over a bounded heap skip the radix walk.
    chunk_tags: [u64; CHUNK_CACHE],
    chunk_refs: [Option<&'a Chunk>; CHUNK_CACHE],
}

impl<'a> ShadowWriter<'a> {
    /// Marks the granule containing `target`; returns whether the bit was
    /// newly set.
    #[inline]
    pub fn mark(&mut self, target: Addr) -> bool {
        let g = target.granule();
        let chunk_idx = g >> CHUNK_SHIFT;
        let bit = g & (CHUNK_GRANULES - 1);
        let (w, mask) = ((bit >> 6) as usize, 1u64 << (bit & 63));
        let (line, sub) = (w / LINE_WORDS, w % LINE_WORDS);
        if chunk_idx == self.cached_idx && line == self.line_idx {
            // Hot path: same 8 KiB window — pure local arithmetic.
            if self.snapshot[sub] & mask != 0 {
                return false;
            }
            self.snapshot[sub] |= mask;
            self.pending[sub] |= mask;
            self.dirty = true;
            return true;
        }
        self.mark_miss(chunk_idx, w, mask)
    }

    /// Window-miss path, kept out of line so only the few-instruction hot
    /// path inlines into the scan kernel's survivor walk (the full body
    /// inflates register pressure enough to slow the vector loop itself).
    #[cold]
    #[inline(never)]
    fn mark_miss(&mut self, chunk_idx: u64, w: usize, mask: u64) -> bool {
        let (line, sub) = (w / LINE_WORDS, w % LINE_WORDS);
        self.flush();
        let slot = (chunk_idx as usize) & (CHUNK_CACHE - 1);
        let chunk = match self.chunk_refs[slot] {
            Some(c) if self.chunk_tags[slot] == chunk_idx => c,
            _ => {
                let c = self.dir.get_or_insert(chunk_idx, self.tally);
                self.chunk_tags[slot] = chunk_idx;
                self.chunk_refs[slot] = Some(c);
                c
            }
        };
        // Open a combine window only when consecutive marks demonstrate
        // line locality (this mark lands in the same line as the previous
        // one — the monotone sweep-walk shape). Scattered targets take a
        // direct single-word update instead: loading and flushing an
        // 8-word snapshot per isolated mark costs ~2× a plain update.
        if chunk_idx == self.last_chunk && line == self.last_line {
            // `cached`/`cached_idx` name the chunk that owns the open
            // window; the hot path and flush key off them.
            self.cached_idx = chunk_idx;
            self.cached = Some(chunk);
            self.line_idx = line;
            for (k, s) in self.snapshot.iter_mut().enumerate() {
                *s = chunk.words[line * LINE_WORDS + k].get();
            }
            if self.snapshot[sub] & mask != 0 {
                return false;
            }
            self.snapshot[sub] |= mask;
            self.pending[sub] = mask;
            self.dirty = true;
            return true;
        }
        self.last_chunk = chunk_idx;
        self.last_line = line;
        let newly = set_bits(&chunk.words[w], mask);
        self.tally.marked += u64::from(newly);
        newly
    }

    /// Stores the open line's snapshot back into its chunk and counts its
    /// pending bits.
    #[inline]
    fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let chunk = self.cached.expect("pending bits imply a cached chunk");
        let base = self.line_idx * LINE_WORDS;
        for (k, p) in self.pending.iter_mut().enumerate() {
            if *p != 0 {
                chunk.words[base + k].set(self.snapshot[k]);
                self.tally.marked += u64::from(p.count_ones());
                *p = 0;
            }
        }
    }
}

impl Drop for ShadowWriter<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The seed's `HashMap`-of-chunks shadow map, kept as the reference
/// implementation: differential tests check the radix map and the mark
/// paths against it.
#[derive(Clone, Debug, Default)]
pub struct NaiveShadowMap {
    chunks: HashMap<u64, Box<[u64; CHUNK_WORDS]>>,
    marked: u64,
}

impl NaiveShadowMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        NaiveShadowMap::default()
    }

    /// Marks the granule containing `target`; returns whether the bit was
    /// newly set.
    #[inline]
    pub fn mark(&mut self, target: Addr) -> bool {
        let g = target.granule();
        let (chunk, bit) = (g / CHUNK_GRANULES, g % CHUNK_GRANULES);
        let words = self.chunks.entry(chunk).or_insert_with(|| Box::new([0; CHUNK_WORDS]));
        let (w, b) = ((bit / 64) as usize, bit % 64);
        if words[w] & (1 << b) == 0 {
            words[w] |= 1 << b;
            self.marked += 1;
            true
        } else {
            false
        }
    }

    /// Whether the granule containing `addr` is marked.
    #[inline]
    pub fn is_marked(&self, addr: Addr) -> bool {
        let g = addr.granule();
        let (chunk, bit) = (g / CHUNK_GRANULES, g % CHUNK_GRANULES);
        self.chunks
            .get(&chunk)
            .is_some_and(|words| words[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// Whether any granule overlapping `[base, base + len)` is marked —
    /// deliberately the simplest possible per-granule probe, used as the
    /// oracle for [`ShadowMap::range_marked`]'s word-masked scan.
    pub fn range_marked(&self, base: Addr, len: u64) -> bool {
        if len == 0 {
            return false;
        }
        let first = base.granule();
        let last = base.add_bytes(len - 1).granule();
        (first..=last).any(|g| self.is_marked(Addr::new(g * GRANULE_SIZE as u64)))
    }

    /// Total granules marked.
    pub fn marked_count(&self) -> u64 {
        self.marked
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.marked == 0
    }

    /// Approximate resident size in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.chunks.len() as u64 * (CHUNK_WORDS * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_check_single_granule() {
        let mut s = ShadowMap::new();
        let a = Addr::new(0x1_0000_0000);
        assert!(!s.is_marked(a));
        assert!(s.mark(a), "first mark newly sets");
        assert!(s.is_marked(a));
        assert!(s.is_marked(a + 15), "same granule");
        assert!(!s.is_marked(a + 16), "next granule");
        assert_eq!(s.marked_count(), 1);
    }

    #[test]
    fn mark_is_idempotent() {
        let mut s = ShadowMap::new();
        assert!(s.mark(Addr::new(64)));
        assert!(!s.mark(Addr::new(64)), "repeat mark is not new");
        assert!(!s.mark(Addr::new(70)), "same granule");
        assert_eq!(s.marked_count(), 1);
    }

    #[test]
    fn writer_matches_direct_marks() {
        let mut s = ShadowMap::new();
        let boundary = CHUNK_GRANULES * GRANULE_SIZE as u64;
        let mut w = s.writer();
        assert!(w.mark(Addr::new(boundary - 16)));
        assert!(w.mark(Addr::new(boundary)), "cache refreshes across chunks");
        assert!(!w.mark(Addr::new(boundary + 8)), "same granule via cache");
        drop(w); // store buffered marks
        assert!(!s.mark(Addr::new(boundary)), "direct marks see writer's bits");
        assert_eq!(s.marked_count(), 2);
    }

    #[test]
    fn writer_counts_windowed_and_evicting_marks_exactly() {
        let mut s = ShadowMap::new();
        let mut w = s.writer();
        // 64 consecutive granules: mark 0 is direct, mark 1 opens the
        // combine window, marks 1..=63 are stored through it at flush.
        for i in 0..64u64 {
            assert!(w.mark(Addr::new(0x1_0000_0000 + i * GRANULE_SIZE as u64)));
        }
        assert!(!w.mark(Addr::new(0x1_0000_0000 + 5 * GRANULE_SIZE as u64)), "pending bit");
        // Scattered marks across CHUNK_CACHE+1 chunks collide in the
        // direct-mapped cache and evict; each still counts once.
        let chunk_bytes = CHUNK_GRANULES * GRANULE_SIZE as u64;
        for i in 0..=(CHUNK_CACHE as u64) {
            assert!(w.mark(Addr::new(i * chunk_bytes)));
        }
        assert!(!w.mark(Addr::new(0)), "re-mark after eviction is not new");
        drop(w);
        assert_eq!(s.marked_count(), 64 + CHUNK_CACHE as u64 + 1);
        for i in 0..64u64 {
            assert!(s.is_marked(Addr::new(0x1_0000_0000 + i * GRANULE_SIZE as u64)));
        }
    }

    #[test]
    fn interior_pointer_retains_whole_allocation() {
        // Figure 5: a pointer to any offset inside [a, a+size) must be
        // caught by checking the allocation's full granule range.
        let mut s = ShadowMap::new();
        let base = Addr::new(0x1_0000_0000);
        s.mark(base + 100); // interior pointer target
        assert!(s.range_marked(base, 128));
        assert!(!s.range_marked(base, 96), "range before the mark is clean");
        assert!(!s.range_marked(base + 112, 16));
    }

    #[test]
    fn range_marked_handles_granule_straddling() {
        let mut s = ShadowMap::new();
        let base = Addr::new(0x1_0000_0008); // misaligned to granule
        s.mark(base);
        // A range ending inside the marked granule must see the mark.
        assert!(s.range_marked(Addr::new(0x1_0000_0000), 8));
        assert!(s.range_marked(base, 1));
    }

    #[test]
    fn zero_length_range_is_never_marked() {
        let mut s = ShadowMap::new();
        s.mark(Addr::new(0x1000));
        assert!(!s.range_marked(Addr::new(0x1000), 0));
    }

    #[test]
    fn chunk_boundaries_are_seamless() {
        let mut s = ShadowMap::new();
        let boundary = CHUNK_GRANULES * GRANULE_SIZE as u64;
        s.mark(Addr::new(boundary - 16));
        s.mark(Addr::new(boundary));
        assert!(s.range_marked(Addr::new(boundary - 16), 32));
        assert_eq!(s.marked_count(), 2);
        assert_eq!(s.resident_bytes(), 2 * 4096, "one chunk per side");
    }

    #[test]
    fn sparse_representation_stays_small() {
        let mut s = ShadowMap::new();
        // Marks across 1 GiB of address space land in few chunks.
        for i in 0..1000u64 {
            s.mark(Addr::new(0x1_0000_0000 + i * 1024));
        }
        assert!(s.resident_bytes() < 16 * 4096, "sparse map must stay small");
    }

    #[test]
    fn clear_resets_marks_but_keeps_chunks_resident() {
        let mut s = ShadowMap::new();
        s.mark(Addr::new(0x1_0000_0000));
        s.mark(Addr::new(1 << 33));
        // Level-2 tables 1 and 2, marked directly and through a writer
        // (a buffered combine window and a scattered direct mark).
        s.mark(Addr::new((1 << 34) + 0x40));
        let mut w = s.writer();
        for i in 0..16u64 {
            w.mark(Addr::new((1 << 35) + i * GRANULE_SIZE as u64));
        }
        w.mark(Addr::new((1 << 34) + (1 << 20)));
        drop(w);
        let chunk_bytes = CHUNK_GRANULES * GRANULE_SIZE as u64;
        let chunks = [0x1_0000_0000, 1 << 33, 1 << 34, (1 << 34) + (1 << 20), 1 << 35];
        assert_eq!(s.marked_count(), 20);
        assert_eq!(s.resident_bytes(), chunks.len() as u64 * 4096);
        let resident = s.resident_bytes();
        s.clear();
        assert!(s.is_empty());
        for base in chunks {
            assert!(!s.range_marked(Addr::new(base), chunk_bytes), "{base:#x} survived");
        }
        assert_eq!(s.resident_bytes(), resident, "chunks are reused, not freed");
        // The next epoch marks into the recycled chunks.
        assert!(s.mark(Addr::new(0x1_0000_0000)));
        assert_eq!(s.marked_count(), 1);
    }

    #[test]
    fn clone_is_deep() {
        let mut s = ShadowMap::new();
        s.mark(Addr::new(0x1_0000_0000));
        let c = s.clone();
        s.mark(Addr::new(0x2_0000_0000));
        assert_eq!(c.marked_count(), 1);
        assert!(!c.is_marked(Addr::new(0x2_0000_0000)));
        assert!(c.is_marked(Addr::new(0x1_0000_0000)));
    }

    #[test]
    fn far_addresses_use_distinct_directory_slots() {
        let mut s = ShadowMap::new();
        // 1 TiB apart: different root entries, so each mark brings its
        // own level-2 and level-3 node.
        s.mark(Addr::new(1 << 40));
        s.mark(Addr::new(1 << 41));
        assert!(s.is_marked(Addr::new(1 << 40)));
        assert!(s.is_marked(Addr::new(1 << 41)));
        assert_eq!(s.marked_count(), 2);
        assert_eq!(s.directory_bytes(), 5 * 4096);
    }

    #[test]
    #[should_panic(expected = "shadowed span")]
    fn marking_beyond_the_shadowed_span_panics() {
        ShadowMap::new().mark(Addr::new(MAX_SHADOWED));
    }

    #[test]
    fn directory_grows_with_the_marked_address_space() {
        let mut s = ShadowMap::new();
        assert_eq!(s.directory_bytes(), 4096, "a new map is its root");
        s.mark(Addr::new(0x1_0000_0040)); // the default heap base
        assert_eq!(s.directory_bytes(), 12 * 1024, "one level-2 and one level-3 node");
        assert_eq!(s.resident_bytes(), 4096, "and one chunk");
        s.mark(Addr::new(0x1_0000_0040 + (1 << 28))); // the next level-3 node
        assert_eq!(s.directory_bytes(), 16 * 1024);
    }

    #[test]
    fn level_boundaries_agree_with_naive_oracle() {
        // The first and last granule on each side of a chunk, level-3 and
        // level-2 node boundary, and the last granule of the span.
        let g = GRANULE_SIZE as u64;
        let spans = [CHUNK_GRANULES * g, (CHUNK_GRANULES * g) << NODE_BITS];
        let spans = [spans[0], spans[1], spans[1] << NODE_BITS];
        let boundaries: Vec<u64> = spans.iter().flat_map(|&span| [span, 3 * span]).collect();
        let mut targets: Vec<u64> = boundaries
            .iter()
            .zip(spans.iter().flat_map(|&span| [span, span]))
            .flat_map(|(&b, span)| [b - span, b - g, b, b + span - g])
            .collect();
        targets.push(MAX_SHADOWED - g);
        let (mut direct, mut buffered) = (ShadowMap::new(), ShadowMap::new());
        let mut naive = NaiveShadowMap::new();
        let mut writer = buffered.writer();
        for &t in &targets {
            let newly = naive.mark(Addr::new(t));
            assert_eq!(direct.mark(Addr::new(t)), newly, "{t:#x}");
            assert_eq!(writer.mark(Addr::new(t)), newly, "{t:#x}");
        }
        drop(writer);
        for map in [&direct, &buffered] {
            assert_eq!(map.marked_count(), naive.marked_count());
            for &t in &targets {
                for probe in [t.saturating_sub(g), t, t + g] {
                    let a = Addr::new(probe.min(MAX_SHADOWED - g));
                    assert_eq!(map.is_marked(a), naive.is_marked(a), "{probe:#x}");
                }
            }
            for &b in &boundaries {
                for (start, len) in [(b - 3 * g, 6 * g), (b - 2 * g, g), (b + g, 3 * g)] {
                    let a = Addr::new(start);
                    assert_eq!(
                        map.range_marked(a, len),
                        naive.range_marked(a, len),
                        "{start:#x}+{len}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_marked_agrees_with_naive_oracle() {
        // Differential test: word-masked scan vs the per-granule probe,
        // over a deliberately awkward bit population (word edges, chunk
        // edges, isolated bits).
        let mut fast = ShadowMap::new();
        let mut slow = NaiveShadowMap::new();
        let base = 0x1_0000_0000u64;
        let offsets = [
            0u64,
            15,
            16,
            63 * 16,
            64 * 16,
            (CHUNK_GRANULES - 1) * 16,
            CHUNK_GRANULES * 16,
            (CHUNK_GRANULES + 64) * 16,
            3 * CHUNK_GRANULES * 16 + 40,
        ];
        for &off in &offsets {
            fast.mark(Addr::new(base + off));
            slow.mark(Addr::new(base + off));
        }
        assert_eq!(fast.marked_count(), slow.marked_count());
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..4000 {
            // SplitMix64 over query starts/lengths around the population.
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            let start = base.wrapping_sub(256) + z % (4 * CHUNK_GRANULES * 16);
            let len = (z >> 40) % 3000;
            assert_eq!(
                fast.range_marked(Addr::new(start), len),
                slow.range_marked(Addr::new(start), len),
                "start={start:#x} len={len}"
            );
        }
    }
}
