//! The shadow map: one mark bit per 16-byte granule of virtual memory.
//!
//! "The shadow map marks the targets of pointers, and is consulted for each
//! quarantined allocation, to see if pointers have been discovered to it"
//! (§3.2). One bit per 128 bits of memory is the smallest allocation
//! granule, so every allocation maps to a distinct bit range. The paper
//! implements it as a flat reservation; the simulation uses a sparse
//! two-level radix bitmap with identical indexing semantics (the flat
//! space would be 2⁶⁰ bits here), keeping the <1 % space overhead
//! property.
//!
//! # Layout
//!
//! A granule index (`addr >> 4`) is decomposed into three digits:
//!
//! ```text
//!  granule = [ l1 : 12 bits ][ l2 : 15 bits ][ bit-in-chunk : 15 bits ]
//! ```
//!
//! * the low 15 bits select one of 32 Ki bits inside a **chunk** — 512
//!   `AtomicU64` words, a 4 KiB bitmap page shadowing 512 KiB of address
//!   space (the same 1/128 ratio as the paper's flat map);
//! * the middle 15 bits index a **level-2 table** of 32 Ki chunk
//!   pointers;
//! * the high 12 bits index the root **level-1 directory** of 4 Ki
//!   level-2 pointers.
//!
//! Together they cover 2⁴² granules = 64 TiB of virtual address space
//! ([`MAX_SHADOWED`]), comfortably above the [`vmem::Layout`] reservation.
//!
//! # Concurrency
//!
//! All mutation goes through `&self` with atomics, so one `ShadowMap` can
//! be shared by every marking thread (§4.4: parallel markers write into a
//! single map — mark bits are only ever *set* during a sweep, so there is
//! no lost-update hazard and no per-thread maps or merge barrier):
//!
//! * tables and chunks are lazily allocated and **published by
//!   compare-and-swap** (`AcqRel`/`Acquire`, so a reader that observes a
//!   pointer also observes the zeroed contents); a loser of the race
//!   frees its allocation and adopts the winner's;
//! * bits are set with a *load-first* `Relaxed` `fetch_or` — during
//!   marking most pointer-dense pages repeat targets, so the common case
//!   is a plain load that finds the bit already set and skips the RMW;
//! * the global mark counter is a `Relaxed` `AtomicU64` bumped only by
//!   the thread whose `fetch_or` actually flipped the bit, which keeps
//!   [`ShadowMap::marked_count`] exact under contention.
//!
//! Reads during a sweep are `Relaxed`: the release walk only begins after
//! the marking threads have been joined, which is already a stronger
//! synchronisation point than any fence the map could provide.
//!
//! [`ShadowWriter`] caches the last-touched chunk so the hot marking loop
//! (consecutive pointers overwhelmingly land in the same 512 KiB window)
//! skips the radix walk entirely.

use std::collections::HashMap;
use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

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

/// Chunk pointers per level-2 table.
const L2_ENTRIES: usize = 1 << 15;

/// log2 of [`L2_ENTRIES`].
const L2_SHIFT: u32 = L2_ENTRIES.trailing_zeros();

/// Level-2 pointers in the root directory.
const L1_ENTRIES: usize = 1 << 12;

/// One past the highest address the radix covers (64 TiB).
pub const MAX_SHADOWED: u64 =
    (L1_ENTRIES as u64) << (L2_SHIFT + CHUNK_SHIFT) << GRANULE_SIZE.trailing_zeros();

/// One 4 KiB bitmap leaf.
struct Chunk {
    words: [AtomicU64; CHUNK_WORDS],
}

impl Chunk {
    fn new_boxed() -> Box<Chunk> {
        Box::new(Chunk { words: std::array::from_fn(|_| AtomicU64::new(0)) })
    }
}

/// A level-2 table: 32 Ki lazily-published chunk pointers (256 KiB).
struct Level2 {
    chunks: Box<[AtomicPtr<Chunk>]>,
}

impl Level2 {
    fn new_boxed() -> Box<Level2> {
        // Built through a Vec: a 256 KiB array temporary must not cross
        // the stack.
        let chunks: Vec<AtomicPtr<Chunk>> =
            (0..L2_ENTRIES).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        Box::new(Level2 { chunks: chunks.into_boxed_slice() })
    }
}

impl Drop for Level2 {
    fn drop(&mut self) {
        for slot in self.chunks.iter_mut() {
            let p = *slot.get_mut();
            if !p.is_null() {
                // Published by a CAS from a Box we own; dropped exactly
                // once because `&mut self` is exclusive.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// A sparse two-level radix bitmap over granule indices, markable through
/// `&self` and [`Sync`] so parallel sweep threads share one map.
///
/// # Example
///
/// ```
/// use minesweeper::ShadowMap;
/// use vmem::Addr;
///
/// let shadow = ShadowMap::new();
/// shadow.mark(Addr::new(0x1_0000_0040)); // a pointer into some allocation
/// assert!(shadow.range_marked(Addr::new(0x1_0000_0040), 16));
/// assert!(!shadow.range_marked(Addr::new(0x1_0000_0100), 64));
/// ```
pub struct ShadowMap {
    l1: Box<[AtomicPtr<Level2>]>,
    marked: AtomicU64,
    /// Resident chunks, for O(1) [`ShadowMap::resident_bytes`].
    chunk_count: AtomicU64,
    /// Resident level-2 tables, for O(1) [`ShadowMap::directory_bytes`].
    l2_count: AtomicU64,
    /// Arena shard this map belongs to (root for single-tenant). Set at
    /// construction; [`ShadowMap::clear`] preserves it across epochs.
    arena: crate::arena::ArenaId,
}

impl Default for ShadowMap {
    fn default() -> Self {
        ShadowMap::new()
    }
}

impl ShadowMap {
    /// Creates an empty shadow map (one 32 KiB root directory; tables and
    /// chunks are allocated on first mark), owned by the root arena.
    pub fn new() -> Self {
        Self::for_arena(crate::arena::ArenaId::ROOT)
    }

    /// Creates an empty shadow-map shard for `arena`.
    pub fn for_arena(arena: crate::arena::ArenaId) -> Self {
        let l1: Vec<AtomicPtr<Level2>> =
            (0..L1_ENTRIES).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        ShadowMap {
            l1: l1.into_boxed_slice(),
            marked: AtomicU64::new(0),
            chunk_count: AtomicU64::new(0),
            l2_count: AtomicU64::new(0),
            arena,
        }
    }

    /// The arena this shadow-map shard serves.
    pub fn arena(&self) -> crate::arena::ArenaId {
        self.arena
    }

    /// Splits a chunk index into (level-1, level-2) digits.
    #[inline]
    fn split(chunk_idx: u64) -> (usize, usize) {
        ((chunk_idx >> L2_SHIFT) as usize, (chunk_idx & (L2_ENTRIES as u64 - 1)) as usize)
    }

    /// The chunk for `chunk_idx`, if it has ever been touched.
    #[inline]
    fn chunk(&self, chunk_idx: u64) -> Option<&Chunk> {
        let (i1, i2) = Self::split(chunk_idx);
        let l2 = self.l1.get(i1)?.load(Ordering::Acquire);
        if l2.is_null() {
            return None;
        }
        let c = unsafe { &*l2 }.chunks[i2].load(Ordering::Acquire);
        if c.is_null() {
            None
        } else {
            Some(unsafe { &*c })
        }
    }

    /// The chunk for `chunk_idx`, allocating and CAS-publishing the
    /// level-2 table and the chunk as needed.
    ///
    /// # Panics
    ///
    /// Panics if the chunk lies beyond [`MAX_SHADOWED`].
    fn chunk_or_insert(&self, chunk_idx: u64) -> &Chunk {
        let (i1, i2) = Self::split(chunk_idx);
        assert!(
            i1 < L1_ENTRIES,
            "address beyond the {} TiB shadowed span",
            MAX_SHADOWED >> 40
        );
        let slot = &self.l1[i1];
        let mut l2 = slot.load(Ordering::Acquire);
        if l2.is_null() {
            let fresh = Box::into_raw(Level2::new_boxed());
            match slot.compare_exchange(
                ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.l2_count.fetch_add(1, Ordering::Relaxed);
                    l2 = fresh;
                }
                Err(winner) => {
                    // Another thread published first; adopt its table.
                    drop(unsafe { Box::from_raw(fresh) });
                    l2 = winner;
                }
            }
        }
        let slot = &unsafe { &*l2 }.chunks[i2];
        let mut c = slot.load(Ordering::Acquire);
        if c.is_null() {
            let fresh = Box::into_raw(Chunk::new_boxed());
            match slot.compare_exchange(
                ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.chunk_count.fetch_add(1, Ordering::Relaxed);
                    c = fresh;
                }
                Err(winner) => {
                    drop(unsafe { Box::from_raw(fresh) });
                    c = winner;
                }
            }
        }
        unsafe { &*c }
    }

    /// Sets bit `bit` of `word`, bumping `counter` iff this call flipped
    /// it. The load-first fast path skips the RMW when the bit is already
    /// set — the common case on pointer-dense pages.
    #[inline]
    fn set_bit(counter: &AtomicU64, word: &AtomicU64, bit: u64) -> bool {
        let mask = 1u64 << bit;
        if word.load(Ordering::Relaxed) & mask != 0 {
            return false;
        }
        if word.fetch_or(mask, Ordering::Relaxed) & mask == 0 {
            counter.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Marks the granule containing `target` — the operation the marking
    /// phase performs for every word of memory that looks like a pointer.
    /// Returns whether this call newly set the bit (exact even when racing
    /// other markers; baselines use it to drive their worklists).
    #[inline]
    pub fn mark(&self, target: Addr) -> bool {
        let g = target.granule();
        let chunk = self.chunk_or_insert(g >> CHUNK_SHIFT);
        let bit = g & (CHUNK_GRANULES - 1);
        Self::set_bit(&self.marked, &chunk.words[(bit >> 6) as usize], bit & 63)
    }

    /// A cursor that caches the last-touched chunk and write-combines
    /// same-word marks for tight mark loops. Pending marks publish when
    /// the cursor changes words or the writer drops.
    pub fn writer(&self) -> ShadowWriter<'_> {
        ShadowWriter {
            map: self,
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
            exclusive: false,
            deferred_newly: 0,
            prof: WriterProf::default(),
        }
    }

    /// An **exclusive** [`ShadowWriter`]: the `&mut` borrow statically
    /// proves no other writer or reader can touch the map while this
    /// cursor lives, so its flush publishes pending bits with a plain
    /// load + store instead of a locked `fetch_or`, and newly-set counts
    /// accumulate locally (one `fetch_add` at drop instead of one per
    /// flush). On the serial mark path the locked flush is the single
    /// largest per-survivor cost — roughly 20 cycles each time the sweep
    /// cursor leaves a 1 KiB address window — so the serial
    /// [`Marker`](crate::Marker) and the stop-the-world re-mark run
    /// through this writer. The parallel helpers keep the shared
    /// [`ShadowMap::writer`].
    pub fn writer_mut(&mut self) -> ShadowWriter<'_> {
        ShadowWriter {
            map: self,
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
            exclusive: true,
            deferred_newly: 0,
            prof: WriterProf::default(),
        }
    }

    /// Whether the granule containing `addr` is marked.
    #[inline]
    pub fn is_marked(&self, addr: Addr) -> bool {
        let g = addr.granule();
        self.chunk(g >> CHUNK_SHIFT).is_some_and(|chunk| {
            let bit = g & (CHUNK_GRANULES - 1);
            chunk.words[(bit >> 6) as usize].load(Ordering::Relaxed) & (1 << (bit & 63)) != 0
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
            if let Some(chunk) = self.chunk(chunk_idx) {
                let lo_bit = g & (CHUNK_GRANULES - 1);
                let hi_bit = hi & (CHUNK_GRANULES - 1);
                let (w0, b0) = ((lo_bit >> 6) as usize, lo_bit & 63);
                let (w1, b1) = ((hi_bit >> 6) as usize, hi_bit & 63);
                let head = !0u64 << b0;
                let tail = !0u64 >> (63 - b1);
                if w0 == w1 {
                    if chunk.words[w0].load(Ordering::Relaxed) & head & tail != 0 {
                        return true;
                    }
                } else {
                    if chunk.words[w0].load(Ordering::Relaxed) & head != 0 {
                        return true;
                    }
                    if chunk.words[w0 + 1..w1]
                        .iter()
                        .any(|w| w.load(Ordering::Relaxed) != 0)
                    {
                        return true;
                    }
                    if chunk.words[w1].load(Ordering::Relaxed) & tail != 0 {
                        return true;
                    }
                }
            }
            g = chunk_last + 1;
        }
        false
    }

    /// Total granules marked (exact, even when marks raced).
    pub fn marked_count(&self) -> u64 {
        self.marked.load(Ordering::Relaxed)
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.marked_count() == 0
    }

    /// Clears every mark bit **in place**, keeping chunks and tables
    /// resident so the next sweep reuses them instead of re-faulting the
    /// radix (the layer's per-epoch reset; `&mut self` guarantees no
    /// marker is concurrently writing).
    pub fn clear(&mut self) {
        self.for_each_chunk(|chunk| {
            for w in &chunk.words {
                w.store(0, Ordering::Relaxed);
            }
        });
        *self.marked.get_mut() = 0;
    }

    /// Unions another shadow map into this one (kept for merging maps
    /// built independently, e.g. per-phase maps; the parallel marking
    /// phase itself no longer needs it — §4.4 threads share one map).
    pub fn union(&self, other: &ShadowMap) {
        other.for_each_resident(|chunk_idx, other_chunk| {
            let chunk = self.chunk_or_insert(chunk_idx);
            for (w, ow) in chunk.words.iter().zip(&other_chunk.words) {
                let bits = ow.load(Ordering::Relaxed);
                if bits != 0 {
                    let newly = bits & !w.fetch_or(bits, Ordering::Relaxed);
                    if newly != 0 {
                        self.marked.fetch_add(newly.count_ones() as u64, Ordering::Relaxed);
                    }
                }
            }
        });
    }

    /// Resident size of the bitmap chunks in bytes (the paper's <1 %
    /// overhead figure; directory overhead is reported separately by
    /// [`ShadowMap::directory_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.chunk_count.load(Ordering::Relaxed) * (CHUNK_WORDS * 8) as u64
    }

    /// Resident size of the radix directory (root + level-2 tables).
    pub fn directory_bytes(&self) -> u64 {
        (L1_ENTRIES * 8) as u64
            + self.l2_count.load(Ordering::Relaxed) * (L2_ENTRIES * 8) as u64
    }

    /// Visits every resident chunk with its chunk index.
    fn for_each_resident(&self, mut f: impl FnMut(u64, &Chunk)) {
        for (i1, slot) in self.l1.iter().enumerate() {
            let l2 = slot.load(Ordering::Acquire);
            if l2.is_null() {
                continue;
            }
            for (i2, cslot) in unsafe { &*l2 }.chunks.iter().enumerate() {
                let c = cslot.load(Ordering::Acquire);
                if !c.is_null() {
                    f(((i1 << L2_SHIFT) | i2) as u64, unsafe { &*c });
                }
            }
        }
    }

    /// Visits every resident chunk (no index needed).
    fn for_each_chunk(&self, mut f: impl FnMut(&Chunk)) {
        self.for_each_resident(|_, chunk| f(chunk));
    }
}

impl Drop for ShadowMap {
    fn drop(&mut self) {
        for slot in self.l1.iter_mut() {
            let l2 = *slot.get_mut();
            if !l2.is_null() {
                drop(unsafe { Box::from_raw(l2) });
            }
        }
    }
}

impl Clone for ShadowMap {
    /// Deep copy. With `&self` shared, the clone is a best-effort snapshot
    /// of racing marks (each bit is read once, so it is internally
    /// consistent per word).
    fn clone(&self) -> Self {
        let copy = ShadowMap::new();
        copy.union(self);
        copy
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
/// Each marking thread holds its own writer; all writers feed one map.
///
/// Two layers of locality exploitation:
///
/// * a direct-mapped cache of [`CHUNK_CACHE`] **chunk** pointers, so
///   pointer targets over a bounded heap (16 MiB per cache generation)
///   skip the radix walk whether they arrive clustered or scattered;
/// * marks into the current bitmap **line** ([`LINE_WORDS`] words = 512
///   granules = 8 KiB of address space) are write-combined into local
///   pending masks and flushed when the cursor moves on — turning up to
///   512 RMWs into at most 8. The flush's returned previous values give
///   the exact count of bits this writer newly set (`pending & !prev`),
///   so [`ShadowMap::marked_count`] stays exact even when writers race
///   on the same words.
///
/// The combine window is **adaptive**: it only opens once two consecutive
/// marks land in the same line (the monotone walk a sweep over clustered
/// allocations produces). Scattered targets — a heap of small objects
/// pointed at from everywhere — take a direct single-word update instead,
/// because snapshotting and flushing an 8-word line around every isolated
/// mark costs about twice a plain RMW.
///
/// Buffered bits become visible to *other* threads at flush (next line,
/// or drop). Marking is the only concurrent phase and readers join the
/// markers first, so nothing observes the window. [`ShadowWriter::mark`]'s
/// newly-set return is exact from this writer's perspective (its own
/// Per-writer profiler counters, all bumped on the writer's cold paths
/// ([`ShadowWriter::mark_miss`], flush) so collecting them costs the hot
/// mark loop nothing. Always accumulated; the sweep profiler decides
/// whether to export them (see `SweepProf::fold_writer`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriterProf {
    /// Marks that took the direct single-word path (window closed).
    pub direct: u64,
    /// Times the write-combine window opened (two consecutive same-line
    /// marks demonstrated locality).
    pub window_opens: u64,
    /// Bits published out of the combine window at flush — the marks the
    /// window actually batched.
    pub window_bits: u64,
    /// Dirty-window flushes (each batches up to [`LINE_WORDS`] RMWs).
    pub flushes: u64,
    /// Direct-mapped chunk-cache probes that hit.
    pub cache_hits: u64,
    /// Probes that missed and walked the radix directory.
    pub cache_misses: u64,
    /// Misses that evicted a live tag (conflict misses; a high rate means
    /// the heap's chunk working set outruns [`CHUNK_CACHE`]).
    pub cache_evictions: u64,
}

/// earlier marks included); a racing writer may transiently see the same
/// bit as new, but the global counter is reconciled at flush.
pub struct ShadowWriter<'a> {
    map: &'a ShadowMap,
    cached_idx: u64,
    cached: Option<&'a Chunk>,
    /// Line (aligned [`LINE_WORDS`]-word group) within the cached chunk
    /// the pending bits belong to; `usize::MAX` when no line is open.
    line_idx: usize,
    /// The line's words as last loaded, plus every pending bit.
    snapshot: [u64; LINE_WORDS],
    /// Bits set through this writer but not yet flushed.
    pending: [u64; LINE_WORDS],
    /// (chunk, line) of the last mark that took the direct single-word
    /// path — when the next mark lands in the same line, locality is
    /// demonstrated and the combine window opens there.
    last_chunk: u64,
    last_line: usize,
    /// Whether the open window holds unpublished pending bits — one byte
    /// the direct-mark path tests instead of folding all 8 pending words.
    dirty: bool,
    /// Direct-mapped chunk cache (tag = chunk index, [`u64::MAX`] =
    /// empty): scattered marks over a bounded heap skip the radix walk.
    chunk_tags: [u64; CHUNK_CACHE],
    chunk_refs: [Option<&'a Chunk>; CHUNK_CACHE],
    /// Built via [`ShadowMap::writer_mut`]: the map is mutably borrowed,
    /// so flushes may store instead of RMW and the newly-set count may be
    /// settled once at drop.
    exclusive: bool,
    /// Exclusive mode only: newly-set bits not yet added to the global
    /// counter.
    deferred_newly: u64,
    /// Cold-path profiler counters (see [`WriterProf`]).
    prof: WriterProf,
}

impl<'a> ShadowWriter<'a> {
    /// Marks the granule containing `target`; returns whether the bit was
    /// newly set (exact with respect to this writer's own history; see
    /// the type docs for cross-writer races).
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
            Some(c) if self.chunk_tags[slot] == chunk_idx => {
                self.prof.cache_hits += 1;
                c
            }
            _ => {
                self.prof.cache_misses += 1;
                if self.chunk_tags[slot] != u64::MAX {
                    self.prof.cache_evictions += 1;
                }
                let c = self.map.chunk_or_insert(chunk_idx);
                self.chunk_tags[slot] = chunk_idx;
                self.chunk_refs[slot] = Some(c);
                c
            }
        };
        // Open a combine window only when consecutive marks demonstrate
        // line locality (this mark lands in the same line as the previous
        // one — the monotone sweep-walk shape). Scattered targets take a
        // direct single-word update instead: loading and flushing an
        // 8-word snapshot per isolated mark costs ~2× a plain RMW.
        if chunk_idx == self.last_chunk && line == self.last_line {
            self.prof.window_opens += 1;
            // `cached`/`cached_idx` name the chunk that owns the open
            // window; the hot path and flush key off them.
            self.cached_idx = chunk_idx;
            self.cached = Some(chunk);
            self.line_idx = line;
            for (k, s) in self.snapshot.iter_mut().enumerate() {
                *s = chunk.words[line * LINE_WORDS + k].load(Ordering::Relaxed);
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
        self.prof.direct += 1;
        let word = &chunk.words[w];
        let cur = word.load(Ordering::Relaxed);
        if cur & mask != 0 {
            return false;
        }
        if self.exclusive {
            word.store(cur | mask, Ordering::Relaxed);
            self.deferred_newly += 1;
            true
        } else if word.fetch_or(mask, Ordering::Relaxed) & mask == 0 {
            self.map.marked.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Publishes any pending bits, reconciling the global mark counter
    /// exactly. Shared writers `fetch_or` each dirty word and settle the
    /// counter from the returned previous values; exclusive writers (no
    /// one else can touch the line — see [`ShadowMap::writer_mut`]) store
    /// the snapshots outright, since every pending bit is new by
    /// construction, and defer the count to drop.
    #[inline]
    fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.prof.flushes += 1;
        let chunk = self.cached.expect("pending bits imply a cached chunk");
        let base = self.line_idx * LINE_WORDS;
        for (k, p) in self.pending.iter_mut().enumerate() {
            if *p == 0 {
                continue;
            }
            self.prof.window_bits += u64::from(p.count_ones());
            if self.exclusive {
                chunk.words[base + k].store(self.snapshot[k], Ordering::Relaxed);
                self.deferred_newly += u64::from(p.count_ones());
            } else {
                let prev = chunk.words[base + k].fetch_or(*p, Ordering::Relaxed);
                let newly = *p & !prev;
                if newly != 0 {
                    self.map.marked.fetch_add(newly.count_ones() as u64, Ordering::Relaxed);
                }
            }
            *p = 0;
        }
    }

    /// Takes the profiler counters accumulated so far, flushing first so
    /// buffered window bits are counted (the writer keeps working; its
    /// counters restart from zero).
    pub fn take_prof(&mut self) -> WriterProf {
        self.flush();
        std::mem::take(&mut self.prof)
    }
}

impl Drop for ShadowWriter<'_> {
    fn drop(&mut self) {
        self.flush();
        if self.deferred_newly != 0 {
            self.map.marked.fetch_add(self.deferred_newly, Ordering::Relaxed);
        }
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
        let s = ShadowMap::new();
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
        let s = ShadowMap::new();
        assert!(s.mark(Addr::new(64)));
        assert!(!s.mark(Addr::new(64)), "repeat mark is not new");
        assert!(!s.mark(Addr::new(70)), "same granule");
        assert_eq!(s.marked_count(), 1);
    }

    #[test]
    fn writer_matches_direct_marks() {
        let s = ShadowMap::new();
        let boundary = CHUNK_GRANULES * GRANULE_SIZE as u64;
        let mut w = s.writer();
        assert!(w.mark(Addr::new(boundary - 16)));
        assert!(w.mark(Addr::new(boundary)), "cache refreshes across chunks");
        assert!(!w.mark(Addr::new(boundary + 8)), "same granule via cache");
        drop(w); // publish buffered marks
        assert!(!s.mark(Addr::new(boundary)), "direct marks see writer's bits");
        assert_eq!(s.marked_count(), 2);
    }

    #[test]
    fn writer_buffers_until_flush_then_counts_exactly() {
        let s = ShadowMap::new();
        let mut w = s.writer();
        // The first mark takes the direct path (published immediately);
        // the second lands in the same line, which opens the combine
        // window, so the remainder buffer until flush.
        for i in 0..64u64 {
            assert!(w.mark(Addr::new(0x1_0000_0000 + i * GRANULE_SIZE as u64)));
        }
        assert!(!s.mark(Addr::new(0x1_0000_0000)), "direct first mark is already published");
        // Racing direct mark on a buffered bit: the flush reconciliation
        // must not double-count it.
        assert!(s.mark(Addr::new(0x1_0000_0000 + 5 * GRANULE_SIZE as u64)), "not yet published");
        drop(w);
        assert_eq!(s.marked_count(), 64, "63 from the writer + 1 raced");
        for i in 0..64u64 {
            assert!(s.is_marked(Addr::new(0x1_0000_0000 + i * GRANULE_SIZE as u64)));
        }
    }

    #[test]
    fn writer_prof_attributes_window_and_cache_behaviour() {
        let s = ShadowMap::new();
        let mut w = s.writer();
        // 64 consecutive granules: mark 0 is direct, mark 1 opens the
        // combine window, marks 1..=63 publish through it at flush.
        for i in 0..64u64 {
            w.mark(Addr::new(0x1_0000_0000 + i * GRANULE_SIZE as u64));
        }
        let p = w.take_prof();
        assert_eq!(p.direct, 1, "first mark is direct: {p:?}");
        assert_eq!(p.window_opens, 1, "{p:?}");
        assert_eq!(p.window_bits, 63, "window batched the rest: {p:?}");
        assert!(p.flushes >= 1, "{p:?}");
        assert_eq!(p.cache_misses, 1, "one radix walk for the chunk: {p:?}");
        assert_eq!(p.cache_evictions, 0, "{p:?}");

        // take_prof resets: scattered marks across CHUNK_CACHE+1 chunks
        // collide in the direct-mapped cache and evict.
        let chunk_bytes = CHUNK_GRANULES * GRANULE_SIZE as u64;
        for i in 0..=(CHUNK_CACHE as u64) {
            w.mark(Addr::new(i * chunk_bytes));
        }
        let p = w.take_prof();
        assert_eq!(p.window_opens, 0, "scattered marks never open the window: {p:?}");
        assert_eq!(p.direct, CHUNK_CACHE as u64 + 1, "{p:?}");
        assert!(p.cache_evictions >= 1, "wrap-around evicts slot 0: {p:?}");
        drop(w);
        assert_eq!(s.marked_count(), 64 + CHUNK_CACHE as u64 + 1);
    }

    #[test]
    fn interior_pointer_retains_whole_allocation() {
        // Figure 5: a pointer to any offset inside [a, a+size) must be
        // caught by checking the allocation's full granule range.
        let s = ShadowMap::new();
        let base = Addr::new(0x1_0000_0000);
        s.mark(base + 100); // interior pointer target
        assert!(s.range_marked(base, 128));
        assert!(!s.range_marked(base, 96), "range before the mark is clean");
        assert!(!s.range_marked(base + 112, 16));
    }

    #[test]
    fn range_marked_handles_granule_straddling() {
        let s = ShadowMap::new();
        let base = Addr::new(0x1_0000_0008); // misaligned to granule
        s.mark(base);
        // A range ending inside the marked granule must see the mark.
        assert!(s.range_marked(Addr::new(0x1_0000_0000), 8));
        assert!(s.range_marked(base, 1));
    }

    #[test]
    fn zero_length_range_is_never_marked() {
        let s = ShadowMap::new();
        s.mark(Addr::new(0x1000));
        assert!(!s.range_marked(Addr::new(0x1000), 0));
    }

    #[test]
    fn union_merges_and_counts_exactly() {
        let a = ShadowMap::new();
        let b = ShadowMap::new();
        a.mark(Addr::new(16));
        a.mark(Addr::new(32));
        b.mark(Addr::new(32)); // overlap
        b.mark(Addr::new(1 << 30)); // distinct chunk
        a.union(&b);
        assert_eq!(a.marked_count(), 3);
        assert!(a.is_marked(Addr::new(16)));
        assert!(a.is_marked(Addr::new(32)));
        assert!(a.is_marked(Addr::new(1 << 30)));
    }

    #[test]
    fn chunk_boundaries_are_seamless() {
        let s = ShadowMap::new();
        let boundary = CHUNK_GRANULES * GRANULE_SIZE as u64;
        s.mark(Addr::new(boundary - 16));
        s.mark(Addr::new(boundary));
        assert!(s.range_marked(Addr::new(boundary - 16), 32));
        assert_eq!(s.marked_count(), 2);
        assert_eq!(s.resident_bytes(), 2 * 4096, "one chunk per side");
    }

    #[test]
    fn sparse_representation_stays_small() {
        let s = ShadowMap::new();
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
        let resident = s.resident_bytes();
        s.clear();
        assert!(s.is_empty());
        assert!(!s.is_marked(Addr::new(0x1_0000_0000)));
        assert!(!s.range_marked(Addr::new(1 << 33), 4096));
        assert_eq!(s.resident_bytes(), resident, "chunks are reused, not freed");
        // The next epoch marks into the recycled chunks.
        assert!(s.mark(Addr::new(0x1_0000_0000)));
        assert_eq!(s.marked_count(), 1);
    }

    #[test]
    fn clone_is_deep() {
        let s = ShadowMap::new();
        s.mark(Addr::new(0x1_0000_0000));
        let c = s.clone();
        s.mark(Addr::new(0x2_0000_0000));
        assert_eq!(c.marked_count(), 1);
        assert!(!c.is_marked(Addr::new(0x2_0000_0000)));
        assert!(c.is_marked(Addr::new(0x1_0000_0000)));
    }

    #[test]
    fn far_addresses_use_distinct_directory_slots() {
        let s = ShadowMap::new();
        // 1 TiB apart: different level-2 tables.
        s.mark(Addr::new(1 << 40));
        s.mark(Addr::new(1 << 41));
        assert!(s.is_marked(Addr::new(1 << 40)));
        assert!(s.is_marked(Addr::new(1 << 41)));
        assert_eq!(s.marked_count(), 2);
        assert!(s.directory_bytes() > (L1_ENTRIES * 8) as u64);
    }

    #[test]
    #[should_panic(expected = "shadowed span")]
    fn marking_beyond_the_shadowed_span_panics() {
        ShadowMap::new().mark(Addr::new(MAX_SHADOWED));
    }

    #[test]
    fn concurrent_marks_count_exactly_across_chunk_boundary() {
        // 8 threads × 4096 granules straddling a chunk boundary, every
        // granule hit by every thread: the count must be exactly the
        // number of distinct granules.
        let s = ShadowMap::new();
        let boundary = CHUNK_GRANULES * GRANULE_SIZE as u64; // chunk 0 → 1
        let granules = 4096u64;
        let base = boundary - (granules / 2) * GRANULE_SIZE as u64;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = &s;
                scope.spawn(move || {
                    let mut w = s.writer();
                    for i in 0..granules {
                        // Different starting phase per thread maximises
                        // same-bit contention.
                        let g = (i + t * 512) % granules;
                        w.mark(Addr::new(base + g * GRANULE_SIZE as u64));
                    }
                });
            }
        });
        assert_eq!(s.marked_count(), granules, "exact count under contention");
        for i in 0..granules {
            assert!(s.is_marked(Addr::new(base + i * GRANULE_SIZE as u64)));
        }
        assert!(s.range_marked(Addr::new(base), granules * GRANULE_SIZE as u64));
    }

    #[test]
    fn concurrent_publication_of_one_chunk_is_safe() {
        // All threads race to create the same chunk: exactly one wins,
        // losers adopt it, and every mark lands.
        for _ in 0..16 {
            let s = ShadowMap::new();
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let s = &s;
                    scope.spawn(move || {
                        s.mark(Addr::new(0x1_0000_0000 + t * GRANULE_SIZE as u64));
                    });
                }
            });
            assert_eq!(s.marked_count(), 8);
            assert_eq!(s.resident_bytes(), 4096, "one chunk, no leak/dup");
        }
    }

    #[test]
    fn range_marked_agrees_with_naive_oracle() {
        // Differential test: word-masked scan vs the per-granule probe,
        // over a deliberately awkward bit population (word edges, chunk
        // edges, isolated bits).
        let fast = ShadowMap::new();
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
