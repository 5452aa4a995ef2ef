//! Memory-tagging combination (§6.2, the paper's future-work sketch).
//!
//! "Such hardware mechanisms \[Arm MTE\] could combine with MineSweeper to
//! achieve deterministic protection both with significantly lower
//! overheads than in software alone, by allowing limited reuse of regions,
//! and detection rather than just mitigation of attacks."
//!
//! This module implements that combination over the simulated substrate:
//!
//! * Every allocation gets a 4-bit **tag**; the tag is stored per 16-byte
//!   granule ([`TagTable`]) and replicated into the unused top byte of
//!   every pointer ([`tag_ptr`]).
//! * **Detection**: checked loads/stores compare pointer tag against
//!   granule tag; quarantined memory is retagged to a reserved quarantine
//!   tag, so any use of a dangling pointer faults *visibly*
//!   ([`MteError::TagMismatch`]) instead of reading benign zeroes —
//!   upgrading MineSweeper from mitigation to detection.
//! * **Limited reuse**: the tag-aware sweep treats a pointer as dangerous
//!   only if its embedded tag matches the target's *current* tag. After an
//!   allocation is retagged, stale pointers with old tags can no longer
//!   dereference it on MTE hardware — so the allocation can be recycled
//!   even though (now-harmless) pointers to it remain, cutting failed
//!   frees and quarantine residency.

use jalloc::JAlloc;
use vmem::{Addr, AddrSpace, GRANULE_SIZE, WORD_SIZE};

use crate::backend::HeapBackend;
use crate::config::MsConfig;
use crate::layer::{FreeOutcome, MineSweeper, SweepReport};
use crate::shadow::ShadowMap;
use crate::sweep::SweepPlan;

use std::collections::HashMap;

/// Tag reserved for quarantined (freed, not yet recycled) memory.
pub const QUARANTINE_TAG: u8 = 0xF;

/// Bit position of the tag inside a pointer (top byte, as Arm MTE uses).
const TAG_SHIFT: u32 = 56;

/// Embeds a tag in a pointer's unused top byte.
pub fn tag_ptr(addr: Addr, tag: u8) -> u64 {
    debug_assert!(tag <= 0xF);
    addr.raw() | u64::from(tag) << TAG_SHIFT
}

/// Splits a tagged pointer into `(address, tag)`.
pub fn untag_ptr(word: u64) -> (Addr, u8) {
    (Addr::new(word & !(0xFFu64 << TAG_SHIFT)), (word >> TAG_SHIFT) as u8 & 0xF)
}

/// A tag-check failure: the simulated hardware fault MTE raises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MteError {
    /// Pointer tag does not match the memory's current tag: a temporal
    /// (or spatial) safety violation, *detected* at the faulting access.
    TagMismatch {
        /// The accessed address.
        addr: Addr,
        /// Tag carried by the pointer.
        ptr_tag: u8,
        /// Tag currently on the memory.
        mem_tag: u8,
    },
    /// The underlying access faulted (unmapped/protected page).
    Fault(Addr),
}

impl std::fmt::Display for MteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MteError::TagMismatch { addr, ptr_tag, mem_tag } => write!(
                f,
                "tag mismatch at {addr}: pointer tag {ptr_tag:#x}, memory tag {mem_tag:#x}"
            ),
            MteError::Fault(addr) => write!(f, "access fault at {addr}"),
        }
    }
}

impl std::error::Error for MteError {}

/// Sparse 4-bit-per-granule tag storage (the MTE tag memory).
#[derive(Debug, Default)]
pub struct TagTable {
    /// granule index -> tag. Sparse map keeps the model simple; real MTE
    /// stores tags in carved-out physical memory.
    tags: HashMap<u64, u8>,
}

impl TagTable {
    /// Creates an empty table (untagged memory reads as tag 0).
    pub fn new() -> Self {
        TagTable::default()
    }

    /// Tags every granule overlapping `[base, base + len)`.
    pub fn set_range(&mut self, base: Addr, len: u64, tag: u8) {
        debug_assert!(tag <= 0xF);
        if len == 0 {
            return;
        }
        let first = base.granule();
        let last = base.add_bytes(len - 1).granule();
        for g in first..=last {
            self.tags.insert(g, tag);
        }
    }

    /// Current tag of the granule containing `addr` (0 if never tagged).
    pub fn tag_of(&self, addr: Addr) -> u8 {
        self.tags.get(&addr.granule()).copied().unwrap_or(0)
    }
}

/// MineSweeper combined with MTE-style tagging.
///
/// # Example
///
/// ```
/// use minesweeper::{MsConfig, MteHeap, MteError};
/// use vmem::AddrSpace;
///
/// let mut space = AddrSpace::new();
/// let mut heap = MteHeap::new(MsConfig::fully_concurrent());
/// let p = heap.malloc(&mut space, 64);
/// heap.store(&mut space, p, 42).unwrap();
/// heap.free(&mut space, p);
/// // Use-after-free is DETECTED at the access, not just mitigated:
/// assert!(matches!(
///     heap.load(&mut space, p),
///     Err(MteError::TagMismatch { .. })
/// ));
/// ```
#[derive(Debug)]
pub struct MteHeap<B: HeapBackend = JAlloc> {
    ms: MineSweeper<B>,
    tags: TagTable,
    next_tag: u8,
    /// Tag-mismatch events detected (would be SIGSEGV-with-report on MTE
    /// hardware).
    detections: u64,
}

impl MteHeap<JAlloc> {
    /// Creates a tagged heap over the default JeMalloc-style backend.
    pub fn new(cfg: MsConfig) -> Self {
        Self::with_backend_ms(MineSweeper::new(cfg))
    }
}

impl<B: HeapBackend> MteHeap<B> {
    /// Wraps an existing MineSweeper layer with tagging.
    pub fn with_backend_ms(ms: MineSweeper<B>) -> Self {
        MteHeap { ms, tags: TagTable::new(), next_tag: 1, detections: 0 }
    }

    /// The wrapped MineSweeper layer.
    pub fn minesweeper(&self) -> &MineSweeper<B> {
        &self.ms
    }

    /// The tag table.
    pub fn tags(&self) -> &TagTable {
        &self.tags
    }

    /// Tag mismatches detected so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Whether the wrapped layer's sweep trigger has fired (so callers
    /// can pair it with [`MteHeap::sweep_now_tag_aware`] the way plain
    /// users pair [`MineSweeper::sweep_needed`] with `sweep_now`).
    pub fn sweep_needed(&self, space: &AddrSpace) -> bool {
        self.ms.sweep_needed(space)
    }

    fn fresh_tag(&mut self) -> u8 {
        // Cycle 1..=14, reserving 0 (untagged) and 0xF (quarantine).
        let tag = self.next_tag;
        self.next_tag = if self.next_tag >= 14 { 1 } else { self.next_tag + 1 };
        tag
    }

    /// Allocates `size` bytes; returns a **tagged** pointer.
    pub fn malloc(&mut self, space: &mut AddrSpace, size: u64) -> u64 {
        let base = self.ms.malloc(space, size);
        let usable = self.ms.heap().usable_size(base).expect("fresh allocation");
        let tag = self.fresh_tag();
        self.tags.set_range(base, usable, tag);
        tag_ptr(base, tag)
    }

    /// Frees through a tagged pointer. A mismatched tag is a detected
    /// double/invalid free; a matched tag quarantines and **retags the
    /// memory** to [`QUARANTINE_TAG`], so every later access through any
    /// stale pointer faults.
    pub fn free(&mut self, space: &mut AddrSpace, tagged: u64) -> FreeOutcome {
        let (base, tag) = untag_ptr(tagged);
        if self.tags.tag_of(base) != tag {
            self.detections += 1;
            return FreeOutcome::Invalid;
        }
        let usable = self.ms.heap().usable_size(base);
        let outcome = self.ms.free(space, base);
        if outcome == FreeOutcome::Quarantined {
            if let Some(usable) = usable {
                self.tags.set_range(base, usable, QUARANTINE_TAG);
            }
        }
        outcome
    }

    /// Tag-checked load (what every load instruction does under MTE).
    ///
    /// # Errors
    ///
    /// [`MteError::TagMismatch`] on a temporal-safety violation;
    /// [`MteError::Fault`] if the page itself is gone.
    pub fn load(&mut self, space: &mut AddrSpace, tagged: u64) -> Result<u64, MteError> {
        let (addr, ptr_tag) = untag_ptr(tagged);
        let mem_tag = self.tags.tag_of(addr);
        if ptr_tag != mem_tag {
            self.detections += 1;
            return Err(MteError::TagMismatch { addr, ptr_tag, mem_tag });
        }
        space.read_word(addr).map_err(|e| MteError::Fault(e.addr()))
    }

    /// Tag-checked store.
    ///
    /// # Errors
    ///
    /// As [`MteHeap::load`].
    pub fn store(
        &mut self,
        space: &mut AddrSpace,
        tagged: u64,
        value: u64,
    ) -> Result<(), MteError> {
        let (addr, ptr_tag) = untag_ptr(tagged);
        let mem_tag = self.tags.tag_of(addr);
        if ptr_tag != mem_tag {
            self.detections += 1;
            return Err(MteError::TagMismatch { addr, ptr_tag, mem_tag });
        }
        space.write_word(addr, value).map_err(|e| MteError::Fault(e.addr()))
    }

    /// A **tag-aware sweep**: like [`MineSweeper::sweep_now`], but a
    /// pointer only pins a quarantined allocation if its embedded tag
    /// matches the memory's current ([`QUARANTINE_TAG`]) tag — i.e. if it
    /// could actually dereference the memory on MTE hardware. Stale
    /// pointers whose referent was retagged are harmless, so their targets
    /// recycle immediately: the paper's "limited reuse of regions".
    pub fn sweep_now_tag_aware(&mut self, space: &mut AddrSpace) -> SweepReport {
        // Mark phase: scan the same ranges the normal sweep would, but
        // filter by tag match.
        let layout = *space.layout();
        let plan = SweepPlan::build(space, &self.ms.heap().active_ranges());
        let mut shadow = ShadowMap::new();
        let mut writer = shadow.writer();
        for &(range_base, len) in plan.ranges() {
            let mut off = 0;
            while off < len {
                let addr = range_base.add_bytes(off);
                let page_end = addr.page().next().base().offset_from(range_base).min(len);
                if let Ok(Some(words)) = space.scan_page(addr.page()) {
                    let w0 = addr.word_in_page();
                    let w1 = w0 + ((page_end - off) / WORD_SIZE as u64) as usize;
                    for &word in &words[w0..w1] {
                        let (target, ptr_tag) = untag_ptr(word);
                        if layout.heap_contains(target)
                            && self.tags.tag_of(target) == ptr_tag
                        {
                            writer.mark(target);
                        }
                    }
                }
                off = page_end;
            }
        }
        // Publish the writer's buffered marks before the release phase
        // reads the map.
        drop(writer);
        // Release phase: run the layer's sweep with marking disabled and
        // filter by our tag-aware shadow instead. Simplest faithful
        // composition: temporarily consult the shadow per-entry via the
        // normal sweep API is private, so re-create the decision here.
        self.ms.sweep_now_with_shadow(space, &shadow)
    }
}

/// One granule's worth of bytes, re-exported for tag-geometry tests.
pub const TAG_GRANULE: usize = GRANULE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AddrSpace, MteHeap) {
        (AddrSpace::new(), MteHeap::new(MsConfig::fully_concurrent()))
    }

    #[test]
    fn tag_roundtrip() {
        let a = Addr::new(0x1_0000_0040);
        for tag in 0..=0xF {
            let p = tag_ptr(a, tag);
            assert_eq!(untag_ptr(p), (a, tag));
        }
    }

    #[test]
    fn tagged_pointers_work_while_live() {
        let (mut space, mut heap) = setup();
        let p = heap.malloc(&mut space, 64);
        heap.store(&mut space, p, 123).unwrap();
        assert_eq!(heap.load(&mut space, p).unwrap(), 123);
        assert_eq!(heap.detections(), 0);
    }

    #[test]
    fn use_after_free_is_detected_not_benign() {
        let (mut space, mut heap) = setup();
        let p = heap.malloc(&mut space, 64);
        heap.free(&mut space, p);
        // Plain MineSweeper would return benign zeroes; MTE detects.
        match heap.load(&mut space, p) {
            Err(MteError::TagMismatch { ptr_tag, mem_tag, .. }) => {
                assert_eq!(mem_tag, QUARANTINE_TAG);
                assert_ne!(ptr_tag, QUARANTINE_TAG);
            }
            other => panic!("expected detection, got {other:?}"),
        }
        assert_eq!(heap.detections(), 1);
    }

    #[test]
    fn double_free_is_detected_by_tag() {
        let (mut space, mut heap) = setup();
        let p = heap.malloc(&mut space, 64);
        assert_eq!(heap.free(&mut space, p), FreeOutcome::Quarantined);
        assert_eq!(heap.free(&mut space, p), FreeOutcome::Invalid);
        assert_eq!(heap.detections(), 1);
    }

    #[test]
    fn adjacent_allocations_get_distinct_tags() {
        let (mut space, mut heap) = setup();
        let p = heap.malloc(&mut space, 64);
        let q = heap.malloc(&mut space, 64);
        let (_, tp) = untag_ptr(p);
        let (_, tq) = untag_ptr(q);
        assert_ne!(tp, tq);
        // Cross-pointer access (spatial confusion) also detects.
        let (qa, _) = untag_ptr(q);
        let forged = tag_ptr(qa, tp);
        assert!(heap.load(&mut space, forged).is_err());
    }

    #[test]
    fn tag_aware_sweep_releases_despite_stale_pointer() {
        // The §6.2 "limited reuse" win: a dangling pointer whose tag no
        // longer matches cannot dereference, so its target can recycle.
        let (mut space, mut heap) = setup();
        let victim = heap.malloc(&mut space, 64);
        let holder = heap.malloc(&mut space, 64);
        // Store the TAGGED dangling pointer in live memory.
        heap.store(&mut space, holder, victim).unwrap();
        heap.free(&mut space, victim);

        // The plain sweep is conservative: the word looks like a pointer
        // into the heap (the address bits), so it pins. The tag-aware
        // sweep sees the tag mismatch (memory is QUARANTINE_TAG now) and
        // releases.
        let report = heap.sweep_now_tag_aware(&mut space);
        assert_eq!(report.failed, 0, "stale-tagged pointer must not pin");
        assert_eq!(report.released, 1);
        assert_eq!(heap.minesweeper().stats().released, 1);
    }

    #[test]
    fn tag_aware_sweep_still_pins_matching_pointers() {
        // A pointer that could still dereference (same tag) must pin: the
        // combination never weakens MineSweeper's guarantee.
        let (mut space, mut heap) = setup();
        let victim = heap.malloc(&mut space, 64);
        let holder = heap.malloc(&mut space, 64);
        let (vbase, _) = untag_ptr(victim);
        // Adversarially forge a pointer carrying the QUARANTINE tag.
        heap.store(&mut space, holder, tag_ptr(vbase, QUARANTINE_TAG)).unwrap();
        heap.free(&mut space, victim);
        let report = heap.sweep_now_tag_aware(&mut space);
        assert_eq!(report.failed, 1, "tag-matching pointer must pin");
    }
}
