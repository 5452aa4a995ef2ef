//! The quarantine: freed allocations waiting to be proven pointer-free.
//!
//! Frees are first batched in a thread-local buffer (contribution (c):
//! "thread-local quarantine buffers to reduce lock contention"), then
//! flushed to the global quarantine list. A [`GranuleSet`] of quarantined
//! bases (one bit per 16-byte granule, like the shadow map) de-duplicates
//! double frees, making `free()` idempotent while a dangling pointer
//! exists (§3).

use vmem::{Addr, PAGE_SIZE};

use crate::granules::GranuleSet;

/// A quarantined allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QEntry {
    /// Base address of the allocation.
    pub base: Addr,
    /// Usable size in bytes (size-class or page-rounded; includes the +1
    /// `end()` padding, so past-the-end pointers are covered by the
    /// shadow-map check).
    pub usable: u64,
    /// Interior pages decommitted + protected at quarantine time (§4.2).
    pub unmapped_pages: u64,
    /// Whether the entry has already failed at least one sweep.
    pub failed: bool,
    /// Allocation-site id the workload attached to this allocation
    /// (0 when unknown). Forensics aggregates pinned bytes per site.
    pub site: u32,
}

impl QEntry {
    /// Creates an entry for an allocation with no unmapped pages.
    pub fn new(base: Addr, usable: u64) -> Self {
        QEntry { base, usable, unmapped_pages: 0, failed: false, site: 0 }
    }

    /// Bytes of this entry that sweeps must still examine (everything not
    /// unmapped).
    pub fn swept_bytes(&self) -> u64 {
        self.usable - self.unmapped_bytes()
    }

    /// Bytes released from physical memory by unmapping.
    pub fn unmapped_bytes(&self) -> u64 {
        self.unmapped_pages * PAGE_SIZE as u64
    }
}

/// The quarantine data structure.
///
/// # Example
///
/// ```
/// use minesweeper::{Quarantine, QEntry};
/// use vmem::Addr;
///
/// let mut q = Quarantine::new(4);
/// let e = QEntry::new(Addr::new(0x1_0000_0000), 64);
/// q.insert(e);
/// assert_eq!(q.tracked_bytes(), 64);
/// assert!(q.contains(e.base));
/// ```
#[derive(Clone, Debug)]
pub struct Quarantine {
    tl_buffer: Vec<QEntry>,
    tl_capacity: usize,
    global: Vec<QEntry>,
    /// Bases of every member, locked-in entries included.
    members: GranuleSet,
    /// Number of members.
    len: usize,
    tracked_bytes: u64,
    failed_bytes: u64,
    unmapped_bytes: u64,
    generation: u64,
}

impl Quarantine {
    /// Creates an empty quarantine with the given thread-local buffer
    /// capacity.
    pub fn new(tl_capacity: usize) -> Self {
        Quarantine {
            tl_buffer: Vec::with_capacity(tl_capacity.max(1)),
            tl_capacity: tl_capacity.max(1),
            global: Vec::new(),
            members: GranuleSet::new(),
            len: 0,
            tracked_bytes: 0,
            failed_bytes: 0,
            unmapped_bytes: 0,
            generation: 0,
        }
    }

    /// Inserts a freed allocation whose base is not yet a member (the
    /// layer rejects double frees with [`Quarantine::contains`] first).
    /// Returns whether the thread-local buffer spilled to the global list
    /// (a lock acquisition in the real implementation — the cost model
    /// charges for it).
    pub fn insert(&mut self, entry: QEntry) -> bool {
        let new = self.members.insert(entry.base);
        debug_assert!(new, "{} is already quarantined", entry.base);
        self.len += 1;
        self.generation += 1;
        self.tracked_bytes += entry.swept_bytes();
        self.unmapped_bytes += entry.unmapped_bytes();
        if entry.failed {
            self.failed_bytes += entry.swept_bytes();
        }
        self.tl_buffer.push(entry);
        let flushed = self.tl_buffer.len() >= self.tl_capacity;
        if flushed {
            self.global.append(&mut self.tl_buffer);
        }
        flushed
    }

    /// Locks in the current generation for a sweep: every entry quarantined
    /// so far (thread-local buffers included) is drained and returned.
    /// Entries quarantined after this call "can only be recycled by a
    /// future sweep" (§4.3). Aggregate accounting is untouched until
    /// [`Quarantine::on_released`] / [`Quarantine::on_failed`] decide each
    /// entry's fate.
    pub fn lock_generation(&mut self) -> Vec<QEntry> {
        let mut locked = std::mem::take(&mut self.global);
        locked.append(&mut self.tl_buffer);
        locked
    }

    /// Records that a locked-in entry was proven pointer-free and released
    /// to the allocator.
    pub fn on_released(&mut self, entry: &QEntry) {
        assert!(self.members.remove(entry.base), "released entry must be tracked");
        self.len -= 1;
        self.generation += 1;
        self.tracked_bytes -= entry.swept_bytes();
        self.unmapped_bytes -= entry.unmapped_bytes();
        if entry.failed {
            self.failed_bytes -= entry.swept_bytes();
        }
    }

    /// Records that a locked-in entry failed its sweep (a dangling pointer
    /// was found): it rejoins the quarantine flagged as failed, so the
    /// trigger maths can subtract it "from both sides" (§3.2).
    pub fn on_failed(&mut self, mut entry: QEntry) {
        debug_assert!(self.members.contains(entry.base));
        if !entry.failed {
            entry.failed = true;
            self.failed_bytes += entry.swept_bytes();
        }
        self.global.push(entry);
    }

    /// Whether `base` is currently quarantined (including locked-in
    /// entries mid-sweep).
    pub fn contains(&self, base: Addr) -> bool {
        self.members.contains(base)
    }

    /// Monotonic membership generation: bumped every time an allocation
    /// enters ([`Quarantine::insert`]) or leaves
    /// ([`Quarantine::on_released`]) the quarantine. Sweep-side caches
    /// epoch-tag their entries with this value so "has the candidate set
    /// changed?" is a single integer compare — O(1) invalidation, never a
    /// scan. (A failed entry rejoining via [`Quarantine::on_failed`] is
    /// not a membership change.)
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total swept (non-unmapped) bytes in quarantine.
    pub fn tracked_bytes(&self) -> u64 {
        self.tracked_bytes
    }

    /// Swept bytes belonging to entries that already failed a sweep.
    pub fn failed_bytes(&self) -> u64 {
        self.failed_bytes
    }

    /// Bytes of quarantined allocations whose pages were unmapped; these
    /// do "not count towards standard memory usage or quarantine-size sweep
    /// thresholds" (§4.2) but feed the 9× unmapped trigger.
    pub fn unmapped_bytes(&self) -> u64 {
        self.unmapped_bytes
    }

    /// Number of quarantined allocations (including locked-in entries).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the quarantine is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries awaiting the *next* sweep (not locked in), for tests and
    /// introspection.
    pub fn pending(&self) -> impl Iterator<Item = &QEntry> {
        self.global.iter().chain(self.tl_buffer.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(base: u64, usable: u64) -> QEntry {
        QEntry::new(Addr::new(base), usable)
    }

    #[test]
    fn insert_tracks_bytes() {
        let mut q = Quarantine::new(8);
        q.insert(entry(0x1000, 64));
        q.insert(entry(0x2000, 128));
        assert_eq!(q.tracked_bytes(), 192);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn tl_buffer_flushes_at_capacity() {
        let mut q = Quarantine::new(3);
        assert!(!q.insert(entry(0x1000, 16)));
        assert!(!q.insert(entry(0x2000, 16)));
        assert!(q.insert(entry(0x3000, 16)), "third entry fills the buffer");
        assert!(!q.insert(entry(0x4000, 16)));
    }

    #[test]
    fn lock_generation_drains_everything_once() {
        let mut q = Quarantine::new(2);
        q.insert(entry(0x1000, 16));
        q.insert(entry(0x2000, 16)); // flushes
        q.insert(entry(0x3000, 16)); // stays in tl buffer
        let locked = q.lock_generation();
        assert_eq!(locked.len(), 3);
        assert!(q.lock_generation().is_empty(), "second lock-in is empty");
        assert_eq!(q.len(), 3, "locked entries still counted until resolved");
    }

    #[test]
    fn released_entries_leave_completely() {
        let mut q = Quarantine::new(8);
        let e = entry(0x1000, 64);
        q.insert(e);
        let locked = q.lock_generation();
        q.on_released(&locked[0]);
        assert_eq!(q.tracked_bytes(), 0);
        assert!(!q.contains(e.base));
        // The base can be quarantined again after reallocation + refree.
        q.insert(e);
        assert!(q.contains(e.base));
    }

    #[test]
    fn failed_entries_rejoin_flagged() {
        let mut q = Quarantine::new(8);
        q.insert(entry(0x1000, 64));
        let locked = q.lock_generation();
        q.on_failed(locked[0]);
        assert_eq!(q.failed_bytes(), 64);
        assert_eq!(q.tracked_bytes(), 64);
        assert!(q.contains(Addr::new(0x1000)));
        // Failing again must not double-count.
        let locked = q.lock_generation();
        assert!(locked[0].failed);
        q.on_failed(locked[0]);
        assert_eq!(q.failed_bytes(), 64);
    }

    #[test]
    fn failed_then_released_restores_balance() {
        let mut q = Quarantine::new(8);
        q.insert(entry(0x1000, 64));
        let locked = q.lock_generation();
        q.on_failed(locked[0]);
        let locked = q.lock_generation();
        q.on_released(&locked[0]);
        assert_eq!(q.tracked_bytes(), 0);
        assert_eq!(q.failed_bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn unmapped_bytes_are_separated_from_tracked() {
        let mut q = Quarantine::new(8);
        let e = QEntry {
            base: Addr::new(0x10000),
            usable: 10 * PAGE_SIZE as u64,
            unmapped_pages: 9,
            failed: false,
            site: 0,
        };
        q.insert(e);
        assert_eq!(q.tracked_bytes(), PAGE_SIZE as u64);
        assert_eq!(q.unmapped_bytes(), 9 * PAGE_SIZE as u64);
        let locked = q.lock_generation();
        q.on_released(&locked[0]);
        assert_eq!(q.unmapped_bytes(), 0);
    }

    #[test]
    fn generation_tracks_membership_changes_only() {
        let mut q = Quarantine::new(8);
        let g0 = q.generation();
        q.insert(entry(0x1000, 16));
        assert_eq!(q.generation(), g0 + 1);
        let locked = q.lock_generation();
        assert_eq!(q.generation(), g0 + 1, "locking is not a membership change");
        q.on_failed(locked[0]);
        assert_eq!(q.generation(), g0 + 1, "failed entries stay members");
        let locked = q.lock_generation();
        q.on_released(&locked[0]);
        assert_eq!(q.generation(), g0 + 2);
    }

    #[test]
    fn pending_excludes_locked_entries() {
        let mut q = Quarantine::new(8);
        q.insert(entry(0x1000, 16));
        q.lock_generation();
        q.insert(entry(0x2000, 16));
        let pending: Vec<Addr> = q.pending().map(|e| e.base).collect();
        assert_eq!(pending, vec![Addr::new(0x2000)]);
    }
}
