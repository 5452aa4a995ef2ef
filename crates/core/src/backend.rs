//! The allocator-backend abstraction.
//!
//! "Much of the implementation is allocator-agnostic; MineSweeper hooks
//! into the allocator's public API and slightly extends it to efficiently
//! identify active memory ranges" (§3.2) — and §7 reports a second
//! implementation over Scudo at 4.4 % overhead. [`HeapBackend`] is that
//! slightly-extended public API: anything implementing it can sit under
//! the quarantine layer. [`jalloc::JAlloc`] is the default; the `ms-scudo`
//! crate provides the hardened-allocator alternative.

use jalloc::FreeError;
use vmem::{Addr, AddrSpace};

/// The allocator interface MineSweeper interposes on.
///
/// Beyond `malloc`/`free`, the layer needs: usable sizes (to zero and to
/// check shadow ranges), active memory ranges (what sweeps must examine),
/// total allocated bytes (the sweep-trigger denominator), and purge
/// control (§4.5's post-sweep cleanup).
pub trait HeapBackend {
    /// Allocates `size` bytes and returns the base address.
    fn malloc(&mut self, space: &mut AddrSpace, size: u64) -> Addr;

    /// Frees the allocation based at `addr`.
    ///
    /// # Errors
    ///
    /// [`FreeError`] if `addr` is not a live allocation base. The
    /// quarantine layer only forwards addresses it verified, so an error
    /// here indicates a layering bug.
    fn free(&mut self, space: &mut AddrSpace, addr: Addr) -> Result<(), FreeError>;

    /// Usable size of the live allocation based exactly at `addr`;
    /// `None` for a block the program freed, even one the backend still
    /// caches for reuse (the layer rejects a re-free on this answer).
    fn usable_size(&self, addr: Addr) -> Option<u64>;

    /// Address-ordered `(base, byte_len)` ranges sweeps must examine.
    fn active_ranges(&self) -> Vec<(Addr, u64)>;

    /// Bytes in live allocations (the "total memory use of the
    /// application" for the §3.2 sweep trigger).
    fn allocated_bytes(&self) -> u64;

    /// Releases all free physical memory now (§4.5: triggered after every
    /// sweep).
    fn purge_all(&mut self, space: &mut AddrSpace);

    /// Background decay purging (time-based; may be a no-op).
    fn purge_aged(&mut self, space: &mut AddrSpace);

    /// Advances the allocator's virtual clock.
    fn advance_clock(&mut self, now: u64);

    /// Cumulative pages this allocator has decommitted by purging, for
    /// telemetry deltas around [`HeapBackend::purge_all`]. Backends
    /// without purge accounting may keep the 0 default.
    fn purged_pages(&self) -> u64 {
        0
    }
}

impl HeapBackend for jalloc::JAlloc {
    fn malloc(&mut self, space: &mut AddrSpace, size: u64) -> Addr {
        jalloc::JAlloc::malloc(self, space, size)
    }

    fn free(&mut self, space: &mut AddrSpace, addr: Addr) -> Result<(), FreeError> {
        jalloc::JAlloc::free(self, space, addr)
    }

    fn usable_size(&self, addr: Addr) -> Option<u64> {
        jalloc::JAlloc::usable_size(self, addr)
    }

    fn active_ranges(&self) -> Vec<(Addr, u64)> {
        jalloc::JAlloc::active_ranges(self)
    }

    fn allocated_bytes(&self) -> u64 {
        self.stats().allocated_bytes
    }

    fn purge_all(&mut self, space: &mut AddrSpace) {
        jalloc::JAlloc::purge_all(self, space)
    }

    fn purge_aged(&mut self, space: &mut AddrSpace) {
        jalloc::JAlloc::purge_aged(self, space)
    }

    fn advance_clock(&mut self, now: u64) {
        jalloc::JAlloc::advance_clock(self, now)
    }

    fn purged_pages(&self) -> u64 {
        self.stats().purged_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jalloc_implements_the_backend_contract() {
        let mut space = AddrSpace::new();
        let mut heap = jalloc::JAlloc::new();
        let backend: &mut dyn HeapBackend = &mut heap;
        let a = backend.malloc(&mut space, 100);
        assert!(backend.usable_size(a).unwrap() >= 100);
        assert!(backend.allocated_bytes() >= 100);
        assert!(!backend.active_ranges().is_empty());
        backend.free(&mut space, a).unwrap();
        backend.purge_all(&mut space);
        assert_eq!(backend.allocated_bytes(), 0);
    }
}
