//! Per-page state: protection, commit status, soft-dirty tracking.

use crate::addr::{PAGE_SIZE, WORD_SIZE};

/// Words per page.
pub(crate) const WORDS_PER_PAGE: usize = PAGE_SIZE / WORD_SIZE;

/// Access protection of a mapped page.
///
/// The simulation only needs the two states the paper uses: normal data
/// pages, and pages MineSweeper has protected against all access after
/// decommitting a large quarantined allocation (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Protection {
    /// Normal readable/writable data page.
    #[default]
    ReadWrite,
    /// All accesses fault (`PROT_NONE`).
    None,
}

/// A mapped page and its physical backing.
///
/// `data == None` means the page is mapped but not committed: it occupies
/// virtual address space but no physical memory (no RSS). A read through the
/// normal access path demand-commits it to zeroes.
///
/// `alias_of == Some(frame)` makes this a **virtual alias**: accesses
/// resolve to `frame`'s storage (one level only; the target must be a
/// plain page). Aliases have their own protection but no storage or RSS —
/// the mechanism behind Oscar-style shadow virtual pages (§6.3).
#[derive(Debug)]
pub(crate) struct PageSlot {
    pub(crate) data: Option<Box<[u64; WORDS_PER_PAGE]>>,
    pub(crate) prot: Protection,
    pub(crate) soft_dirty: bool,
    pub(crate) alias_of: Option<u64>,
}

impl PageSlot {
    /// Fresh mapped, uncommitted, read-write page.
    pub(crate) const fn new() -> Self {
        PageSlot { data: None, prot: Protection::ReadWrite, soft_dirty: false, alias_of: None }
    }

    /// Fresh alias slot resolving to `frame`.
    pub(crate) fn new_alias(frame: u64) -> Self {
        PageSlot {
            data: None,
            prot: Protection::ReadWrite,
            soft_dirty: false,
            alias_of: Some(frame),
        }
    }

    pub(crate) fn is_committed(&self) -> bool {
        self.data.is_some()
    }

    /// Whether the page is as [`PageSlot::new`] makes it: uncommitted,
    /// read-write, not soft-dirty and not an alias.
    pub(crate) fn is_pristine(&self) -> bool {
        self.data.is_none()
            && self.prot == Protection::ReadWrite
            && !self.soft_dirty
            && self.alias_of.is_none()
    }

    /// Commits the page (idempotent), zero-filling fresh backing.
    /// Returns `true` if the page was newly committed.
    ///
    /// A fresh commit sets the soft-dirty bit: the page's observable
    /// contents change (whatever a decommit discarded is now zeroes), and
    /// Linux likewise reports newly faulted pages as soft-dirty after a
    /// `clear_refs` cycle. Consumers that skip clean pages (the sweep's
    /// page-summary cache) rely on this to never treat a
    /// decommit/recommit round-trip as "unchanged".
    pub(crate) fn commit(&mut self) -> bool {
        if self.data.is_none() {
            self.data = Some(Box::new([0u64; WORDS_PER_PAGE]));
            self.soft_dirty = true;
            true
        } else {
            false
        }
    }

    /// Discards physical backing (idempotent). Returns `true` if the page
    /// was committed before the call.
    ///
    /// Discarding sets the soft-dirty bit: the contents observably change
    /// (to zeroes on the next access), so any cached per-page sweep
    /// summary is stale.
    pub(crate) fn decommit(&mut self) -> bool {
        let was = self.data.take().is_some();
        self.soft_dirty |= was;
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_decommit_cycle() {
        let mut slot = PageSlot::new();
        assert!(slot.is_pristine());
        assert!(!slot.is_committed());
        assert!(slot.commit());
        assert!(!slot.commit(), "second commit is a no-op");
        assert!(slot.is_committed());
        assert!(slot.decommit());
        assert!(!slot.decommit(), "second decommit is a no-op");
        assert!(!slot.is_committed());
        assert!(!slot.is_pristine(), "the discarded contents leave it soft-dirty");
    }

    #[test]
    fn commit_zero_fills() {
        let mut slot = PageSlot::new();
        slot.commit();
        assert!(slot.data.as_ref().unwrap().iter().all(|&w| w == 0));
    }

    #[test]
    fn default_protection_is_read_write() {
        assert_eq!(Protection::default(), Protection::ReadWrite);
    }
}
