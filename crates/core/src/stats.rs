//! MineSweeper runtime statistics.

use vmem::Addr;

/// Counters describing a [`crate::MineSweeper`]'s history.
#[derive(Clone, Debug, Default)]
pub struct MsStats {
    /// Completed sweeps (Figure 14 counts these).
    pub sweeps: u64,
    /// Sweeps that included a stop-the-world re-check (mostly-concurrent
    /// mode).
    pub stw_passes: u64,
    /// Allocations quarantined.
    pub quarantined: u64,
    /// Bytes quarantined (usable sizes).
    pub quarantined_bytes: u64,
    /// Allocations released from quarantine to the allocator.
    pub released: u64,
    /// Bytes released.
    pub released_bytes: u64,
    /// Failed frees: entries retained by a sweep because a (possible)
    /// dangling pointer was found.
    pub failed_frees: u64,
    /// Double frees absorbed idempotently.
    pub double_frees: u64,
    /// Bytes zero-filled on free (§4.1).
    pub zeroed_bytes: u64,
    /// Pages decommitted by large-allocation unmapping (§4.2).
    pub unmapped_pages: u64,
    /// Bytes examined by marking phases.
    pub swept_bytes: u64,
    /// Pages re-examined by stop-the-world passes.
    pub stw_pages: u64,
    /// Thread-local quarantine buffer flushes.
    pub tl_flushes: u64,
    /// Entries those flushes spilled to the global quarantine.
    pub tl_flushed_entries: u64,
    /// Frees of addresses that were not live allocation bases (reported,
    /// not forwarded — the allocator never sees them).
    pub invalid_frees: u64,
    /// Bytes marking advanced through without reading (incremental sweep:
    /// cache-replayed clean pages plus protected/unmapped skips).
    pub skipped_bytes: u64,
    /// Clean pages whose 512-word re-read was skipped via the
    /// page-summary cache.
    pub pages_skipped: u64,
    /// Skipped pages whose non-empty digest was replayed into the shadow
    /// map.
    pub pages_replayed: u64,
    /// Heap-pointing words suppressed by the candidate filter.
    pub filter_rejects: u64,
    /// Scanned words that passed the heap range test (set bits of the
    /// pages' heap-word maps, pre-filter; excludes cache replays).
    pub heap_words: u64,
    /// Double-free reports (populated only with
    /// [`crate::MsConfig::report_double_frees`]; capped).
    pub double_free_reports: Vec<Addr>,
}

impl MsStats {
    /// Allocations still in quarantine according to the counters.
    /// Saturating: a snapshot taken between a sweep's release phase and
    /// its counter updates (or a copied/defaulted stats value) must read
    /// 0, not wrap to 2^64.
    pub fn in_quarantine(&self) -> u64 {
        self.quarantined.saturating_sub(self.released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_quarantine_balance() {
        let s = MsStats { quarantined: 10, released: 7, ..Default::default() };
        assert_eq!(s.in_quarantine(), 3);
    }

    #[test]
    fn in_quarantine_saturates_instead_of_wrapping() {
        let s = MsStats { quarantined: 3, released: 7, ..Default::default() };
        assert_eq!(s.in_quarantine(), 0);
    }

    #[test]
    fn default_is_all_zero() {
        let s = MsStats::default();
        assert_eq!(s.sweeps + s.quarantined + s.released + s.failed_frees, 0);
        assert!(s.double_free_reports.is_empty());
    }
}
