//! Registry-backed layer counters.
//!
//! [`MsCounters`] holds one [`Counter`] per [`crate::MsStats`] field,
//! registered under the `layer` subsystem of the layer's own
//! [`Registry`]. The registry is the single source of truth for the
//! layer's history: the layer bumps these handles on its hot paths (a
//! plain load and store), and [`crate::MineSweeper::stats`] materialises
//! an [`crate::MsStats`] snapshot from the same live cells on demand. A
//! snapshot reads every counter, so it is for reports and tests, not
//! per-op pricing: a free hands its own share of the counts to its caller
//! as [`crate::FreeFacts`].

use telemetry::{Counter, Registry};

/// The subsystem label the allocator layer registers under.
pub const LAYER_SUBSYSTEM: &str = "layer";

/// Counter handles backing the layer's statistics.
#[derive(Debug)]
pub(crate) struct MsCounters {
    /// Completed sweeps.
    pub sweeps: Counter,
    /// Sweeps that included a stop-the-world re-check.
    pub stw_passes: Counter,
    /// Allocations quarantined.
    pub quarantined: Counter,
    /// Bytes quarantined (usable sizes).
    pub quarantined_bytes: Counter,
    /// Allocations released from quarantine.
    pub released: Counter,
    /// Bytes released.
    pub released_bytes: Counter,
    /// Entries retained by sweeps (failed frees).
    pub failed_frees: Counter,
    /// Double frees absorbed.
    pub double_frees: Counter,
    /// Bytes zero-filled on free.
    pub zeroed_bytes: Counter,
    /// Pages decommitted by large-allocation unmapping.
    pub unmapped_pages: Counter,
    /// Bytes examined by marking phases.
    pub swept_bytes: Counter,
    /// Pages re-examined by stop-the-world passes.
    pub stw_pages: Counter,
    /// Thread-local quarantine buffer flushes.
    pub tl_flushes: Counter,
    /// Entries those flushes spilled to the global quarantine.
    pub tl_flushed_entries: Counter,
    /// Invalid frees rejected.
    pub invalid_frees: Counter,
    /// Bytes the marker advanced through without reading (cache-replayed
    /// clean pages plus protected/unmapped skips).
    pub skipped_bytes: Counter,
    /// Clean pages whose re-read was skipped via the page-summary cache.
    pub pages_skipped: Counter,
    /// Skipped pages whose non-empty digest was replayed.
    pub pages_replayed: Counter,
    /// Heap-pointing words suppressed by the candidate filter.
    pub filter_rejects: Counter,
    /// Scanned words that passed the heap range test (pre-filter set
    /// bits of the pages' heap-word maps; excludes cache replays).
    pub heap_words: Counter,
    /// Provenance edges recorded by the forensics layer (post-sampling;
    /// zero with forensics off).
    pub pin_edges: Counter,
    /// Bytes entering the failed-free ledger (first failure of an entry).
    pub ledger_bytes_in: Counter,
    /// Bytes leaving the ledger (release of a previously failed entry).
    /// The ledger's live total is always `ledger_bytes_in -
    /// ledger_bytes_out`.
    pub ledger_bytes_out: Counter,
}

impl MsCounters {
    /// Registers the layer's counters in `registry`, which the layer has
    /// just created for itself.
    pub(crate) fn register(registry: &Registry) -> Self {
        let c = |name: &str| registry.counter(LAYER_SUBSYSTEM, name);
        MsCounters {
            sweeps: c("sweeps"),
            stw_passes: c("stw_passes"),
            quarantined: c("quarantined"),
            quarantined_bytes: c("quarantined_bytes"),
            released: c("released"),
            released_bytes: c("released_bytes"),
            failed_frees: c("failed_frees"),
            double_frees: c("double_frees"),
            zeroed_bytes: c("zeroed_bytes"),
            unmapped_pages: c("unmapped_pages"),
            swept_bytes: c("swept_bytes"),
            stw_pages: c("stw_pages"),
            tl_flushes: c("tl_flushes"),
            tl_flushed_entries: c("tl_flushed_entries"),
            invalid_frees: c("invalid_frees"),
            skipped_bytes: c("skipped_bytes"),
            pages_skipped: c("pages_skipped"),
            pages_replayed: c("pages_replayed"),
            filter_rejects: c("filter_rejects"),
            heap_words: c("heap_words"),
            pin_edges: c("pin_edges"),
            ledger_bytes_in: c("ledger_bytes_in"),
            ledger_bytes_out: c("ledger_bytes_out"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_read_the_live_cells() {
        let reg = Registry::new();
        let c = MsCounters::register(&reg);
        c.sweeps.inc();
        c.sweeps.add(2);
        assert_eq!(c.sweeps.get(), 3);
        assert_eq!(reg.snapshot().counter(LAYER_SUBSYSTEM, "sweeps"), Some(3));
    }
}
