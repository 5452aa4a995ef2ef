//! The §6.2 MTE + MineSweeper combination ([`MteHeap`]): a security-matrix
//! column only. Tagged pointers do not fit the engine's op stream, so its
//! recipes are its own: the engine never runs it.

use super::*;
use ::minesweeper::{FreeOutcome, MteError, MteHeap};

/// Judges a tag-checked access: a tag mismatch is detection.
fn access(r: Result<u64, MteError>) -> Access {
    r.map_err(|e| match e {
        MteError::TagMismatch { .. } => ExploitOutcome::Detected,
        MteError::Fault(_) => ExploitOutcome::CleanTermination,
    })
}

impl Defence for MteHeap {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, _cost: &CostModel) -> (u64, u64) {
        (self.malloc(space, size), 0)
    }

    /// A quarantine insert when the free was quarantined.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, mut cx: FreeCtx) -> (FreeAck, u64) {
        let before = self.detections();
        let (ack, insert) = match self.free(space, word) {
            FreeOutcome::Quarantined => (FreeAck::Done, cx.cost.quarantine_insert),
            FreeOutcome::Passthrough => (FreeAck::Done, 0),
            FreeOutcome::DoubleFree => (FreeAck::Absorbed, 0),
            FreeOutcome::Invalid if self.detections() > before => (FreeAck::Caught, 0),
            FreeOutcome::Invalid => (FreeAck::Absorbed, 0),
        };
        cx.charge(&[(CostKind::Quarantine, insert)]);
        (ack, insert)
    }

    /// The tag-aware sweep: stale-tagged pointers don't pin, so
    /// quarantined memory recycles early (§6.2 "limited reuse"), and any
    /// later use through them *detects*. Its report has no scanned-byte
    /// total, so the mark is priced by its survivor tail and skipped pages
    /// alone: a deterministic under-estimate rather than a guess. The
    /// stop-the-world re-check and release are priced as every sweep's.
    fn housekeep(&mut self, space: &mut AddrSpace, cost: &CostModel, ledger: &mut CostRecorder) {
        if self.sweep_needed(space) {
            let r = self.sweep_now_tag_aware(space);
            let (scan, skip) = cost.mark_cost_parts(0, r.skipped_bytes, r.marked_words);
            ledger.charge_all(&[(CostKind::MarkScan, scan), (CostKind::SkipReplay, skip)], None);
            finish_charge(cost, &r, 0, Some(ledger));
        }
    }

    fn load(&mut self, space: &mut AddrSpace, word: u64) -> Access {
        access(MteHeap::load(self, space, word))
    }

    fn store(&mut self, space: &mut AddrSpace, word: u64, value: u64) -> Access {
        access(MteHeap::store(self, space, word, value).map(|()| value))
    }

    fn detections(&self) -> u64 {
        MteHeap::detections(self)
    }
}
