//! The §6.2 MTE + MineSweeper combination ([`MteHeap`]): a security-matrix
//! column only. Tagged pointers do not fit the engine's op stream, so it
//! charges the engine nothing.

use super::*;
use crate::exploit::charge_sweep_report;
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

    fn free_word(&mut self, space: &mut AddrSpace, word: u64, cx: FreeCtx) -> (FreeAck, u64) {
        let before = self.detections();
        let ack = match self.free(space, word) {
            FreeOutcome::Quarantined => {
                cx.bill.charge(CostKind::Quarantine, cx.cost.quarantine_insert);
                FreeAck::Done
            }
            FreeOutcome::Passthrough => FreeAck::Done,
            FreeOutcome::DoubleFree => FreeAck::Absorbed,
            FreeOutcome::Invalid if self.detections() > before => FreeAck::Caught,
            FreeOutcome::Invalid => FreeAck::Absorbed,
        };
        (ack, 0)
    }

    /// The tag-aware sweep: stale-tagged pointers don't pin, so
    /// quarantined memory recycles early (§6.2 "limited reuse"), and any
    /// later use through them *detects*.
    fn housekeep(&mut self, space: &mut AddrSpace, cost: &CostModel, bill: &mut DefenceCost) {
        if self.sweep_needed(space) {
            let r = self.sweep_now_tag_aware(space);
            charge_sweep_report(cost, bill, &r);
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
