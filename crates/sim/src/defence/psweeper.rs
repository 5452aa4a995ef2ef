//! pSweeper: a live-pointer table that a background thread sweeps
//! periodically, nullifying dangling pointers before frees complete.

use super::*;
use baselines::PsFreeOutcome;

impl Defence for PSweeper {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        jalloc_malloc(self, PSweeper::heap, |ps| ps.malloc(space, size), cost)
    }

    /// The fast free: the deferral is the background sweep's work.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, cx: FreeCtx) -> (FreeAck, u64) {
        let ack = match self.free(space, Addr::new(word)) {
            PsFreeOutcome::Deferred => FreeAck::Done,
            PsFreeOutcome::Invalid => FreeAck::Absorbed,
        };
        (ack, cx.cost.free_fast)
    }

    fn store_ptr(&mut self, _target: Addr, slot: Addr, cost: &CostModel) -> u64 {
        self.register_ptr(slot);
        cost.psweeper_register
    }

    fn drop_slot(&mut self, slot: Addr, cost: &CostModel) -> u64 {
        self.unregister_ptr(slot);
        cost.psweeper_register
    }

    fn tick(&mut self, space: &mut AddrSpace, now: u64) {
        self.advance_clock(now);
        self.purge_aged(space);
    }

    fn metadata_bytes(&self) -> u64 {
        self.tracked_ptrs() as u64 * 8 + self.pending() as u64 * 16
    }

    /// Scanning and releasing run on the concurrent thread; a thin slice
    /// of interference reaches the mutator (nullification stores).
    fn periodic_sweep(&mut self, space: &mut AddrSpace, cost: &CostModel) -> Option<(u64, u64)> {
        let r = self.sweep(space);
        let scan = r.slots_scanned * cost.psweeper_slot_scan + r.released * cost.release_entry;
        Some((r.nullified * 20, scan))
    }
}
