//! DangSan: per-object pointer logs, walked and nullified at `free()`.

use super::*;
use baselines::DsFreeOutcome;

impl Defence for DangSan {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        jalloc_malloc(self, DangSan::heap, |ds| ds.malloc(space, size), cost)
    }

    /// The fast free, plus the defence's share: the log walk and its
    /// nullifying stores.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, mut cx: FreeCtx) -> (FreeAck, u64) {
        let DsFreeOutcome::Released { log_entries, nullified } = self.free(space, Addr::new(word))
        else {
            return (FreeAck::Absorbed, cx.cost.free_fast);
        };
        let walk = log_entries * cx.cost.dangsan_log_walk + nullified * 10;
        cx.charge(&[(CostKind::Forensics, walk)]);
        (FreeAck::Done, cx.cost.free_fast + walk)
    }

    fn store_ptr(&mut self, target: Addr, slot: Addr, cost: &CostModel) -> u64 {
        self.note_ptr_store(target, slot);
        cost.dangsan_log_append
    }

    fn tick(&mut self, space: &mut AddrSpace, now: u64) {
        self.advance_clock(now);
        self.purge_aged(space);
    }

    fn metadata_bytes(&self) -> u64 {
        self.stats().log_bytes
    }

    fn work_tax(&self, cost: &CostModel) -> f64 {
        cost.dangsan_work_tax
    }
}
