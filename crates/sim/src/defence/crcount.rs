//! CRCount: reference counting on instrumented pointer stores, deferring
//! frees until the count drops to zero.

use super::*;
use baselines::CrFreeOutcome;

impl Defence for CrCount {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        jalloc_malloc(self, CrCount::heap, |cr| cr.malloc(space, size), cost)
    }

    /// Engine: the fast free plus zero-fill of the whole usable size.
    /// Bill: a release or a deferral.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, cx: FreeCtx) -> (FreeAck, u64) {
        let addr = Addr::new(word);
        let cycles = cx.cost.free_fast + cx.cost.zero_cost(self.usable_size(addr).unwrap_or(0));
        let ack = match self.free(space, addr) {
            CrFreeOutcome::Released => {
                cx.bill.charge(CostKind::Release, cx.cost.release_entry);
                FreeAck::Done
            }
            CrFreeOutcome::Deferred => {
                cx.bill.charge(CostKind::Quarantine, cx.cost.quarantine_insert);
                FreeAck::Done
            }
            CrFreeOutcome::Invalid => FreeAck::Absorbed,
        };
        (ack, cycles)
    }

    fn store_ptr(&mut self, target: Addr, _slot: Addr, cost: &CostModel) -> u64 {
        self.inc_ref(target);
        cost.crcount_ptr_write
    }

    fn drop_ref(&mut self, space: &mut AddrSpace, target: Addr, cost: &CostModel) -> u64 {
        self.dec_ref(space, target);
        cost.crcount_ptr_write
    }

    fn tick(&mut self, space: &mut AddrSpace, now: u64) {
        self.advance_clock(now);
        self.purge_aged(space);
    }

    fn metadata_bytes(&self) -> u64 {
        self.pending() as u64 * 48
    }

    fn work_tax(&self, cost: &CostModel) -> f64 {
        cost.crcount_work_tax
    }
}
