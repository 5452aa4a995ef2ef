//! CRCount: reference counting on instrumented pointer stores, deferring
//! frees until the count drops to zero.

use super::*;
use baselines::CrFreeOutcome;

impl Defence for CrCount {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        jalloc_malloc(self, CrCount::heap, |cr| cr.malloc(space, size), cost)
    }

    /// The fast free plus zero-fill of the whole usable size, whatever
    /// becomes of the object; the zero-fill is the defence's share.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, mut cx: FreeCtx) -> (FreeAck, u64) {
        let addr = Addr::new(word);
        let zeroing = cx.cost.zero_cost(self.usable_size(addr).unwrap_or(0));
        cx.charge(&[(CostKind::Zeroing, zeroing)]);
        let ack = match self.free(space, addr) {
            CrFreeOutcome::Released | CrFreeOutcome::Deferred => FreeAck::Done,
            CrFreeOutcome::Invalid => FreeAck::Absorbed,
        };
        (ack, cx.cost.free_fast + zeroing)
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
