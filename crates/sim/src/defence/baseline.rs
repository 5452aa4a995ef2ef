//! Unmodified JeMalloc-style allocator: the paper's baseline.

use super::*;

impl Defence for JAlloc {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        jalloc_malloc(self, |h| h, |h| h.malloc(space, size), cost)
    }

    fn free_word(&mut self, space: &mut AddrSpace, word: u64, cx: FreeCtx) -> (FreeAck, u64) {
        let ack = self.free(space, Addr::new(word)).map_or(FreeAck::Rejected, |()| FreeAck::Done);
        (ack, cx.cost.free_fast)
    }

    fn tick(&mut self, space: &mut AddrSpace, now: u64) {
        self.advance_clock(now);
        self.purge_aged(space);
    }
}
