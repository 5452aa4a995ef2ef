//! Unmodified Scudo-style hardened allocator: the §7 portability
//! baseline.

use super::*;

impl Defence for Scudo {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        (self.allocate(space, size).raw(), cost.scudo_malloc)
    }

    fn free_word(&mut self, space: &mut AddrSpace, word: u64, cx: FreeCtx) -> (FreeAck, u64) {
        let freed = self.deallocate(space, Addr::new(word));
        (freed.map_or(FreeAck::Rejected, |()| FreeAck::Done), cx.cost.scudo_free)
    }

    fn tick(&mut self, space: &mut AddrSpace, now: u64) {
        self.advance_clock(now);
        // Scudo releases free pages opportunistically.
        self.release_to_os(space);
    }
}
