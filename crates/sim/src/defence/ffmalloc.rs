//! FFmalloc: one-time allocation, never reusing a virtual address.

use super::*;

impl Defence for FfMalloc {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        (self.malloc(space, size).raw(), cost.ff_malloc)
    }

    /// The page-count upkeep, plus one syscall if any page was released:
    /// one-time allocation returns physical pages eagerly. All of it is
    /// the defence's share.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, mut cx: FreeCtx) -> (FreeAck, u64) {
        let (ack, unmap) = match self.free(space, Addr::new(word)) {
            Ok(r) if r.pages_released > 0 => (FreeAck::Done, cx.cost.unmap_syscall),
            Ok(_) => (FreeAck::Done, 0),
            Err(_) => (FreeAck::Rejected, 0),
        };
        let cycles = cx.cost.ff_free + unmap;
        cx.charge(&[(CostKind::Release, cycles)]);
        (ack, cycles)
    }

    /// Every allocation gets a virtual range no earlier one had.
    fn reuses_addresses(&self) -> bool {
        false
    }

    fn metadata_bytes(&self) -> u64 {
        self.live_allocations() as u64 * 48
    }
}
