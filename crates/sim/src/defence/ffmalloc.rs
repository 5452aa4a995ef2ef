//! FFmalloc: one-time allocation, never reusing a virtual address.

use super::*;

impl Defence for FfMalloc {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        (self.malloc(space, size).raw(), cost.ff_malloc)
    }

    /// Engine: one syscall if any page was released. Bill: one per page.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, cx: FreeCtx) -> (FreeAck, u64) {
        let Ok(r) = self.free(space, Addr::new(word)) else {
            return (FreeAck::Rejected, cx.cost.ff_free);
        };
        // One-time allocation returns physical pages eagerly.
        cx.bill.charge(CostKind::Release, r.pages_released * cx.cost.unmap_syscall);
        let unmap = if r.pages_released > 0 { cx.cost.unmap_syscall } else { 0 };
        (FreeAck::Done, cx.cost.ff_free + unmap)
    }

    /// Every allocation gets a virtual range no earlier one had.
    fn reuses_addresses(&self) -> bool {
        false
    }

    fn metadata_bytes(&self) -> u64 {
        self.live_allocations() as u64 * 48
    }
}
