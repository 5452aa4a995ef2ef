//! Oscar: page-permission revocation through shadow virtual pages.

use super::*;

impl Defence for Oscar {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        (self.malloc(space, size).raw(), cost.oscar_malloc_syscall)
    }

    /// Revoking the shadow alias is the scheme's free cost.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, mut cx: FreeCtx) -> (FreeAck, u64) {
        let ack = self.free(space, Addr::new(word)).map_or(FreeAck::Rejected, |()| FreeAck::Done);
        cx.charge(&[(CostKind::Quarantine, cx.cost.oscar_free_syscall)]);
        (ack, cx.cost.oscar_free_syscall)
    }

    /// Every allocation gets a virtual range no earlier one had.
    fn reuses_addresses(&self) -> bool {
        false
    }

    /// Page tables only ever grow: one PTE per alias ever created, plus
    /// the out-of-line object map.
    fn metadata_bytes(&self) -> u64 {
        self.stats().aliases_created * 8 + self.live_allocations() as u64 * 40
    }
}
