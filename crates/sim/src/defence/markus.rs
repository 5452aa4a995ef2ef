//! MarkUs: quarantine plus a transitive Boehm-style mark from the roots.

use super::*;
use baselines::MarkUsFreeOutcome;

impl Defence for MarkUs {
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        let (word, cycles) = jalloc_malloc(self, MarkUs::heap, |mu| mu.malloc(space, size), cost);
        (word, cycles + cost.markus_malloc_extra)
    }

    /// The quarantine insert plus the Boehm block registration, and one
    /// syscall if any page was unmapped. All of it is the defence's share.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, mut cx: FreeCtx) -> (FreeAck, u64) {
        let unmapped = self.stats().unmapped_pages;
        let ack = match self.free(space, Addr::new(word)) {
            MarkUsFreeOutcome::Quarantined => FreeAck::Done,
            MarkUsFreeOutcome::DoubleFree | MarkUsFreeOutcome::Invalid => FreeAck::Absorbed,
        };
        let mut cycles = cx.cost.quarantine_insert + cx.cost.markus_free_extra;
        if self.stats().unmapped_pages > unmapped {
            cycles += cx.cost.unmap_syscall;
        }
        cx.charge(&[(CostKind::Quarantine, cycles)]);
        (ack, cycles)
    }

    fn tick(&mut self, _space: &mut AddrSpace, now: u64) {
        self.advance_clock(now);
    }

    fn metadata_bytes(&self) -> u64 {
        self.quarantine_len() as u64 * 64
    }

    fn sweeper_threads(&self) -> u64 {
        2
    }

    /// The scan plus demand commits. Bytes stream near linear-sweep speed;
    /// the transitive pass pays its pointer-chase penalty per visited
    /// node. MarkUs marking is mostly parallel with stop-the-world phases
    /// and allocation stalls: roughly half the scan lands on the
    /// application's critical path, the rest on background threads.
    fn collect(&mut self, space: &mut AddrSpace, cost: &CostModel) -> Option<(u64, u64, u64)> {
        if !self.gc_needed() {
            return None;
        }
        let commits = space.stats().demand_commits;
        let r = MarkUs::collect(self, space);
        let commits = space.stats().demand_commits - commits;
        let scan = r.scanned_words * vmem::WORD_SIZE as u64 / cost.sweep_bytes_per_cycle
            + r.marked_objects * cost.mark_object_visit
            + commits * cost.demand_commit;
        Some((scan / 2, scan / 2 + r.released * cost.release_entry, r.retained))
    }
}
