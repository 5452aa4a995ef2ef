//! MineSweeper (§3–§4), over the JeMalloc-style heap or over Scudo (§7).
//! One generic impl serves both; [`Substrate`] holds what differs.

use super::*;
use ::minesweeper::{FreeFacts, FreeOutcome, MsStats};

/// The engine's hooks that differ with the heap under the layer.
pub(crate) trait Substrate {
    /// Allocates. Returns the address and the engine's charge.
    fn malloc_charged(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64);

    /// The engine's charge for the heap's own share of a free.
    fn free_cycles(&self, _cost: &CostModel) -> u64 {
        0
    }

    /// The heap's decay purge on the engine's sample clock. None over
    /// Scudo, unlike over JAlloc and unlike the Scudo baseline's
    /// `release_to_os`: the model keeps this asymmetry.
    fn sample_purge(&mut self, _space: &mut AddrSpace) {}
}

impl Substrate for MineSweeper<JAlloc> {
    fn malloc_charged(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        jalloc_malloc(self, MineSweeper::heap, |ms| ms.malloc(space, size), cost)
    }

    fn sample_purge(&mut self, space: &mut AddrSpace) {
        self.decay_purge(space);
    }
}

impl Substrate for MineSweeper<Scudo> {
    fn malloc_charged(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        (self.malloc(space, size).raw(), cost.scudo_malloc)
    }

    /// The Scudo substrate's own free-path share is allocator cost, not
    /// defence cost: charged, never attributed.
    fn free_cycles(&self, cost: &CostModel) -> u64 {
        cost.scudo_free / 4
    }
}

impl<B: HeapBackend + std::fmt::Debug> Defence for MineSweeper<B>
where
    Self: Substrate,
{
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        self.malloc_charged(space, size, cost)
    }

    /// Engine: a flat insert, one syscall if any page was unmapped, and a
    /// whole thread-local buffer per flush. Bill: [`charge_free`]. Both
    /// price what the layer reports it did ([`FreeFacts`]).
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, cx: FreeCtx) -> (FreeAck, u64) {
        let FreeCtx { cost, site, ledger, bill } = cx;
        let facts = self.free_sited(space, Addr::new(word), site);
        let zeroing = cost.zero_cost(facts.zeroed_bytes);
        let mut quarantine = cost.quarantine_insert;
        if facts.unmapped_pages > 0 {
            quarantine += cost.unmap_syscall;
        }
        if facts.flushed_entries > 0 {
            quarantine += self.config().tl_buffer_capacity as u64 * cost.quarantine_flush_per_entry;
        }
        if let Some(rec) = ledger {
            rec.charge_all(
                &[(CostKind::Zeroing, zeroing), (CostKind::Quarantine, quarantine)],
                Some(site),
            );
        }
        charge_free(cost, bill, &facts);
        let ack = match facts.outcome {
            FreeOutcome::Quarantined | FreeOutcome::Passthrough => FreeAck::Done,
            FreeOutcome::DoubleFree | FreeOutcome::Invalid => FreeAck::Absorbed,
        };
        (ack, zeroing + quarantine + self.free_cycles(cost))
    }

    fn tick(&mut self, space: &mut AddrSpace, now: u64) {
        self.advance_clock(now);
        self.sample_purge(space);
    }

    /// The layer keeps its shadow map across sweeps, but the model leaves
    /// shadow bytes out of RSS.
    fn metadata_bytes(&self) -> u64 {
        self.quarantine().len() as u64 * 64
    }

    /// The configured helpers plus the main sweeper.
    fn sweeper_threads(&self) -> u64 {
        self.config().helper_threads as u64 + 1
    }

    fn registry(&self) -> Option<&Registry> {
        Some(MineSweeper::registry(self))
    }

    fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        Some(MineSweeper::tracer_mut(self))
    }

    fn pause_needed(&self) -> bool {
        MineSweeper::pause_needed(self)
    }

    fn sweep_needed(&self, space: &AddrSpace) -> bool {
        MineSweeper::sweep_needed(self, space)
    }

    fn concurrent(&self) -> bool {
        self.config().concurrent
    }

    fn start_sweep(&mut self, space: &mut AddrSpace) {
        MineSweeper::start_sweep(self, space);
    }

    fn sweep_step(&mut self, space: &mut AddrSpace, word_budget: u64) -> StepResult {
        MineSweeper::sweep_step(self, space, word_budget)
    }

    fn finish_sweep(&mut self, space: &mut AddrSpace) -> (SweepReport, u64) {
        let purged = self.heap().purged_pages();
        let report = MineSweeper::finish_sweep(self, space);
        (report, self.heap().purged_pages() - purged)
    }

    fn housekeep(&mut self, space: &mut AddrSpace, cost: &CostModel, bill: &mut DefenceCost) {
        if MineSweeper::sweep_needed(self, space) {
            let before = self.stats();
            let r = self.sweep_now(space);
            charge_sweep(cost, bill, &before, &self.stats(), &r);
        }
    }
}

/// The interpreter's free bill, from what the layer reports one `free`
/// call did: zeroed bytes, decommit syscalls per page and thread-local
/// flush traffic per entry are whatever the layer says they were, and the
/// per-entry insert is charged only when the free was actually
/// quarantined.
fn charge_free(cost: &CostModel, bill: &mut DefenceCost, facts: &FreeFacts) {
    bill.charge(CostKind::Zeroing, cost.zero_cost(facts.zeroed_bytes));
    let mut quarantine = facts.unmapped_pages * cost.unmap_syscall
        + facts.flushed_entries * cost.quarantine_flush_per_entry;
    if facts.outcome == FreeOutcome::Quarantined {
        quarantine += cost.quarantine_insert;
    }
    bill.charge(CostKind::Quarantine, quarantine);
}

/// The interpreter's sweep bill, with full stats: the swept/skipped byte
/// deltas feed [`CostModel::mark_cost_parts`] exactly as the engine's
/// sweep loop does.
fn charge_sweep(
    cost: &CostModel,
    bill: &mut DefenceCost,
    before: &MsStats,
    after: &MsStats,
    r: &SweepReport,
) {
    bill.charge(CostKind::SchedSetup, cost.sweep_round_setup);
    let swept = after.swept_bytes - before.swept_bytes;
    let skipped = after.skipped_bytes - before.skipped_bytes;
    let (scan, skip) = cost.mark_cost_parts(swept.saturating_sub(skipped), skipped, r.marked_words);
    bill.charge(CostKind::MarkScan, scan);
    bill.charge(CostKind::SkipReplay, skip);
    bill.charge(CostKind::Stw, r.stw_pages * cost.stw_page);
    bill.charge(CostKind::Release, r.released * cost.release_entry);
}
