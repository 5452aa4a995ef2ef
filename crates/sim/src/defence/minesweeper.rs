//! MineSweeper (§3–§4), over the JeMalloc-style heap or over Scudo (§7).
//! One generic impl serves both; [`Substrate`] holds what differs.

use super::*;
use ::minesweeper::FreeOutcome;

/// The engine's hooks that differ with the heap under the layer. Each
/// hook prices or runs what the heap itself does, the way the same heap
/// does it without the layer, so a layered-versus-bare ratio measures
/// the layer alone.
pub(crate) trait Substrate {
    /// Allocates. Returns the address and the allocator charge, which is
    /// never attributed to the defence.
    fn malloc_charged(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64);

    /// The heap's own share of a free: allocator cycles, charged but never
    /// attributed. None over JAlloc, whose whole free runs when a sweep
    /// releases the entry (priced there as `release_entry`).
    fn free_cycles(&self, _cost: &CostModel) -> u64 {
        0
    }

    /// The heap's decay purge on the engine's sample clock.
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
    /// A flat `scudo_malloc`, as the Scudo baseline pays: Scudo has one
    /// hardened path (class lookup and a randomized free-list pop), with
    /// no thread cache or fresh-extent split for its stats to show, so
    /// there is no path to price by as over JAlloc.
    fn malloc_charged(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        (self.malloc(space, size).raw(), cost.scudo_malloc)
    }

    /// A quarter of `scudo_free`: the part of Scudo's free path that still
    /// runs at the program's free (the checksummed chunk-header check on
    /// the freed pointer), while the free-list push waits for release.
    /// JAlloc's lookup has no such check. It is allocator work, so it is
    /// charged and never attributed.
    fn free_cycles(&self, cost: &CostModel) -> u64 {
        cost.scudo_free / 4
    }

    /// None, unlike over JAlloc and unlike the Scudo baseline's per-sample
    /// `release_to_os`. Scudo has no decay window: its `purge_aged` is the
    /// same whole release pass as `purge_all`, which the layer already runs
    /// after every sweep (§4.5). The baseline has no sweeps, so the sample
    /// clock is its only release point; here a per-sample pass would be a
    /// second release policy that the layered allocator does not have.
    fn sample_purge(&mut self, _space: &mut AddrSpace) {}
}

impl<B: HeapBackend + std::fmt::Debug> Defence for MineSweeper<B>
where
    Self: Substrate,
{
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64) {
        self.malloc_charged(space, size, cost)
    }

    /// Zeroing of the bytes the layer zeroed, and quarantine upkeep: a
    /// flat insert, one syscall if any page was unmapped, and a whole
    /// thread-local buffer per flush. Both are priced from what the layer
    /// reports it did ([`::minesweeper::FreeFacts`]).
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, mut cx: FreeCtx) -> (FreeAck, u64) {
        let cost = cx.cost;
        let facts = self.free_sited(space, Addr::new(word), cx.site);
        let zeroing = cost.zero_cost(facts.zeroed_bytes);
        let mut quarantine = cost.quarantine_insert;
        if facts.unmapped_pages > 0 {
            quarantine += cost.unmap_syscall;
        }
        if facts.flushed_entries > 0 {
            quarantine += self.config().tl_buffer_capacity as u64 * cost.quarantine_flush_per_entry;
        }
        cx.charge(&[(CostKind::Zeroing, zeroing), (CostKind::Quarantine, quarantine)]);
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
}
