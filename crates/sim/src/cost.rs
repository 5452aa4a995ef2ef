//! The cycle cost model.
//!
//! Constants are order-of-magnitude calibrated to a ~4 GHz x86-64 desktop
//! (the paper's i7-7700): tens of cycles for allocator fast paths, hundreds
//! for arena misses, thousands for syscalls and page faults, one word per
//! cycle-ish for streaming sweeps. Since every figure reports *ratios*
//! against an identically-seeded baseline run, only the relative magnitudes
//! matter.

/// Cycle costs charged by the engine.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CostModel {
    /// `malloc` served from the thread cache.
    pub malloc_fast: u64,
    /// `malloc` served from the arena (bin/slab walk).
    pub malloc_slow: u64,
    /// `malloc` that created a fresh slab / mapped a fresh extent.
    pub malloc_fresh: u64,
    /// Baseline `free` (tcache push or arena return).
    pub free_fast: u64,
    /// Registering one entry in a thread-local quarantine buffer.
    pub quarantine_insert: u64,
    /// Per-entry cost of flushing the buffer to the global quarantine.
    pub quarantine_flush_per_entry: u64,
    /// Bytes zeroed per cycle by `memset` (§4.1's main direct cost).
    pub zero_bytes_per_cycle: u64,
    /// One decommit+protect syscall pair (§4.2 unmapping).
    pub unmap_syscall: u64,
    /// Restoring protection on release of an unmapped entry.
    pub remap_syscall: u64,
    /// Bytes of memory one sweeper thread streams per cycle with the
    /// *scalar* word-at-a-time loop (one 8-byte word per cycle). Still
    /// used for MarkUs's transitive mark, which is a dependent pointer
    /// chase the SIMD kernel cannot help.
    pub sweep_bytes_per_cycle: u64,
    /// Words per SIMD classify chunk (one 256-bit group iteration handles
    /// this many 8-byte words through the zero-test / range-test lanes).
    pub sweep_chunk_words: u64,
    /// Cycles per SIMD classify chunk: load + or-tree zero test + two
    /// compares + movemask, pipelined — the §4.3 linear sweep streams at
    /// several words per cycle when memory keeps up.
    pub sweep_chunk_cycles: u64,
    /// Extra cycles per *survivor* (a scanned word that passed the heap
    /// range test): tzcnt extraction plus the shadow-map mark. Survivors
    /// leave the branch-free kernel, so they are the expensive minority.
    pub sweep_survivor_cycles: u64,
    /// Skipping one provably-clean page during an incremental sweep:
    /// soft-dirty test + page-summary cache lookup + replaying the (few)
    /// cached heap-pointing words, instead of the 512-word re-read.
    pub sweep_skip_page: u64,
    /// Stop-the-world re-check of one soft-dirty page (fault handling +
    /// 512-word scan).
    pub stw_page: u64,
    /// Releasing one quarantined entry to the allocator (`je_free`).
    pub release_entry: u64,
    /// Purging one page (amortised `madvise` batch).
    pub purge_page: u64,
    /// One demand-commit page fault (the §4.5 naive-purge penalty).
    pub demand_commit: u64,
    /// Flat penalty charged the first time a cold allocation is touched
    /// (pointer-chasing misses on object + allocator metadata lines).
    /// Quarantine's delay-of-reuse makes *all* recycled memory cold — the
    /// dominant xalancbmk overhead (§5.6). Scaled by each profile's
    /// `cache_sensitivity`.
    pub cold_base: u64,
    /// Additional per-64-byte-line penalty for cold writes beyond the
    /// first line (streaming-prefetch friendly, so much cheaper than
    /// `cold_base`).
    pub cold_line: u64,
    /// Extra per-`malloc` cost under MarkUs: its published implementation
    /// sits on the Boehm GC allocator, measurably slower than jemalloc's
    /// fast path.
    pub markus_malloc_extra: u64,
    /// Extra per-`free` cost under MarkUs (quarantine registration in the
    /// Boehm block structures).
    pub markus_free_extra: u64,
    /// Per-object cost of visiting a node during MarkUs's transitive mark
    /// (dependent-load pointer chase; dominates on small-object heaps).
    pub mark_object_visit: u64,
    /// Sequential-locality discount applied to the cold cost of *fresh*
    /// (never-recycled) memory: bump cursors and fresh slab carves arrive
    /// in prefetchable address order, unlike memory recycled long after it
    /// went cold.
    pub fresh_locality: f64,
    /// Reuse within this many cycles of the free is considered warm.
    pub warm_window: u64,
    /// Cap on the cold-write charge per allocation, in bytes (beyond this
    /// the prefetcher has caught up).
    pub cold_cap_bytes: u64,
    /// FFmalloc bump-pointer `malloc`.
    pub ff_malloc: u64,
    /// FFmalloc `free` (page-count upkeep).
    pub ff_free: u64,
    /// One instrumented pointer store under CRCount (bitmap lookup +
    /// count update — paid on *every* pointer write, §6.6).
    pub crcount_ptr_write: u64,
    /// Fraction of mutator compute CRCount taxes on pointer-write-heavy
    /// code, scaled by the profile's pointer density (stands in for the
    /// instrumented stores the engine does not see individually).
    pub crcount_work_tax: f64,
    /// Oscar `malloc`: mapping the object's shadow virtual page is a
    /// syscall (`mremap`), the scheme's dominant cost on small objects.
    pub oscar_malloc_syscall: u64,
    /// Oscar `free`: revoking the alias (`munmap`/`mprotect`).
    pub oscar_free_syscall: u64,
    /// Registering one slot in pSweeper's live pointer table.
    pub psweeper_register: u64,
    /// Scanning one table slot during a pSweeper background sweep.
    pub psweeper_slot_scan: u64,
    /// Appending one entry to a DangSan pointer log.
    pub dangsan_log_append: u64,
    /// Fraction of mutator compute DangSan taxes on pointer-write-heavy
    /// code (log append on *every* store; heavier than CRCount's counter
    /// update), scaled by pointer density.
    pub dangsan_work_tax: f64,
    /// Walking one log entry at a DangSan free.
    pub dangsan_log_walk: u64,
    /// Recording one provenance edge in the forensics layer (binary
    /// search over quarantine starts + two counter updates; paid
    /// only on words that actually hit a candidate, post-sampling).
    pub forensics_edge: u64,
    /// Scudo `malloc` (hardened fast path: class lookup + randomized
    /// free-list pop).
    pub scudo_malloc: u64,
    /// Scudo `free` (header checksum validation + free-list push).
    pub scudo_free: u64,
    /// Cores available on the simulated machine.
    pub cores: u32,
}

impl CostModel {
    /// The default desktop calibration.
    pub fn desktop() -> Self {
        CostModel {
            malloc_fast: 25,
            malloc_slow: 110,
            malloc_fresh: 900,
            free_fast: 30,
            quarantine_insert: 14,
            quarantine_flush_per_entry: 10,
            zero_bytes_per_cycle: 32,
            unmap_syscall: 1_400,
            remap_syscall: 900,
            sweep_bytes_per_cycle: 8,
            sweep_chunk_words: 8,
            sweep_chunk_cycles: 2,
            sweep_survivor_cycles: 4,
            sweep_skip_page: 40,
            stw_page: 800,
            release_entry: 70,
            purge_page: 250,
            demand_commit: 2_500,
            cold_base: 200,
            cold_line: 10,
            markus_malloc_extra: 100,
            markus_free_extra: 60,
            mark_object_visit: 80,
            fresh_locality: 0.35,
            warm_window: 150_000,
            cold_cap_bytes: 16 * 1024,
            ff_malloc: 22,
            ff_free: 45,
            crcount_ptr_write: 14,
            crcount_work_tax: 0.25,
            oscar_malloc_syscall: 700,
            oscar_free_syscall: 450,
            psweeper_register: 12,
            psweeper_slot_scan: 6,
            dangsan_log_append: 18,
            dangsan_work_tax: 0.45,
            dangsan_log_walk: 10,
            forensics_edge: 12,
            scudo_malloc: 45,
            scudo_free: 55,
            cores: 8,
        }
    }

    /// Cycles to zero `bytes` bytes.
    pub fn zero_cost(&self, bytes: u64) -> u64 {
        bytes / self.zero_bytes_per_cycle
    }

    /// Cold-write penalty for an allocation of `bytes` bytes (before the
    /// profile's cache-sensitivity scaling).
    pub fn cold_cost(&self, bytes: u64) -> u64 {
        self.cold_base + bytes.min(self.cold_cap_bytes) / 64 * self.cold_line
    }

    /// Cycles one sweeper thread spends marking a region where
    /// `scanned_bytes` were classified by the SIMD kernel, `heap_words`
    /// of them survived the range test (each paying the extraction +
    /// shadow-mark tail), and `skipped_bytes` were advanced over without
    /// reading (incremental sweep: cache-replayed clean pages and
    /// protected/unmapped skips pay only the flat per-page
    /// [`sweep_skip_page`](Self::sweep_skip_page) cost).
    pub fn mark_cost(&self, scanned_bytes: u64, skipped_bytes: u64, heap_words: u64) -> u64 {
        let (scan, skip) = self.mark_cost_parts(scanned_bytes, skipped_bytes, heap_words);
        scan + skip
    }

    /// [`mark_cost`](Self::mark_cost) split into its attribution kinds:
    /// `(mark_scan, skip_replay)`. The parts sum to `mark_cost` exactly,
    /// so the cost ledger can tag them separately without perturbing the
    /// engine's totals.
    pub fn mark_cost_parts(
        &self,
        scanned_bytes: u64,
        skipped_bytes: u64,
        heap_words: u64,
    ) -> (u64, u64) {
        let scan = scanned_bytes / (vmem::WORD_SIZE as u64 * self.sweep_chunk_words)
            * self.sweep_chunk_cycles
            + heap_words * self.sweep_survivor_cycles;
        let skip = skipped_bytes / vmem::PAGE_SIZE as u64 * self.sweep_skip_page;
        (scan, skip)
    }

    /// Words the SIMD classify kernel advances per cycle when no
    /// survivors interrupt it — the rate the engine uses to turn a wall
    /// budget into a word budget for [`sweep_step`].
    ///
    /// [`sweep_step`]: minesweeper::MineSweeper::sweep_step
    pub fn sweep_words_per_cycle(&self) -> u64 {
        (self.sweep_chunk_words / self.sweep_chunk_cycles).max(1)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::desktop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_magnitudes_are_sane() {
        let c = CostModel::desktop();
        assert!(c.malloc_fast < c.malloc_slow);
        assert!(c.malloc_slow < c.malloc_fresh);
        assert!(c.quarantine_insert < c.free_fast, "quarantine add is cheap");
        assert!(
            c.mark_object_visit > 0,
            "transitive marking must pay a pointer-chase cost per object"
        );
        assert!(c.demand_commit > c.unmap_syscall / 2);
    }

    #[test]
    fn zero_and_cold_costs_scale() {
        let c = CostModel::desktop();
        assert_eq!(c.zero_cost(64), 2);
        assert_eq!(c.zero_cost(4096), 128);
        assert_eq!(c.cold_cost(48), c.cold_base, "sub-line objects still pay the base");
        assert_eq!(c.cold_cost(64), c.cold_base + c.cold_line);
        assert_eq!(
            c.cold_cost(1 << 30),
            c.cold_base + c.cold_cap_bytes / 64 * c.cold_line,
            "capped"
        );
    }

    #[test]
    fn skipping_a_page_beats_scanning_it() {
        let c = CostModel::desktop();
        let page = vmem::PAGE_SIZE as u64;
        let scan = c.mark_cost(page, 0, 0);
        let skip = c.mark_cost(0, page, 0);
        assert_eq!(scan, page / 8 / c.sweep_chunk_words * c.sweep_chunk_cycles);
        assert_eq!(skip, c.sweep_skip_page);
        // The SIMD kernel narrowed the gap (a clean-page scan is 4x
        // cheaper than scalar), but skipping still wins.
        assert!(skip * 3 < scan, "skip must be far cheaper than a re-read");
        assert_eq!(
            c.mark_cost(8192, 4096, 0),
            8192 / 8 / c.sweep_chunk_words * c.sweep_chunk_cycles + c.sweep_skip_page,
            "mixed step splits cleanly"
        );
    }

    #[test]
    fn survivors_dominate_pointer_dense_pages() {
        let c = CostModel::desktop();
        let page = vmem::PAGE_SIZE as u64;
        let clean = c.mark_cost(page, 0, 0);
        let dense = c.mark_cost(page, 0, 512);
        assert_eq!(dense - clean, 512 * c.sweep_survivor_cycles);
        assert!(
            dense > page / c.sweep_bytes_per_cycle,
            "an all-pointer page costs more than the old scalar stream: \
             every word leaves the branch-free kernel"
        );
        assert!(c.sweep_words_per_cycle() >= 4, "SIMD classify beats 1 word/cycle");
    }
}
