//! MineSweeper configuration: the two operation modes, the sweep
//! thresholds, and every knob the paper's ablation studies (§5.4, §5.5)
//! toggle.

/// The two sweep operation modes (§4.3, §5.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SweepMode {
    /// Single concurrent pass, no stop-the-world. Guarantees all dangling
    /// pointers that are not moved/copied after their referent was freed
    /// are found. The paper's recommended default.
    #[default]
    FullyConcurrent,
    /// Adds a brief stop-the-world pass re-checking pages modified during
    /// the concurrent pass (tracked via soft-dirty bits), giving the same
    /// guarantees as MarkUs: every reachable dangling pointer is found even
    /// if the program moves it around.
    MostlyConcurrent,
}

/// Sweep-forensics recording mode: whether the mark loop records
/// provenance edges (source word → quarantined candidate) and the layer
/// maintains the failed-free ledger.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ForensicsMode {
    /// No recording. The mark loop pays exactly one branch per chunk; the
    /// ledger stays empty and no forensic events are emitted.
    #[default]
    Off,
    /// Record roughly 1-in-N provenance edges (the edge recorder keeps a
    /// plain tick of the pointers the mark loop hands it, so the sampling
    /// is deterministic). Ledger bookkeeping and the byte-conservation
    /// invariants stay exact — only the per-entry hit counts and example
    /// sources are sampled.
    Sampled(u32),
    /// Record every edge.
    Full,
}

impl ForensicsMode {
    /// Whether any recording happens at all.
    pub fn enabled(&self) -> bool {
        !matches!(self, ForensicsMode::Off)
    }
}

/// Full configuration for a [`crate::MineSweeper`] instance.
///
/// Use the presets ([`MsConfig::fully_concurrent`],
/// [`MsConfig::mostly_concurrent`], the `ablation_*` ladder of §5.4 and the
/// `partial_*` ladder of §5.5), or override fields of one for custom
/// setups:
///
/// ```
/// use minesweeper::{MsConfig, SweepMode};
/// let cfg = MsConfig {
///     mode: SweepMode::MostlyConcurrent,
///     sweep_threshold: 0.25,
///     helper_threads: 2,
///     ..MsConfig::default()
/// };
/// assert_eq!(cfg.sweep_threshold, 0.25);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MsConfig {
    /// Operation mode.
    pub mode: SweepMode,
    /// Trigger a sweep when
    /// `quarantine_bytes - failed ≥ threshold × (heap_bytes - failed)`.
    /// The paper picks 0.15 (vs MarkUs's 0.25) because the linear sweep is
    /// cheap enough to trade towards lower memory overhead (§3.2).
    pub sweep_threshold: f64,
    /// Pause new allocations when the quarantine (minus failed frees)
    /// exceeds `pause_factor × sweep_threshold × heap_bytes` while a sweep
    /// is running — the overload valve that bounds the mimalloc-bench
    /// worst cases (§5.7).
    pub pause_factor: f64,
    /// Zero-fill freed data before quarantining (§4.1).
    pub zeroing: bool,
    /// Decommit + protect the full interior pages of large quarantined
    /// allocations (§4.2).
    pub unmapping: bool,
    /// Minimum number of *interior* pages before unmapping is worthwhile.
    pub unmap_min_pages: u64,
    /// Also sweep when unmapped quarantined bytes reach
    /// `unmapped_trigger × RSS` ("nine times the program's total
    /// physical-memory footprint", §4.2).
    pub unmapped_trigger: f64,
    /// Run the sweep concurrently on background threads (§4.3). When
    /// `false` the whole sweep executes in the mutator (the paper's
    /// "sequential version", §5.4).
    pub concurrent: bool,
    /// Helper threads for parallel marking, in addition to the main
    /// sweeper (§4.4; the paper defaults to 6). The cost model bills
    /// them; one thread does the marking.
    pub helper_threads: usize,
    /// Trigger a full allocator purge after every sweep (§4.5).
    pub purge_after_sweep: bool,
    /// Whether the sweep actually marks memory. The §5.5 "Quarantining" /
    /// "Concurrency" partial versions quarantine and then recycle *all*
    /// entries without sweeping.
    pub marking: bool,
    /// Whether allocations with discovered pointers stay in quarantine.
    /// The §5.5 "Sweeping" partial version sweeps, checks which frees would
    /// fail, "but deallocate\[s\] regardless".
    pub honor_failed_frees: bool,
    /// Whether frees are quarantined at all. The §5.5 "Base overheads" and
    /// "Unmapping + Zeroing" partial versions forward every free to the
    /// allocator immediately.
    pub quarantine: bool,
    /// Thread-local quarantine buffer capacity (contribution (c): batching
    /// reduces lock contention on the global quarantine).
    pub tl_buffer_capacity: usize,
    /// Report double frees (debug mode, §3 footnote 3). Always *handled*
    /// idempotently; this only controls recording them.
    pub report_double_frees: bool,
    /// Incremental sweep: cache per-page digests of heap-pointing words
    /// and replay them for pages whose soft-dirty bit stayed clear,
    /// skipping their 512-word re-read ([`crate::PageCache`]).
    pub page_cache: bool,
    /// Incremental sweep: gate shadow-map writes through a coarse
    /// 1-bit-per-page bitmap of pages holding quarantined granules
    /// ([`crate::CandidateFilter`]). Release decisions are unchanged; only
    /// marks that could never matter are dropped.
    pub candidate_filter: bool,
    /// Sweep forensics: provenance-edge recording and the failed-free
    /// ledger ([`crate::EdgeRecorder`], [`crate::FailedFreeLedger`]). Off
    /// by default; release decisions are identical in every mode.
    pub forensics: ForensicsMode,
}

impl MsConfig {
    /// The paper's default configuration: fully concurrent sweeps, all
    /// optimisations on.
    pub fn fully_concurrent() -> Self {
        MsConfig {
            mode: SweepMode::FullyConcurrent,
            sweep_threshold: 0.15,
            pause_factor: 4.0,
            zeroing: true,
            unmapping: true,
            unmap_min_pages: 1,
            unmapped_trigger: 9.0,
            concurrent: true,
            helper_threads: 6,
            purge_after_sweep: true,
            marking: true,
            honor_failed_frees: true,
            quarantine: true,
            tl_buffer_capacity: 64,
            report_double_frees: false,
            page_cache: true,
            candidate_filter: true,
            forensics: ForensicsMode::Off,
        }
    }

    /// Mostly concurrent mode: same as the default plus the stop-the-world
    /// soft-dirty re-check (§5.3).
    pub fn mostly_concurrent() -> Self {
        MsConfig { mode: SweepMode::MostlyConcurrent, ..Self::fully_concurrent() }
    }

    // ---- §5.4 ablation ladder (Figures 15 & 16) -------------------------

    /// "Unoptimised": quarantine + synchronous in-mutator sweeps only.
    /// The incremental-sweep accelerations are part of the optimisation
    /// set, so they are off here and return with the final ladder step.
    pub fn ablation_unoptimised() -> Self {
        MsConfig {
            zeroing: false,
            unmapping: false,
            concurrent: false,
            purge_after_sweep: false,
            page_cache: false,
            candidate_filter: false,
            ..Self::fully_concurrent()
        }
    }

    /// "+ Zeroing".
    pub fn ablation_zeroing() -> Self {
        MsConfig { zeroing: true, ..Self::ablation_unoptimised() }
    }

    /// "+ Unmapping" (the paper's sequential version: 9.5 % time,
    /// 21.1 % memory).
    pub fn ablation_unmapping() -> Self {
        MsConfig { unmapping: true, ..Self::ablation_zeroing() }
    }

    /// "+ Concurrency".
    pub fn ablation_concurrency() -> Self {
        MsConfig { concurrent: true, ..Self::ablation_unmapping() }
    }

    /// "+ Purging" — identical to [`MsConfig::fully_concurrent`] (the
    /// incremental-sweep accelerations come back with the full config).
    pub fn ablation_purging() -> Self {
        MsConfig {
            purge_after_sweep: true,
            page_cache: true,
            candidate_filter: true,
            ..Self::ablation_concurrency()
        }
    }

    // ---- §5.5 partial-version ladder (Figure 17) ------------------------

    /// (1) "Base overheads": the layer is loaded, data structures are
    /// maintained, but `free()` forwards straight to the allocator.
    pub fn partial_base() -> Self {
        MsConfig {
            quarantine: false,
            zeroing: false,
            unmapping: false,
            ..Self::fully_concurrent()
        }
    }

    /// (2) "Unmapping + Zeroing": zero / unmap-and-remap on free, then
    /// forward to the allocator immediately.
    pub fn partial_unmap_zero() -> Self {
        MsConfig { zeroing: true, unmapping: true, ..Self::partial_base() }
    }

    /// (3) "Quarantining": quarantine until the next sweep, which recycles
    /// everything without marking, in the mutator thread.
    pub fn partial_quarantine() -> Self {
        MsConfig {
            quarantine: true,
            marking: false,
            concurrent: false,
            ..Self::partial_unmap_zero()
        }
    }

    /// (4) "Concurrency": as (3) but recycling happens on the sweeper
    /// thread.
    pub fn partial_concurrency() -> Self {
        MsConfig { concurrent: true, ..Self::partial_quarantine() }
    }

    /// (5) "Sweeping": marks memory and checks which frees would fail, but
    /// deallocates regardless.
    pub fn partial_sweep() -> Self {
        MsConfig { marking: true, honor_failed_frees: false, ..Self::partial_concurrency() }
    }

    /// (6) Full version — identical to [`MsConfig::fully_concurrent`].
    pub fn partial_full() -> Self {
        MsConfig { honor_failed_frees: true, ..Self::partial_sweep() }
    }
}

impl Default for MsConfig {
    fn default() -> Self {
        MsConfig::fully_concurrent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_headline_config() {
        let c = MsConfig::default();
        assert_eq!(c.mode, SweepMode::FullyConcurrent);
        assert!((c.sweep_threshold - 0.15).abs() < 1e-12);
        assert_eq!(c.helper_threads, 6);
        assert!(c.zeroing && c.unmapping && c.concurrent && c.purge_after_sweep);
        assert!((c.unmapped_trigger - 9.0).abs() < 1e-12);
    }

    #[test]
    fn ablation_ladder_is_cumulative() {
        let steps = [
            MsConfig::ablation_unoptimised(),
            MsConfig::ablation_zeroing(),
            MsConfig::ablation_unmapping(),
            MsConfig::ablation_concurrency(),
            MsConfig::ablation_purging(),
        ];
        let on = |c: &MsConfig| {
            [c.zeroing, c.unmapping, c.concurrent, c.purge_after_sweep]
                .iter()
                .filter(|&&b| b)
                .count()
        };
        for w in steps.windows(2) {
            assert_eq!(on(&w[1]), on(&w[0]) + 1, "each step adds one optimisation");
        }
        assert_eq!(steps[4], MsConfig::fully_concurrent());
    }

    #[test]
    fn partial_ladder_ends_at_full() {
        assert_eq!(MsConfig::partial_full(), MsConfig::fully_concurrent());
        assert!(!MsConfig::partial_base().quarantine);
        assert!(!MsConfig::partial_quarantine().marking);
        assert!(!MsConfig::partial_sweep().honor_failed_frees);
    }

    #[test]
    fn forensics_defaults_off_everywhere() {
        assert_eq!(MsConfig::fully_concurrent().forensics, ForensicsMode::Off);
        assert_eq!(MsConfig::mostly_concurrent().forensics, ForensicsMode::Off);
        assert_eq!(MsConfig::ablation_unoptimised().forensics, ForensicsMode::Off);
        assert!(!ForensicsMode::Off.enabled());
        assert!(ForensicsMode::Sampled(16).enabled());
        assert!(ForensicsMode::Full.enabled());
    }

    #[test]
    fn incremental_knobs_toggle_independently() {
        assert!(MsConfig::fully_concurrent().page_cache);
        assert!(MsConfig::fully_concurrent().candidate_filter);
        assert!(!MsConfig::ablation_unoptimised().page_cache);
        assert!(!MsConfig::ablation_unoptimised().candidate_filter);
    }
}
