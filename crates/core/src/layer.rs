//! The drop-in allocator layer: `malloc`/`free` interposition, quarantine
//! management, sweep orchestration (§3, Figure 3).

use std::collections::HashMap;

use jalloc::{JAlloc, JallocConfig};
use telemetry::{EventKind, Histogram, Registry, Stopwatch, Tracer, Trigger};
use vmem::{Addr, AddrSpace, PageIdx, PageRange, Protection, WORD_SIZE};

use crate::arena::ArenaId;
use crate::backend::HeapBackend;
use crate::config::{MsConfig, SweepMode};
use crate::filter::CandidateFilter;
use crate::forensics::{EdgeAgg, EdgeRecorder, FailedFreeLedger};
use crate::pagecache::PageCache;
use crate::quarantine::{InsertResult, QEntry, Quarantine};
use crate::shadow::ShadowMap;
use crate::stats::MsStats;
use crate::sweep::{
    mark_page, MarkAccel, Marker, ParallelMarkStats, PoolMarkJob, StepResult, SweepPlan,
};
use crate::telem::MsCounters;

/// Maximum double-free report entries retained in debug mode.
const MAX_DOUBLE_FREE_REPORTS: usize = 64;

/// Minimum quarantined bytes before the proportional trigger can fire;
/// prevents degenerate sweeping while the heap is still tiny (an
/// implementation floor, not from the paper).
const MIN_SWEEP_BYTES: u64 = 64 * 1024;

/// What happened to a `free()` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FreeOutcome {
    /// The allocation was quarantined (possibly zeroed/unmapped first).
    Quarantined,
    /// The base was already in quarantine: double free, absorbed
    /// idempotently (§3).
    DoubleFree,
    /// Quarantining is disabled (§5.5 partial versions): the allocation
    /// went straight back to the allocator.
    Passthrough,
    /// The address was not the base of a live allocation. MineSweeper never
    /// forwards such frees, so the allocator state cannot be corrupted.
    Invalid,
}

/// Outcome of one completed sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepReport {
    /// Quarantined allocations proven pointer-free and recycled.
    pub released: u64,
    /// Bytes recycled.
    pub released_bytes: u64,
    /// Allocations that failed to free (possible dangling pointer found).
    pub failed: u64,
    /// Words examined by the marking phase.
    pub marked_words: u64,
    /// Bytes the marking phase advanced through without reading
    /// (cache-replayed clean pages plus protected/unmapped skips).
    pub skipped_bytes: u64,
    /// Pages re-examined by the stop-the-world pass (mostly-concurrent
    /// mode only).
    pub stw_pages: u64,
    /// Granules marked in the shadow map.
    pub marked_granules: u64,
}

/// The MineSweeper allocator layer.
///
/// Owns the underlying [`JAlloc`] heap and a [`Quarantine`]; exposes the
/// allocator API (`malloc`/`free`) plus sweep control. See the
/// [crate docs](crate) for an end-to-end example.
///
/// Sweeps can run three ways:
///
/// * [`MineSweeper::sweep_now`] — synchronously to completion (simple
///   library use; also how the non-concurrent ablation configs behave);
/// * [`MineSweeper::start_sweep`] / [`MineSweeper::sweep_step`] /
///   [`MineSweeper::finish_sweep`] — incrementally, for callers that
///   interleave mutator work with sweep progress (the discrete-event
///   engine uses this to model concurrency in virtual time);
/// * [`MineSweeper::pooled_mark_job`] / [`crate::parallel_mark_pool`] /
///   [`MineSweeper::finish_sweep_premarked`] — marking on real OS
///   threads, batched across arenas (a single arena is a one-job pool).
#[derive(Debug)]
pub struct MineSweeper<B: HeapBackend = JAlloc> {
    cfg: MsConfig,
    heap: B,
    quarantine: Quarantine,
    active: Option<ActiveSweep>,
    /// The shadow map lives across sweeps: [`MineSweeper::start_sweep`]
    /// clears the mark bits in place, so steady-state sweeping reuses the
    /// resident bitmap chunks instead of re-faulting a fresh radix every
    /// epoch (the paper's map is likewise one long-lived reservation).
    shadow: ShadowMap,
    /// Single source of truth for the layer's statistics: every counter
    /// [`MineSweeper::stats`] reports lives in this (shareable) registry,
    /// so an embedding engine or benchmark can snapshot one coherent set.
    registry: Registry,
    counters: MsCounters,
    /// Sweep profiler handles ([`MsConfig::profiler`]); `None` keeps the
    /// mark paths on their single-branch disabled gates and registers no
    /// `sweep.*` metrics at all.
    prof: Option<crate::telem::SweepProf>,
    tracer: Tracer,
    double_free_reports: Vec<Addr>,
    /// Sweeps started (numbers sweep-lifecycle trace events).
    next_sweep: u64,
    /// Soft-dirty page-summary cache: lives across sweeps so clean pages
    /// can replay last sweep's digests ([`MsConfig::page_cache`]).
    page_cache: PageCache,
    /// Cross-sweep failed-free ledger ([`MsConfig::forensics`]); empty and
    /// untouched when forensics is off.
    ledger: FailedFreeLedger,
    /// Residency histogram: sweeps a previously failed entry survived
    /// before release (recorded at release time, forensics only).
    residency: Histogram,
}

#[derive(Debug)]
struct ActiveSweep {
    marker: Marker,
    locked: Vec<QEntry>,
    /// 1-based sweep number (stamps this sweep's trace events).
    id: u64,
    /// Marking-phase accumulators across incremental steps.
    mark_bytes: u64,
    mark_words: u64,
    mark_skipped_bytes: u64,
    mark_filter_rejects: u64,
    mark_wall_ns: u64,
    /// Wall clock for the whole sweep (inert when tracing is off).
    stopwatch: Stopwatch,
    /// Candidate filter over this sweep's locked entries
    /// ([`MsConfig::candidate_filter`]).
    filter: Option<CandidateFilter>,
    /// Quarantine generation locked in at sweep start (tags digests).
    qgen: u64,
    /// Forensics edge recorder over the locked entries
    /// ([`MsConfig::forensics`]); `None` keeps the mark loop on its
    /// non-recording path.
    recorder: Option<EdgeRecorder>,
    /// Profiler cell values at sweep start, so the `MarkPhase` event can
    /// carry this sweep's deltas (the cells are cumulative).
    prof_base: Option<ProfBase>,
}

/// Cumulative profiler readings captured at sweep start.
#[derive(Clone, Copy, Debug)]
struct ProfBase {
    scan_ns: u64,
    window_bits: u64,
    direct: u64,
    evictions: u64,
}

impl MineSweeper<JAlloc> {
    /// Creates a layer with the given configuration over a JeMalloc-style
    /// heap. The heap runs the paper's "minimally modified JeMalloc"
    /// (end-pointer padding; commit/decommit purge hooks when post-sweep
    /// purging is enabled, plain `madvise` semantics otherwise, §4.5).
    pub fn new(cfg: MsConfig) -> Self {
        let jcfg = if cfg.purge_after_sweep {
            JallocConfig::minesweeper()
        } else {
            JallocConfig { end_padding: true, ..JallocConfig::stock() }
        };
        Self::with_heap_config(cfg, jcfg)
    }

    /// Creates a layer over a heap with an explicit allocator
    /// configuration.
    pub fn with_heap_config(cfg: MsConfig, jcfg: JallocConfig) -> Self {
        Self::with_backend(cfg, JAlloc::with_config(jcfg))
    }
}

impl<B: HeapBackend> MineSweeper<B> {
    /// Creates a layer over any [`HeapBackend`] — the §7 portability
    /// story (e.g. `scudo::Scudo`).
    pub fn with_backend(cfg: MsConfig, backend: B) -> Self {
        let registry = Registry::new();
        let counters = MsCounters::register(&registry);
        let prof = cfg.profiler.then(|| crate::telem::SweepProf::register(&registry));
        let residency = registry.histogram(crate::telem::LAYER_SUBSYSTEM, "residency_sweeps");
        // Every shard this layer builds carries the backend's arena id,
        // so pooled sweeps and telemetry can attribute work per tenant.
        let arena = backend.arena_id();
        MineSweeper {
            quarantine: Quarantine::for_arena(cfg.tl_buffer_capacity, arena),
            cfg,
            heap: backend,
            active: None,
            shadow: ShadowMap::for_arena(arena),
            registry,
            counters,
            prof,
            tracer: Tracer::disabled(),
            double_free_reports: Vec::new(),
            next_sweep: 0,
            page_cache: PageCache::new(),
            ledger: FailedFreeLedger::new(),
            residency,
        }
    }

    /// The layer configuration.
    pub fn config(&self) -> &MsConfig {
        &self.cfg
    }

    /// The arena this layer serves ([`HeapBackend::arena_id`], read once
    /// at construction; its quarantine and shadow shards carry the same
    /// id).
    pub fn arena_id(&self) -> ArenaId {
        self.quarantine.arena()
    }

    /// The underlying heap (read-only; allocate through the layer).
    pub fn heap(&self) -> &B {
        &self.heap
    }

    /// The quarantine (read-only).
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Statistics snapshot, materialised from the registry counters.
    pub fn stats(&self) -> MsStats {
        let c = &self.counters;
        MsStats {
            sweeps: c.sweeps.get(),
            stw_passes: c.stw_passes.get(),
            quarantined: c.quarantined.get(),
            quarantined_bytes: c.quarantined_bytes.get(),
            released: c.released.get(),
            released_bytes: c.released_bytes.get(),
            failed_frees: c.failed_frees.get(),
            double_frees: c.double_frees.get(),
            zeroed_bytes: c.zeroed_bytes.get(),
            unmapped_pages: c.unmapped_pages.get(),
            swept_bytes: c.swept_bytes.get(),
            stw_pages: c.stw_pages.get(),
            tl_flushes: c.tl_flushes.get(),
            tl_flushed_entries: c.tl_flushed_entries.get(),
            invalid_frees: c.invalid_frees.get(),
            skipped_bytes: c.skipped_bytes.get(),
            pages_skipped: c.pages_skipped.get(),
            pages_replayed: c.pages_replayed.get(),
            filter_rejects: c.filter_rejects.get(),
            heap_words: c.heap_words.get(),
            double_free_reports: self.double_free_reports.clone(),
        }
    }

    /// The shadow map (read-only; cleared and repopulated by each sweep).
    /// Exposed so equivalence tests can compare mark sets across configs.
    pub fn shadow(&self) -> &ShadowMap {
        &self.shadow
    }

    /// The soft-dirty page-summary cache (read-only introspection).
    pub fn page_cache(&self) -> &PageCache {
        &self.page_cache
    }

    /// The cross-sweep failed-free ledger (read-only introspection; empty
    /// unless [`MsConfig::forensics`] is enabled).
    pub fn ledger(&self) -> &FailedFreeLedger {
        &self.ledger
    }

    /// The metrics registry this layer registers into. Clone it to let
    /// other subsystems (an engine, a benchmark harness) register their
    /// own instruments alongside the layer's and export one snapshot.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The sweep-lifecycle tracer (read-only).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The sweep-lifecycle tracer. Attach a sink with
    /// [`Tracer::set_sink`] to start receiving events; stamp the virtual
    /// clock with [`Tracer::set_virtual_now`].
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Allocates `size` bytes (forwarded to the heap; the quarantine layer
    /// adds nothing to the allocation fast path).
    pub fn malloc(&mut self, space: &mut AddrSpace, size: u64) -> Addr {
        self.heap.malloc(space, size)
    }

    /// Advances virtual time (drives the allocator's decay purging).
    pub fn advance_clock(&mut self, now: u64) {
        self.heap.advance_clock(now);
    }

    /// Runs the allocator's background decay purge (no-op for extents
    /// younger than the decay window).
    pub fn decay_purge(&mut self, space: &mut AddrSpace) {
        self.heap.purge_aged(space);
    }

    /// Intercepts `free()`: zero, unmap, quarantine (§3, §4.1, §4.2) — or
    /// pass through / reject, depending on configuration and validity.
    ///
    /// Never panics and never corrupts allocator state, whatever `addr` is:
    /// invalid frees return [`FreeOutcome::Invalid`], double frees
    /// [`FreeOutcome::DoubleFree`].
    pub fn free(&mut self, space: &mut AddrSpace, addr: Addr) -> FreeOutcome {
        self.free_sited(space, addr, 0)
    }

    /// [`MineSweeper::free`] with an allocation-site id attached: the site
    /// rides the quarantine entry into the forensics ledger, so failed
    /// frees attribute back to the code that allocated them. Site 0 means
    /// "unknown" (what plain `free` passes).
    pub fn free_sited(
        &mut self,
        space: &mut AddrSpace,
        addr: Addr,
        site: u32,
    ) -> FreeOutcome {
        // A base already in quarantine is a double free even before we ask
        // the heap (the heap still considers it live).
        if self.cfg.quarantine && self.quarantine.contains(addr) {
            return self.absorb_double_free(addr);
        }
        let Some(usable) = self.heap.usable_size(addr) else {
            self.counters.invalid_frees.inc();
            return FreeOutcome::Invalid;
        };

        if !self.cfg.quarantine {
            // §5.5 partial versions (1)/(2): optional zero/unmap, then
            // forward immediately.
            if self.cfg.zeroing {
                self.zero_entry(space, addr, usable, 0);
            }
            if self.cfg.unmapping {
                let interior = PageRange::interior(addr, usable);
                if interior.page_count() >= self.cfg.unmap_min_pages {
                    // "unmap (and immediately remap)": discard backing but
                    // leave the range usable for the allocator.
                    space.decommit(interior).expect("live allocation is mapped");
                    self.counters.unmapped_pages.add(interior.page_count());
                }
            }
            // The allocator can still reject the free (e.g. a double free
            // of a block it already recycled — usable_size may answer for
            // a freed-but-cached block). Without a quarantine to absorb
            // it idempotently, record and refuse rather than crash.
            if self.heap.free(space, addr).is_err() {
                self.counters.invalid_frees.inc();
                return FreeOutcome::Invalid;
            }
            return FreeOutcome::Passthrough;
        }

        // Unmap large allocations' interior pages (§4.2).
        let mut unmapped_pages = 0;
        if self.cfg.unmapping {
            let interior = PageRange::interior(addr, usable);
            if interior.page_count() >= self.cfg.unmap_min_pages {
                unmapped_pages = interior.page_count();
            }
        }
        // Zero the parts sweeps will still see (§4.1). Unmapped pages lose
        // their contents wholesale, so only the head/tail need zeroing.
        if self.cfg.zeroing {
            self.zero_entry(space, addr, usable, unmapped_pages);
        }
        if unmapped_pages > 0 {
            let interior = PageRange::interior(addr, usable);
            space.decommit(interior).expect("live allocation is mapped");
            space.protect(interior, Protection::None).expect("mapped");
            self.counters.unmapped_pages.add(unmapped_pages);
        }

        let entry = QEntry { base: addr, usable, unmapped_pages, failed: false, site };
        match self.quarantine.insert(entry) {
            InsertResult::Inserted { flushed } => {
                if flushed {
                    let entries = self.cfg.tl_buffer_capacity.max(1) as u64;
                    self.counters.tl_flushes.inc();
                    self.counters.tl_flushed_entries.add(entries);
                    self.tracer.emit(|| EventKind::QuarantineFlush { entries });
                }
                self.counters.quarantined.inc();
                self.counters.quarantined_bytes.add(usable);
                FreeOutcome::Quarantined
            }
            InsertResult::DoubleFree => self.absorb_double_free(addr),
        }
    }

    fn absorb_double_free(&mut self, addr: Addr) -> FreeOutcome {
        self.counters.double_frees.inc();
        if self.cfg.report_double_frees
            && self.double_free_reports.len() < MAX_DOUBLE_FREE_REPORTS
        {
            self.double_free_reports.push(addr);
        }
        FreeOutcome::DoubleFree
    }

    fn zero_entry(&mut self, space: &mut AddrSpace, base: Addr, usable: u64, unmapped_pages: u64) {
        let zero_len = usable / WORD_SIZE as u64 * WORD_SIZE as u64;
        if unmapped_pages == 0 {
            space.fill_zero(base, zero_len).expect("live allocation is accessible");
            self.counters.zeroed_bytes.add(zero_len);
            return;
        }
        let interior = PageRange::interior(base, usable);
        let head = interior.start().base().offset_from(base);
        space.fill_zero(base, head).expect("head is accessible");
        let tail_base = interior.end().base();
        let tail = base.add_bytes(zero_len).offset_from(tail_base);
        space.fill_zero(tail_base, tail).expect("tail is accessible");
        self.counters.zeroed_bytes.add(head + tail);
    }

    /// Whether the sweep trigger has fired (§3.2 "When to Sweep" plus the
    /// §4.2 unmapped-bytes trigger). Failed frees are subtracted from both
    /// sides so they cannot force back-to-back sweeps.
    pub fn sweep_needed(&self, space: &AddrSpace) -> bool {
        if self.active.is_some() || !self.cfg.quarantine {
            return false;
        }
        let (proportional, unmapped) = self.trigger_state(space);
        proportional || unmapped
    }

    /// Evaluates the two sweep triggers: `(proportional, unmapped)`.
    fn trigger_state(&self, space: &AddrSpace) -> (bool, bool) {
        let q = self.quarantine.tracked_bytes();
        let f = self.quarantine.failed_bytes();
        // Unmapped quarantined bytes "do not count towards standard memory
        // usage or quarantine-size sweep thresholds" (§4.2) — on either
        // side: they are still 'allocated' from the heap's perspective but
        // hold no physical memory.
        let heap_bytes = self
            .heap
            .allocated_bytes()
            .saturating_sub(self.quarantine.unmapped_bytes());
        let eligible = q.saturating_sub(f);
        let proportional = eligible >= MIN_SWEEP_BYTES
            && eligible as f64 >= self.cfg.sweep_threshold * heap_bytes.saturating_sub(f) as f64;
        let unmapped = self.quarantine.unmapped_bytes() > 0
            && self.quarantine.unmapped_bytes() as f64
                >= self.cfg.unmapped_trigger * space.rss_bytes() as f64;
        (proportional, unmapped)
    }

    /// Quarantine pressure as a permille of the proportional sweep
    /// trigger: 1000 means the trigger is exactly met. The global sweep
    /// scheduler ([`crate::SweepScheduler`]) orders and coalesces arenas
    /// by this value. Below the [`MIN_SWEEP_BYTES`] floor the value is
    /// clamped under 1000 (never "due"); an unmapped-trigger firing
    /// reports at least 1000. Zero while a sweep is in flight (pressure
    /// is released by finishing it, not by starting another).
    pub fn sweep_pressure(&self, space: &AddrSpace) -> u64 {
        if self.active.is_some() || !self.cfg.quarantine {
            return 0;
        }
        let q = self.quarantine.tracked_bytes();
        let f = self.quarantine.failed_bytes();
        let heap_bytes = self
            .heap
            .allocated_bytes()
            .saturating_sub(self.quarantine.unmapped_bytes());
        let eligible = q.saturating_sub(f);
        let denom =
            (self.cfg.sweep_threshold * heap_bytes.saturating_sub(f) as f64).max(1.0);
        let mut permille = (eligible as f64 * 1000.0 / denom) as u64;
        if eligible < MIN_SWEEP_BYTES {
            permille = permille.min(999);
        }
        let (proportional, unmapped) = self.trigger_state(space);
        if proportional || unmapped {
            permille = permille.max(1000);
        }
        permille
    }

    /// Classifies what is firing the sweep that is about to start.
    fn trigger_kind(&self, space: &AddrSpace) -> Trigger {
        match self.trigger_state(space) {
            (true, _) => Trigger::Proportional,
            (false, true) => Trigger::Unmapped,
            (false, false) => Trigger::Manual,
        }
    }

    /// Whether the mutator should pause new allocations because the
    /// quarantine has outrun the in-flight sweep (§5.7's overload valve).
    pub fn pause_needed(&self) -> bool {
        if self.active.is_none() {
            return false;
        }
        let q = self.quarantine.tracked_bytes();
        let f = self.quarantine.failed_bytes();
        let heap_bytes = self.heap.allocated_bytes();
        q.saturating_sub(f) as f64
            >= self.cfg.pause_factor
                * self.cfg.sweep_threshold
                * heap_bytes.saturating_sub(f) as f64
    }

    /// Whether a sweep is in flight.
    pub fn in_sweep(&self) -> bool {
        self.active.is_some()
    }

    /// Bytes of marking work left in the in-flight sweep.
    pub fn sweep_remaining_bytes(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.marker.remaining_bytes())
    }

    /// Begins a sweep: locks in the current quarantine generation (§4.3 —
    /// later frees wait for the next sweep), builds the plan over heap +
    /// roots, and (in mostly-concurrent mode) clears soft-dirty bits.
    ///
    /// # Panics
    ///
    /// Panics if a sweep is already in flight.
    pub fn start_sweep(&mut self, space: &mut AddrSpace) {
        assert!(self.active.is_none(), "sweep already in flight");
        self.next_sweep += 1;
        let id = self.next_sweep;
        let trigger = self.trigger_kind(space);
        let quarantine_bytes = self.quarantine.tracked_bytes();
        let quarantine_entries = self.quarantine.len() as u64;
        self.tracer.emit(|| EventKind::SweepStart {
            sweep: id,
            trigger,
            quarantine_bytes,
            quarantine_entries,
        });
        let stopwatch = self.tracer.stopwatch();
        let locked = self.quarantine.lock_generation();
        let plan = if self.cfg.marking {
            SweepPlan::build(space, &self.heap.active_ranges())
        } else {
            SweepPlan::from_ranges(Vec::new())
        };
        // Rebuild the candidate filter over exactly this sweep's locked
        // candidate set: only marks into these entries' pages can change a
        // release decision.
        let filter = (self.cfg.marking && self.cfg.candidate_filter)
            .then(|| CandidateFilter::build(locked.iter().map(|e| (e.base, e.usable))));
        // Snapshot soft-dirty state BEFORE any clearing, then retire cache
        // entries for dirty pages and pages that left the plan.
        if self.cfg.marking && self.cfg.page_cache {
            let mut dirty: Vec<PageIdx> = plan
                .ranges()
                .iter()
                .flat_map(|&(base, len)| {
                    space.snapshot_soft_dirty(PageRange::spanning(base, len))
                })
                .collect();
            dirty.sort_unstable();
            dirty.dedup();
            self.page_cache.begin_sweep(&plan, &dirty, id);
        }
        match self.cfg.mode {
            // The STW contract needs dirtiness tracked everywhere, so the
            // global clear stays (the cache's snapshot already happened).
            SweepMode::MostlyConcurrent => space.clear_soft_dirty(),
            // Fully concurrent only clears what the cache tracks: the
            // plan's own ranges. Everything else keeps accumulating
            // dirtiness and is reported dirty at the next snapshot.
            SweepMode::FullyConcurrent if self.cfg.marking && self.cfg.page_cache => {
                for &(base, len) in plan.ranges() {
                    space.clear_soft_dirty_range(PageRange::spanning(base, len));
                }
            }
            SweepMode::FullyConcurrent => {}
        }
        // New epoch: wipe last sweep's marks, keeping the chunks resident.
        self.shadow.clear();
        // Forensics: a recorder over exactly this sweep's candidates (None
        // when the knob is off, or when nothing marks anyway).
        let recorder = if self.cfg.marking {
            EdgeRecorder::new(&locked, self.cfg.forensics)
        } else {
            None
        };
        // Profiler baselines: the sweep.* cells are cumulative, so the
        // MarkPhase event reports deltas against sweep-start readings.
        let prof_base = self.prof.as_ref().map(|p| ProfBase {
            scan_ns: p.step_scan_ns.sum(),
            window_bits: p.wc_window_bits.get(),
            direct: p.wc_direct.get(),
            evictions: p.chunk_cache_evictions.get(),
        });
        self.active = Some(ActiveSweep {
            marker: Marker::new(plan),
            locked,
            id,
            mark_bytes: 0,
            mark_words: 0,
            mark_skipped_bytes: 0,
            mark_filter_rejects: 0,
            mark_wall_ns: 0,
            stopwatch,
            filter,
            qgen: self.quarantine.generation(),
            recorder,
            prof_base,
        });
    }

    /// Advances the in-flight sweep's marking phase by up to `word_budget`
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if no sweep is in flight.
    pub fn sweep_step(&mut self, space: &mut AddrSpace, word_budget: u64) -> StepResult {
        let sw = self.tracer.stopwatch();
        let active = self.active.as_mut().expect("no sweep in flight");
        let cache = (self.cfg.marking && self.cfg.page_cache)
            .then_some(&mut self.page_cache);
        let mut accel = MarkAccel {
            filter: active.filter.as_ref(),
            cache,
            qgen: active.qgen,
            forensics: active.recorder.as_ref(),
            tier: None,
            prof: self.prof.as_ref(),
        };
        let r = active.marker.step(space, &mut self.shadow, word_budget, &mut accel);
        active.mark_bytes += r.bytes;
        active.mark_words += r.words;
        active.mark_skipped_bytes += r.skipped_bytes;
        active.mark_filter_rejects += r.filter_rejects;
        active.mark_wall_ns += sw.elapsed_ns();
        self.absorb_mark_counters(&r);
        r
    }

    /// Folds one mark step's counters into the registry.
    fn absorb_mark_counters(&self, r: &StepResult) {
        self.counters.swept_bytes.add(r.bytes);
        self.counters.skipped_bytes.add(r.skipped_bytes);
        self.counters.heap_words.add(r.heap_words);
        self.counters.pages_skipped.add(r.pages_skipped);
        self.counters.pages_replayed.add(r.pages_replayed);
        self.counters.filter_rejects.add(r.filter_rejects);
        self.counters.pin_edges.add(r.pin_edges);
    }

    /// Completes the in-flight sweep: finishes marking if needed, runs the
    /// stop-the-world re-check (mostly-concurrent mode), then walks the
    /// locked-in quarantine releasing unmarked entries and retaining failed
    /// frees.
    ///
    /// # Panics
    ///
    /// Panics if no sweep is in flight.
    pub fn finish_sweep(&mut self, space: &mut AddrSpace) -> SweepReport {
        let mut active = self.active.take().expect("no sweep in flight");
        let mut report = SweepReport::default();

        // Drain any marking the caller did not step through.
        let sw = self.tracer.stopwatch();
        let drained = {
            let cache = (self.cfg.marking && self.cfg.page_cache)
                .then_some(&mut self.page_cache);
            let mut accel = MarkAccel {
                filter: active.filter.as_ref(),
                cache,
                qgen: active.qgen,
                forensics: active.recorder.as_ref(),
                tier: None,
                prof: self.prof.as_ref(),
            };
            active.marker.step(space, &mut self.shadow, u64::MAX, &mut accel)
        };
        report.marked_words += drained.words;
        active.mark_bytes += drained.bytes;
        active.mark_words += drained.words;
        active.mark_skipped_bytes += drained.skipped_bytes;
        active.mark_filter_rejects += drained.filter_rejects;
        active.mark_wall_ns += sw.elapsed_ns();
        self.absorb_mark_counters(&drained);
        self.complete_sweep(space, active, report)
    }

    /// One arena's share of a pooled cross-arena mark: the in-flight
    /// sweep's plan, shadow map and accelerators, borrowed immutably so
    /// [`crate::parallel_mark_pool`] can drain many arenas' plans through
    /// one work-stealing cursor. The caller passes the same `space` the
    /// sweep was started on.
    ///
    /// The page cache is exposed read-only (replay only — pooled helpers
    /// never record digests, so pooled sweeps let cached pages age out
    /// instead of refreshing them; a correctness no-op).
    ///
    /// # Panics
    ///
    /// Panics if no sweep is in flight.
    pub fn pooled_mark_job<'a>(&'a self, space: &'a AddrSpace) -> PoolMarkJob<'a> {
        let active = self.active.as_ref().expect("no sweep in flight");
        PoolMarkJob {
            space,
            plan: active.marker.plan(),
            shadow: &self.shadow,
            filter: active.filter.as_ref(),
            cache: (self.cfg.marking && self.cfg.page_cache).then_some(&self.page_cache),
            forensics: active.recorder.as_ref(),
        }
    }

    /// Completes a sweep whose marking ran *externally* (a pooled
    /// cross-arena mark wrote this arena's shadow map already): folds the
    /// pooled stats into the layer's accounting, then runs the same
    /// release path as [`MineSweeper::finish_sweep`].
    ///
    /// Accounting: the pooled mark covered the whole plan, so this sweep
    /// advanced `plan bytes` with `stats.words` read and the remainder
    /// skipped wholesale (unbacked/protected pages and cache replays) —
    /// the `bytes == words*8 + skipped` identity `ms-report --check`
    /// verifies holds exactly.
    ///
    /// # Panics
    ///
    /// Panics if no sweep is in flight.
    pub fn finish_sweep_premarked(
        &mut self,
        space: &mut AddrSpace,
        stats: &ParallelMarkStats,
        mark_wall_ns: u64,
    ) -> SweepReport {
        let mut active = self.active.take().expect("no sweep in flight");
        let bytes = active.marker.plan().total_bytes();
        let words = stats.words;
        let skipped = bytes.saturating_sub(words * WORD_SIZE as u64);
        let pin_edges = active
            .recorder
            .as_ref()
            .map_or(0, |r| r.aggregates().values().map(|a| a.hits).sum());
        active.mark_bytes += bytes;
        active.mark_words += words;
        active.mark_skipped_bytes += skipped;
        active.mark_filter_rejects += stats.filter_rejects;
        active.mark_wall_ns += mark_wall_ns;
        let step = StepResult {
            words,
            bytes,
            skipped_bytes: skipped,
            heap_words: stats.heap_words,
            pages_skipped: stats.pages_skipped,
            pages_replayed: stats.pages_replayed,
            filter_rejects: stats.filter_rejects,
            pin_edges,
            finished: true,
        };
        self.absorb_mark_counters(&step);
        let report = SweepReport { marked_words: words, ..SweepReport::default() };
        self.complete_sweep(space, active, report)
    }

    /// The shared sweep tail: `MarkPhase` event, optional stop-the-world
    /// pass, the release walk over the locked quarantine generation,
    /// post-sweep purge and the `SweepEnd` event. Both
    /// [`MineSweeper::finish_sweep`] and
    /// [`MineSweeper::finish_sweep_premarked`] come through here, so a
    /// pooled arena's release semantics cannot drift from the
    /// single-arena path.
    fn complete_sweep(
        &mut self,
        space: &mut AddrSpace,
        active: ActiveSweep,
        mut report: SweepReport,
    ) -> SweepReport {
        let id = active.id;
        report.skipped_bytes = active.mark_skipped_bytes;
        let marked_granules = self.shadow.marked_count();
        // Profiler attribution for this sweep: deltas of the cumulative
        // sweep.* cells against the sweep-start baselines. `None` (the
        // default) keeps the event byte-identical to its pre-profiler
        // shape.
        let mark_prof = match (&self.prof, active.prof_base) {
            (Some(p), Some(b)) => Some(telemetry::MarkProf {
                // Deterministic traces zero wall-clock fields (the same
                // contract as `wall_ns` via the inert stopwatch).
                scan_ns: if self.tracer.deterministic() {
                    0
                } else {
                    p.step_scan_ns.sum().saturating_sub(b.scan_ns)
                },
                wc_window_bits: p.wc_window_bits.get().saturating_sub(b.window_bits),
                wc_direct: p.wc_direct.get().saturating_sub(b.direct),
                cache_evictions: p.chunk_cache_evictions.get().saturating_sub(b.evictions),
            }),
            _ => None,
        };
        self.tracer.emit(|| EventKind::MarkPhase {
            sweep: id,
            bytes: active.mark_bytes,
            words: active.mark_words,
            skipped_bytes: active.mark_skipped_bytes,
            filter_rejects: active.mark_filter_rejects,
            marked_granules,
            wall_ns: active.mark_wall_ns,
            prof: mark_prof,
        });

        // Phase 2 (optional): stop the world, re-check modified pages.
        if self.cfg.mode == SweepMode::MostlyConcurrent && self.cfg.marking {
            let mut stw_words = 0;
            for page in space.soft_dirty_pages() {
                stw_words += mark_page(space, &mut self.shadow, page);
                report.stw_pages += 1;
            }
            report.marked_words += stw_words;
            self.counters.stw_pages.add(report.stw_pages);
            self.counters.stw_passes.inc();
            let pages = report.stw_pages;
            self.tracer.emit(|| EventKind::StwPass { sweep: id, pages, words: stw_words });
        }

        // Phase 3: release unmarked entries, retain the rest.
        let edges = active.recorder.as_ref().map(EdgeRecorder::aggregates);
        for entry in active.locked {
            let dangling = self.cfg.marking
                && self.shadow.range_marked(entry.base, entry.usable);
            self.resolve_entry(space, entry, dangling, id, edges.as_ref(), &mut report);
        }
        report.marked_granules = self.shadow.marked_count();
        self.tracer.emit(|| EventKind::Release {
            sweep: id,
            released: report.released,
            released_bytes: report.released_bytes,
            failed_frees: report.failed,
        });

        // §4.5: synchronise allocator cleanup with the end of the sweep.
        if self.cfg.purge_after_sweep {
            let purged0 = self.heap.purged_pages();
            self.heap.purge_all(space);
            let purged_pages = self.heap.purged_pages().saturating_sub(purged0);
            self.tracer.emit(|| EventKind::Purge { sweep: id, purged_pages });
        }
        self.counters.sweeps.inc();
        let wall_ns = active.stopwatch.elapsed_ns();
        let ledger = self.sweep_end_ledger();
        self.tracer.emit(|| EventKind::SweepEnd { sweep: id, wall_ns, ledger });
        report
    }

    /// The ledger snapshot a `SweepEnd` event carries: `None` with
    /// forensics off (the event then serialises in its pre-forensics
    /// shape). With it on, the ledger's bytes must mirror the
    /// quarantine's failed-byte accounting exactly — both derive from the
    /// same release decisions.
    fn sweep_end_ledger(&self) -> Option<telemetry::LedgerTotals> {
        if !self.cfg.forensics.enabled() {
            return None;
        }
        let totals = self.ledger.totals();
        debug_assert_eq!(
            totals.bytes,
            self.quarantine.failed_bytes(),
            "ledger and quarantine disagree on failed bytes"
        );
        Some(totals)
    }

    /// The single release-or-retain decision point for one locked entry —
    /// both [`MineSweeper::finish_sweep`] and
    /// [`MineSweeper::sweep_now_with_shadow`] come through here, so the
    /// forensics ledger can never diverge from the quarantine's own
    /// failed-free accounting.
    fn resolve_entry(
        &mut self,
        space: &mut AddrSpace,
        entry: QEntry,
        dangling: bool,
        sweep: u64,
        edges: Option<&HashMap<u64, EdgeAgg>>,
        report: &mut SweepReport,
    ) {
        let forensics = self.cfg.forensics.enabled();
        let agg = edges.and_then(|m| m.get(&entry.base.raw()).copied());
        if forensics {
            // Aggregates only hold entries with at least one recorded hit.
            if let Some(a) = agg {
                let (site, base, bytes) = (entry.site, entry.base.raw(), entry.swept_bytes());
                self.tracer.emit(|| EventKind::PinEdge {
                    sweep,
                    site,
                    base,
                    bytes,
                    hits: a.hits,
                    src: a.src,
                });
            }
        }
        if dangling && self.cfg.honor_failed_frees {
            if forensics {
                let swept = entry.swept_bytes();
                let (site, base) = (entry.site, entry.base.raw());
                let (rec, first) = self.ledger.on_failed(&entry, sweep, agg);
                let (survivals, first_failed) = (rec.survivals, rec.first_failed);
                if first {
                    self.counters.ledger_bytes_in.add(swept);
                }
                self.tracer.emit(|| EventKind::FailedFreeAged {
                    sweep,
                    site,
                    base,
                    bytes: swept,
                    survivals,
                    first_failed,
                });
            }
            self.quarantine.on_failed(entry);
            self.counters.failed_frees.inc();
            report.failed += 1;
        } else {
            if forensics {
                if let Some(rec) = self.ledger.on_released(entry.base) {
                    self.counters.ledger_bytes_out.add(rec.bytes);
                    self.residency.record(sweep.saturating_sub(rec.first_failed));
                }
            }
            self.release_entry(space, &entry);
            report.released += 1;
            report.released_bytes += entry.usable;
        }
    }

    fn release_entry(&mut self, space: &mut AddrSpace, entry: &QEntry) {
        if entry.unmapped_pages > 0 {
            // Restore access before handing the range back; backing stays
            // discarded (the allocator reuses it demand-zero).
            let interior = PageRange::interior(entry.base, entry.usable);
            space.protect(interior, Protection::ReadWrite).expect("mapped");
        }
        self.heap.free(space, entry.base).expect("quarantine owns this allocation");
        self.quarantine.on_released(entry);
        self.counters.released.inc();
        self.counters.released_bytes.add(entry.usable);
    }

    /// Runs a complete sweep synchronously and returns its report.
    ///
    /// # Panics
    ///
    /// Panics if a sweep is already in flight.
    pub fn sweep_now(&mut self, space: &mut AddrSpace) -> SweepReport {
        self.start_sweep(space);
        self.finish_sweep(space)
    }

    /// Runs a sweep whose marking phase is replaced by a caller-provided
    /// shadow map. Used by the MTE tag-aware sweep ([`crate::MteHeap`]),
    /// whose marker only records pointers that could actually dereference
    /// their target under tag checking.
    ///
    /// # Panics
    ///
    /// Panics if a sweep is already in flight.
    pub fn sweep_now_with_shadow(
        &mut self,
        space: &mut AddrSpace,
        shadow: &ShadowMap,
    ) -> SweepReport {
        assert!(self.active.is_none(), "sweep already in flight");
        self.next_sweep += 1;
        let id = self.next_sweep;
        let quarantine_bytes = self.quarantine.tracked_bytes();
        let quarantine_entries = self.quarantine.len() as u64;
        self.tracer.emit(|| EventKind::SweepStart {
            sweep: id,
            trigger: Trigger::Manual,
            quarantine_bytes,
            quarantine_entries,
        });
        let stopwatch = self.tracer.stopwatch();
        let locked = self.quarantine.lock_generation();
        let mut report = SweepReport::default();
        // The caller's shadow map replaced marking, so the mark phase has
        // zero swept bytes/words here — only the granule count is real.
        let marked_granules = shadow.marked_count();
        self.tracer.emit(|| EventKind::MarkPhase {
            sweep: id,
            bytes: 0,
            words: 0,
            skipped_bytes: 0,
            filter_rejects: 0,
            marked_granules,
            wall_ns: 0,
            prof: None,
        });
        // Caller-provided shadow map: marking ran elsewhere, so there is no
        // edge recorder — forensics still keeps the ledger from the release
        // decisions themselves.
        for entry in locked {
            let dangling = shadow.range_marked(entry.base, entry.usable);
            self.resolve_entry(space, entry, dangling, id, None, &mut report);
        }
        report.marked_granules = shadow.marked_count();
        self.tracer.emit(|| EventKind::Release {
            sweep: id,
            released: report.released,
            released_bytes: report.released_bytes,
            failed_frees: report.failed,
        });
        if self.cfg.purge_after_sweep {
            let purged0 = self.heap.purged_pages();
            self.heap.purge_all(space);
            let purged_pages = self.heap.purged_pages().saturating_sub(purged0);
            self.tracer.emit(|| EventKind::Purge { sweep: id, purged_pages });
        }
        self.counters.sweeps.inc();
        let wall_ns = stopwatch.elapsed_ns();
        let ledger = self.sweep_end_ledger();
        self.tracer.emit(|| EventKind::SweepEnd { sweep: id, wall_ns, ledger });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmem::PAGE_SIZE;

    fn setup(cfg: MsConfig) -> (AddrSpace, MineSweeper) {
        (AddrSpace::new(), MineSweeper::new(cfg))
    }

    #[test]
    fn free_quarantines_and_zeroes() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 64);
        space.write_word(a, 0xdead).unwrap();
        assert_eq!(ms.free(&mut space, a), FreeOutcome::Quarantined);
        assert_eq!(space.read_word(a).unwrap(), 0, "quarantined data is zeroed");
        assert!(ms.quarantine().contains(a));
        assert_eq!(ms.heap().stats().frees, 0, "allocator not yet told");
    }

    #[test]
    fn clean_quarantine_is_released_by_sweep() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 64);
        ms.free(&mut space, a);
        let report = ms.sweep_now(&mut space);
        assert_eq!(report.released, 1);
        assert_eq!(report.failed, 0);
        assert!(!ms.quarantine().contains(a));
        assert_eq!(ms.heap().stats().frees, 1);
    }

    #[test]
    fn dangling_pointer_blocks_release_until_erased() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 64);
        let holder = ms.malloc(&mut space, 64);
        space.write_word(holder, a.raw()).unwrap(); // dangling-to-be
        ms.free(&mut space, a);

        let report = ms.sweep_now(&mut space);
        assert_eq!((report.released, report.failed), (0, 1));
        assert!(ms.quarantine().contains(a), "failed free stays quarantined");

        space.write_word(holder, 0).unwrap(); // erase the dangling pointer
        let report = ms.sweep_now(&mut space);
        assert_eq!((report.released, report.failed), (1, 0));
    }

    #[test]
    fn interior_dangling_pointer_also_blocks() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 256);
        let holder = ms.malloc(&mut space, 64);
        space.write_word(holder, a.raw() + 128).unwrap();
        ms.free(&mut space, a);
        assert_eq!(ms.sweep_now(&mut space).failed, 1);
    }

    #[test]
    fn no_reallocation_while_dangling_pointer_exists() {
        // The core security property: the quarantined range cannot be
        // returned by malloc while a dangling pointer to it remains.
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 64);
        let holder = ms.malloc(&mut space, 64);
        space.write_word(holder, a.raw()).unwrap();
        ms.free(&mut space, a);
        ms.sweep_now(&mut space);
        for _ in 0..200 {
            let b = ms.malloc(&mut space, 64);
            assert_ne!(b, a, "quarantined memory must not be reallocated");
        }
    }

    #[test]
    fn zeroing_breaks_quarantine_internal_cycles() {
        // §4.1 / Figure 6: two quarantined allocations pointing at each
        // other must still be reclaimed, because free() zeroed the edges.
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 64);
        let b = ms.malloc(&mut space, 64);
        space.write_word(a, b.raw()).unwrap();
        space.write_word(b, a.raw()).unwrap();
        ms.free(&mut space, a);
        ms.free(&mut space, b);
        let report = ms.sweep_now(&mut space);
        assert_eq!((report.released, report.failed), (2, 0));
    }

    #[test]
    fn without_zeroing_cycles_fail_to_free() {
        let cfg = MsConfig::builder().zeroing(false).build();
        let (mut space, mut ms) = setup(cfg);
        let a = ms.malloc(&mut space, 64);
        let b = ms.malloc(&mut space, 64);
        space.write_word(a, b.raw()).unwrap();
        space.write_word(b, a.raw()).unwrap();
        ms.free(&mut space, a);
        ms.free(&mut space, b);
        let report = ms.sweep_now(&mut space);
        assert_eq!((report.released, report.failed), (0, 2), "cycle pins both");
    }

    #[test]
    fn double_free_is_idempotent_and_reported() {
        let cfg = MsConfig::builder().report_double_frees(true).build();
        let (mut space, mut ms) = setup(cfg);
        let a = ms.malloc(&mut space, 64);
        assert_eq!(ms.free(&mut space, a), FreeOutcome::Quarantined);
        assert_eq!(ms.free(&mut space, a), FreeOutcome::DoubleFree);
        assert_eq!(ms.free(&mut space, a), FreeOutcome::DoubleFree);
        assert_eq!(ms.stats().double_frees, 2);
        assert_eq!(ms.stats().double_free_reports, vec![a, a]);
        // Exactly one true free reaches the allocator.
        ms.sweep_now(&mut space);
        assert_eq!(ms.heap().stats().frees, 1);
    }

    #[test]
    fn invalid_free_is_rejected_without_corruption() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 64);
        assert_eq!(ms.free(&mut space, a + 8), FreeOutcome::Invalid);
        assert_eq!(
            ms.free(&mut space, Addr::new(0x4444_0000_0000)),
            FreeOutcome::Invalid
        );
        assert_eq!(ms.stats().invalid_frees, 2);
        // The real allocation is still usable and freeable.
        space.write_word(a, 1).unwrap();
        assert_eq!(ms.free(&mut space, a), FreeOutcome::Quarantined);
    }

    #[test]
    fn large_allocation_unmapping_releases_rss_and_protects() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let size = 64 * PAGE_SIZE as u64;
        let a = ms.malloc(&mut space, size);
        // Touch every page.
        for p in 0..64u64 {
            space.write_word(a + p * PAGE_SIZE as u64, p).unwrap();
        }
        let rss_before = space.rss_bytes();
        ms.free(&mut space, a);
        assert!(
            space.rss_bytes() <= rss_before - 63 * PAGE_SIZE as u64,
            "interior pages decommitted"
        );
        // Dangling writes into the unmapped range fault (clean termination)
        // instead of landing in recycled memory.
        assert!(space.write_word(a + PAGE_SIZE as u64, 0xbad).is_err());
        assert!(ms.stats().unmapped_pages >= 63);
    }

    #[test]
    fn unmapped_entry_release_restores_usability() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let size = 16 * PAGE_SIZE as u64;
        let a = ms.malloc(&mut space, size);
        space.write_word(a, 1).unwrap();
        ms.free(&mut space, a);
        let report = ms.sweep_now(&mut space);
        assert_eq!(report.released, 1);
        let b = ms.malloc(&mut space, size);
        assert_eq!(b, a, "extent recycled after quarantine");
        space.write_word(b + 5 * PAGE_SIZE as u64, 7).unwrap();
        assert_eq!(space.read_word(b + 5 * PAGE_SIZE as u64).unwrap(), 7);
    }

    #[test]
    fn sweep_trigger_fires_on_quarantine_fraction() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        // Build a heap of ~2 MiB live.
        let live: Vec<Addr> = (0..512).map(|_| ms.malloc(&mut space, 4096)).collect();
        assert!(!ms.sweep_needed(&space));
        // Free ~20% of it (above the 15% threshold and the floor).
        for &a in live.iter().take(103) {
            ms.free(&mut space, a);
        }
        assert!(ms.sweep_needed(&space));
        ms.sweep_now(&mut space);
        assert!(!ms.sweep_needed(&space), "trigger resets after sweep");
    }

    #[test]
    fn failed_frees_do_not_retrigger_sweeps() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let live: Vec<Addr> = (0..512).map(|_| ms.malloc(&mut space, 4096)).collect();
        let holder = ms.malloc(&mut space, 4096);
        // Free 20% with dangling pointers to each (all will fail).
        for (i, &a) in live.iter().take(103).enumerate() {
            space.write_word(holder + (i as u64 * 8), a.raw()).unwrap();
            ms.free(&mut space, a);
        }
        ms.sweep_now(&mut space);
        assert_eq!(ms.stats().failed_frees, 103);
        assert!(
            !ms.sweep_needed(&space),
            "failed frees are subtracted from both sides (§3.2)"
        );
    }

    #[test]
    fn mostly_concurrent_stw_catches_moved_pointer() {
        // The §4.3 race: the only copy of a dangling pointer moves from B
        // to A (already swept), then B is erased. Fully-concurrent misses
        // it; mostly-concurrent re-checks the dirty pages and catches it.
        for (mode, expect_failed) in
            [(SweepMode::FullyConcurrent, 0), (SweepMode::MostlyConcurrent, 1)]
        {
            let cfg = MsConfig::builder().mode(mode).build();
            let (mut space, mut ms) = setup(cfg);
            let victim = ms.malloc(&mut space, 64);
            let slot_a = ms.malloc(&mut space, 64); // low address (swept first)
            let slot_b = ms.malloc(&mut space, 64);
            assert!(slot_a < slot_b);
            space.write_word(slot_b, victim.raw()).unwrap();
            ms.free(&mut space, victim);

            ms.start_sweep(&mut space);
            // Drive the marker one word at a time until it has passed
            // slot_a but not yet reached slot_b.
            loop {
                let r = ms.sweep_step(&mut space, 1);
                if marker_passed(&ms, slot_a) || r.finished {
                    break;
                }
            }
            // Move the pointer behind the cursor and erase the original.
            if marker_passed(&ms, slot_b) {
                // Degenerate layout; skip (cannot construct the race).
                ms.finish_sweep(&mut space);
                continue;
            }
            space.write_word(slot_a, victim.raw()).unwrap();
            space.write_word(slot_b, 0).unwrap();
            let report = ms.finish_sweep(&mut space);
            assert_eq!(
                report.failed, expect_failed,
                "mode {mode:?}: STW must catch the moved pointer"
            );
        }
    }

    fn marker_passed(ms: &MineSweeper, addr: Addr) -> bool {
        ms.active.as_ref().is_some_and(|a| a.marker.has_passed(addr))
    }

    #[test]
    fn partial_base_forwards_frees() {
        let (mut space, mut ms) = setup(MsConfig::partial_base());
        let a = ms.malloc(&mut space, 64);
        space.write_word(a, 0xdead).unwrap();
        assert_eq!(ms.free(&mut space, a), FreeOutcome::Passthrough);
        assert_eq!(ms.heap().stats().frees, 1);
        assert!(!ms.sweep_needed(&space), "no quarantine, no sweeps");
    }

    #[test]
    fn partial_unmap_zero_forwards_after_scrubbing() {
        let (mut space, mut ms) = setup(MsConfig::partial_unmap_zero());
        let a = ms.malloc(&mut space, 64);
        space.write_word(a, 0xdead).unwrap();
        assert_eq!(ms.free(&mut space, a), FreeOutcome::Passthrough);
        // Data zeroed, allocation recycled immediately.
        let b = ms.malloc(&mut space, 64);
        assert_eq!(b, a);
        assert_eq!(space.read_word(b).unwrap(), 0);
    }

    #[test]
    fn partial_quarantine_recycles_without_marking() {
        let (mut space, mut ms) = setup(MsConfig::partial_quarantine());
        let a = ms.malloc(&mut space, 64);
        let holder = ms.malloc(&mut space, 64);
        space.write_word(holder, a.raw()).unwrap();
        ms.free(&mut space, a);
        let report = ms.sweep_now(&mut space);
        assert_eq!(report.released, 1, "no marking: everything recycles");
        assert_eq!(report.marked_words, 0);
    }

    #[test]
    fn partial_sweep_marks_but_releases_anyway() {
        let (mut space, mut ms) = setup(MsConfig::partial_sweep());
        let a = ms.malloc(&mut space, 64);
        let holder = ms.malloc(&mut space, 64);
        space.write_word(holder, a.raw()).unwrap();
        ms.free(&mut space, a);
        let report = ms.sweep_now(&mut space);
        assert_eq!(report.released, 1);
        assert_eq!(report.failed, 0);
        assert!(report.marked_words > 0, "marking did run");
    }

    #[test]
    fn pause_trigger_fires_under_quarantine_overrun() {
        let cfg = MsConfig::builder().pause_factor(2.0).build();
        let (mut space, mut ms) = setup(cfg);
        let live: Vec<Addr> = (0..600).map(|_| ms.malloc(&mut space, 4096)).collect();
        ms.start_sweep(&mut space);
        assert!(!ms.pause_needed());
        // Quarantine > pause_factor * threshold * heap while sweeping.
        for &a in live.iter().take(400) {
            ms.free(&mut space, a);
        }
        assert!(ms.pause_needed());
        ms.finish_sweep(&mut space);
        assert!(!ms.pause_needed(), "pause clears once the sweep lands");
    }

    #[test]
    fn purge_after_sweep_drops_free_extent_rss() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let addrs: Vec<Addr> =
            (0..64).map(|_| ms.malloc(&mut space, 20 * PAGE_SIZE as u64)).collect();
        for &a in &addrs {
            space.write_word(a, 1).unwrap();
            ms.free(&mut space, a);
        }
        ms.sweep_now(&mut space);
        assert_eq!(
            ms.heap().free_committed_bytes(&space),
            0,
            "post-sweep purge decommits the allocator's free extents"
        );
    }

    #[test]
    fn unmapped_trigger_fires_at_nine_times_rss() {
        // §4.2: a sweep is also initiated once unmapped quarantined bytes
        // reach 9x the program's physical footprint, to bound kernel and
        // allocator metadata pressure.
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        // Small resident footprint.
        let keep = ms.malloc(&mut space, 4096);
        space.write_word(keep, 1).unwrap();
        // Free a stream of large allocations; their pages are unmapped so
        // the proportional trigger never sees them.
        let mut fired = false;
        for _ in 0..400 {
            let big = ms.malloc(&mut space, 64 * PAGE_SIZE as u64);
            space.write_word(big, 1).unwrap();
            ms.free(&mut space, big);
            if ms.sweep_needed(&space) {
                fired = true;
                break;
            }
        }
        assert!(fired, "unmapped trigger must eventually fire");
        assert!(
            ms.quarantine().unmapped_bytes() as f64 >= 9.0 * space.rss_bytes() as f64,
            "fired exactly when unmapped bytes reached 9x RSS"
        );
        ms.sweep_now(&mut space);
    }

    #[test]
    fn tiny_heaps_do_not_thrash_sweeps() {
        // The MIN_SWEEP_BYTES floor: a few small frees on a tiny heap must
        // not trigger a sweep even though they exceed 15% proportionally.
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 256);
        let _b = ms.malloc(&mut space, 256);
        ms.free(&mut space, a);
        assert!(!ms.sweep_needed(&space), "50% of a 512-byte heap is not sweep-worthy");
    }

    #[test]
    fn quarantined_reads_are_benign_zeroes() {
        // §1.2: quarantined memory may still be read (benign use-after-
        // free); MineSweeper guarantees it is not *reallocated*. With
        // zeroing, such reads observe zeroes rather than stale secrets.
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        let a = ms.malloc(&mut space, 64);
        space.write_word(a, 0x5ec7e7).unwrap();
        ms.free(&mut space, a);
        assert_eq!(space.read_word(a).unwrap(), 0, "no data leaks from quarantine");
    }

    #[test]
    fn sweep_step_budget_is_respected_midflight() {
        let (mut space, mut ms) = setup(MsConfig::fully_concurrent());
        for _ in 0..64 {
            let a = ms.malloc(&mut space, 4096);
            space.write_word(a, 1).unwrap();
            ms.free(&mut space, a);
        }
        ms.start_sweep(&mut space);
        assert!(ms.in_sweep());
        let before = ms.sweep_remaining_bytes();
        let r = ms.sweep_step(&mut space, 16);
        assert!(r.words <= 16);
        assert!(ms.sweep_remaining_bytes() < before);
        let report = ms.finish_sweep(&mut space);
        assert!(!ms.in_sweep());
        assert!(report.released > 0);
    }

    #[test]
    fn sweeps_count_in_stats() {
        let (mut space, mut ms) = setup(MsConfig::mostly_concurrent());
        let a = ms.malloc(&mut space, 64);
        ms.free(&mut space, a);
        ms.sweep_now(&mut space);
        ms.sweep_now(&mut space);
        assert_eq!(ms.stats().sweeps, 2);
        assert_eq!(ms.stats().stw_passes, 2);
    }
}
