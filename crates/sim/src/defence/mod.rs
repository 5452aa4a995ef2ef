//! The systems under test behind one [`Defence`] trait.
//!
//! The engine ([`crate::Engine`]) and the security interpreter
//! (`crate::exploit`) drive every system through the same calls: malloc
//! and free, the instrumented pointer-store and pointer-erase hooks, the
//! clock, and the sweep lifecycle. Each system's file implements them
//! once and prices each operation once: a free returns its cycles and
//! charges their defence share into the caller's [`CostRecorder`], and
//! [`drain_charge`] and [`finish_charge`] price a sweep for the engine
//! and for [`Defence::housekeep`] alike. Allocator cycles (the heap's own
//! malloc and free paths) are charged but never attributed. Systems that
//! never sweep keep the defaults.

mod baseline;
mod crcount;
mod dangsan;
mod ffmalloc;
mod markus;
mod minesweeper;
mod mte;
mod oscar;
mod psweeper;
mod scudo;

use ::minesweeper::{HeapBackend, MineSweeper, StepResult, SweepReport};
use ::scudo::Scudo;
use baselines::{CrCount, DangSan, FfConfig, FfMalloc, MarkUs, Oscar, PSweeper};
use jalloc::{JAlloc, JallocConfig};
use telemetry::{CostKind, CostRecorder, Registry, Tracer};
use vmem::{Addr, AddrSpace};
use workloads::exploit::ExploitOutcome;
use workloads::Op;

use crate::cost::CostModel;
use crate::engine::{Setup, Sim};
use crate::metrics::RunMetrics;
use crate::system::System;

/// What a free attempt did, normalised across the very different backend
/// signatures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FreeAck {
    /// Accepted (quarantined, deferred or released): the program goes on.
    Done,
    /// Recognised as bad (double/invalid) and absorbed idempotently: the
    /// program goes on, unharmed.
    Absorbed,
    /// Rejected hard: a modern allocator aborts on a detected bad free.
    Rejected,
    /// Rejected *with attribution* (MTE tag mismatch): detection.
    Caught,
}

/// A checked access: the value loaded or stored, or the verdict the
/// faulting access ends the program with.
pub(crate) type Access = Result<u64, ExploitOutcome>;

/// What a free call carries besides the pointer.
pub(crate) struct FreeCtx<'a> {
    /// The cost model the free is priced with.
    pub cost: &'a CostModel,
    /// Allocation site of the freed object (0 = unknown).
    pub site: u32,
    /// The attribution ledger, where the caller keeps one.
    pub ledger: Option<&'a mut CostRecorder>,
}

impl FreeCtx<'_> {
    /// Attributes the free's defence share to its site, if there is a
    /// ledger.
    fn charge(&mut self, charges: &[(CostKind, u64)]) {
        if let Some(rec) = self.ledger.as_deref_mut() {
            rec.charge_all(charges, Some(self.site));
        }
    }
}

/// A system under test. Cycle figures are [`CostModel`] cycles.
pub(crate) trait Defence: std::fmt::Debug {
    /// Replays `ops` in the engine under `setup`, with the op loop
    /// compiled for this system's type rather than dispatched per call.
    fn replay(self: Box<Self>, setup: Setup, ops: &mut dyn Iterator<Item = Op>) -> RunMetrics {
        Sim::new(self, setup).run_ops(ops)
    }

    /// Allocates `size` bytes. Returns the pointer word the program holds
    /// (tagged under MTE) and the engine's charge.
    fn malloc_word(&mut self, space: &mut AddrSpace, size: u64, cost: &CostModel) -> (u64, u64);

    /// Frees through `word`. Returns the outcome and the mutator charge,
    /// and charges that charge's defence share into `cx`.
    fn free_word(&mut self, space: &mut AddrSpace, word: u64, cx: FreeCtx) -> (FreeAck, u64);

    /// A pointer to `target` was stored in `slot`: the compiler
    /// instrumentation of CRCount and the §6.4 schemes. Returns its cycles.
    fn store_ptr(&mut self, _target: Addr, _slot: Addr, _cost: &CostModel) -> u64 {
        0
    }

    /// A reference to `target` was overwritten or erased. Returns cycles.
    fn drop_ref(&mut self, _space: &mut AddrSpace, _target: Addr, _cost: &CostModel) -> u64 {
        0
    }

    /// `slot` stopped being a pointer slot. Returns cycles.
    fn drop_slot(&mut self, _slot: Addr, _cost: &CostModel) -> u64 {
        0
    }

    /// Advances the allocator clock to `now` and runs its decay purge.
    fn tick(&mut self, _space: &mut AddrSpace, _now: u64) {}

    /// Whether a later malloc can return an address freed earlier. The
    /// engine remembers each free's time, for the warm-reuse charge, only
    /// when this holds: a system that never reuses an address would keep
    /// one entry per free that no allocation ever looks up.
    fn reuses_addresses(&self) -> bool {
        true
    }

    /// Resident mitigation metadata (quarantine lists, logs, page tables).
    fn metadata_bytes(&self) -> u64 {
        0
    }

    /// Extra fraction of compute cycles, per unit of pointer density, paid
    /// for instrumented steady-state pointer stores.
    fn work_tax(&self, _cost: &CostModel) -> f64 {
        0.0
    }

    /// Sweeper threads asked for, before the engine caps them by spare cores.
    fn sweeper_threads(&self) -> u64 {
        0
    }

    /// The metrics registry, for layered systems.
    fn registry(&self) -> Option<&Registry> {
        None
    }

    /// The sweep-lifecycle tracer, for layered systems.
    fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        None
    }

    /// Whether an overloaded sweep must block the next allocation (§5.7).
    fn pause_needed(&self) -> bool {
        false
    }

    /// Whether a sweep should start now.
    fn sweep_needed(&self, _space: &AddrSpace) -> bool {
        false
    }

    /// Whether sweeps run beside the mutator rather than inside it.
    fn concurrent(&self) -> bool {
        true
    }

    /// Starts a sweep.
    fn start_sweep(&mut self, _space: &mut AddrSpace) {}

    /// Marks up to `word_budget` words of the in-flight sweep.
    fn sweep_step(&mut self, _space: &mut AddrSpace, _word_budget: u64) -> StepResult {
        StepResult { finished: true, ..StepResult::default() }
    }

    /// Finishes the in-flight sweep. Returns its report and the pages purged.
    fn finish_sweep(&mut self, _space: &mut AddrSpace) -> (SweepReport, u64) {
        (SweepReport::default(), 0)
    }

    /// Runs a garbage collection if one is due (MarkUs). Returns its
    /// critical-path cycles (before the sweeper threads split them), its
    /// background cycles, and the quarantined allocations it kept.
    fn collect(&mut self, _space: &mut AddrSpace, _cost: &CostModel) -> Option<(u64, u64, u64)> {
        None
    }

    /// Runs the background thread's periodic sweep (pSweeper). Returns the
    /// mutator's interference cycles and the background cycles.
    fn periodic_sweep(&mut self, _space: &mut AddrSpace, _cost: &CostModel) -> Option<(u64, u64)> {
        None
    }

    /// The security interpreter's turn: runs the sweep, collection or
    /// periodic sweep that is due and charges it into `ledger` as the
    /// engine's non-blocking fast-forward does, with the sweeper threads
    /// the engine gives a one-thread program. A collection's pause lands
    /// on `Stw`, a periodic sweep's mutator share on `Forensics`, and
    /// their background cycles on `MarkScan` wholesale.
    fn housekeep(&mut self, space: &mut AddrSpace, cost: &CostModel, ledger: &mut CostRecorder) {
        let threads = effective_threads(self, 1);
        if self.sweep_needed(space) {
            self.start_sweep(space);
            let (r, commits) = step_counting_commits(self, space, u64::MAX);
            drain_charge(cost, &r, commits, threads, self.concurrent(), Some(&mut *ledger));
            let (report, purged) = self.finish_sweep(space);
            finish_charge(cost, &report, purged, Some(&mut *ledger));
        } else if let Some((pause, background, _)) = self.collect(space, cost) {
            let charges = [(CostKind::Stw, pause / threads), (CostKind::MarkScan, background)];
            ledger.charge_all(&charges, None);
        }
        if let Some((mutator, background)) = self.periodic_sweep(space, cost) {
            let charges = [(CostKind::Forensics, mutator), (CostKind::MarkScan, background)];
            ledger.charge_all(&charges, None);
        }
    }

    /// A load through `word`. A gone or protected page is a hard fault.
    fn load(&mut self, space: &mut AddrSpace, word: u64) -> Access {
        space.read_word(Addr::new(word)).map_err(|_| ExploitOutcome::CleanTermination)
    }

    /// A store of `value` through `word`, judged like [`Defence::load`].
    fn store(&mut self, space: &mut AddrSpace, word: u64, value: u64) -> Access {
        let stored = space.write_word(Addr::new(word), value);
        stored.map(|()| value).map_err(|_| ExploitOutcome::CleanTermination)
    }

    /// Tag-mismatch detections raised so far (MTE only).
    fn detections(&self) -> u64 {
        0
    }
}

/// Instantiates `system`. `decay_cycles` is the JeMalloc-style heaps'
/// purge window, for the systems that own one directly.
pub(crate) fn build(system: System, decay_cycles: u64) -> Box<dyn Defence> {
    match system {
        System::Baseline => {
            Box::new(JAlloc::with_config(JallocConfig { decay_cycles, ..JallocConfig::stock() }))
        }
        System::MineSweeper(cfg) => {
            let jcfg = if cfg.purge_after_sweep {
                JallocConfig::minesweeper()
            } else {
                JallocConfig { end_padding: true, ..JallocConfig::stock() }
            };
            Box::new(MineSweeper::with_heap_config(cfg, JallocConfig { decay_cycles, ..jcfg }))
        }
        System::MarkUs(cfg) => Box::new(MarkUs::new(cfg)),
        System::FfMalloc => Box::new(FfMalloc::new(FfConfig::standard())),
        System::ScudoBaseline => Box::new(Scudo::new()),
        System::MineSweeperScudo(cfg) => Box::new(MineSweeper::with_backend(cfg, Scudo::new())),
        System::CrCount => Box::new(CrCount::new()),
        System::Oscar => Box::new(Oscar::new()),
        System::PSweeper => Box::new(PSweeper::new()),
        System::DangSan => Box::new(DangSan::new()),
    }
}

/// Sweeper threads `sys` runs with beside `program_threads` mutator
/// threads: its request, capped by the cores the program spares.
pub(crate) fn effective_threads<D: Defence + ?Sized>(sys: &D, program_threads: u64) -> u64 {
    let spare = (CostModel::desktop().cores as u64).saturating_sub(program_threads).max(1);
    sys.sweeper_threads().min(spare).max(1)
}

/// Marks up to `word_budget` words of the in-flight sweep. Returns the
/// step and the demand commits the sweeper took.
pub(crate) fn step_counting_commits<D: Defence + ?Sized>(
    sys: &mut D,
    space: &mut AddrSpace,
    word_budget: u64,
) -> (StepResult, u64) {
    let commits = space.stats().demand_commits;
    let r = sys.sweep_step(space, word_budget);
    (r, space.stats().demand_commits - commits)
}

/// Prices a sweep's mark drained in one step `r`, with `commits` demand
/// commits. The mark (skipped pages at a flat per-page lookup, forensics
/// pin edges included) takes `wall` cycles over the `threads` sweepers,
/// or over one when the sweep is not concurrent, and all `threads` are
/// charged for that wall. The mark lands on `MarkScan` wholesale and the
/// commits on `Commit`. Returns `(wall, mark, commit)`.
pub(crate) fn drain_charge(
    cost: &CostModel,
    r: &StepResult,
    commits: u64,
    threads: u64,
    concurrent: bool,
    ledger: Option<&mut CostRecorder>,
) -> (u64, u64, u64) {
    let markers = if concurrent { threads } else { 1 };
    let wall = (cost.mark_cost(r.bytes - r.skipped_bytes, r.skipped_bytes, r.heap_words)
        + r.pin_edges * cost.forensics_edge)
        / markers;
    let mark = wall * threads;
    let commit = commits * cost.demand_commit;
    if let Some(rec) = ledger {
        rec.charge_all(&[(CostKind::MarkScan, mark), (CostKind::Commit, commit)], None);
    }
    (wall, mark, commit)
}

/// Prices a finished sweep: the stop-the-world re-check per soft-dirty
/// page on `Stw`, and release per entry plus purge per page on `Release`.
/// Returns `(stw, release)`.
pub(crate) fn finish_charge(
    cost: &CostModel,
    report: &SweepReport,
    purged: u64,
    ledger: Option<&mut CostRecorder>,
) -> (u64, u64) {
    let stw = report.stw_pages * cost.stw_page;
    let release = report.released * cost.release_entry + purged * cost.purge_page;
    if let Some(rec) = ledger {
        rec.charge_all(&[(CostKind::Stw, stw), (CostKind::Release, release)], None);
    }
    (stw, release)
}

/// Runs `malloc` on a JeMalloc-style heap and charges it by the path it
/// took (tcache hit / arena / fresh mapping), read from `heap`'s stats
/// deltas.
fn jalloc_malloc<T>(
    sys: &mut T,
    heap: fn(&T) -> &JAlloc,
    malloc: impl FnOnce(&mut T) -> Addr,
    cost: &CostModel,
) -> (u64, u64) {
    let before = *heap(sys).stats();
    let base = malloc(sys);
    let after = heap(sys).stats();
    let cycles = if after.tcache_hits > before.tcache_hits {
        cost.malloc_fast
    } else if after.fresh_maps > before.fresh_maps || after.slabs_created > before.slabs_created {
        cost.malloc_fresh
    } else {
        cost.malloc_slow
    };
    (base.raw(), cycles)
}
