//! Workspace integration tests: the full stack (vmem → jalloc →
//! minesweeper/baselines → workloads → sim) exercised end to end.

use minesweeper_repro::baselines::{MarkUs, MarkUsConfig};
use minesweeper_repro::minesweeper::{FreeOutcome, HeapBackend, MineSweeper, MsConfig};
use minesweeper_repro::scudo::Scudo;
use minesweeper_repro::sim::{run, run_exploit, System};
use minesweeper_repro::vmem::AddrSpace;
use minesweeper_repro::workloads::exploit::{figure2_attack, ExploitOutcome};
use minesweeper_repro::workloads::{self, Profile};

/// The headline security claim, across the whole stack: the Figure 2
/// exploit compromises the baseline and is defeated by every mitigation.
#[test]
fn exploit_matrix_matches_paper_claims() {
    let baseline = run_exploit(&figure2_attack(), System::Baseline);
    assert_eq!(baseline.outcome, ExploitOutcome::Compromised);
    for sys in [
        System::minesweeper_default(),
        System::minesweeper_mostly(),
        System::markus_default(),
        System::FfMalloc,
    ] {
        let r = run_exploit(&figure2_attack(), sys);
        assert_ne!(r.outcome, ExploitOutcome::Compromised, "{} failed", sys.label());
        assert!(!r.victim_reallocated, "{} reallocated the victim", sys.label());
    }
}

/// MineSweeper and MarkUs agree on the verdict for simple shapes, and
/// MineSweeper's zeroing releases quarantine-internal structures MarkUs
/// keeps (Figure 6's simplification applied to a reachable chain).
#[test]
fn zeroing_vs_transitive_marking_semantics() {
    // Chain: root -> A -> B, then free both. MarkUs retains both (A is
    // rooted, A's pointer keeps B). MineSweeper zeroes A on free, so only
    // A (rooted) is retained and B is recycled.
    let mut space = AddrSpace::new();
    let mut ms = MineSweeper::new(MsConfig::fully_concurrent());
    let a = ms.malloc(&mut space, 64);
    let b = ms.malloc(&mut space, 64);
    space.write_word(a, b.raw()).unwrap();
    let stack = space.layout().segment_base(minesweeper_repro::vmem::Segment::Stack);
    space.write_word(stack, a.raw()).unwrap();
    ms.free(&mut space, a);
    ms.free(&mut space, b);
    let report = ms.sweep_now(&mut space);
    assert_eq!((report.failed, report.released), (1, 1), "MineSweeper: A kept, B freed");

    let mut space = AddrSpace::new();
    let mut mu = MarkUs::new(MarkUsConfig::standard());
    let a = mu.malloc(&mut space, 64);
    let b = mu.malloc(&mut space, 64);
    space.write_word(a, b.raw()).unwrap();
    let stack = space.layout().segment_base(minesweeper_repro::vmem::Segment::Stack);
    space.write_word(stack, a.raw()).unwrap();
    mu.free(&mut space, a);
    mu.free(&mut space, b);
    let report = mu.collect(&mut space);
    assert_eq!(report.retained, 2, "MarkUs: no zeroing, both retained");
}

/// A full simulated benchmark run under every system completes, frees
/// everything, and produces sane overhead ratios.
#[test]
fn demo_profile_runs_under_all_systems() {
    let profile = Profile::demo();
    let base = run(&profile, System::Baseline, 1234);
    assert_eq!(base.allocs, profile.total_allocs);
    assert_eq!(base.frees, profile.total_allocs);
    for sys in [
        System::minesweeper_default(),
        System::minesweeper_mostly(),
        System::markus_default(),
        System::FfMalloc,
    ] {
        let m = run(&profile, sys, 1234);
        assert_eq!(m.allocs, profile.total_allocs, "{}", sys.label());
        let slowdown = m.slowdown_vs(&base);
        assert!(
            (0.95..10.0).contains(&slowdown),
            "{}: slowdown {slowdown} out of range",
            sys.label()
        );
        let mem = m.memory_overhead_vs(&base);
        assert!((0.5..80.0).contains(&mem), "{}: memory {mem} out of range", sys.label());
    }
}

/// Double frees are absorbed end to end: one true free reaches the
/// allocator no matter how many times the program frees.
#[test]
fn double_free_is_idempotent_through_the_stack() {
    let mut space = AddrSpace::new();
    let mut ms = MineSweeper::new(MsConfig { report_double_frees: true, ..MsConfig::default() });
    let a = ms.malloc(&mut space, 128);
    assert_eq!(ms.free(&mut space, a), FreeOutcome::Quarantined);
    for _ in 0..10 {
        assert_eq!(ms.free(&mut space, a), FreeOutcome::DoubleFree);
    }
    ms.sweep_now(&mut space);
    assert_eq!(ms.heap().stats().frees, 1);
    assert_eq!(ms.stats().double_frees, 10);
}

/// Frees `a`, sweeps it back to the heap, then frees it again: the heap
/// may still cache the block, but the program no longer owns it, so the
/// re-free is invalid on every substrate.
fn refree_after_release<B: HeapBackend>(ms: &mut MineSweeper<B>, space: &mut AddrSpace) {
    let a = ms.malloc(space, 32);
    assert_eq!(ms.free(space, a), FreeOutcome::Quarantined);
    assert_eq!(ms.sweep_now(space).released, 1);
    assert_eq!(ms.free(space, a), FreeOutcome::Invalid, "re-free of a released block");
}

/// A re-free after release is rejected, and the next sweep runs clean.
#[test]
fn refree_after_release_is_invalid_and_the_next_sweep_survives() {
    fn check<B: HeapBackend>(mut ms: MineSweeper<B>) {
        let mut space = AddrSpace::new();
        refree_after_release(&mut ms, &mut space);
        let report = ms.sweep_now(&mut space);
        assert_eq!((report.released, report.failed), (0, 0));
        assert_eq!(ms.stats().invalid_frees, 1);
    }
    check(MineSweeper::new(MsConfig::default()));
    check(MineSweeper::with_backend(MsConfig::default(), Scudo::new()));
}

/// A block handed out again after a rejected re-free stays with its new
/// owner: the next sweep does not free it, and no later malloc returns it.
#[test]
fn refree_after_release_cannot_hand_a_block_to_two_owners() {
    fn check<B: HeapBackend>(mut ms: MineSweeper<B>) {
        let mut space = AddrSpace::new();
        refree_after_release(&mut ms, &mut space);
        let owned = ms.malloc(&mut space, 32);
        assert_eq!(ms.sweep_now(&mut space).released, 0);
        for _ in 0..64 {
            assert_ne!(ms.malloc(&mut space, 32), owned, "live block handed out twice");
        }
    }
    check(MineSweeper::new(MsConfig::default()));
    check(MineSweeper::with_backend(MsConfig::default(), Scudo::new()));
}

/// The allocation-heavy SPEC profiles trigger many more sweeps than the
/// compute-bound ones — Figure 14's shape, via the whole pipeline.
#[test]
fn sweep_count_ordering_follows_allocation_intensity() {
    let sweeps = |name: &str| {
        let p = workloads::spec2006::by_name(name).unwrap();
        // Shrink for test speed while keeping proportions.
        let p = Profile {
            total_allocs: (p.total_allocs / 10).max(200),
            ..p
        };
        run(&p, System::minesweeper_default(), 5).sweeps
    };
    let omnetpp = sweeps("omnetpp");
    let lbm = sweeps("lbm");
    let sjeng = sweeps("sjeng");
    assert!(omnetpp >= 5, "omnetpp must sweep repeatedly, got {omnetpp}");
    assert!(lbm <= 2, "lbm barely allocates, got {lbm}");
    assert!(sjeng <= 2, "sjeng barely allocates, got {sjeng}");
}

/// Deterministic reproduction across the whole stack: same seed, same
/// numbers; different seed, different trace.
#[test]
fn cross_stack_determinism() {
    let p = Profile { total_allocs: 3_000, ..Profile::demo() };
    let a = run(&p, System::minesweeper_default(), 77);
    let b = run(&p, System::minesweeper_default(), 77);
    assert_eq!(a.mutator_cycles, b.mutator_cycles);
    assert_eq!(a.background_cycles, b.background_cycles);
    assert_eq!(a.sweeps, b.sweeps);
    assert_eq!(a.peak_rss, b.peak_rss);
    let c = run(&p, System::minesweeper_default(), 78);
    assert_ne!(
        (a.mutator_cycles, a.peak_rss),
        (c.mutator_cycles, c.peak_rss),
        "different seeds should perturb the run"
    );
}

/// The full adversarial corpus through the whole stack: the differential
/// matrix covers every (scenario, backend) pair, the unprotected baseline
/// falls to at least one scenario, and the minesweeper column holds the
/// line with zero Compromised cells — the invariant the CI security gate
/// enforces against the committed baseline.
#[test]
fn security_corpus_differential_matrix() {
    use minesweeper_repro::sim::{run_corpus, Weaken};
    let m = run_corpus(42, 3, Weaken::None);
    assert!(m.scenarios.len() >= 8 + 3);
    assert_eq!(m.backends.len(), 10);
    assert_eq!(m.cells.len(), m.scenarios.len() * m.backends.len());
    assert!(m.column("baseline").any(|c| c.run.outcome == ExploitOutcome::Compromised));
    for c in m.column("minesweeper") {
        assert_ne!(
            c.run.outcome,
            ExploitOutcome::Compromised,
            "minesweeper compromised by {}",
            c.scenario
        );
        assert!(c.run.attack_window.is_none(), "{} opened a window", c.scenario);
    }
}
