//! Cross-plane reconcile for the parallel marking path.
//!
//! The work-stealing [`parallel_mark_pool`] folds per-thread counters —
//! notably `filter_rejects` — into one [`ParallelMarkStats`] at join
//! time. This test drives those
//! aggregated stats through both telemetry planes (the `layer` counter
//! registry and the typed event trace) and checks that
//! [`RunReport::reconcile`] holds them equal, exactly as
//! `ms-report --check` does for a recorded run. Crediting only the main
//! thread's rejects — the bug the join-time fold exists to prevent —
//! must make the reconcile fail by name.

use minesweeper::telemetry::{Event, EventKind, Registry, RunReport, Trigger};
use minesweeper::{
    parallel_mark_pool, CandidateFilter, MarkAccel, Marker, MsCounters, ParallelMarkStats,
    PoolMarkJob, PoolMarkOpts, ShadowMap, SweepPlan,
};
use vmem::{Addr, AddrSpace, PAGE_SIZE};

/// Pointers written at the candidate / non-candidate targets.
const CANDIDATE_PTRS: u64 = 5;
const REJECTED_PTRS: u64 = 7;

/// Builds a 4-page source region holding [`CANDIDATE_PTRS`] pointers into
/// a quarantine candidate and [`REJECTED_PTRS`] pointers into a live
/// (non-candidate) allocation, spread across pages so every work-queue
/// chunk sees some of each.
fn fixture(space: &mut AddrSpace) -> (Addr, Addr, SweepPlan) {
    let heap = |space: &mut AddrSpace, pages| {
        let a = space.reserve_heap(pages);
        space.map(a, pages).unwrap();
        a
    };
    let candidate = heap(space, 1);
    let live = heap(space, 1);
    let src = heap(space, 4);
    let page = PAGE_SIZE as u64;
    for i in 0..CANDIDATE_PTRS {
        let slot = src + (i % 4) * page + (i / 4) * 128 + 8;
        space.write_word(slot, candidate.raw() + i * 8).unwrap();
    }
    for i in 0..REJECTED_PTRS {
        let slot = src + (i % 4) * page + (i / 4) * 128 + 64;
        space.write_word(slot, live.raw() + i * 8).unwrap();
    }
    (candidate, live, SweepPlan::from_ranges(vec![(src, 4 * page)]))
}

/// Marks `plan` through `filter` into a fresh map with `helpers`
/// requested helper threads.
fn pool_mark(
    space: &AddrSpace,
    plan: &SweepPlan,
    filter: &CandidateFilter,
    helpers: usize,
) -> (ShadowMap, ParallelMarkStats) {
    let shadow = ShadowMap::new();
    let job = PoolMarkJob {
        space,
        plan,
        shadow: &shadow,
        filter: Some(filter),
        cache: None,
        forensics: None,
    };
    let opts = PoolMarkOpts { helper_threads: helpers, ..PoolMarkOpts::default() };
    let stats = parallel_mark_pool(&job, &opts);
    (shadow, stats)
}

#[test]
fn parallel_rejects_reconcile_across_both_telemetry_planes() {
    let mut space = AddrSpace::new();
    let (candidate, live, plan) = fixture(&mut space);
    let filter = CandidateFilter::build([(candidate, CANDIDATE_PTRS * 8)]);

    // Parallel mark with the candidate filter: rejects are counted by
    // every worker and summed at join.
    let (shadow, stats) = pool_mark(&space, &plan, &filter, 3);
    assert_eq!(stats.filter_rejects, REJECTED_PTRS, "every live-pointer word rejected");
    assert_eq!(stats.heap_words, CANDIDATE_PTRS + REJECTED_PTRS);
    assert!(shadow.is_marked(candidate), "candidate marks survive the filter");
    assert!(!shadow.is_marked(live), "non-candidate marks suppressed");

    // The serial marker over the same plan and filter is the ground
    // truth the parallel aggregation must reproduce.
    let mut serial = ShadowMap::new();
    let r = Marker::new(plan.clone()).step(
        &mut space,
        &mut serial,
        u64::MAX,
        &mut MarkAccel { filter: Some(&filter), ..MarkAccel::default() },
    );
    assert_eq!(stats.filter_rejects, r.filter_rejects);
    assert_eq!(stats.heap_words, r.heap_words);
    assert_eq!(stats.words, r.words);

    // Plane 1: the layer counters, credited from the aggregated stats
    // the way `MineSweeper` credits its own parallel phase.
    let registry = Registry::new();
    let mut counters = MsCounters::register(&registry);
    counters.sweeps.inc();
    counters.swept_bytes.add(stats.words * 8);
    counters.heap_words.add(stats.heap_words);
    counters.filter_rejects.add(stats.filter_rejects);

    // Plane 2: the event trace for the same sweep.
    let events = vec![
        Event {
            seq: 0,
            vnow: 1,
            kind: EventKind::SweepStart {
                sweep: 1,
                trigger: Trigger::Manual,
                quarantine_bytes: CANDIDATE_PTRS * 8,
                quarantine_entries: 1,
            },
        },
        Event {
            seq: 1,
            vnow: 2,
            kind: EventKind::MarkPhase {
                sweep: 1,
                bytes: stats.words * 8,
                words: stats.words,
                skipped_bytes: 0,
                marked_granules: shadow.marked_count(),
                filter_rejects: stats.filter_rejects,
                wall_ns: 0,
                prof: None,
            },
        },
        Event { seq: 2, vnow: 3, kind: EventKind::SweepEnd { sweep: 1, wall_ns: 0, ledger: None } },
    ];
    let report = RunReport::from_events(&events);
    report.reconcile(&registry.snapshot()).expect("aggregated parallel stats must reconcile");

    // The regression this guards: crediting only the main thread's view
    // of the rejects (dropping the helpers' contributions) leaves
    // the counter short and the reconcile must say so by name.
    let broken = Registry::new();
    let mut short = MsCounters::register(&broken);
    short.sweeps.inc();
    short.swept_bytes.add(stats.words * 8);
    short.filter_rejects.add(stats.filter_rejects - 1);
    let err = report.reconcile(&broken.snapshot()).unwrap_err();
    assert!(err.contains("filter_rejects"), "mismatch must be named: {err}");
}

#[test]
fn parallel_reject_totals_are_thread_count_invariant() {
    // The aggregated totals are deterministic: identical for every
    // requested helper count (including counts the hardware clamps away)
    // and chunk granularity.
    let mut space = AddrSpace::new();
    let (candidate, _, plan) = fixture(&mut space);
    let filter = CandidateFilter::build([(candidate, CANDIDATE_PTRS * 8)]);
    for helpers in [0, 1, 3, 7] {
        let (_, stats) = pool_mark(&space, &plan, &filter, helpers);
        assert_eq!(stats.filter_rejects, REJECTED_PTRS, "helpers={helpers}");
        assert_eq!(stats.heap_words, CANDIDATE_PTRS + REJECTED_PTRS, "helpers={helpers}");
    }
}
