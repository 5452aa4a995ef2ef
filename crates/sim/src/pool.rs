//! Multi-tenant simulation: N mutators driving N arenas that share one
//! sweep scheduler and one helper pool.
//!
//! The single-system [`crate::Engine`] models the paper's setting — one
//! process, one heap, one sweeper. This driver models the deployment the
//! sharded layer exists for: every tenant replays its own
//! [`workloads::TraceGen`] stream against its own [`minesweeper::Arena`],
//! the [`minesweeper::SweepScheduler`] batches their quarantine pressure
//! into coalesced rounds, and one work-stealing helper pool marks every
//! scheduled arena in a single pass.
//!
//! Telemetry goes to **one shared registry**. Per-shard counters
//! (`arena/a{k}_*`) are copied from each layer's own statistics at
//! finalize, and the run's headline sweep and failed-free counts are
//! their sums. Each round report the runner bills also records one
//! `arena/a{k}_sweep_cycles` sample, so a shard's `a{k}_sweeps` counter
//! and that histogram's count are two independent sources for the same
//! number: `ms-report --check` compares them per shard, and a round
//! billed to the wrong shard (or a sweep the runner never billed) shows
//! up as a mismatch naming the shard.

use minesweeper::{ArenaPool, MsConfig};
use telemetry::{CostKind, CostRecorder, Histogram, IdMap, Registry};
use vmem::{Addr, Segment};
use workloads::{Op, Profile, TraceGen};

use crate::cost::CostModel;
use crate::metrics::RunMetrics;

/// Subsystem label for the shard counters and per-arena histograms.
pub const ARENA_SUBSYSTEM: &str = "arena";

/// Per-arena mutator state.
struct Tenant {
    ops: std::vec::IntoIter<Op>,
    /// id -> base for live allocations of this tenant.
    objects: IdMap<u64, Addr>,
    /// Next stack root slot a dangling free parks its stale pointer in.
    next_root: u64,
    /// Histograms for this arena on the shared registry.
    pause_cycles: Histogram,
    stw_cycles: Histogram,
    sweep_cycles: Histogram,
    done: bool,
}

/// Runs `profile` as `n` identically-shaped tenants (seeds `seed`,
/// `seed+1`, …) over one [`ArenaPool`] under `cfg`, interleaving the
/// mutator streams round-robin and letting the scheduler decide when each
/// arena sweeps. Returns metrics whose telemetry snapshot carries the
/// per-shard counters and per-arena pause/STW/sweep histograms.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn run_arenas(profile: &Profile, n: u32, seed: u64, cfg: MsConfig) -> RunMetrics {
    assert!(n > 0, "at least one arena");
    let cost = CostModel::desktop();
    let registry = Registry::new();
    let mut cost_rec = CostRecorder::new(&registry);
    let mut pool = ArenaPool::new(n, cfg);
    pool.set_helpers(cfg.helper_threads);
    let labels: Vec<String> = (0..n as usize).map(|k| pool.arena(k).id().label()).collect();
    let mut tenants: Vec<Tenant> = (0..n)
        .map(|k| {
            let ops: Vec<Op> =
                TraceGen::new(profile, seed.wrapping_add(k as u64)).collect();
            Tenant {
                ops: ops.into_iter(),
                objects: IdMap::default(),
                next_root: 0,
                pause_cycles: registry
                    .histogram(ARENA_SUBSYSTEM, &format!("a{k}_pause_cycles")),
                stw_cycles: registry
                    .histogram(ARENA_SUBSYSTEM, &format!("a{k}_stw_cycles")),
                sweep_cycles: registry
                    .histogram(ARENA_SUBSYSTEM, &format!("a{k}_sweep_cycles")),
                done: false,
            }
        })
        .collect();
    let mut metrics = RunMetrics {
        benchmark: profile.name.to_string(),
        system: format!("minesweeper-arenas{n}"),
        ..RunMetrics::default()
    };
    metrics.rss_series.push((0, 0));
    let mut now = 0u64;
    let mut background = 0u64;
    let run_cycles = profile.total_allocs.max(1) * profile.cycles_per_alloc.max(1);
    let sample_interval = (run_cycles / 256).max(10_000);
    let mut next_sample = sample_interval;
    let root_slots = profile.root_slots.max(1) as u64;

    // Round-robin over the tenants until every stream is drained.
    let mut active = n as usize;
    while active > 0 {
        for k in 0..n as usize {
            if tenants[k].done {
                continue;
            }
            let Some(op) = tenants[k].ops.next() else {
                tenants[k].done = true;
                active -= 1;
                continue;
            };
            match op {
                Op::Work(c) => now += c,
                Op::Alloc { id, size, site: _ } => {
                    metrics.allocs += 1;
                    let base = pool.arena_mut(k).malloc(size);
                    // Programs initialise what they allocate.
                    let _ = pool.arena_mut(k).space_mut().write_word(base, 1);
                    tenants[k].objects.insert(id, base);
                    now += cost.malloc_fast;
                }
                Op::Free { id } => {
                    metrics.frees += 1;
                    let Some(base) = tenants[k].objects.remove(&id) else {
                        continue;
                    };
                    // A dangling free parks a stale pointer to the dying
                    // object in one of this tenant's (rotating, hence
                    // eventually recycled) stack root slots.
                    let dangle =
                        (base.raw() >> 4).wrapping_mul(0x9e37_79b9) % 1000
                            < (profile.dangling_rate * 1000.0) as u64;
                    let st0 = pool.arena(k).ms().stats();
                    pool.arena_mut(k).free(base);
                    let st = pool.arena(k).ms().stats();
                    let zeroing = cost.zero_cost(st.zeroed_bytes - st0.zeroed_bytes);
                    let mut quarantine = cost.quarantine_insert;
                    if st.unmapped_pages > st0.unmapped_pages {
                        quarantine += cost.unmap_syscall;
                    }
                    cost_rec.charge(CostKind::Zeroing, zeroing, None, Some(&labels[k]));
                    cost_rec.charge(
                        CostKind::Quarantine,
                        quarantine,
                        None,
                        Some(&labels[k]),
                    );
                    now += zeroing + quarantine;
                    let slot = tenants[k].next_root % root_slots;
                    tenants[k].next_root += 1;
                    let root = pool.arena(k).space().layout().segment_base(Segment::Stack)
                        + slot * 8;
                    let value = if dangle { base.raw() } else { 0 };
                    pool.arena_mut(k)
                        .space_mut()
                        .write_word(root, value)
                        .expect("stack is mapped");
                }
                Op::Teardown => {}
            }
            sweep_if_due(
                &mut pool, &mut tenants, &cost, &mut cost_rec, &labels, &mut metrics,
                &mut now, &mut background,
            );
        }
        while now >= next_sample {
            let rss: u64 = pool.iter().map(|a| a.space().rss_bytes()).sum::<u64>()
                + pool.iter().map(|a| a.ms().quarantine().len() as u64 * 64).sum::<u64>();
            metrics.peak_rss = metrics.peak_rss.max(rss);
            metrics.rss_series.push((next_sample, rss));
            next_sample += sample_interval;
        }
    }

    // Finalize: copy each shard's own statistics, stamp scheduler
    // counters, snapshot once.
    for (arena, label) in pool.iter().zip(&labels) {
        let st = arena.ms().stats();
        registry
            .counter(ARENA_SUBSYSTEM, &format!("{label}_quarantined_bytes"))
            .add(st.quarantined_bytes);
        registry
            .counter(ARENA_SUBSYSTEM, &format!("{label}_released_bytes"))
            .add(st.released_bytes);
        registry
            .counter(ARENA_SUBSYSTEM, &format!("{label}_failed_frees"))
            .add(st.failed_frees);
        registry.counter(ARENA_SUBSYSTEM, &format!("{label}_sweeps")).add(st.sweeps);
        metrics.sweeps += st.sweeps;
        metrics.failed_frees += st.failed_frees;
    }
    registry.counter(ARENA_SUBSYSTEM, "arenas").add(n as u64);
    registry.counter(ARENA_SUBSYSTEM, "sched_rounds").add(pool.scheduler().rounds());
    registry
        .counter(ARENA_SUBSYSTEM, "sched_scheduled")
        .add(pool.scheduler().scheduled());
    registry
        .counter(ARENA_SUBSYSTEM, "sched_coalesced")
        .add(pool.scheduler().coalesced());

    let rss: u64 = pool.iter().map(|a| a.space().rss_bytes()).sum();
    metrics.peak_rss = metrics.peak_rss.max(rss);
    metrics.rss_series.push((now.max(1), rss));
    metrics.mutator_cycles = now.max(1);
    metrics.background_cycles = background;
    metrics.telemetry = Some(registry.snapshot());
    metrics
}

/// Gives the scheduler a chance to run one pooled round and charges its
/// costs: scheduler setup per scheduled arena, the pooled mark split over
/// the effective threads, stop-the-world pages to the mutator, and pause
/// time to any arena whose valve was already open when the round started.
#[allow(clippy::too_many_arguments)]
fn sweep_if_due(
    pool: &mut ArenaPool,
    tenants: &mut [Tenant],
    cost: &CostModel,
    cost_rec: &mut CostRecorder,
    labels: &[String],
    metrics: &mut RunMetrics,
    now: &mut u64,
    background: &mut u64,
) {
    if !pool.iter().any(|a| a.sweep_needed()) {
        return;
    }
    let paused: Vec<bool> = pool.iter().map(|a| a.ms().pause_needed()).collect();
    let round = pool.sweep_round();
    if round.swept.is_empty() {
        return;
    }
    *background += cost.sweep_round_setup * round.swept.len() as u64;
    let threads = (round.effective_helpers as u64 + 1).max(1);
    for ((id, report), stats) in round.swept.iter().zip(&round.mark_stats) {
        let k = id.raw() as usize;
        let arena = Some(labels[k].as_str());
        cost_rec.charge(CostKind::SchedSetup, cost.sweep_round_setup, None, arena);
        let (scan, skip) = cost.mark_cost_parts(
            stats.words * vmem::WORD_SIZE as u64,
            report.skipped_bytes,
            stats.heap_words,
        );
        cost_rec.charge(CostKind::MarkScan, scan, None, arena);
        cost_rec.charge(CostKind::SkipReplay, skip, None, arena);
        let mark = scan + skip;
        let wall = mark / threads;
        *background += mark;
        tenants[k].sweep_cycles.record(wall);
        let stw = report.stw_pages * cost.stw_page;
        if stw > 0 {
            *now += stw;
            metrics.stw_cycles += stw;
            tenants[k].stw_cycles.record(stw);
        }
        cost_rec.charge(CostKind::Stw, stw, None, arena);
        if paused[k] {
            // The valve was open: this tenant's mutator stalled for the
            // round's mark wall time.
            *now += wall;
            metrics.pause_cycles += wall;
            tenants[k].pause_cycles.record(wall);
            cost_rec.charge(CostKind::Stw, wall, None, arena);
        }
        let release = report.released * cost.release_entry;
        cost_rec.charge(CostKind::Release, release, None, arena);
        *background += release;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{LifetimeDist, SizeDist};

    fn fast_profile() -> Profile {
        Profile {
            total_allocs: 2_000,
            cycles_per_alloc: 300,
            size_dist: SizeDist::LogNormal { median: 64, sigma: 2.5, cap: 64 * 1024 },
            lifetime: LifetimeDist::Mixture(vec![
                (0.9, LifetimeDist::Exp(100.0)),
                (0.1, LifetimeDist::Exp(1_500.0)),
            ]),
            ..Profile::demo()
        }
    }

    #[test]
    fn arenas_run_sweeps_and_reconcile() {
        let m = run_arenas(&fast_profile(), 4, 7, MsConfig::fully_concurrent());
        assert!(m.sweeps > 0, "churn across 4 tenants must trigger rounds");
        let snap = m.telemetry.as_ref().expect("pool runs carry telemetry");
        assert_eq!(snap.counter(ARENA_SUBSYSTEM, "arenas"), Some(4));
        // The invariant ms-report --check gates on: each shard's layer
        // sweep count equals the round reports billed to it.
        let mut sweeps = 0;
        for k in 0..4 {
            let counted = snap.counter(ARENA_SUBSYSTEM, &format!("a{k}_sweeps")).unwrap_or(0);
            let billed = snap
                .histogram(ARENA_SUBSYSTEM, &format!("a{k}_sweep_cycles"))
                .map_or(0, |h| h.count());
            assert_eq!(counted, billed, "a{k}: layer sweeps vs billed rounds");
            sweeps += counted;
        }
        assert_eq!(sweeps, m.sweeps, "headline sweeps are the shard sum");
    }

    #[test]
    fn identical_seeds_reproduce() {
        let a = run_arenas(&fast_profile(), 3, 11, MsConfig::fully_concurrent());
        let b = run_arenas(&fast_profile(), 3, 11, MsConfig::fully_concurrent());
        assert_eq!(a.mutator_cycles, b.mutator_cycles);
        assert_eq!(a.sweeps, b.sweeps);
        assert_eq!(a.failed_frees, b.failed_frees);
    }

    #[test]
    fn scheduler_coalesces_under_shared_pressure() {
        let m = run_arenas(&fast_profile(), 4, 3, MsConfig::fully_concurrent());
        let snap = m.telemetry.as_ref().unwrap();
        let rounds = snap.counter(ARENA_SUBSYSTEM, "sched_rounds").unwrap_or(0);
        let scheduled = snap.counter(ARENA_SUBSYSTEM, "sched_scheduled").unwrap_or(0);
        assert!(rounds > 0);
        assert!(
            scheduled >= rounds,
            "every round schedules at least the due arena"
        );
    }

    #[test]
    fn dangling_tenants_fail_frees() {
        let p = Profile { dangling_rate: 0.3, ..fast_profile() };
        let m = run_arenas(&p, 2, 13, MsConfig::fully_concurrent());
        assert!(m.failed_frees > 0, "stale root pointers must pin entries");
    }
}
