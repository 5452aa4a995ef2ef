//! Property tests for the simulation engine: for arbitrary small
//! profiles, every system preserves the cross-cutting invariants (a
//! `cargo test`-sized version of the `soak` binary), and op ids are opaque
//! labels.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use sim::{run, run_trace, System};
use workloads::{LifetimeDist, Op, Profile, Rng, SizeDist, TraceGen};

fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        100u64..1_500,
        50u64..10_000,
        0.0f64..1.2,   // ptr_density
        0.0f64..0.03,  // dangling
        0.0f64..1.5,   // cache sensitivity
        1u32..5,       // phases
        0.0f64..0.3,   // phase_frac
    )
        .prop_map(|(allocs, cpa, ptr, dangling, sens, phases, pfrac)| Profile {
            total_allocs: allocs,
            cycles_per_alloc: cpa,
            size_dist: SizeDist::LogNormal { median: 96, sigma: 2.5, cap: 64 * 1024 },
            lifetime: LifetimeDist::Mixture(vec![
                (0.85, LifetimeDist::Exp(120.0)),
                (0.13, LifetimeDist::Exp(2_500.0)),
                (0.02, LifetimeDist::Permanent),
            ]),
            ptr_density: ptr,
            dangling_rate: dangling,
            cache_sensitivity: sens,
            phases,
            phase_frac: pfrac,
            ..Profile::demo()
        })
}

fn arb_system() -> impl Strategy<Value = System> {
    prop_oneof![
        Just(System::minesweeper_default()),
        Just(System::minesweeper_mostly()),
        Just(System::markus_default()),
        Just(System::FfMalloc),
        Just(System::ScudoBaseline),
        Just(System::minesweeper_scudo()),
        Just(System::CrCount),
        Just(System::Oscar),
        Just(System::PSweeper),
        Just(System::DangSan),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_system_any_profile_preserves_invariants(
        profile in arb_profile(),
        system in arb_system(),
        seed in any::<u64>(),
    ) {
        let base = run(&profile, System::Baseline, seed);
        prop_assert_eq!(base.allocs, profile.total_allocs);
        prop_assert_eq!(base.frees, profile.total_allocs);
        prop_assert_eq!(base.background_cycles, 0);

        let m = run(&profile, system, seed);
        prop_assert_eq!(m.allocs, profile.total_allocs);
        prop_assert_eq!(m.frees, profile.total_allocs, "no system may lose frees");
        // Sub-1.0 is legitimate: a bump allocator (FFmalloc) can beat the
        // arena path on zero-reuse micro-profiles, and aggressive purging
        // can shave baseline RSS costs — Figure 19's axis starts at 0.5.
        let slowdown = m.slowdown_vs(&base);
        prop_assert!((0.4..100.0).contains(&slowdown),
            "{}: slowdown {slowdown}", system.label());
        // RSS sanity: series is time-monotone and peak dominates it.
        for w in m.rss_series.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        let series_max = m.rss_series.iter().map(|&(_, r)| r).max().unwrap_or(0);
        prop_assert!(m.peak_rss >= series_max);
        prop_assert!(m.cpu_utilisation() >= 1.0 - 1e-9);
    }

    #[test]
    fn identical_seeds_identical_runs_for_any_system(
        profile in arb_profile(),
        system in arb_system(),
        seed in any::<u64>(),
    ) {
        let a = run(&profile, system, seed);
        let b = run(&profile, system, seed);
        prop_assert_eq!(a.mutator_cycles, b.mutator_cycles);
        prop_assert_eq!(a.background_cycles, b.background_cycles);
        prop_assert_eq!(a.peak_rss, b.peak_rss);
        prop_assert_eq!(a.sweeps, b.sweeps);
        prop_assert_eq!(a.failed_frees, b.failed_frees);
    }
}

/// Relabels `ops` with arbitrary unique ids drawn from `seed`: fresh ids
/// near 0, near `u64::MAX`, differing from those only above bit 32, or
/// anywhere, and ids that were freed earlier coming back for new objects.
/// A new id keeps its old id's residue modulo `root_slots` (the engine
/// roots an object in slot `id % root_slots`), so the same objects share
/// each root slot.
fn relabel(ops: &[Op], root_slots: u64, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let classes = root_slots.max(1);
    let mut freed: Vec<Vec<u64>> = vec![Vec::new(); classes as usize];
    let mut handed_out = HashSet::new();
    let mut label = HashMap::new();
    let mut fresh = |rng: &mut Rng, class: u64| loop {
        let near = rng.below(4) * classes;
        let raw = match rng.below(4) {
            0 => near,
            1 => u64::MAX - near,
            2 => rng.below(4) << 32 | near,
            _ => rng.next_u64(),
        };
        let floor = raw - raw % classes;
        let id = floor.checked_add(class).unwrap_or_else(|| floor - classes + class);
        if handed_out.insert(id) {
            break id;
        }
    };
    ops.iter()
        .map(|op| match *op {
            Op::Alloc { id, size, site } => {
                let pool = &mut freed[(id % classes) as usize];
                let new = if !pool.is_empty() && rng.chance(0.5) {
                    pool.swap_remove(rng.below(pool.len() as u64) as usize)
                } else {
                    fresh(&mut rng, id % classes)
                };
                label.insert(id, new);
                Op::Alloc { id: new, size, site }
            }
            Op::Free { id } => {
                let new = label.remove(&id).expect("trace frees live ids once");
                freed[(id % classes) as usize].push(new);
                Op::Free { id: new }
            }
            other => other,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Op ids are opaque labels: the engine hashes an id only to find its
    /// object's handle, and the handles it hands out do not depend on the
    /// ids. (Handle reuse under dangling slots is the same in both replays,
    /// so `model_digest.rs`'s pinned digests are what lock it.)
    #[test]
    fn any_injective_relabelling_replays_like_the_dense_trace(
        profile in arb_profile(),
        dangling in 0.05f64..0.5,
        seed in any::<u64>(),
        relabel_seed in any::<u64>(),
    ) {
        let profile = Profile { dangling_rate: dangling, ..profile };
        let dense: Vec<Op> = TraceGen::new(&profile, seed).collect();
        let sparse = relabel(&dense, u64::from(profile.root_slots), relabel_seed);
        for system in [
            System::Baseline,
            System::minesweeper_default(),
            System::markus_default(),
            System::CrCount,
        ] {
            let a = run_trace(&profile, system, seed, dense.iter().copied());
            let b = run_trace(&profile, system, seed, sparse.iter().copied());
            let label = system.label();
            prop_assert_eq!(
                (a.mutator_cycles, a.background_cycles, a.sweeps, a.failed_frees),
                (b.mutator_cycles, b.background_cycles, b.sweeps, b.failed_frees),
                "{}: headline metrics", label
            );
            prop_assert_eq!(
                (a.peak_rss, a.allocs, a.frees, a.pause_cycles, a.stw_cycles),
                (b.peak_rss, b.allocs, b.frees, b.pause_cycles, b.stw_cycles),
                "{}: memory, op counts and pauses", label
            );
            prop_assert_eq!(&a.rss_series, &b.rss_series, "{}: RSS series", label);
            prop_assert_eq!(&a.telemetry, &b.telemetry, "{}: telemetry snapshot", label);
        }
    }
}
