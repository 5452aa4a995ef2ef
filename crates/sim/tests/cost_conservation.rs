//! Properties of the cost-attribution ledger: every dimension of the
//! ledger conserves (kinds and sites each sum to `cost/total_cycles`).

use proptest::prelude::*;

use sim::{run, CostLedger, RunMetrics, System};
use workloads::{LifetimeDist, Profile, SizeDist};

fn ledger_of(m: &RunMetrics) -> CostLedger {
    let snap = m.telemetry.as_ref().expect("layered run carries telemetry");
    CostLedger::from_snapshot(snap).expect("ledger is on by default for layered systems")
}

fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        100u64..1_200,
        50u64..8_000,
        0.0f64..1.2,  // ptr_density
        0.0f64..0.03, // dangling
    )
        .prop_map(|(allocs, cpa, ptr, dangling)| Profile {
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
            ..Profile::demo()
        })
}

fn arb_layered_system() -> impl Strategy<Value = System> {
    prop_oneof![
        Just(System::minesweeper_default()),
        Just(System::minesweeper_mostly()),
        Just(System::minesweeper_scudo()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ledger_conserves_across_every_dimension(
        profile in arb_profile(),
        system in arb_layered_system(),
        seed in any::<u64>(),
    ) {
        let m = run(&profile, system, seed);
        let ledger = ledger_of(&m);
        prop_assert_eq!(ledger.reconcile(), Vec::<String>::new());
        prop_assert_eq!(ledger.kind_sum(), ledger.total);
        let site_sum: u64 = ledger.sites.iter().map(|(_, v)| v).sum();
        prop_assert_eq!(site_sum, ledger.total);
        // A quarantining run always pays for at least its inserts.
        prop_assert!(ledger.total > 0, "layered run must be billed");
    }
}

#[test]
fn site_attribution_covers_the_free_path() {
    // The demo profile frees from many sites; zeroing + quarantine are
    // charged at the freeing site, sweeps stay unattributed ("none").
    let m = run(&Profile::demo(), System::minesweeper_default(), 7);
    let ledger = ledger_of(&m);
    assert!(
        ledger.sites.iter().any(|(k, v)| k != "none" && *v > 0),
        "free-path charges must land on real sites: {:?}",
        ledger.sites
    );
    assert!(
        ledger.sites.iter().any(|(k, _)| k == "none"),
        "sweep charges stay site-unattributed"
    );
}
