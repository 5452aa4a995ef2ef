//! The layer's counters have one writer, the layer itself, and two
//! readers: `MineSweeper::stats()` and the registry snapshot. After any
//! mix of frees and sweeps the two readers must agree on every counter.

use minesweeper::{FreeOutcome, MineSweeper, MsConfig, MsStats, LAYER_SUBSYSTEM};
use vmem::AddrSpace;

/// Every `MsStats` counter with its registry name.
fn by_name(s: &MsStats) -> [(&'static str, u64); 20] {
    [
        ("sweeps", s.sweeps),
        ("stw_passes", s.stw_passes),
        ("quarantined", s.quarantined),
        ("quarantined_bytes", s.quarantined_bytes),
        ("released", s.released),
        ("released_bytes", s.released_bytes),
        ("failed_frees", s.failed_frees),
        ("double_frees", s.double_frees),
        ("zeroed_bytes", s.zeroed_bytes),
        ("unmapped_pages", s.unmapped_pages),
        ("swept_bytes", s.swept_bytes),
        ("stw_pages", s.stw_pages),
        ("tl_flushes", s.tl_flushes),
        ("tl_flushed_entries", s.tl_flushed_entries),
        ("invalid_frees", s.invalid_frees),
        ("skipped_bytes", s.skipped_bytes),
        ("pages_skipped", s.pages_skipped),
        ("pages_replayed", s.pages_replayed),
        ("filter_rejects", s.filter_rejects),
        ("heap_words", s.heap_words),
    ]
}

/// Quarantines, double frees, invalid frees, a dangling pointer, a large
/// unmapped free and two sweeps; under a passthrough config the frees go
/// straight to the heap instead.
fn mixed_sequence(ms: &mut MineSweeper, space: &mut AddrSpace) -> Vec<FreeOutcome> {
    let mut outcomes = Vec::new();
    let small: Vec<_> = (0..40).map(|i| ms.malloc(space, 16 + 16 * (i % 8))).collect();
    let holder = ms.malloc(space, 64);
    space.write_word(holder, small[0].raw()).unwrap();
    for &p in &small {
        outcomes.push(ms.free(space, p));
    }
    outcomes.push(ms.free(space, small[1]));
    outcomes.push(ms.free(space, holder.add_bytes(8)));
    let large = ms.malloc(space, 64 * 1024);
    outcomes.push(ms.free(space, large));
    ms.sweep_now(space);
    space.write_word(holder, 0).unwrap();
    let late = ms.malloc(space, 48);
    outcomes.push(ms.free(space, late));
    ms.sweep_now(space);
    outcomes
}

#[test]
fn stats_equal_the_registry_snapshot_after_a_mixed_sequence() {
    let d = MsConfig::default();
    let configs = [
        ("fully concurrent", d),
        ("mostly concurrent", MsConfig::mostly_concurrent()),
        ("passthrough", MsConfig { quarantine: false, ..d }),
    ];
    for (name, cfg) in configs {
        let mut space = AddrSpace::new();
        let mut ms = MineSweeper::new(cfg);
        let outcomes = mixed_sequence(&mut ms, &mut space);
        let stats = ms.stats();
        let snap = ms.registry().snapshot();
        for (counter, value) in by_name(&stats) {
            assert_eq!(snap.counter(LAYER_SUBSYSTEM, counter), Some(value), "{name}: {counter}");
        }
        let seen = |o: FreeOutcome| outcomes.contains(&o);
        assert!(seen(FreeOutcome::Invalid), "{name}: an invalid free ran");
        assert!(stats.invalid_frees > 0 && stats.zeroed_bytes > 0, "{name}: {stats:?}");
        if cfg.quarantine {
            assert!(seen(FreeOutcome::Quarantined) && seen(FreeOutcome::DoubleFree), "{name}");
            assert!(stats.sweeps == 2 && stats.failed_frees > 0, "{name}: {stats:?}");
            assert!(stats.released > 0 && stats.unmapped_pages > 0, "{name}: {stats:?}");
        } else {
            assert!(seen(FreeOutcome::Passthrough), "{name}");
            assert_eq!(stats.quarantined, 0, "{name}");
        }
    }
}
