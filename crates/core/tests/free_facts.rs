//! `MineSweeper::free_sited` reports what each free did ([`FreeFacts`]).
//! An embedding engine prices the free from those facts alone, so they
//! must equal the layer's own `stats()` delta around the same call, for
//! every kind of free under every config that changes the free path.

use minesweeper::{FreeFacts, FreeOutcome, MineSweeper, MsConfig, MsStats};
use vmem::{Addr, AddrSpace};

/// The configs whose knobs the free path reads.
fn configs() -> Vec<(&'static str, MsConfig)> {
    let d = MsConfig::default();
    vec![
        ("default", d),
        ("no quarantine", MsConfig { quarantine: false, ..d }),
        ("no zeroing", MsConfig { zeroing: false, ..d }),
        ("no unmapping", MsConfig { unmapping: false, ..d }),
        ("tl buffer 0", MsConfig { tl_buffer_capacity: 0, ..d }),
        ("tl buffer 1", MsConfig { tl_buffer_capacity: 1, ..d }),
        ("unmap from 0 pages", MsConfig { unmap_min_pages: 0, ..d }),
        ("unmap from 4 pages", MsConfig { unmap_min_pages: 4, ..d }),
        (
            "passthrough, zero and unmap from 0 pages",
            MsConfig { quarantine: false, unmap_min_pages: 0, ..d },
        ),
    ]
}

/// The counters a free's outcome moves, in order: quarantined, double
/// frees, invalid frees.
fn outcome_counts(s: &MsStats) -> [u64; 3] {
    [s.quarantined, s.double_frees, s.invalid_frees]
}

/// Frees `addr` and checks the returned facts against the stats delta.
fn free_checked(
    name: &str,
    ms: &mut MineSweeper,
    space: &mut AddrSpace,
    addr: Addr,
) -> FreeFacts {
    let before = ms.stats();
    let facts = ms.free_sited(space, addr, 7);
    let after = ms.stats();
    let delta = FreeFacts {
        outcome: facts.outcome,
        zeroed_bytes: after.zeroed_bytes - before.zeroed_bytes,
        unmapped_pages: after.unmapped_pages - before.unmapped_pages,
        flushed_entries: after.tl_flushed_entries - before.tl_flushed_entries,
    };
    assert_eq!(facts, delta, "{name}: facts differ from the stats delta");
    assert_eq!(
        facts.flushed_entries > 0,
        after.tl_flushes > before.tl_flushes,
        "{name}: a flush is reported exactly when one happened"
    );
    let moved = match facts.outcome {
        FreeOutcome::Quarantined => [1, 0, 0],
        FreeOutcome::DoubleFree => [0, 1, 0],
        FreeOutcome::Invalid => [0, 0, 1],
        FreeOutcome::Passthrough => [0, 0, 0],
    };
    let (b, a) = (outcome_counts(&before), outcome_counts(&after));
    assert_eq!([a[0] - b[0], a[1] - b[1], a[2] - b[2]], moved, "{name}: {:?}", facts.outcome);
    facts
}

#[test]
fn free_facts_equal_the_stats_delta_for_every_kind_of_free() {
    for (name, cfg) in configs() {
        let mut space = AddrSpace::new();
        let mut ms = MineSweeper::new(cfg);
        let (accepted, rejected) = if cfg.quarantine {
            (FreeOutcome::Quarantined, FreeOutcome::DoubleFree)
        } else {
            (FreeOutcome::Passthrough, FreeOutcome::Invalid)
        };

        // A small free.
        let small = ms.malloc(&mut space, 64);
        let facts = free_checked(name, &mut ms, &mut space, small);
        assert_eq!(facts.outcome, accepted, "{name}: small free");
        assert_eq!(facts.zeroed_bytes > 0, cfg.zeroing, "{name}: small free zeroes");

        // A large free whose interior pages are unmapped.
        let large = ms.malloc(&mut space, 64 * 1024);
        let facts = free_checked(name, &mut ms, &mut space, large);
        assert_eq!(facts.outcome, accepted, "{name}: large free");
        assert_eq!(facts.unmapped_pages > 0, cfg.unmapping, "{name}: large free unmaps");

        // Enough frees to fill the thread-local buffer at least once.
        let mut flushes = 0;
        for _ in 0..=cfg.tl_buffer_capacity {
            let p = ms.malloc(&mut space, 32);
            flushes += u64::from(free_checked(name, &mut ms, &mut space, p).flushed_entries > 0);
        }
        assert_eq!(flushes > 0, cfg.quarantine, "{name}: buffer flushes");

        // A double free: absorbed by the quarantine, or rejected up front
        // when frees pass through (the heap's cached block is not live).
        // Either way it touches nothing.
        let facts = free_checked(name, &mut ms, &mut space, small);
        assert_eq!(facts.outcome, rejected, "{name}: double free");
        assert_eq!(facts.zeroed_bytes, 0, "{name}: double free zeroes nothing");

        // An interior (invalid) free.
        let live = ms.malloc(&mut space, 64);
        let facts = free_checked(name, &mut ms, &mut space, live.add_bytes(8));
        let nothing = FreeFacts {
            outcome: FreeOutcome::Invalid,
            zeroed_bytes: 0,
            unmapped_pages: 0,
            flushed_entries: 0,
        };
        assert_eq!(facts, nothing, "{name}: interior free");
    }
}

#[test]
fn a_rejected_passthrough_free_zeroes_and_unmaps_nothing() {
    let cfg = MsConfig { quarantine: false, ..MsConfig::default() };
    let mut space = AddrSpace::new();
    let mut ms = MineSweeper::new(cfg);
    // A small-class block spanning whole pages: once freed it sits in the
    // allocator's cache, where it no longer answers `usable_size`, so the
    // repeat is refused before the layer zeroes or unmaps the cached
    // block (which the next malloc of its class hands out).
    let p = ms.malloc(&mut space, 12 * 1024);
    let name = "rejected passthrough";
    let first = free_checked(name, &mut ms, &mut space, p);
    assert_eq!(first.outcome, FreeOutcome::Passthrough);
    assert!(first.zeroed_bytes > 0 && first.unmapped_pages > 0, "{first:?}");
    let facts = free_checked(name, &mut ms, &mut space, p);
    let nothing = FreeFacts {
        outcome: FreeOutcome::Invalid,
        zeroed_bytes: 0,
        unmapped_pages: 0,
        flushed_entries: 0,
    };
    assert_eq!(facts, nothing);
}
