//! Pinned model digest: the headline `RunMetrics` of every system on two
//! small profiles, asserted against constants.
//!
//! This is the refactor lock for the engine and the systems it drives: a
//! change that is meant to be behaviour-neutral (data-structure swaps,
//! dispatch refactors) must leave every row byte-identical. When a change
//! *intends* to move the model, update the rows from the failure message,
//! which prints the observed row in source form.
//!
//! The layered systems' deterministic JSONL traces are pinned too, as
//! content hashes: they carry the engine-stamped virtual time of every
//! sweep event.
//!
//! It also checks that the engine treats op ids as opaque labels: a trace
//! relabelled to sparse 64-bit ids replays exactly like the dense one.

use sim::{run, run_trace, Engine, RunMetrics, System};
use telemetry::{JsonlSink, SharedBuf};
use workloads::{LifetimeDist, Op, Profile, SizeDist, TraceGen};

/// `(mutator_cycles, background_cycles, sweeps, failed_frees, peak_rss,
/// allocs, frees)`.
type Digest = (u64, u64, u64, u64, u64, u64, u64);

fn digest(m: &RunMetrics) -> Digest {
    (
        m.mutator_cycles,
        m.background_cycles,
        m.sweeps,
        m.failed_frees,
        m.peak_rss,
        m.allocs,
        m.frees,
    )
}

/// The engine unit tests' `fast_profile()` shape: ~4k allocations.
fn fast_profile() -> Profile {
    Profile {
        total_allocs: 4_000,
        cycles_per_alloc: 300,
        size_dist: SizeDist::LogNormal { median: 64, sigma: 2.5, cap: 64 * 1024 },
        lifetime: LifetimeDist::Mixture(vec![
            (0.9, LifetimeDist::Exp(100.0)),
            (0.1, LifetimeDist::Exp(1_500.0)),
        ]),
        ..Profile::demo()
    }
}

/// Same size, but pointer-dense with many dangling references and a
/// phase collapse: stresses the incoming/outgoing slot bookkeeping and
/// failed frees.
fn dense_profile() -> Profile {
    Profile {
        ptr_density: 1.0,
        dangling_rate: 0.05,
        phases: 2,
        phase_frac: 0.2,
        ..fast_profile()
    }
}

/// A tiny live set where every word of a holder is a pointer and half the
/// references are left dangling: one holder often carries the same
/// `(offset, target)` slot twice, and a dangling draw on one copy meets an
/// erasure of the other. Erasing a slot clears every copy of it from the
/// holder, so this pins that batch semantics under a sweeping system and
/// under reference counting.
fn duplicate_slot_profile() -> Profile {
    Profile {
        total_allocs: 2_000,
        size_dist: SizeDist::Uniform(64, 512),
        lifetime: LifetimeDist::Exp(4.0),
        ptr_density: 8.0,
        dangling_rate: 0.5,
        ..fast_profile()
    }
}

fn systems() -> [System; 10] {
    [
        System::Baseline,
        System::minesweeper_default(),
        System::markus_default(),
        System::FfMalloc,
        System::ScudoBaseline,
        System::minesweeper_scudo(),
        System::CrCount,
        System::Oscar,
        System::PSweeper,
        System::DangSan,
    ]
}

fn check(
    profile: &Profile,
    seed: u64,
    systems: impl IntoIterator<Item = System>,
    expected: &[(&str, Digest)],
) {
    let mut mismatches = Vec::new();
    for (system, &(label, want)) in systems.into_iter().zip(expected) {
        assert_eq!(system.label(), label, "table order follows the system list");
        let got = digest(&run(profile, system, seed));
        if got != want {
            mismatches.push(format!("(\"{label}\", {got:?}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "model digest moved; observed rows:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn fast_profile_digest_is_pinned() {
    check(
        &fast_profile(),
        7,
        systems(),
        &[
            ("baseline", (1486779, 0, 0, 0, 81920, 4000, 4000)),
            ("minesweeper", (1877484, 290207, 6, 0, 225024, 4000, 4000)),
            ("markus", (2463124, 278403, 6, 14, 184896, 4000, 4000)),
            ("ffmalloc", (1725473, 0, 0, 0, 276944, 4000, 4000)),
            ("scudo", (1614952, 0, 0, 0, 65536, 4000, 4000)),
            ("minesweeper-scudo", (1782695, 287302, 7, 0, 163456, 4000, 4000)),
            ("crcount", (1720701, 0, 0, 0, 81920, 4000, 4000)),
            ("oscar", (5918873, 0, 0, 0, 159744, 4000, 4000)),
            ("psweeper", (1668156, 288342, 15, 0, 129784, 4000, 4000)),
            ("dangsan", (1815071, 0, 0, 0, 91328, 4000, 4000)),
        ],
    );
}

#[test]
fn dense_profile_digest_is_pinned() {
    check(
        &dense_profile(),
        11,
        systems(),
        &[
            ("baseline", (1559564, 0, 0, 0, 122880, 4000, 4000)),
            ("minesweeper", (1881497, 306999, 6, 67, 244736, 4000, 4000)),
            ("markus", (2493214, 302971, 6, 120, 210624, 4000, 4000)),
            ("ffmalloc", (1735980, 0, 0, 0, 325216, 4000, 4000)),
            ("scudo", (1664048, 0, 0, 0, 110592, 4000, 4000)),
            ("minesweeper-scudo", (1788617, 295243, 7, 89, 191488, 4000, 4000)),
            ("crcount", (2130374, 0, 0, 0, 145024, 4000, 4000)),
            ("oscar", (5926580, 0, 0, 0, 226216, 4000, 4000)),
            ("psweeper", (1753884, 338364, 16, 0, 175736, 4000, 4000)),
            ("dangsan", (2395367, 0, 0, 0, 163520, 4000, 4000)),
        ],
    );
}

#[test]
fn duplicate_slot_digest_is_pinned() {
    check(
        &duplicate_slot_profile(),
        3,
        [System::minesweeper_default(), System::CrCount],
        &[
            ("minesweeper", (874447, 177298, 9, 283, 142016, 2000, 2000)),
            ("crcount", (2900597, 0, 0, 0, 749680, 2000, 2000)),
        ],
    );
}

/// Recorded traces may use any unique `u64` ids. Relabelling every id with
/// an odd multiplier (and the top bit set) keeps ids unique and permutes
/// root-slot assignment (`id % root_slots`) without changing behaviour, so
/// every metric must match the dense-id replay. CRCount walks the incoming
/// and outgoing slot lists hardest.
#[test]
fn sparse_ids_replay_like_dense_ids() {
    let profile = dense_profile();
    let seed = 5;
    let dense: Vec<Op> = TraceGen::new(&profile, seed).collect();
    let sparse_id = |id: u64| id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63;
    let sparse: Vec<Op> = dense
        .iter()
        .map(|op| match *op {
            Op::Alloc { id, size, site } => Op::Alloc { id: sparse_id(id), size, site },
            Op::Free { id } => Op::Free { id: sparse_id(id) },
            other => other,
        })
        .collect();
    for system in [
        System::Baseline,
        System::minesweeper_default(),
        System::markus_default(),
        System::CrCount,
    ] {
        let a = run_trace(&profile, system, seed, dense.iter().copied());
        let b = run_trace(&profile, system, seed, sparse.iter().copied());
        let label = system.label();
        assert_eq!(digest(&a), digest(&b), "{label}: headline metrics");
        assert_eq!(a.rss_series, b.rss_series, "{label}: RSS series");
        assert_eq!(
            (a.pause_cycles, a.stw_cycles, a.sweep_demand_commits),
            (b.pause_cycles, b.stw_cycles, b.sweep_demand_commits),
            "{label}: pause/STW/demand commits"
        );
        assert_eq!(a.telemetry, b.telemetry, "{label}: telemetry snapshot");
    }
}

/// `Engine::run_ops` takes any op stream, so a freed id may come back as a
/// new object while slots that dangled at the old one still hold it. Those
/// slots must never be resolved to the new object. Relabelling the trace so
/// every allocation reuses the most recently freed id of its root-slot
/// class (`id % root_slots`) must replay exactly like the fresh ids.
#[test]
fn reused_ids_replay_like_fresh_ids() {
    let profile = dense_profile();
    let seed = 5;
    let fresh: Vec<Op> = TraceGen::new(&profile, seed).collect();
    let classes = profile.root_slots as u64;
    let mut freed: Vec<Vec<u64>> = vec![Vec::new(); classes as usize];
    let mut label = std::collections::HashMap::new();
    let mut reused = 0;
    let relabelled: Vec<Op> = fresh
        .iter()
        .map(|op| match *op {
            Op::Alloc { id, size, site } => {
                let new = freed[(id % classes) as usize].pop().unwrap_or(id);
                reused += u64::from(new != id);
                label.insert(id, new);
                Op::Alloc { id: new, size, site }
            }
            Op::Free { id } => {
                let new = label.remove(&id).expect("trace frees live ids");
                freed[(id % classes) as usize].push(new);
                Op::Free { id: new }
            }
            other => other,
        })
        .collect();
    assert!(reused > 1_000, "the relabelled trace must reuse ids: {reused}");
    for system in [
        System::Baseline,
        System::minesweeper_default(),
        System::markus_default(),
        System::CrCount,
    ] {
        let a = run_trace(&profile, system, seed, fresh.iter().copied());
        let b = run_trace(&profile, system, seed, relabelled.iter().copied());
        let label = system.label();
        assert_eq!(digest(&a), digest(&b), "{label}: headline metrics");
        assert_eq!(a.rss_series, b.rss_series, "{label}: RSS series");
        assert_eq!(a.telemetry, b.telemetry, "{label}: telemetry snapshot");
    }
}

/// FNV-1a over `bytes`: a dependency-free content hash for pinned traces.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The engine stamps every lifecycle event with its virtual clock, so the
/// deterministic JSONL of a layered run pins the engine's event timing,
/// not just its totals. Rows are `(system, bytes, fnv1a)`.
#[test]
fn dense_profile_trace_is_pinned() {
    let mut mismatches = Vec::new();
    for (system, len, hash) in [
        (System::minesweeper_default(), 7904, 0x6cc2256ebdf5b328),
        (System::minesweeper_mostly(), 8430, 0x466129070ac132e8),
        (System::minesweeper_scudo(), 8426, 0x4b6fd69b724af5e1),
    ] {
        let label = system.label();
        let buf = SharedBuf::new();
        let mut eng = Engine::new(&dense_profile(), system, 11);
        assert!(eng.set_trace_sink(Box::new(JsonlSink::new(buf.clone())), true));
        eng.run();
        let jsonl = buf.contents();
        let got = (jsonl.len(), fnv1a(jsonl.as_bytes()));
        if got != (len, hash) {
            mismatches.push(format!("{label}: {}, {:#018x}", got.0, got.1));
        }
    }
    assert!(mismatches.is_empty(), "engine trace moved; observed:\n{}", mismatches.join("\n"));
}
