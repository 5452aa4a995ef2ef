//! Property-based tests for the MineSweeper layer.
//!
//! The headline property (§1.2): *if an aligned, unhidden pointer to any
//! byte of a freed allocation exists anywhere in swept memory, the
//! allocation is never recycled* — so a use-after-free can never become a
//! use-after-reallocate. Dually (precision): allocations with no such
//! pointers are released by the next sweep, and double frees are absorbed
//! exactly once.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use minesweeper::telemetry::{JsonlSink, RunReport, SharedBuf};
use minesweeper::{
    CandidateFilter, EdgeRecorder, ForensicsMode, FreeOutcome, MarkAccel, Marker, MineSweeper,
    MsConfig, NaiveShadowMap, PageCache, QEntry, ShadowMap, SweepPlan,
};
use vmem::{Addr, AddrSpace, Segment, PAGE_SIZE};

#[derive(Clone, Debug)]
enum Op {
    /// Allocate `size` bytes; object id = running counter.
    Malloc { size: u64 },
    /// Write a pointer to object `to` into root slot `slot`.
    Point { slot: u8, to: usize },
    /// Clear root slot `slot`.
    Unpoint { slot: u8 },
    /// Free object `n` (possibly already freed: double free).
    Free { n: usize },
    /// Run a full sweep.
    Sweep,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (8u64..9000).prop_map(|size| Op::Malloc { size }),
        3 => (0u8..16, any::<usize>()).prop_map(|(slot, to)| Op::Point { slot, to }),
        2 => (0u8..16).prop_map(|slot| Op::Unpoint { slot }),
        3 => any::<usize>().prop_map(|n| Op::Free { n }),
        1 => Just(Op::Sweep),
    ]
}

fn run_scenario(cfg: MsConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut space = AddrSpace::new();
    let mut ms = MineSweeper::new(cfg);
    let stack = space.layout().segment_base(Segment::Stack);

    // Model state.
    let mut objects: Vec<(Addr, u64)> = Vec::new(); // id -> (base, usable)
    let mut live: BTreeSet<usize> = BTreeSet::new();
    let mut freed: BTreeSet<usize> = BTreeSet::new(); // freed, not yet recycled
    let mut roots: BTreeMap<u8, usize> = BTreeMap::new(); // slot -> object id

    for op in ops {
        match op {
            Op::Malloc { size } => {
                let a = ms.malloc(&mut space, size);
                let usable = ms.heap().usable_size(a).unwrap();
                // Reallocation may reuse a base that belonged to a freed,
                // since-released object; the old id stays in `objects` but
                // is no longer freed/live.
                objects.push((a, usable));
                live.insert(objects.len() - 1);
            }
            Op::Point { slot, to } => {
                if objects.is_empty() {
                    continue;
                }
                let id = to % objects.len();
                roots.insert(slot, id);
                space
                    .write_word(stack + slot as u64 * 8, objects[id].0.raw())
                    .unwrap();
            }
            Op::Unpoint { slot } => {
                roots.remove(&slot);
                space.write_word(stack + slot as u64 * 8, 0).unwrap();
            }
            Op::Free { n } => {
                if live.is_empty() {
                    continue;
                }
                let &id = live.iter().nth(n % live.len()).unwrap();
                let outcome = ms.free(&mut space, objects[id].0);
                prop_assert_eq!(outcome, FreeOutcome::Quarantined);
                live.remove(&id);
                freed.insert(id);
                // Double-freeing right away must be absorbed.
                if n % 3 == 0 {
                    prop_assert_eq!(
                        ms.free(&mut space, objects[id].0),
                        FreeOutcome::DoubleFree
                    );
                }
            }
            Op::Sweep => {
                if ms.quarantine().is_empty() {
                    continue;
                }
                ms.sweep_now(&mut space);
                let rooted: BTreeSet<Addr> =
                    roots.values().map(|&id| objects[id].0).collect();
                let mut recycled = Vec::new();
                for &id in &freed {
                    let (base, _) = objects[id];
                    if rooted.contains(&base) {
                        // SAFETY PROPERTY: a rooted dangling pointer must
                        // pin the allocation in quarantine.
                        prop_assert!(
                            ms.quarantine().contains(base),
                            "object {id} at {base} recycled despite dangling root"
                        );
                    } else if !ms.quarantine().contains(base) {
                        recycled.push(id);
                    }
                }
                for id in recycled {
                    freed.remove(&id);
                }
            }
        }

        // Inter-step invariants: every live object is intact in the heap.
        for &id in &live {
            let (base, usable) = objects[id];
            prop_assert_eq!(ms.heap().usable_size(base), Some(usable));
        }
    }

    // Final sweep twice with all roots cleared: everything freed must
    // drain out of quarantine (no leaks from the mitigation itself).
    for slot in 0..16u8 {
        space.write_word(stack + slot as u64 * 8, 0).unwrap();
    }
    ms.sweep_now(&mut space);
    ms.sweep_now(&mut space);
    prop_assert!(
        ms.quarantine().is_empty(),
        "{} entries leaked in quarantine",
        ms.quarantine().len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fully_concurrent_never_recycles_reachable_danglers(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        run_scenario(MsConfig::fully_concurrent(), ops)?;
    }

    #[test]
    fn mostly_concurrent_never_recycles_reachable_danglers(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        run_scenario(MsConfig::mostly_concurrent(), ops)?;
    }

    #[test]
    fn unoptimised_config_preserves_safety(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        // Zeroing off: quarantine may retain more (stale pointers inside
        // quarantined data), but the safety direction must still hold, and
        // nothing live may be disturbed. Drain checks don't apply, so run
        // a reduced scenario without the final leak assertion.
        let mut cfg = MsConfig::ablation_unoptimised();
        cfg.zeroing = true; // leak-freedom needs zeroing; keep safety focus
        run_scenario(cfg, ops)?;
    }

    #[test]
    fn shadow_map_agrees_with_naive_reference(
        // Addresses span two level-1 directory slots, so chunk, table and
        // word boundaries are all crossed.
        addrs in proptest::collection::vec(0u64..(1u64 << 35), 1..250),
        queries in proptest::collection::vec((0u64..(1u64 << 35), 0u64..65_536), 1..120),
    ) {
        // Differential test: the radix map, marked through its
        // write-combining writer and through direct marks, against the
        // seed's naive map — same newly-set verdicts, same count, same
        // granules, same word-masked range queries.
        let mut via_writer = ShadowMap::new();
        let mut direct = ShadowMap::new();
        let mut slow = NaiveShadowMap::new();
        {
            let mut w = via_writer.writer();
            for &a in &addrs {
                let want = slow.mark(Addr::new(a));
                prop_assert_eq!(w.mark(Addr::new(a)), want);
                prop_assert_eq!(direct.mark(Addr::new(a)), want);
            }
        }
        for fast in [&via_writer, &direct] {
            prop_assert_eq!(fast.marked_count(), slow.marked_count());
            for &a in &addrs {
                prop_assert!(fast.is_marked(Addr::new(a)));
            }
            for &(start, len) in &queries {
                prop_assert_eq!(
                    fast.range_marked(Addr::new(start), len),
                    slow.range_marked(Addr::new(start), len),
                    "range [{:#x}, +{}) disagrees", start, len
                );
            }
        }
    }

    #[test]
    fn telemetry_balances_and_reconciles(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        // Two invariants over arbitrary scenarios:
        //  (a) byte conservation — every byte ever quarantined is either
        //      released or still in quarantine (swept or unmapped);
        //  (b) the sweep-lifecycle event stream aggregates to exactly the
        //      registry's counters (RunReport::reconcile). The stream is
        //      folded from its JSONL text, so every event also round-trips
        //      the wire format.
        let mut space = AddrSpace::new();
        let mut ms = MineSweeper::new(MsConfig::fully_concurrent());
        let buf = SharedBuf::new();
        ms.tracer_mut().set_sink(Box::new(JsonlSink::new(buf.clone())));
        ms.tracer_mut().set_deterministic(true);
        let stack = space.layout().segment_base(Segment::Stack);

        let mut objects: Vec<Addr> = Vec::new();
        let mut live: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Malloc { size } => {
                    objects.push(ms.malloc(&mut space, size));
                    live.insert(objects.len() - 1);
                }
                Op::Point { slot, to } => {
                    if !objects.is_empty() {
                        let id = to % objects.len();
                        space
                            .write_word(stack + slot as u64 * 8, objects[id].raw())
                            .unwrap();
                    }
                }
                Op::Unpoint { slot } => {
                    space.write_word(stack + slot as u64 * 8, 0).unwrap();
                }
                Op::Free { n } => {
                    if live.is_empty() {
                        continue;
                    }
                    let &id = live.iter().nth(n % live.len()).unwrap();
                    ms.free(&mut space, objects[id]);
                    live.remove(&id);
                    if n % 3 == 0 {
                        // Absorbed double frees must not skew the balance.
                        ms.free(&mut space, objects[id]);
                    }
                }
                Op::Sweep => {
                    ms.sweep_now(&mut space);
                }
            }
            let st = ms.stats();
            let q = ms.quarantine();
            prop_assert_eq!(
                st.quarantined_bytes,
                st.released_bytes + q.tracked_bytes() + q.unmapped_bytes(),
                "quarantined bytes must be released or still tracked"
            );
        }

        let report = match RunReport::from_jsonl(&buf.contents()) {
            Ok(report) => report,
            Err(e) => return Err(TestCaseError::fail(format!("trace does not parse: {e}"))),
        };
        let snap = ms.registry().snapshot();
        if let Err(e) = report.reconcile(&snap) {
            prop_assert!(false, "event/counter reconciliation failed: {}", e);
        }
    }

    #[test]
    fn incremental_sweep_is_equivalent_to_full_sweep(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        // Differential test for the incremental sweep: the same op
        // sequence drives three layers in lockstep —
        //   base: page cache off, candidate filter off (from-scratch);
        //   inc:  page cache on (digest replay), filter off;
        //   incf: page cache on AND candidate filter on.
        // After every sweep, `inc` must produce a shadow map identical to
        // `base` (the cache only replays provably-clean pages), and all
        // three must make identical release decisions (the filter drops
        // only marks no locked quarantine entry can observe).
        let cfg = |page_cache, candidate_filter| MsConfig {
            page_cache,
            candidate_filter,
            ..MsConfig::default()
        };
        let (base_cfg, inc_cfg, incf_cfg) = (cfg(false, false), cfg(true, false), cfg(true, true));
        let mut layers: Vec<(AddrSpace, MineSweeper<_>)> = [base_cfg, inc_cfg, incf_cfg]
            .into_iter()
            .map(|cfg| (AddrSpace::new(), MineSweeper::new(cfg)))
            .collect();
        let stack = layers[0].0.layout().segment_base(Segment::Stack);

        let mut objects: Vec<(Addr, u64)> = Vec::new();
        let mut live: BTreeSet<usize> = BTreeSet::new();
        let mut freed: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Malloc { size } => {
                    let addrs: Vec<Addr> = layers
                        .iter_mut()
                        .map(|(space, ms)| ms.malloc(space, size))
                        .collect();
                    // The allocator is deterministic, so lockstep drives
                    // must agree on placement — everything below relies
                    // on comparing the same addresses.
                    prop_assert!(addrs.iter().all(|&a| a == addrs[0]));
                    let usable = layers[0].1.heap().usable_size(addrs[0]).unwrap();
                    objects.push((addrs[0], usable));
                    live.insert(objects.len() - 1);
                }
                Op::Point { slot, to } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let id = to % objects.len();
                    for (space, _) in &mut layers {
                        space
                            .write_word(stack + slot as u64 * 8, objects[id].0.raw())
                            .unwrap();
                    }
                }
                Op::Unpoint { slot } => {
                    for (space, _) in &mut layers {
                        space.write_word(stack + slot as u64 * 8, 0).unwrap();
                    }
                }
                Op::Free { n } => {
                    if live.is_empty() {
                        continue;
                    }
                    let &id = live.iter().nth(n % live.len()).unwrap();
                    let outcomes: Vec<FreeOutcome> = layers
                        .iter_mut()
                        .map(|(space, ms)| ms.free(space, objects[id].0))
                        .collect();
                    prop_assert!(outcomes.iter().all(|&o| o == outcomes[0]));
                    live.remove(&id);
                    freed.insert(id);
                }
                Op::Sweep => {
                    if layers[0].1.quarantine().is_empty() {
                        continue;
                    }
                    for (space, ms) in &mut layers {
                        ms.sweep_now(space);
                    }
                    let (_, base) = &layers[0];
                    let (_, inc) = &layers[1];
                    let (_, incf) = &layers[2];
                    // Cache replay must reproduce the from-scratch shadow
                    // map bit for bit.
                    prop_assert_eq!(
                        base.shadow().marked_count(),
                        inc.shadow().marked_count(),
                        "cache replay changed the mark count"
                    );
                    for &(obj, usable) in &objects {
                        prop_assert_eq!(
                            base.shadow().range_marked(obj, usable),
                            inc.shadow().range_marked(obj, usable),
                            "cache replay flipped a mark over {}", obj
                        );
                    }
                    // All three agree on every release decision.
                    for &id in &freed {
                        let b = base.quarantine().contains(objects[id].0);
                        prop_assert_eq!(b, inc.quarantine().contains(objects[id].0));
                        prop_assert_eq!(b, incf.quarantine().contains(objects[id].0));
                    }
                    let (bs, is_, fs) = (base.stats(), inc.stats(), incf.stats());
                    prop_assert_eq!(bs.released, is_.released);
                    prop_assert_eq!(bs.released, fs.released);
                    prop_assert_eq!(bs.failed_frees, is_.failed_frees);
                    prop_assert_eq!(bs.failed_frees, fs.failed_frees);
                    freed.retain(|&id| base.quarantine().contains(objects[id].0));
                }
            }
        }

        // Drain: with roots cleared, every layer must empty its
        // quarantine within two sweeps and still agree on totals.
        for slot in 0..16u8 {
            for (space, _) in &mut layers {
                space.write_word(stack + slot as u64 * 8, 0).unwrap();
            }
        }
        for (space, ms) in &mut layers {
            ms.sweep_now(space);
            ms.sweep_now(space);
            prop_assert!(ms.quarantine().is_empty());
        }
        let totals: Vec<(u64, u64)> = layers
            .iter()
            .map(|(_, ms)| (ms.stats().released, ms.stats().failed_frees))
            .collect();
        prop_assert!(totals.iter().all(|&t| t == totals[0]), "totals diverged: {:?}", totals);
        // The accelerated layers actually exercised their machinery at
        // least once if anything swept (cache entries get recorded on
        // every scan).
        if layers[1].1.stats().sweeps > 0 {
            prop_assert!(!layers[1].1.page_cache().is_empty());
        }
    }

    #[test]
    fn forensics_preserves_decisions_and_conserves_ledger_bytes(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        sampled in any::<bool>(),
    ) {
        // Differential + conservation test for the forensics subsystem.
        // The same op sequence drives two layers in lockstep — forensics
        // off, and forensics full (or sampled) — and after every sweep:
        //  (a) release decisions are identical (recording is observation
        //      only: it may never flip a mark or retain an entry);
        //  (b) the failed-free ledger's pinned bytes equal the
        //      quarantine's failed bytes, and together with released
        //      bytes respect quarantine byte conservation;
        //  (c) the ledger_bytes_in/out counters balance to the ledger.
        use minesweeper::ForensicsMode;
        let mode = if sampled { ForensicsMode::Sampled(3) } else { ForensicsMode::Full };
        let off_cfg = MsConfig::fully_concurrent();
        let on_cfg = MsConfig { forensics: mode, ..MsConfig::fully_concurrent() };
        let mut layers: Vec<(AddrSpace, MineSweeper)> = [off_cfg, on_cfg]
            .into_iter()
            .map(|cfg| (AddrSpace::new(), MineSweeper::new(cfg)))
            .collect();
        let stack = layers[0].0.layout().segment_base(Segment::Stack);

        let mut objects: Vec<(Addr, u64)> = Vec::new();
        let mut live: BTreeSet<usize> = BTreeSet::new();
        let mut freed: BTreeSet<usize> = BTreeSet::new();
        let mut next_site = 1u32;
        for op in ops {
            match op {
                Op::Malloc { size } => {
                    let addrs: Vec<Addr> = layers
                        .iter_mut()
                        .map(|(space, ms)| ms.malloc(space, size))
                        .collect();
                    prop_assert!(addrs.iter().all(|&a| a == addrs[0]));
                    let usable = layers[0].1.heap().usable_size(addrs[0]).unwrap();
                    objects.push((addrs[0], usable));
                    live.insert(objects.len() - 1);
                }
                Op::Point { slot, to } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let id = to % objects.len();
                    for (space, _) in &mut layers {
                        space
                            .write_word(stack + slot as u64 * 8, objects[id].0.raw())
                            .unwrap();
                    }
                }
                Op::Unpoint { slot } => {
                    for (space, _) in &mut layers {
                        space.write_word(stack + slot as u64 * 8, 0).unwrap();
                    }
                }
                Op::Free { n } => {
                    if live.is_empty() {
                        continue;
                    }
                    let &id = live.iter().nth(n % live.len()).unwrap();
                    next_site += 1;
                    let outcomes: Vec<FreeOutcome> = layers
                        .iter_mut()
                        .map(|(space, ms)| {
                            ms.free_sited(space, objects[id].0, next_site).outcome
                        })
                        .collect();
                    prop_assert!(outcomes.iter().all(|&o| o == outcomes[0]));
                    live.remove(&id);
                    freed.insert(id);
                }
                Op::Sweep => {
                    if layers[0].1.quarantine().is_empty() {
                        continue;
                    }
                    for (space, ms) in &mut layers {
                        ms.sweep_now(space);
                    }
                    let off = &layers[0].1;
                    let on = &layers[1].1;
                    // (a) identical release decisions, entry by entry.
                    for &id in &freed {
                        prop_assert_eq!(
                            off.quarantine().contains(objects[id].0),
                            on.quarantine().contains(objects[id].0),
                            "forensics changed the fate of {}", objects[id].0
                        );
                    }
                    let (so, sn) = (off.stats(), on.stats());
                    prop_assert_eq!(so.released, sn.released);
                    prop_assert_eq!(so.released_bytes, sn.released_bytes);
                    prop_assert_eq!(so.failed_frees, sn.failed_frees);
                    // (b) ledger pinned bytes == quarantine failed bytes,
                    // and conservation holds with the ledger folded in.
                    let totals = on.ledger().totals();
                    prop_assert_eq!(totals.bytes, on.quarantine().failed_bytes());
                    let q = on.quarantine();
                    prop_assert_eq!(
                        sn.quarantined_bytes,
                        sn.released_bytes + q.tracked_bytes() + q.unmapped_bytes(),
                        "ledger recording broke byte conservation"
                    );
                    prop_assert!(totals.bytes <= q.tracked_bytes() + q.unmapped_bytes());
                    // (c) the flow counters balance to the live ledger.
                    let snap = on.registry().snapshot();
                    let bytes_in = snap.counter("layer", "ledger_bytes_in").unwrap_or(0);
                    let bytes_out = snap.counter("layer", "ledger_bytes_out").unwrap_or(0);
                    prop_assert_eq!(totals.bytes, bytes_in - bytes_out);
                    // The off layer must never touch its ledger.
                    prop_assert_eq!(off.ledger().totals().entries, 0);
                    freed.retain(|&id| off.quarantine().contains(objects[id].0));
                }
            }
        }

        // Drain and re-check the final balance: an empty quarantine means
        // an empty ledger, with in == out.
        for slot in 0..16u8 {
            for (space, _) in &mut layers {
                space.write_word(stack + slot as u64 * 8, 0).unwrap();
            }
        }
        for (space, ms) in &mut layers {
            ms.sweep_now(space);
            ms.sweep_now(space);
            prop_assert!(ms.quarantine().is_empty());
        }
        let totals = layers[1].1.ledger().totals();
        prop_assert_eq!(totals.bytes, 0, "drained quarantine left ledger bytes");
        prop_assert_eq!(totals.entries, 0);
        let snap = layers[1].1.registry().snapshot();
        prop_assert_eq!(
            snap.counter("layer", "ledger_bytes_in"),
            snap.counter("layer", "ledger_bytes_out")
        );
        prop_assert_eq!(
            layers[0].1.stats().released,
            layers[1].1.stats().released
        );
    }

    #[test]
    fn malloc_free_roundtrip_is_stable_under_quarantine(
        sizes in proptest::collection::vec(8u64..100_000, 1..40)
    ) {
        // Alloc all, free all, sweep, repeatedly: everything must recycle
        // each round, and the mapped footprint must converge (best-fit
        // splitting may shuffle extents for a few rounds, but with no live
        // growth the layout reaches a fixed point — quarantine-induced
        // fragmentation is bounded, §3.2).
        let mut space = AddrSpace::new();
        let mut ms = MineSweeper::new(MsConfig::fully_concurrent());
        let mut mapped_history = Vec::new();
        for _round in 0..6 {
            let addrs: Vec<Addr> = sizes.iter().map(|&s| ms.malloc(&mut space, s)).collect();
            for &a in &addrs {
                ms.free(&mut space, a);
            }
            ms.sweep_now(&mut space);
            prop_assert!(ms.quarantine().is_empty());
            mapped_history.push(space.mapped_bytes());
        }
        let n = mapped_history.len();
        prop_assert_eq!(mapped_history[n - 1], mapped_history[n - 2],
            "mapped footprint must converge: {:?}", mapped_history);
    }
}

/// Builds one scan fixture for the differential kernel tests: `pages`
/// mapped source pages whose words are an LCG-driven mix of zeros, heap
/// pointers into a two-page target window, and junk — including the
/// exact heap boundary values (`lo - 8`, `hi - 8`, `hi`) every scan tier
/// must classify identically. The returned plan starts `start_off` words
/// in and stops `end_trim` words early, so the kernel's 32-word group
/// alignment, head scalar-up and tail remainder are all arbitrary.
fn scan_fixture(
    space: &mut AddrSpace,
    seed: u64,
    pages: u64,
    start_off: u64,
    end_trim: u64,
    zero_pct: u64,
    ptr_pct: u64,
) -> (SweepPlan, Addr) {
    let tbase = {
        let a = space.reserve_heap(2);
        space.map(a, 2).unwrap();
        a
    };
    let src = {
        let a = space.reserve_heap(pages);
        space.map(a, pages).unwrap();
        a
    };
    let layout = *space.layout();
    let lo = layout.segment_base(Segment::Heap).raw();
    let hi = layout.segment_end(Segment::Heap).raw();
    let mut r = seed | 1;
    let mut lcg = move || {
        r = r.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        r >> 11
    };
    for i in 0..pages * 512 {
        let roll = lcg() % 100;
        let v = if roll < zero_pct {
            0
        } else if roll < zero_pct + ptr_pct {
            tbase.raw() + lcg() % (2 * PAGE_SIZE as u64)
        } else {
            match lcg() % 8 {
                0 => lo.wrapping_sub(8), // just below the heap: rejected
                1 => hi,                 // one past the heap: rejected
                2 => hi - 8,             // last heap word: survivor
                3 => lo,                 // first heap word: survivor
                4 => 1,
                5 => u64::MAX,
                _ => lcg(), // arbitrary 53-bit junk
            }
        };
        space.write_word(src + i * 8, v).unwrap();
    }
    let total = pages * 512;
    let words = (total - start_off.min(total - 1)).saturating_sub(end_trim).max(1);
    (SweepPlan::from_ranges(vec![(src + start_off * 8, words * 8)]), tbase)
}

/// Folds a full accelerated mark of `plan` under one tier into a
/// comparable digest: the summed step counters, the shadow map's count
/// and granule-by-granule contents over the target window, the page
/// cache's recorded digests, and the forensic edge aggregates.
#[allow(clippy::type_complexity)]
fn run_tier(
    space: &mut AddrSpace,
    plan: &SweepPlan,
    tier: minesweeper::ScanTier,
    budget: u64,
    filter: Option<&CandidateFilter>,
    entries: Option<&[QEntry]>,
    tbase: Addr,
) -> ((u64, u64, u64, u64, u64, u64), u64, Vec<bool>, Vec<Option<Vec<u64>>>, u64, Vec<(u64, u64, u64)>) {
    let mut shadow = ShadowMap::new();
    let mut cache = PageCache::new();
    cache.begin_sweep(plan, &[], 1);
    let mut rec = entries.and_then(|e| EdgeRecorder::new(e, ForensicsMode::Full));
    let mut marker = Marker::new(plan.clone());
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    loop {
        let mut accel = MarkAccel {
            filter,
            cache: Some(&mut cache),
            qgen: 1,
            forensics: rec.as_mut(),
            tier: Some(tier),
        };
        let r = marker.step(space, &mut shadow, budget, &mut accel);
        totals.0 += r.words;
        totals.1 += r.bytes;
        totals.2 += r.heap_words;
        totals.3 += r.filter_rejects;
        totals.4 += r.skipped_bytes;
        totals.5 += r.pin_edges;
        if r.finished {
            break;
        }
    }
    let window: Vec<bool> = (0..2 * PAGE_SIZE as u64 / 16)
        .map(|g| shadow.is_marked(tbase + g * 16))
        .collect();
    let digests: Vec<Option<Vec<u64>>> = plan
        .ranges()
        .iter()
        .flat_map(|&(base, len)| {
            (0..len.div_ceil(PAGE_SIZE as u64))
                .map(move |k| base.add_bytes(k * PAGE_SIZE as u64).page())
        })
        .map(|pg| cache.lookup(pg).map(<[u64]>::to_vec))
        .collect();
    let (recorded, mut aggs) = rec
        .map(|r| {
            let a = r
                .aggregates()
                .into_iter()
                .map(|(base, agg)| (base, agg.hits, agg.src))
                .collect::<Vec<_>>();
            (r.recorded(), a)
        })
        .unwrap_or_default();
    aggs.sort_unstable();
    (totals, shadow.marked_count(), window, digests, recorded, aggs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_tiers_are_bit_identical_through_the_full_pipeline(
        seed in any::<u64>(),
        pages in 1u64..4,
        start_off in 0u64..70,
        end_trim in 0u64..70,
        zero_pct in 0u64..80,
        ptr_pct in 0u64..20,
        budget in 16u64..3000,
        filter_on in any::<bool>(),
        forensics_on in any::<bool>(),
    ) {
        // Differential test for the SIMD kernel (the tentpole): every
        // available tier — AVX2, SSE2, portable SWAR — must produce
        // bit-identical shadow maps, step counters, page digests,
        // filter-reject counts and forensic edges over arbitrary word
        // soup, arbitrary (unaligned) plan starts/ends and arbitrary
        // step budgets. SWAR is the reference; it contains no
        // platform-specific code.
        let mut space = AddrSpace::new();
        let (plan, tbase) =
            scan_fixture(&mut space, seed, pages, start_off, end_trim, zero_pct, ptr_pct);
        // Candidate region: the second target page only, so the filter
        // rejects roughly half the in-window pointers.
        let filter = CandidateFilter::build([(tbase + PAGE_SIZE as u64, PAGE_SIZE as u64)]);
        let filter = filter_on.then_some(&filter);
        let entries = [QEntry::new(tbase + PAGE_SIZE as u64, PAGE_SIZE as u64)];
        let entries = forensics_on.then_some(&entries[..]);

        let tiers = minesweeper::simd::available_tiers();
        let reference = run_tier(&mut space, &plan, tiers[tiers.len() - 1], budget, filter, entries, tbase);
        prop_assert_eq!(tiers[tiers.len() - 1], minesweeper::ScanTier::Swar);
        for &tier in &tiers[..tiers.len() - 1] {
            let got = run_tier(&mut space, &plan, tier, budget, filter, entries, tbase);
            prop_assert_eq!(&got, &reference, "tier {} diverges from swar", tier.as_str());
        }
    }

    #[test]
    fn adaptive_writer_matches_naive_on_runs_and_jumps(
        segs in proptest::collection::vec(
            (0u64..(1u64 << 30), 1u64..96), 1..40),
    ) {
        // The write-combining window is adaptive: sequential granule
        // runs open it, isolated marks take the direct path, and chunk /
        // line boundaries force flushes. Mark-by-mark "newly set"
        // verdicts, the final count, every granule of every run and its
        // neighbours, and range queries around each run must match the
        // naive reference for any interleaving of runs and jumps —
        // including re-marking granules a previous run already set.
        let mut fast = ShadowMap::new();
        let mut slow = NaiveShadowMap::new();
        {
            let mut w = fast.writer();
            for &(base, run) in &segs {
                for k in 0..run {
                    let a = Addr::new(base * 16 + k * 16);
                    prop_assert_eq!(w.mark(a), slow.mark(a), "verdict diverges at {}", a);
                }
            }
        }
        prop_assert_eq!(fast.marked_count(), slow.marked_count());
        for &(base, run) in &segs {
            for k in 0..=run + 1 {
                let a = Addr::new((base + k).saturating_sub(1) * 16);
                prop_assert_eq!(fast.is_marked(a), slow.is_marked(a), "granule {} disagrees", a);
            }
            let (start, end) = (base * 16, (base + run) * 16);
            for (q, len) in [
                (start.saturating_sub(64), 64),
                (start.saturating_sub(8), end - start + 16),
                (start + 8, end - start - 8),
                (end, 16),
                (end, 1024),
            ] {
                prop_assert_eq!(
                    fast.range_marked(Addr::new(q), len),
                    slow.range_marked(Addr::new(q), len),
                    "range [{:#x}, +{}) disagrees", q, len
                );
            }
        }
    }
}
