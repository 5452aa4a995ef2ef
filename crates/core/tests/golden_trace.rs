//! Golden-file test for the JSONL trace format.
//!
//! A fixed scenario in deterministic mode must keep producing
//! byte-identical JSONL — the format is a wire contract for `ms-report`
//! and any external tooling. Regenerate the fixture after an intentional
//! format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p minesweeper --test golden_trace
//! ```

use minesweeper::telemetry::{Event, JsonlSink, RunReport, SharedBuf};
use minesweeper::{
    tag_ptr, untag_ptr, ForensicsMode, MineSweeper, MsConfig, MteHeap, QUARANTINE_TAG,
};
use vmem::{AddrSpace, Segment};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trace.jsonl");
const GOLDEN_FORENSICS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trace_forensics.jsonl");
const GOLDEN_MTE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trace_mte.jsonl");
const GOLDEN_MTE_FORENSICS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trace_mte_forensics.jsonl");

/// A scripted run: allocate, wire one dangling pointer, free everything
/// (spilling the thread-local quarantine buffer), sweep twice — first
/// retaining the dangling target, then releasing it.
fn scripted_trace() -> String {
    let mut cfg = MsConfig::fully_concurrent();
    cfg.tl_buffer_capacity = 2;
    let mut space = AddrSpace::new();
    let mut ms = MineSweeper::new(cfg);
    let buf = SharedBuf::new();
    ms.tracer_mut().set_sink(Box::new(JsonlSink::new(buf.clone())));
    ms.tracer_mut().set_deterministic(true);

    let stack = space.layout().segment_base(Segment::Stack);
    let ptrs: Vec<_> = (0..4).map(|_| ms.malloc(&mut space, 256)).collect();
    // Root a dangling pointer to the first allocation.
    space.write_word(stack, ptrs[0].raw()).unwrap();
    for (i, &p) in ptrs.iter().enumerate() {
        ms.tracer_mut().set_virtual_now(1_000 * (i as u64 + 1));
        ms.free(&mut space, p);
    }
    ms.tracer_mut().set_virtual_now(10_000);
    ms.sweep_now(&mut space); // ptrs[0] fails, the rest release
    space.write_word(stack, 0).unwrap();
    ms.tracer_mut().set_virtual_now(20_000);
    ms.sweep_now(&mut space); // ptrs[0] drains
    ms.tracer_mut().flush();
    buf.contents()
}

/// The same scripted run with forensics on and per-free site ids: the
/// trace additionally carries `pin_edge` / `failed_free_aged` events and
/// ledger snapshots on every `sweep_end`.
fn scripted_forensic_trace() -> String {
    let mut cfg = MsConfig::fully_concurrent();
    cfg.tl_buffer_capacity = 2;
    cfg.forensics = ForensicsMode::Full;
    let mut space = AddrSpace::new();
    let mut ms = MineSweeper::new(cfg);
    let buf = SharedBuf::new();
    ms.tracer_mut().set_sink(Box::new(JsonlSink::new(buf.clone())));
    ms.tracer_mut().set_deterministic(true);

    let stack = space.layout().segment_base(Segment::Stack);
    let ptrs: Vec<_> = (0..4).map(|_| ms.malloc(&mut space, 256)).collect();
    space.write_word(stack, ptrs[0].raw()).unwrap();
    for (i, &p) in ptrs.iter().enumerate() {
        ms.tracer_mut().set_virtual_now(1_000 * (i as u64 + 1));
        ms.free_sited(&mut space, p, 40 + i as u32);
    }
    ms.tracer_mut().set_virtual_now(10_000);
    ms.sweep_now(&mut space); // ptrs[0] (site 40) fails, the rest release
    space.write_word(stack, 0).unwrap();
    ms.tracer_mut().set_virtual_now(20_000);
    ms.sweep_now(&mut space); // ptrs[0] drains
    ms.tracer_mut().flush();
    buf.contents()
}

#[test]
fn trace_format_matches_golden_file() {
    let got = scripted_trace();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("fixture missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(got, want, "JSONL trace drifted from the golden fixture");
}

#[test]
fn forensic_trace_format_matches_golden_file() {
    let got = scripted_forensic_trace();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_FORENSICS, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN_FORENSICS)
        .expect("fixture missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(got, want, "forensic JSONL trace drifted from the golden fixture");
}

#[test]
fn forensic_golden_parses_and_attributes_the_pinned_site() {
    let text = scripted_forensic_trace();
    for line in text.lines() {
        let ev = Event::from_json(line).expect("well-formed event line");
        assert_eq!(ev.to_json(), line, "event round-trip");
    }
    assert!(text.lines().any(|l| l.contains("\"pin_edge\"")), "{text}");
    assert!(text.lines().any(|l| l.contains("\"failed_free_aged\"")), "{text}");
    assert!(text.lines().any(|l| l.contains("\"ledger_entries\"")), "{text}");

    let report = RunReport::from_jsonl(&text).unwrap();
    // Same decisions as the forensics-off script...
    assert_eq!(report.sweeps.len(), 2);
    assert_eq!(report.total_failed_frees(), 1);
    assert_eq!(report.total_released(), 4);
    // ...plus attribution: the dangling root's target (site 40) is the
    // only pinned entry, and the first sweep's ledger carries its bytes.
    assert!(report.has_forensics());
    assert!(report.total_pin_hits() >= 1);
    assert!(report.pins.iter().all(|p| p.site == 40), "{:?}", report.pins);
    assert_eq!(report.aged.len(), 1, "{:?}", report.aged);
    assert_eq!(report.aged[0].site, 40);
    let first = report.sweeps.iter().find(|r| r.ledger.is_some()).unwrap();
    let ledger = first.ledger.unwrap();
    assert_eq!(ledger.entries, 1);
    assert!(ledger.bytes >= 256);
    // After the drain sweep the ledger is empty again.
    let last = report.sweeps.last().unwrap();
    assert_eq!(last.ledger.unwrap().entries, 0);
    // The forensics-off golden stays byte-identical: recording is opt-in.
    assert_ne!(text, scripted_trace());
}

#[test]
fn golden_trace_parses_and_aggregates() {
    let text = scripted_trace();
    // Every line must round-trip through the typed event parser.
    for line in text.lines() {
        let ev = Event::from_json(line).expect("well-formed event line");
        assert_eq!(ev.to_json(), line, "event round-trip");
    }
    let report = RunReport::from_jsonl(&text).unwrap();
    assert_eq!(report.sweeps.len(), 2);
    assert_eq!(report.total_failed_frees(), 1, "the rooted dangler fails once");
    assert_eq!(report.total_released(), 4, "all four allocations release");
    assert_eq!(report.flushes, 2, "4 frees spill a 2-entry buffer twice");
    // Deterministic mode zeroes wall-clock durations.
    assert!(report.sweeps.iter().all(|s| s.wall_ns == 0 && s.mark_wall_ns == 0));
    assert_eq!(report.sweeps[0].start_vnow, 10_000);
    assert_eq!(report.sweeps[1].start_vnow, 20_000);
}

/// A tag-aware MTE sweep pair ([`MteHeap::sweep_now_tag_aware`]): one
/// victim is reachable only through a stale-tagged pointer (released at
/// once), the other through a pointer carrying the quarantine tag (fails,
/// then drains once the pointer is cleared). No other test observes the
/// event stream of a sweep over a caller-provided shadow map.
fn mte_trace(forensics: ForensicsMode) -> String {
    let mut cfg = MsConfig::fully_concurrent();
    cfg.tl_buffer_capacity = 1;
    cfg.forensics = forensics;
    let mut ms = MineSweeper::new(cfg);
    let buf = SharedBuf::new();
    ms.tracer_mut().set_sink(Box::new(JsonlSink::new(buf.clone())));
    ms.tracer_mut().set_deterministic(true);
    let mut heap = MteHeap::with_backend_ms(ms);
    let mut space = AddrSpace::new();

    let stale = heap.malloc(&mut space, 64);
    let pinned = heap.malloc(&mut space, 192);
    let holder = heap.malloc(&mut space, 64);
    let (pinned_base, _) = untag_ptr(pinned);
    heap.store(&mut space, holder, stale).unwrap();
    heap.store(&mut space, holder + 8, tag_ptr(pinned_base, QUARANTINE_TAG)).unwrap();
    heap.free(&mut space, stale);
    heap.free(&mut space, pinned);
    let first = heap.sweep_now_tag_aware(&mut space);
    assert_eq!((first.released, first.failed), (1, 1));
    heap.store(&mut space, holder + 8, 0).unwrap();
    let second = heap.sweep_now_tag_aware(&mut space);
    assert_eq!((second.released, second.failed), (1, 0));
    drop(heap); // flushes the sink
    buf.contents()
}

#[test]
fn mte_tag_aware_sweep_events_match_golden_files() {
    for (forensics, path) in
        [(ForensicsMode::Off, GOLDEN_MTE), (ForensicsMode::Full, GOLDEN_MTE_FORENSICS)]
    {
        let got = mte_trace(forensics);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &got).unwrap();
        }
        let want = std::fs::read_to_string(path)
            .expect("fixture missing; regenerate with UPDATE_GOLDEN=1");
        assert_eq!(got, want, "{forensics:?}: MTE sweep trace drifted from {path}");
    }
}
