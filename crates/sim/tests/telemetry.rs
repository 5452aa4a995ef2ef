//! Acceptance test for the telemetry pipeline (ISSUE: a deterministic sim
//! run with tracing enabled must produce a JSONL event stream and a
//! metrics snapshot whose aggregated totals exactly match the layer's
//! `MsStats` counters).

use sim::{Engine, System, ENGINE_SUBSYSTEM};
use telemetry::{JsonlSink, RunReport, SharedBuf, Snapshot};
use workloads::{LifetimeDist, Profile, SizeDist};

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

/// Runs one traced deterministic run; returns the JSONL text and metrics.
fn traced_run(system: System, seed: u64) -> (String, sim::RunMetrics) {
    let buf = SharedBuf::new();
    let mut eng = Engine::new(&fast_profile(), system, seed);
    assert!(eng.set_trace_sink(Box::new(JsonlSink::new(buf.clone())), true));
    let m = eng.run();
    (buf.contents(), m)
}

#[test]
fn trace_totals_match_layer_counters() {
    let (jsonl, m) = traced_run(System::minesweeper_default(), 7);
    let snap = m.telemetry.as_ref().expect("layered run exports a snapshot");
    let report = RunReport::from_jsonl(&jsonl).unwrap();
    assert!(!report.sweeps.is_empty(), "churn must trigger sweeps");

    // The full event/counter cross-check: sweeps, releases, bytes, failed
    // frees, swept bytes, STW pages and quarantine flushes all reconcile.
    report.reconcile(snap).expect("trace aggregates == registry counters");

    // Spot-check the headline counters against the derived RunMetrics.
    assert_eq!(report.sweeps.len() as u64, m.sweeps);
    assert_eq!(report.total_failed_frees(), m.failed_frees);
    assert_eq!(snap.counter("layer", "sweeps"), Some(m.sweeps));
    assert_eq!(snap.counter("layer", "released"), Some(report.total_released()));

    // Engine histograms live in the same snapshot: one sweep_cycles
    // observation per sweep.
    let sweep_h = snap.histogram(ENGINE_SUBSYSTEM, "sweep_cycles").unwrap();
    assert_eq!(sweep_h.count(), m.sweeps);
}

#[test]
fn mostly_concurrent_trace_reconciles_with_stw_events() {
    let (jsonl, m) = traced_run(System::minesweeper_mostly(), 9);
    let snap = m.telemetry.as_ref().unwrap();
    let report = RunReport::from_jsonl(&jsonl).unwrap();
    report.reconcile(snap).expect("mostly-concurrent trace reconciles");
    assert!(
        report.total_stw_pages() > 0,
        "mostly-concurrent sweeps must re-check soft-dirty pages"
    );
    assert!(jsonl.lines().any(|l| l.contains("\"stw_pass\"")));
}

/// A dangling-heavy profile: enough stale pointers survive frees that
/// sweeps reliably retain entries (long-lived pinners for forensics).
fn pinner_profile() -> Profile {
    Profile { dangling_rate: 0.05, ..fast_profile() }
}

#[test]
fn forensic_run_reconciles_and_attributes_pinners() {
    use minesweeper::{ForensicsMode, MsConfig};

    let cfg =
        MsConfig { forensics: ForensicsMode::Full, ..MsConfig::fully_concurrent() };
    let (jsonl, m) = {
        let buf = SharedBuf::new();
        let mut eng = Engine::new(&pinner_profile(), System::MineSweeper(cfg), 23);
        assert!(eng.set_trace_sink(Box::new(JsonlSink::new(buf.clone())), true));
        let m = eng.run();
        (buf.contents(), m)
    };
    let snap = m.telemetry.as_ref().unwrap();
    let report = RunReport::from_jsonl(&jsonl).unwrap();

    assert!(report.has_forensics(), "forensic events must appear in the trace");
    assert!(m.failed_frees > 0, "pinner profile must produce failed frees");
    assert!(
        snap.counter("layer", "pin_edges").unwrap_or(0) > 0,
        "dangling pointers must record provenance edges"
    );
    // The full forensic cross-check: pin-edge totals, ledger byte flow,
    // fail-event counts and the live pinned set all reconcile.
    report.reconcile(snap).expect("forensic trace reconciles");

    let table = report.pinner_table();
    assert!(table.contains("pinned sites"), "table:\n{table}");
    assert!(report.total_pin_hits() > 0);

    // Sampled mode records fewer edges but the ledger is exact, so the
    // reconciliation still holds.
    let cfg = MsConfig {
        forensics: ForensicsMode::Sampled(8),
        ..MsConfig::fully_concurrent()
    };
    let buf = SharedBuf::new();
    let mut eng = Engine::new(&pinner_profile(), System::MineSweeper(cfg), 23);
    assert!(eng.set_trace_sink(Box::new(JsonlSink::new(buf.clone())), true));
    let m = eng.run();
    let report = RunReport::from_jsonl(&buf.contents()).unwrap();
    report.reconcile(m.telemetry.as_ref().unwrap()).expect("sampled reconciles");
}

#[test]
fn deterministic_traces_are_bit_identical() {
    let (a, ma) = traced_run(System::minesweeper_default(), 11);
    let (b, mb) = traced_run(System::minesweeper_default(), 11);
    assert_eq!(a, b, "identical seeds must produce identical traces");
    assert_eq!(ma.telemetry, mb.telemetry);
    // And the snapshot survives its JSON round-trip.
    let snap = ma.telemetry.unwrap();
    assert_eq!(Snapshot::from_json(&snap.to_json()).unwrap(), snap);
}

#[test]
fn slo_policy_judges_the_final_snapshot_offline() {
    use telemetry::SloPolicy;

    // SLOs are judged after the run, from its snapshot alone (what
    // `ms-report --slo` does): the trace carries no verdicts.
    let (jsonl, m) = traced_run(System::minesweeper_mostly(), 9);
    let snap = m.telemetry.as_ref().unwrap();
    RunReport::from_jsonl(&jsonl).unwrap().reconcile(snap).expect("trace reconciles");

    // Impossible objectives: any sweep breaches a zero-cycle pause budget.
    let checks = SloPolicy::parse("stw=0,sweep=0").unwrap().evaluate(snap);
    let failed: Vec<&str> = checks.iter().filter(|c| !c.pass).map(|c| c.kind.as_str()).collect();
    assert_eq!(failed, ["stw", "sweep"], "{checks:?}");
    // A generous policy on the same snapshot passes.
    let checks = SloPolicy::parse(&format!("stw={}", u64::MAX)).unwrap().evaluate(snap);
    assert!(checks.iter().all(|c| c.pass && c.observed.is_some()), "{checks:?}");

    // Environment stamping: requested vs effective helpers and the scan
    // tier are first-class counters in the same snapshot.
    let requested = snap.counter(ENGINE_SUBSYSTEM, "requested_helpers");
    let effective = snap.counter(ENGINE_SUBSYSTEM, "effective_helpers");
    assert_eq!(requested, Some(7), "default config: 6 helpers + main sweeper");
    assert!(effective.unwrap_or(0) >= 1 && effective <= requested);
}
