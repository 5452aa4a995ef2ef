//! The adversarial security corpus: the committed `SECURITY_matrix.json`
//! regenerates byte for byte and holds the hard floor, the matrix is
//! deterministic, and every scenario the generators can emit is
//! well-formed and runnable on every backend column. After an intended
//! verdict or format change, regenerate the fixture with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ms-sim --test security_corpus
//! ```

use proptest::prelude::*;

use sim::{run_corpus, run_scenario, SecSystem, Weaken};
use telemetry::json::Json;
use workloads::exploit::{corpus, fuzz_corpus, validate, ExploitOutcome};

const MATRIX: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SECURITY_matrix.json");

/// The committed matrix is exactly what `run_corpus(42, 3)` serialises
/// (`minesweeper-sim exploit --corpus --seed 42 --fuzz 3`), and — the hard
/// floor — no minesweeper cell in it is compromised.
#[test]
fn committed_matrix_regenerates() {
    let fresh = run_corpus(42, 3, Weaken::None).to_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(MATRIX, &fresh).unwrap();
    }
    let committed = std::fs::read_to_string(MATRIX)
        .expect("SECURITY_matrix.json missing; regenerate with UPDATE_GOLDEN=1");
    let doc = Json::parse(&committed).expect("SECURITY_matrix.json is not JSON");
    let cells = doc.get("cells").and_then(Json::as_array).expect("matrix has no cells");
    let field = |cell: &Json, key: &str| cell.get(key).and_then(Json::as_str).map(String::from);
    let compromised: Vec<String> = cells
        .iter()
        .filter(|c| {
            field(c, "backend").as_deref() == Some("minesweeper")
                && field(c, "verdict").as_deref() == Some("compromised")
        })
        .map(|c| field(c, "scenario").unwrap_or_default())
        .collect();
    assert!(compromised.is_empty(), "hard floor: minesweeper compromised by {compromised:?}");
    if let Some((line, (want, got))) = committed
        .lines()
        .zip(fresh.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "SECURITY_matrix.json drifted from run_corpus(42, 3) at line {}:\n  \
             committed: {want}\n  fresh:     {got}\nreview the verdicts and \
             regenerate with UPDATE_GOLDEN=1",
            line + 1
        );
    }
    assert_eq!(committed.len(), fresh.len(), "SECURITY_matrix.json drifted in length");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identical serialisation for identical (seed, fuzz) inputs —
    /// the invariant that lets any diff against the committed matrix be a
    /// real behaviour change rather than noise.
    #[test]
    fn corpus_is_deterministic(seed in any::<u64>(), fuzz in 0u32..4) {
        let a = run_corpus(seed, fuzz, Weaken::None);
        let b = run_corpus(seed, fuzz, Weaken::None);
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    /// Every fuzzed scenario passes the validator and runs to a verdict
    /// on every backend without opening an attack window the judge
    /// misses: if the victim was never reallocated, the window must be
    /// closed, and vice versa.
    #[test]
    fn fuzzed_scenarios_are_well_formed(seed in any::<u64>()) {
        for sc in fuzz_corpus(seed, 4) {
            prop_assert!(validate(&sc.steps).is_ok(), "{}", sc.name);
            for sys in SecSystem::all() {
                let run = run_scenario(&sc, &sys, Weaken::None);
                prop_assert_eq!(
                    run.attack_window.is_some(),
                    run.victim_reallocated,
                    "{} on {}: window/reuse disagree", sc.name, sys.label()
                );
                if run.outcome == ExploitOutcome::Compromised {
                    prop_assert!(
                        run.victim_reallocated,
                        "{} on {}: compromise without reuse", sc.name, sys.label()
                    );
                }
            }
        }
    }
}

/// The named corpus is fixed; pin its shape so a stray edit cannot
/// silently shrink the committed matrix.
#[test]
fn named_corpus_shape_is_pinned() {
    let named = corpus();
    assert!(named.len() >= 8, "ISSUE floor: at least 8 named scenarios");
    for sc in &named {
        assert!(validate(&sc.steps).is_ok(), "{}", sc.name);
        assert!(!sc.summary.is_empty(), "{} needs a summary", sc.name);
    }
    let mut names: Vec<_> = named.iter().map(|s| s.name.clone()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), named.len(), "scenario names must be unique");
}

/// Weakened matrices are permanently marked and differ from the real one.
#[test]
fn weakened_matrix_is_marked_and_distinct() {
    let real = run_corpus(42, 0, Weaken::None);
    let weak = run_corpus(42, 0, Weaken::QuarantineOff);
    assert_eq!(real.weaken, "none");
    assert_eq!(weak.weaken, "quarantine-off");
    assert_ne!(real.to_json(), weak.to_json());
    assert!(
        weak.column("minesweeper").any(|c| c.run.outcome == ExploitOutcome::Compromised),
        "quarantine-off must reopen minesweeper"
    );
    assert!(
        real.column("minesweeper").all(|c| c.run.outcome != ExploitOutcome::Compromised),
        "the real configuration must hold the line"
    );
}
