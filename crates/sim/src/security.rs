//! The differential security matrix: every corpus scenario replayed
//! against every backend column, with verdicts, attack-window latency and
//! defence costs, serialised to the stable `SECURITY_matrix.json` wire
//! format.
//!
//! The runner is fully deterministic: scenario scripts are fixed or
//! seeded ([`workloads::exploit::fuzz_corpus`]), every backend's
//! randomness is seeded (Scudo), and [`SecurityMatrix::to_json`] emits
//! keys in a fixed order — so the same seed produces a byte-identical
//! document, which is what lets the committed `SECURITY_matrix.json` be a
//! golden fixture (`crates/sim/tests/security_corpus.rs`): any diff is a
//! real behaviour change.

use workloads::exploit::{corpus, fuzz_corpus, validate};

use crate::exploit::{run_scenario, ScenarioRun, SecSystem, Weaken};

/// Wire-format version of `SECURITY_matrix.json`. Schema 2 added the
/// per-cell `defence_cycles` total and `defence_kinds` breakdown; schema
/// 3 dropped the `counters` block, which only recounted the cells.
pub const SECURITY_SCHEMA: u32 = 3;

/// One (scenario, backend) cell of the matrix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SecCell {
    /// Scenario name (row).
    pub scenario: String,
    /// Backend label (column).
    pub backend: &'static str,
    /// The cell's verdict, counts and defence costs.
    pub run: ScenarioRun,
}

/// The full matrix plus the run's provenance.
#[derive(Clone, PartialEq, Debug)]
pub struct SecurityMatrix {
    /// Seed that drove the scenario fuzzer.
    pub seed: u64,
    /// Number of fuzzed scenarios appended to the named corpus.
    pub fuzz: u32,
    /// The weaken knob the run used (`"none"` for a real evaluation — a
    /// weakened run is permanently marked so it can never be mistaken for
    /// the committed matrix).
    pub weaken: &'static str,
    /// Backend column labels, in matrix order.
    pub backends: Vec<&'static str>,
    /// Scenario `(name, summary)` rows, in matrix order.
    pub scenarios: Vec<(String, String)>,
    /// Row-major cells (scenario-major, backend-minor).
    pub cells: Vec<SecCell>,
}

/// Runs the whole corpus — the named scenarios plus `fuzz` seeded random
/// ones — against every backend column.
///
/// # Panics
///
/// Panics if a generated scenario script fails
/// [`workloads::exploit::validate`]; the generators are well-formed by
/// construction, so this is a bug, not an input error.
pub fn run_corpus(seed: u64, fuzz: u32, weaken: Weaken) -> SecurityMatrix {
    let mut scenarios = corpus();
    scenarios.extend(fuzz_corpus(seed, fuzz));
    for sc in &scenarios {
        validate(&sc.steps).unwrap_or_else(|e| panic!("malformed scenario {}: {e}", sc.name));
    }
    let backends = SecSystem::all();

    let mut cells = Vec::with_capacity(scenarios.len() * backends.len());
    for sc in &scenarios {
        for sys in &backends {
            let run = run_scenario(sc, sys, weaken);
            cells.push(SecCell { scenario: sc.name.clone(), backend: sys.label(), run });
        }
    }

    SecurityMatrix {
        seed,
        fuzz,
        weaken: weaken.label(),
        backends: backends.iter().map(|s| s.label()).collect(),
        scenarios: scenarios.into_iter().map(|s| (s.name, s.summary)).collect(),
        cells,
    }
}

impl SecurityMatrix {
    /// Cells whose backend is `label`, in scenario order.
    pub fn column<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a SecCell> + 'a {
        self.cells.iter().filter(move |c| c.backend == label)
    }

    /// Serialises to the stable wire format: fixed key order, cells
    /// row-major — byte-identical for identical runs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let esc = telemetry::json::escape;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {SECURITY_SCHEMA},");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"fuzz\": {},", self.fuzz);
        let _ = writeln!(out, "  \"weaken\": \"{}\",", esc(self.weaken));
        let backends: Vec<String> =
            self.backends.iter().map(|b| format!("\"{}\"", esc(b))).collect();
        let _ = writeln!(out, "  \"backends\": [{}],", backends.join(", "));
        out.push_str("  \"scenarios\": [\n");
        for (i, (name, summary)) in self.scenarios.iter().enumerate() {
            let comma = if i + 1 < self.scenarios.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"summary\": \"{}\"}}{comma}",
                esc(name),
                esc(summary)
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"cells\": [\n");
        for (i, SecCell { scenario, backend, run: c }) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let window = match c.attack_window {
                Some(w) => w.to_string(),
                None => "null".to_string(),
            };
            // The defence cycles, nonzero kinds only (`CostKind::ALL` order).
            let mut kinds = String::new();
            for (label, v, _) in c.defence.kinds.iter().filter(|(_, v, _)| *v > 0) {
                if !kinds.is_empty() {
                    kinds.push_str(", ");
                }
                let _ = write!(kinds, "\"{label}\": {v}");
            }
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"backend\": \"{}\", \"verdict\": \"{}\", \
                 \"victim_reallocated\": {}, \"attack_window\": {window}, \
                 \"allocs\": {}, \"frees\": {}, \"judged\": {}, \"detections\": {}, \
                 \"defence_cycles\": {}, \"defence_kinds\": {{{kinds}}}}}{comma}",
                esc(scenario),
                esc(backend),
                c.outcome.label(),
                c.victim_reallocated,
                c.allocs,
                c.frees,
                c.judged,
                c.detections,
                c.defence.total,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::exploit::ExploitOutcome;

    #[test]
    fn corpus_covers_every_scenario_backend_pair() {
        let m = run_corpus(42, 2, Weaken::None);
        assert!(m.scenarios.len() >= 10, "8+ named + 2 fuzzed");
        assert_eq!(m.backends.len(), 10);
        assert_eq!(m.cells.len(), m.scenarios.len() * m.backends.len());
    }

    #[test]
    fn minesweeper_column_has_zero_compromised() {
        let m = run_corpus(42, 3, Weaken::None);
        for c in m.column("minesweeper") {
            assert_ne!(
                c.run.outcome,
                ExploitOutcome::Compromised,
                "minesweeper compromised by {}",
                c.scenario
            );
        }
    }

    #[test]
    fn baseline_column_is_compromised_somewhere() {
        let m = run_corpus(42, 0, Weaken::None);
        assert!(
            m.column("baseline").any(|c| c.run.outcome == ExploitOutcome::Compromised),
            "the unprotected baseline must fall to at least one scenario"
        );
    }

    #[test]
    fn matrix_json_is_deterministic() {
        let a = run_corpus(7, 3, Weaken::None).to_json();
        let b = run_corpus(7, 3, Weaken::None).to_json();
        assert_eq!(a, b, "same seed must serialise byte-identically");
    }

    #[test]
    fn weakened_run_is_marked_and_flips_minesweeper() {
        let m = run_corpus(42, 0, Weaken::QuarantineOff);
        assert_eq!(m.weaken, "quarantine-off");
        assert!(
            m.column("minesweeper").any(|c| c.run.outcome == ExploitOutcome::Compromised),
            "quarantine-off must reopen at least one scenario"
        );
    }

    #[test]
    fn json_parses_back() {
        let m = run_corpus(1, 1, Weaken::None);
        let doc = telemetry::json::Json::parse(&m.to_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_u64(), Some(u64::from(SECURITY_SCHEMA)));
        assert_eq!(
            doc.get("cells").unwrap().as_array().unwrap().len(),
            m.cells.len()
        );
        assert_eq!(doc.get("weaken").unwrap().as_str(), Some("none"));
    }
}
