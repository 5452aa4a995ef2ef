//! `BENCHMARK.json`, the benchmark's declaration at the repository root:
//! its workloads, its metrics and each end-to-end metric's regression
//! bound. The file is compiled in, so the binary and the declaration it
//! was built with cannot drift apart at run time.

use minesweeper::telemetry::Json;

use crate::metrics::Better;

/// The declaration's text.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Spec {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<SpecMetric>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }

    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing list {key}"))
        };
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key}"))
        };
        let metric = |v: &Json| -> Result<SpecMetric, String> {
            let better = match text(v, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            };
            Ok(SpecMetric {
                name: text(v, "name")?,
                unit: text(v, "unit")?,
                better,
                bound: v.get("bound").and_then(Json::as_f64),
            })
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<_, String>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(metric)
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(m) = end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("BENCHMARK.json: {} has no bound", m.name));
        }
        let per_layer = list("per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workload::ALL;

    #[test]
    fn declaration_and_binary_agree_on_workloads() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        // Each `why` names the profile, system and N the binary uses.
        for ((_, why), w) in spec.workloads.iter().zip(ALL) {
            let tag = format!(
                "{} {} x {}, N={}",
                w.suite, w.bench, w.system_name, w.rounds
            );
            assert!(
                why.ends_with(&tag),
                "{}: why should end with {tag:?}",
                w.name
            );
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: why is one short line",
                w.name
            );
        }
    }

    #[test]
    fn declaration_and_binary_agree_on_metrics() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let pairs = [
            (&spec.end_to_end, &END_TO_END[..]),
            (&spec.per_layer, &PER_LAYER[..]),
        ];
        for (declared, ours) in pairs {
            assert_eq!(declared.len(), ours.len());
            for (m, d) in declared.iter().zip(ours) {
                assert_eq!(
                    (m.name.as_str(), m.unit.as_str(), m.better),
                    (d.name, d.unit, d.better)
                );
            }
        }
        assert!(spec.end_to_end.len() <= 16 && spec.per_layer.len() <= 128);
    }

    #[test]
    fn every_name_is_well_formed() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names = spec.workloads.iter().map(|(n, _)| n).chain(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| &m.name),
        );
        for n in names {
            assert!(!n.is_empty() && n.len() <= 64, "{n}");
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        let setup = setup
            .and_then(|m| m.bound)
            .expect("setup_s is declared with a bound");
        for m in &spec.end_to_end {
            let b = m.bound.expect("bounded");
            assert!(b > 0.0 && b <= 0.25 && b <= setup, "{}: {b}", m.name);
        }
    }
}
