//! Reading `results.json` back, and comparing two of them against the
//! bounds `BENCHMARK.json` declares.

use minesweeper::telemetry::Json;

use crate::metrics::{Better, Record};
use crate::spec::Spec;

/// A `setup_s` rise smaller than this never counts against the bound: a
/// change this short is mostly timer and scheduler noise.
const SETUP_FLOOR_S: f64 = 0.005;

/// Parses a `results.json` document into its workload records.
///
/// # Errors
///
/// A message naming the first malformed part.
pub fn parse_results(text: &str) -> Result<Vec<Record>, String> {
    let root = Json::parse(text).map_err(|e| e.to_string())?;
    root.get("workloads")
        .and_then(Json::as_array)
        .ok_or("results without a workloads list")?
        .iter()
        .map(Record::from_json)
        .collect()
}

/// One (workload, metric) comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in the first (parent) results, if present.
    pub a: Option<f64>,
    /// Value in the second (change) results, if present.
    pub b: Option<f64>,
    /// The metric's bound, for end-to-end metrics.
    pub bound: Option<f64>,
    /// Whether the change worsened the metric past its bound.
    pub regressed: bool,
}

impl Row {
    /// Relative change from `a` to `b`, in percent.
    pub fn delta_pct(&self) -> Option<f64> {
        match (self.a, self.b) {
            (Some(a), Some(b)) if a != 0.0 => Some((b - a) / a.abs() * 100.0),
            _ => None,
        }
    }
}

/// Compares every workload of `a` with the same workload of `b`.
/// End-to-end metrics regress when they worsen by more than their bound
/// (and more than their floor); `error_rate` regresses on any increase.
/// Per-layer metrics are listed without a verdict. A workload or
/// end-to-end metric missing from `b` counts as a regression.
pub fn compare(spec: &Spec, a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut rows = Vec::new();
    for pa in a {
        let pb = b.iter().find(|p| p.workload == pa.workload);
        let row = |metric: &str, bound: Option<f64>, regressed: &dyn Fn(f64, f64) -> bool| {
            let va = pa.values.get(metric).copied();
            let vb = pb.and_then(|p| p.values.get(metric).copied());
            let regressed = match (va, vb) {
                (Some(x), Some(y)) => regressed(x, y),
                (_, None) => bound.is_some(),
                (None, Some(_)) => false,
            };
            Row {
                workload: pa.workload.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                bound,
                regressed,
            }
        };
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let floor = if m.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let worse = |x: f64, y: f64| match m.better {
                Better::Lower => y - x,
                Better::Higher => x - y,
            };
            rows.push(row(&m.name, m.bound, &|x, y| {
                let w = worse(x, y);
                w > bound * x.abs() && w > floor
            }));
        }
        let (ea, eb) = (pa.error_rate(), pb.map_or(1.0, Record::error_rate));
        rows.push(Row {
            workload: pa.workload.clone(),
            metric: "error_rate".into(),
            a: Some(ea),
            b: Some(eb),
            bound: Some(0.0),
            regressed: eb > ea || pb.is_none(),
        });
        for m in &spec.per_layer {
            rows.push(row(&m.name, None, &|_, _| false));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workload::ALL;

    fn results(scale: impl Fn(&str, &str) -> f64) -> Vec<Record> {
        ALL.iter()
            .map(|w| Record {
                workload: w.name.to_string(),
                attempted: 10,
                values: END_TO_END
                    .iter()
                    .chain(&PER_LAYER)
                    .map(|d| (d.name.to_string(), 100.0 * scale(w.name, d.name)))
                    .collect(),
                ..Record::default()
            })
            .collect()
    }

    #[test]
    fn identical_results_pass() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let a = results(|_, _| 1.0);
        let rows = compare(&spec, &a, &a);
        assert!(rows.iter().all(|r| !r.regressed));
        let e2e = spec.end_to_end.len() + 1;
        assert_eq!(rows.len(), ALL.len() * (e2e + spec.per_layer.len()));
    }

    #[test]
    fn a_doubled_run_time_on_one_workload_is_flagged() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let a = results(|_, _| 1.0);
        let b = results(|w, m| {
            if (w, m) == ("gcc-mostly", "run_wall_ms") {
                2.0
            } else {
                1.0
            }
        });
        let flagged: Vec<_> = compare(&spec, &a, &b)
            .into_iter()
            .filter(|r| r.regressed)
            .collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!(
            (flagged[0].workload.as_str(), flagged[0].metric.as_str()),
            ("gcc-mostly", "run_wall_ms")
        );
        assert_eq!(flagged[0].delta_pct(), Some(100.0));
    }

    #[test]
    fn improvements_floors_and_per_layer_moves_pass_but_failures_do_not() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        // 1 ms of set-up: doubling it stays under the floor.
        let a = results(|_, m| if m == "setup_s" { 1e-5 } else { 1.0 });
        // Faster runs, a floored rise and a doubled per-layer metric are
        // not regressions.
        let b = results(|_, m| match m {
            "run_wall_ms" => 0.5,
            "setup_s" => 2e-5,
            "layer.mark_ms" => 2.0,
            _ => 1.0,
        });
        assert!(compare(&spec, &a, &b).iter().all(|r| !r.regressed));
        let mut failing = a.clone();
        failing[0].failed = 1;
        let rows = compare(&spec, &a, &failing);
        assert!(rows.iter().any(|r| r.regressed && r.metric == "error_rate"));
        let rows = compare(&spec, &a, &a[1..]);
        assert!(rows
            .iter()
            .any(|r| r.regressed && r.workload == ALL[0].name));
    }
}
