//! Metric names, units and directions — the binary's copy of what
//! `BENCHMARK.json` declares (a test keeps the two equal) — and the record
//! one workload's measurement produces.

use std::collections::BTreeMap;

use minesweeper::telemetry::Json;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric's declaration.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 3] = [
    def("run_wall_ms", "ms", Lower),
    def("setup_s", "s", Lower),
    def("peak_heap_mib", "MiB", Lower),
];

/// Per-layer metrics, from the traced pass and the substrate probe.
pub const PER_LAYER: [MetricDef; 29] = [
    def("engine.alloc_op_ms", "ms", Lower),
    def("engine.alloc_op_ns_p50", "ns", Lower),
    def("engine.alloc_op_ns_p99", "ns", Lower),
    def("engine.free_op_ms", "ms", Lower),
    def("engine.free_op_ns_p50", "ns", Lower),
    def("engine.free_op_ns_p99", "ns", Lower),
    def("engine.work_op_ms", "ms", Lower),
    def("engine.finalize_ms", "ms", Lower),
    def("engine.other_ms", "ms", Lower),
    def("layer.sweeps", "count", Lower),
    def("layer.start_sweep_ms", "ms", Lower),
    def("layer.start_sweep_us_p50", "us", Lower),
    def("layer.mark_ms", "ms", Lower),
    def("layer.mark_gib_per_s", "GiB/s", Higher),
    def("layer.mark_skip_ratio", "fraction", Higher),
    def("layer.stw_ms", "ms", Lower),
    def("layer.release_ms", "ms", Lower),
    def("layer.release_ns_per_entry", "ns", Lower),
    def("layer.failed_free_ratio", "fraction", Lower),
    def("layer.purge_ms", "ms", Lower),
    def("jalloc.malloc_ns_p50", "ns", Lower),
    def("jalloc.malloc_ns_p99", "ns", Lower),
    def("jalloc.free_ns_p50", "ns", Lower),
    def("jalloc.free_ns_p99", "ns", Lower),
    def("vmem.write_word_ns", "ns", Lower),
    def("vmem.fill_zero_ns_per_kib", "ns", Lower),
    def("workloads.ops", "count", Higher),
    def("trace.overhead_pct", "%", Lower),
    def("trace.unattributed_ms", "ms", Lower),
];

/// Whether a per-layer metric comes from the substrate probe, which
/// `--quick` skips.
pub fn from_probe(name: &str) -> bool {
    name.starts_with("jalloc.") || name.starts_with("vmem.")
}

/// Looks up a declared metric of either kind.
pub fn lookup(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .copied()
        .find(|d| d.name == name)
}

/// A pass/fail check on one workload's outputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Stable check name.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

impl Check {
    /// A check named `name` that passes when `ok`.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// One workload's measurement: every metric plus the evidence behind it.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// First quartile of the timed reps, aggregated like `run_wall_ms`.
    pub wall_q1: f64,
    /// Third quartile of the timed reps, aggregated like `run_wall_ms`.
    pub wall_q3: f64,
    /// Timed reps.
    pub wall_n: usize,
    /// `run_wall_ms` before scaling to reference host speed.
    pub raw_ms: f64,
    /// Median calibration-kernel time during the timed reps.
    pub kernel_ms: f64,
    /// Repetitions attempted (warm-up, timed and traced).
    pub attempted: u64,
    /// Repetitions that failed a check.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Host metadata, as a JSON object (not read back by
    /// [`Record::from_json`]).
    pub host: String,
}

impl Record {
    /// Share of attempted repetitions that failed.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every repetition and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The full record as one JSON object.
    pub fn to_json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                    c.name,
                    c.ok,
                    escape(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"error_rate\": {}, \"run_wall_ms\": {{\"q1\": {}, \"q3\": {}, \"n\": {}, \"raw\": {}, \"kernel_ms\": {}}}, \
             \"metrics\": {}, \"checks\": [{}], \"host\": {}}}",
            self.workload,
            self.correct(),
            self.attempted,
            self.failed,
            self.error_rate(),
            self.wall_q1,
            self.wall_q3,
            self.wall_n,
            self.raw_ms,
            self.kernel_ms,
            self.metrics_json(|_| true),
            checks.join(", "),
            self.host
        )
    }

    /// Reads a record back from [`Record::to_json`]'s output.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Record, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record without {k}"));
        let count = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("{k} is not a count"))
        };
        let wall = field("run_wall_ms")?;
        let stat = |k: &str| wall.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let Json::Obj(metrics) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let mut values = BTreeMap::new();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            values.insert(
                name.clone(),
                value.ok_or_else(|| format!("{name} has no value"))?,
            );
        }
        let checks = field("checks")?
            .as_array()
            .unwrap_or_default()
            .iter()
            .map(|c| {
                let text = |k: &str| {
                    c.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                let ok = c.get("ok").and_then(Json::as_bool) == Some(true);
                Check {
                    name: text("name"),
                    ok,
                    detail: text("detail"),
                }
            })
            .collect();
        Ok(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            values,
            wall_q1: stat("q1"),
            wall_q3: stat("q3"),
            wall_n: stat("n") as usize,
            raw_ms: stat("raw"),
            kernel_ms: stat("kernel_ms"),
            attempted: count("attempted")?,
            failed: count("failed")?,
            checks,
            host: String::new(),
        })
    }

    /// The `--workload` form's one-line result: end-to-end metrics, or
    /// per-layer ones with `trace`.
    pub fn result_line(&self, trace: bool) -> String {
        let pick = |name: &str| END_TO_END.iter().any(|d| d.name == name) != trace;
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(pick)
        )
    }

    fn metrics_json(&self, keep: impl Fn(&str) -> bool) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(name, v)| {
                let unit = lookup(name).map_or("", |d| d.unit);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// form carries; non-finite values (never produced by a passing run)
/// become 0 so the line stays valid JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(d
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-'));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let mut r = Record {
            workload: "w".into(),
            attempted: 2,
            wall_n: 3,
            ..Record::default()
        };
        r.values.insert("run_wall_ms".into(), 12.345678901);
        r.checks.push(Check::new("c", true, "quote \" ok".into()));
        r.host = "{}".into();
        let back =
            Record::from_json(&Json::parse(&r.to_json()).expect("valid JSON")).expect("parses");
        assert_eq!(back.values, r.values);
        assert_eq!(back.checks, r.checks);
        assert_eq!((back.attempted, back.failed, back.wall_n), (2, 0, 3));
        assert!(back.correct());
    }

    #[test]
    fn result_line_splits_metrics_by_trace_flag() {
        let mut r = Record {
            workload: "w".into(),
            attempted: 3,
            ..Record::default()
        };
        r.values.insert("run_wall_ms".into(), 1.5);
        r.values.insert("layer.sweeps".into(), 4.0);
        let plain = r.result_line(false);
        assert!(plain.contains("run_wall_ms") && !plain.contains("layer.sweeps"));
        let traced = r.result_line(true);
        assert!(traced.contains("\"layer.sweeps\": {\"value\": 4, \"unit\": \"count\"}"));
        assert!(traced.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    }
}
