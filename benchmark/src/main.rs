//! Command line of the benchmark.
//!
//! ```text
//! ms-benchmark run [--seed 42] [--out DIR] [--quick]
//! ms-benchmark compare A.json B.json
//! ms-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ms-benchmark child --workload NAME --seed N [--out DIR] [--quick]
//! ```
//!
//! `run` measures all five workloads, one child process each, prints one
//! table and writes `DIR/results.json`. `compare` checks a second
//! `results.json` against a first within `BENCHMARK.json`'s bounds. The
//! `--workload` form measures one workload for `S` seconds in this process
//! and prints one JSON result line, end-to-end metrics or (`--trace 1`)
//! per-layer ones. `child` is what `run` starts for each workload.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use msbench::compare::{compare, parse_results};
use msbench::measure::{measure, Plan, STREAMS};
use msbench::run::fmt;
use msbench::spec::Spec;
use msbench::workload::{self, Workload};

const USAGE: &str = "usage:
  ms-benchmark run [--seed N] [--out DIR] [--quick]
  ms-benchmark compare A.json B.json
  ms-benchmark --workload NAME --seed N --seconds S --trace 0|1";

/// Timed rounds a `--seconds` run makes at least, however short its budget.
const MIN_ROUNDS: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("child") => cmd_child(&args[1..]),
        Some(flag) if flag.starts_with("--") => cmd_workload(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ms-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--switch`es.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// Rejects anything but the given value flags and switches.
    fn only(&self, values: &[&str], switches: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while i < self.0.len() {
            let a = self.0[i].as_str();
            if values.contains(&a) && i + 1 < self.0.len() {
                i += 2;
            } else if switches.contains(&a) {
                i += 1;
            } else {
                return Err(format!("unexpected argument {a:?}\n{USAGE}"));
            }
        }
        Ok(())
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let f = Flags(args);
    f.only(&["--seed", "--out"], &["--quick"])?;
    let seed = f.parsed("--seed")?.unwrap_or(42);
    let out = f.value("--out").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    );
    msbench::run::run(seed, &out, f.has("--quick"))
}

fn cmd_child(args: &[String]) -> Result<bool, String> {
    let f = Flags(args);
    f.only(&["--workload", "--seed", "--out"], &["--quick"])?;
    let w = f.workload()?;
    let seed = f.parsed("--seed")?.ok_or("--seed is required")?;
    let quick = f.has("--quick");
    let plan = Plan {
        streams: if quick { 1 } else { STREAMS },
        rounds: if quick { 1 } else { w.rounds },
        budget: Duration::ZERO,
        probe: !quick,
    };
    let out = measure(w.name, &w.profile(), w.system(), seed, &plan);
    if let Some(dir) = f.value("--out") {
        let rows: String = out.sweeps.iter().map(|s| s.to_json() + "\n").collect();
        let path = PathBuf::from(dir).join(format!("{}.sweeps.jsonl", w.name));
        std::fs::write(&path, rows).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", out.record.to_json());
    Ok(true)
}

fn cmd_workload(args: &[String]) -> Result<bool, String> {
    let f = Flags(args);
    f.only(&["--workload", "--seed", "--seconds", "--trace"], &[])?;
    let w = f.workload()?;
    let seed = f.parsed("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = f.parsed("--seconds")?.ok_or("--seconds is required")?;
    let trace = match f.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let plan = Plan {
        streams: STREAMS,
        rounds: MIN_ROUNDS,
        budget: Duration::from_secs_f64(seconds),
        probe: true,
    };
    let out = measure(w.name, &w.profile(), w.system(), seed, &plan);
    let r = &out.record;
    println!("host {}", r.host);
    for c in &r.checks {
        println!(
            "check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAIL" },
            c.detail
        );
    }
    println!(
        "run_wall_ms q1 {} q3 {} n {} unscaled {} kernel_ms {}",
        r.wall_q1, r.wall_q3, r.wall_n, r.raw_ms, r.kernel_ms
    );
    println!("{}", r.result_line(trace));
    Ok(true)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse_results(&text).map_err(|e| format!("{p}: {e}"))
    };
    let spec = Spec::load()?;
    let rows = compare(&spec, &read(a)?, &read(b)?);
    println!(
        "{:<16} {:<28} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    let cell = |v: Option<f64>| v.map_or("-".to_string(), fmt);
    for r in &rows {
        let delta = r.delta_pct().map_or("-".into(), |d| format!("{d:+.1}%"));
        let bound = r.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0));
        let verdict = match (r.bound, r.regressed) {
            (_, true) => "REGRESSED",
            (Some(_), false) => "ok",
            (None, false) => "",
        };
        println!(
            "{:<16} {:<28} {:>12} {:>12} {:>9} {:>7}  {verdict}",
            r.workload,
            r.metric,
            cell(r.a),
            cell(r.b),
            delta,
            bound
        );
    }
    let regressed = rows.iter().filter(|r| r.regressed).count();
    println!("{regressed} end-to-end regression(s) past their bounds");
    Ok(regressed == 0)
}
