//! The `run` command: every workload in turn, each in a child process of
//! its own, then one table, `results.json`, and an exit status.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

use minesweeper::telemetry::Json;

use crate::host::Host;
use crate::metrics::{from_probe, Check, Record, END_TO_END, PER_LAYER};
use crate::workload::ALL;

/// Runs every workload one after another and reports. Returns whether
/// every workload passed every check.
///
/// # Errors
///
/// When the output directory or `results.json` cannot be written, or the
/// benchmark's own executable cannot be found.
pub fn run(seed: u64, out: &Path, quick: bool) -> Result<bool, String> {
    fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut lines = Vec::new();
    let mut parsed = Vec::new();
    for (i, w) in ALL.iter().enumerate() {
        eprintln!("[{}/{}] {} (seed {seed})", i + 1, ALL.len(), w.name);
        let mut cmd = Command::new(&exe);
        cmd.args(["child", "--workload", w.name, "--seed", &seed.to_string()])
            .arg("--out")
            .arg(out)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if quick {
            cmd.arg("--quick");
        }
        let result = cmd.output();
        let reported = result
            .as_ref()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .map(str::to_string)
            })
            .and_then(|line| {
                let record = Json::parse(&line)
                    .ok()
                    .and_then(|j| Record::from_json(&j).ok())?;
                Some((line, record))
            });
        let (line, mut record) = reported.unwrap_or_else(|| {
            let detail = match &result {
                Ok(o) => format!("child exited with {} and no readable record", o.status),
                Err(e) => format!("child did not start: {e}"),
            };
            let stub = Record {
                workload: w.name.to_string(),
                attempted: 1,
                failed: 1,
                checks: vec![Check::new("child_exit", false, detail)],
                host: Host::current().to_json(),
                ..Record::default()
            };
            (stub.to_json(), stub)
        });
        record.checks.push(schema_check(&record, quick));
        lines.push(line);
        parsed.push(record);
    }
    println!("host {}", Host::current().to_json());
    print_table(&parsed);
    let results = format!(
        "{{\"seed\": {seed}, \"quick\": {quick}, \"workloads\": [\n{}\n]}}\n",
        lines.join(",\n")
    );
    let path = out.join("results.json");
    fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(parsed.iter().all(Record::correct))
}

/// Whether a child's record names exactly the declared metrics (the
/// probe's may be missing under `--quick`).
fn schema_check(r: &Record, quick: bool) -> Check {
    let declared: BTreeSet<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .filter(|n| !(quick && from_probe(n)))
        .collect();
    let got: BTreeSet<&str> = r.values.keys().map(String::as_str).collect();
    let missing: Vec<_> = declared.difference(&got).collect();
    let extra: Vec<_> = got.difference(&declared).collect();
    let ok = missing.is_empty() && extra.is_empty();
    Check::new(
        "schema",
        ok,
        format!("missing {missing:?}, undeclared {extra:?}"),
    )
}

/// Prints every metric, with its unit, as one row per metric and one
/// column per workload, then each workload's failed checks.
fn print_table(results: &[Record]) {
    let mut header = format!("{:<28} {:<9}", "metric", "unit");
    for p in results {
        header.push_str(&format!(" {:>15}", p.workload));
    }
    println!("{header}");
    let row = |name: &str, unit: &str, value: &dyn Fn(&Record) -> String| {
        let mut line = format!("{name:<28} {unit:<9}");
        for p in results {
            line.push_str(&format!(" {:>15}", value(p)));
        }
        println!("{line}");
    };
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        row(d.name, d.unit, &|p| {
            p.values.get(d.name).map_or("-".into(), |&v| fmt(v))
        });
        if d.name == "run_wall_ms" {
            row("  q1", "ms", &|p| fmt(p.wall_q1));
            row("  q3", "ms", &|p| fmt(p.wall_q3));
            row("  n", "reps", &|p| p.wall_n.to_string());
            row("  unscaled", "ms", &|p| fmt(p.raw_ms));
            row("  kernel", "ms", &|p| fmt(p.kernel_ms));
        }
    }
    row("error_rate", "fraction", &|p| fmt(p.error_rate()));
    row("checks", "", &|p| {
        if p.correct() {
            "ok".into()
        } else {
            "FAIL".into()
        }
    });
    for p in results {
        for c in p.checks.iter().filter(|c| !c.ok) {
            println!("FAIL {}: {}: {}", p.workload, c.name, c.detail);
        }
    }
}

/// A table cell: four significant-ish digits without hiding magnitude.
pub fn fmt(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}
