//! `ms-report <run-dir>` end to end: the dossier of a forensic run shows
//! every section and checks clean, and each `--check` gate fails a
//! doctored copy of a real run directory with exit code 2, naming what
//! failed. Bad input exits 1.

use std::path::{Path, PathBuf};
use std::process::Output;
use std::sync::OnceLock;

/// The `run demo --forensics full --out` directory under the test
/// scratch directory, written once.
fn forensic_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dossier_forensic");
        std::fs::remove_dir_all(&dir).ok();
        ms_cli::execute(&ms_cli::Command::Run {
            benchmark: "demo".into(),
            system: "ms".into(),
            seed: 42,
            out: Some(dir.to_string_lossy().into_owned()),
            forensics: Some("full".into()),
        })
        .expect("demo run");
        dir
    })
}

fn ms_report(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ms-report"))
        .args(args)
        .output()
        .expect("ms-report runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Copies `src` to a new directory named `name` and applies `edit` to one
/// of its files.
fn doctored(src: &Path, name: &str, file: &str, edit: impl Fn(&str) -> String) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("dossier_bad_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let path = dir.join(file);
    let before = std::fs::read_to_string(&path).unwrap();
    let after = edit(&before);
    assert_ne!(before, after, "the doctoring must change {file}");
    std::fs::write(&path, after).unwrap();
    dir
}

/// Adds one to the counter `subsystem/name` in a metrics snapshot.
fn bump_counter(json: &str, subsystem: &str, name: &str) -> String {
    let key = format!("\"subsystem\": \"{subsystem}\", \"name\": \"{name}\", \"value\": ");
    let start = json.find(&key).unwrap_or_else(|| panic!("no counter {subsystem}/{name}"));
    let digits = start + key.len();
    let end = digits + json[digits..].find('}').unwrap();
    let value: u64 = json[digits..end].parse().unwrap();
    format!("{}{}{}", &json[..digits], value + 1, &json[end..])
}

/// Asserts `ms-report DIR --check` fails exactly `gate` with exit 2,
/// names `what`, and prints no usage text.
fn assert_gate_fails(dir: &Path, gate: &str, what: &str) {
    let out = ms_report(&[dir.to_str().unwrap(), "--check"]);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(out.status.code(), Some(2), "{stdout}\n{stderr}");
    assert!(stdout.contains(&format!("{gate}: FAILED: {what}")), "{stdout}");
    assert!(stderr.contains(&format!("check failed: {gate}: {what}")), "{stderr}");
    assert!(!stderr.contains("USAGE"), "a failed gate is not a usage error:\n{stderr}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn forensic_dossier_shows_every_section_and_checks_clean() {
    let out = ms_report(&[forensic_dir().to_str().unwrap(), "--check", "--slo", "qratio=1000"]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{}", text(&out.stderr));
    let headers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    assert_eq!(
        headers,
        [
            "== timeline ==",
            "== failed frees ==",
            "== quarantine ==",
            "== pinners ==",
            "== failed-free detail ==",
            "== pauses ==",
            "== cost ledger ==",
            "== slo ==",
            "== checks ==",
        ]
    );
    assert!(stdout.contains("pinned sites"), "{stdout}");
    assert!(stdout.contains("pinned bytes"), "forensic cost join:\n{stdout}");
    for gate in ["trace-reconcile", "mark-accounting", "cost-conservation", "slo"] {
        assert!(stdout.contains(&format!("{gate}: ok")), "{gate}:\n{stdout}");
    }
}

#[test]
fn doctored_layer_counter_fails_the_trace_reconcile() {
    let dir = doctored(forensic_dir(), "released", "metrics.json", |m| {
        bump_counter(m, "layer", "released")
    });
    assert_gate_fails(&dir, "trace-reconcile", "released: events say");
}

#[test]
fn doctored_mark_phase_fails_mark_accounting() {
    let dir = doctored(forensic_dir(), "words", "trace.jsonl", |t| {
        t.replacen("\"words\": ", "\"words\": 1", 1)
    });
    assert_gate_fails(&dir, "mark-accounting", "sweep 1: scanned");
}

#[test]
fn doctored_site_counter_fails_cost_conservation_by_dimension() {
    let dir = doctored(forensic_dir(), "site", "metrics.json", |m| {
        bump_counter(m, "cost", "site_7_cycles")
    });
    assert_gate_fails(&dir, "cost-conservation", "site dimension sums to");
}

#[test]
fn impossible_slo_fails_without_check() {
    let out = ms_report(&[forensic_dir().to_str().unwrap(), "--slo", "sweep=1"]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stdout));
    assert!(text(&out.stderr).contains("check failed: slo: sweep observed"));
}

#[test]
fn bad_input_exits_1() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dossier_no_such_dir");
    let malformed = doctored(forensic_dir(), "json", "metrics.json", |_| "{ not json".into());
    for args in [
        vec![missing.to_str().unwrap(), "--check"],
        vec![malformed.to_str().unwrap()],
        vec![forensic_dir().to_str().unwrap(), "--bogus"],
        vec![forensic_dir().to_str().unwrap(), "--slo", "bogus=1"],
        vec![forensic_dir().to_str().unwrap(), "--slo", "util=40"],
        vec![],
    ] {
        let out = ms_report(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", text(&out.stderr));
    }
    std::fs::remove_dir_all(malformed).ok();
}
