#![warn(missing_docs)]

//! Command parsing and execution for `minesweeper-sim`.
//!
//! A dependency-free CLI over the simulation stack:
//!
//! ```text
//! minesweeper-sim list
//! minesweeper-sim run xalancbmk --system minesweeper --seed 7
//! minesweeper-sim compare omnetpp
//! minesweeper-sim exploit --system baseline
//! ```

use sim::report::{bytes, fx, table, telemetry_tables};
use std::path::Path;

use sim::{run, run_exploit, run_trace, Engine, System, ENGINE_SUBSYSTEM};
use telemetry::{pause_table, JsonlSink, RunReport, Snapshot};
use workloads::exploit::figure2_attack;
use workloads::{mimalloc_bench, recorded, spec2006, spec2017, Profile, TraceGen};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// List every benchmark, grouped by suite.
    List,
    /// Run one benchmark under one system.
    Run {
        /// Benchmark name.
        benchmark: String,
        /// System label.
        system: String,
        /// Trace seed.
        seed: u64,
        /// Write the run directory here: [`METRICS_FILE`] and
        /// [`TRACE_FILE`]. Needs a minesweeper-layered system.
        out: Option<String>,
        /// Sweep-forensics mode label (`off`, `full`, `sampled:N`); only
        /// meaningful for minesweeper-layered systems.
        forensics: Option<String>,
    },
    /// Run one benchmark under every system and print the overhead table.
    Compare {
        /// Benchmark name.
        benchmark: String,
        /// Trace seed.
        seed: u64,
    },
    /// Replay the Figure 2 exploit under one system, or run the whole
    /// adversarial scenario corpus differentially across every backend.
    Exploit {
        /// System label (single-scenario mode).
        system: String,
        /// Run the full scenario × backend security matrix.
        corpus: bool,
        /// Write the matrix as `SECURITY_matrix.json` here.
        out: Option<String>,
        /// Number of fuzzed scenarios appended to the named corpus, at
        /// most [`MAX_FUZZ`].
        fuzz: u32,
        /// Seed for the scenario fuzzer.
        seed: u64,
    },
    /// Write a benchmark's generated allocation trace to a file.
    Record {
        /// Benchmark name.
        benchmark: String,
        /// Output path.
        out: String,
        /// Trace seed.
        seed: u64,
    },
    /// Replay a recorded trace file under one system.
    Replay {
        /// Trace file path.
        file: String,
        /// System label.
        system: String,
        /// Profile supplying the pointer-graph knobs.
        knobs: String,
        /// Pointer-graph seed.
        seed: u64,
    },
    /// Print usage.
    Help,
}

/// A CLI error: bad flag, unknown name.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses argv (without the program name).
///
/// # Errors
///
/// [`CliError`] on unknown subcommands, unknown flags, or malformed
/// values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else { return Ok(Command::Help) };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "run" | "compare" | "exploit" | "record" | "replay" => {
            let mut benchmark = None;
            let mut system = "minesweeper".to_string();
            let mut seed = 42u64;
            let mut out = None;
            let mut knobs = "demo".to_string();
            let mut forensics = None;
            let mut corpus = false;
            let mut fuzz = 3u32;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--corpus" => corpus = true,
                    "--fuzz" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--fuzz needs a value".into()))?;
                        fuzz = v
                            .parse()
                            .ok()
                            .filter(|n| *n <= MAX_FUZZ)
                            .ok_or_else(|| {
                                CliError(format!("bad fuzz count: {v} (at most {MAX_FUZZ})"))
                            })?;
                    }
                    "--system" => {
                        system = it
                            .next()
                            .ok_or_else(|| CliError("--system needs a value".into()))?
                            .clone();
                    }
                    "--seed" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--seed needs a value".into()))?;
                        seed = v
                            .parse()
                            .map_err(|_| CliError(format!("bad seed: {v}")))?;
                    }
                    "--out" => {
                        out = Some(
                            it.next()
                                .ok_or_else(|| CliError("--out needs a value".into()))?
                                .clone(),
                        );
                    }
                    "--knobs" => {
                        knobs = it
                            .next()
                            .ok_or_else(|| CliError("--knobs needs a value".into()))?
                            .clone();
                    }
                    "--forensics" => {
                        forensics = Some(
                            it.next()
                                .ok_or_else(|| {
                                    CliError("--forensics needs a value".into())
                                })?
                                .clone(),
                        );
                    }
                    flag if flag.starts_with('-') => {
                        return Err(CliError(format!("unknown flag: {flag}")));
                    }
                    name => {
                        if benchmark.replace(name.to_string()).is_some() {
                            return Err(CliError(format!("unexpected argument: {name}")));
                        }
                    }
                }
            }
            let positional = |what: &str| {
                benchmark.clone().ok_or_else(|| CliError(format!("{what} needed")))
            };
            if cmd != "run" && forensics.is_some() {
                return Err(CliError("--forensics is only valid with `run`".into()));
            }
            if cmd != "exploit" && (corpus || fuzz != 3) {
                return Err(CliError("--corpus/--fuzz are only valid with `exploit`".into()));
            }
            match cmd.as_str() {
                "run" => Ok(Command::Run {
                    benchmark: positional("run needs a benchmark name")?,
                    system,
                    seed,
                    out,
                    forensics,
                }),
                "compare" => Ok(Command::Compare {
                    benchmark: positional("compare needs a benchmark name")?,
                    seed,
                }),
                "record" => Ok(Command::Record {
                    benchmark: positional("record needs a benchmark name")?,
                    out: out.ok_or_else(|| CliError("record needs --out <file>".into()))?,
                    seed,
                }),
                "replay" => Ok(Command::Replay {
                    file: positional("replay needs a trace file")?,
                    system,
                    knobs,
                    seed,
                }),
                _ => Ok(Command::Exploit { system, corpus, out, fuzz, seed }),
            }
        }
        other => Err(CliError(format!("unknown command: {other}"))),
    }
}

/// Resolves a system label to a [`System`].
///
/// # Errors
///
/// [`CliError`] on unknown labels.
pub fn system_by_label(label: &str) -> Result<System, CliError> {
    match label {
        "baseline" | "jemalloc" => Ok(System::Baseline),
        "minesweeper" | "ms" => Ok(System::minesweeper_default()),
        "minesweeper-mostly" | "mostly" => Ok(System::minesweeper_mostly()),
        "markus" => Ok(System::markus_default()),
        "ffmalloc" | "ff" => Ok(System::FfMalloc),
        "scudo" => Ok(System::ScudoBaseline),
        "minesweeper-scudo" | "ms-scudo" => Ok(System::minesweeper_scudo()),
        "crcount" | "cr" => Ok(System::CrCount),
        "oscar" => Ok(System::Oscar),
        "psweeper" | "ps" => Ok(System::PSweeper),
        "dangsan" => Ok(System::DangSan),
        other => Err(CliError(format!(
            "unknown system: {other} (try baseline, minesweeper, mostly, markus, \
             ffmalloc, scudo, ms-scudo, crcount, oscar, psweeper, dangsan)"
        ))),
    }
}

/// Parses a forensics-mode label: `off`, `full`, or `sampled:N`.
///
/// # Errors
///
/// [`CliError`] on unknown labels or a zero/malformed sample period.
pub fn forensics_by_label(label: &str) -> Result<minesweeper::ForensicsMode, CliError> {
    use minesweeper::ForensicsMode;
    match label {
        "off" => Ok(ForensicsMode::Off),
        "full" => Ok(ForensicsMode::Full),
        other => match other.strip_prefix("sampled:") {
            Some(n) => match n.parse::<u32>() {
                Ok(period) if period > 0 => Ok(ForensicsMode::Sampled(period)),
                _ => Err(CliError(format!("bad sample period: {n}"))),
            },
            None => Err(CliError(format!(
                "unknown forensics mode: {other} (try off, full, sampled:<n>)"
            ))),
        },
    }
}

/// Applies a forensics mode to a system, when it is minesweeper-layered.
///
/// # Errors
///
/// [`CliError`] when the system has no sweep (and hence no forensics).
fn apply_forensics(sys: System, label: &str) -> Result<System, CliError> {
    let mode = forensics_by_label(label)?;
    sys.map_ms_config(|cfg| minesweeper::MsConfig { forensics: mode, ..cfg }).ok_or_else(|| {
        CliError(format!("--forensics needs a minesweeper-layered system, not {}", sys.label()))
    })
}

/// Finds a benchmark profile across all suites.
///
/// # Errors
///
/// [`CliError`] when no suite knows the name.
pub fn profile_by_name(name: &str) -> Result<Profile, CliError> {
    if name == "demo" {
        return Ok(Profile::demo());
    }
    spec2006::by_name(name)
        .or_else(|| spec2017::by_name(name))
        .or_else(|| mimalloc_bench::by_name(name))
        .ok_or_else(|| CliError(format!("unknown benchmark: {name} (see `list`)")))
}

/// Executes a command, returning the text to print.
///
/// # Errors
///
/// [`CliError`] for unknown benchmark/system names.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::List => {
            let mut out = String::new();
            for (suite, profiles) in [
                ("SPEC CPU2006", spec2006::all()),
                ("SPECspeed2017", spec2017::all()),
                ("mimalloc-bench", mimalloc_bench::all()),
            ] {
                out.push_str(&format!("{suite}:\n"));
                for p in profiles {
                    out.push_str(&format!(
                        "  {:<14} {:>8} allocs, ~{} cycles/alloc\n",
                        p.name, p.total_allocs, p.cycles_per_alloc
                    ));
                }
            }
            out.push_str("  demo           (synthetic quick-run profile)\n");
            Ok(out)
        }
        Command::Run { benchmark, system, seed, out, forensics } => {
            let profile = profile_by_name(benchmark)?;
            let mut sys = system_by_label(system)?;
            if let Some(label) = forensics {
                sys = apply_forensics(sys, label)?;
            }
            let dir = match out {
                None => None,
                Some(dir) => {
                    sys.ms_config().ok_or_else(|| {
                        CliError(format!("--out needs a minesweeper-layered system, not {system}"))
                    })?;
                    std::fs::create_dir_all(dir)
                        .map_err(|e| CliError(format!("cannot create {dir}: {e}")))?;
                    Some(Path::new(dir))
                }
            };
            let m = match dir {
                None => run(&profile, sys, *seed),
                Some(dir) => {
                    let path = dir.join(TRACE_FILE);
                    let file = std::fs::File::create(&path).map_err(|e| {
                        CliError(format!("cannot create {}: {e}", path.display()))
                    })?;
                    let mut eng = Engine::new(&profile, sys, *seed);
                    let traced = eng.set_trace_sink(
                        Box::new(JsonlSink::new(std::io::BufWriter::new(file))),
                        false,
                    );
                    assert!(traced, "layered systems trace");
                    eng.run()
                }
            };
            if let Some(dir) = dir {
                let snap = m.telemetry.as_ref().expect("layered runs export telemetry");
                write_file(dir.join(METRICS_FILE), &snap.to_json())?;
            }
            let rows = vec![
                vec!["metric".to_string(), "value".into()],
                vec!["benchmark".into(), m.benchmark.clone()],
                vec!["system".into(), m.system.clone()],
                vec!["virtual cycles".into(), m.mutator_cycles.to_string()],
                vec!["background cycles".into(), m.background_cycles.to_string()],
                vec!["avg RSS".into(), bytes(m.avg_rss() as u64)],
                vec!["peak RSS".into(), bytes(m.peak_rss)],
                vec!["sweeps".into(), m.sweeps.to_string()],
                vec!["failed frees".into(), m.failed_frees.to_string()],
                vec!["cpu utilisation".into(), fx(m.cpu_utilisation())],
            ];
            let mut out = table(&rows);
            if let Some(snap) = &m.telemetry {
                out.push_str("\ntelemetry:\n");
                out.push_str(&telemetry_tables(snap));
            }
            Ok(out)
        }
        Command::Compare { benchmark, seed } => {
            let profile = profile_by_name(benchmark)?;
            let base = run(&profile, System::Baseline, *seed);
            let mut rows = vec![vec![
                "system".to_string(),
                "slowdown".into(),
                "avg memory".into(),
                "peak memory".into(),
                "cpu util".into(),
                "sweeps".into(),
            ]];
            for sys in [
                System::minesweeper_default(),
                System::minesweeper_mostly(),
                System::markus_default(),
                System::FfMalloc,
                System::minesweeper_scudo(),
                System::CrCount,
            ] {
                let m = run(&profile, sys, *seed);
                rows.push(vec![
                    sys.label().to_string(),
                    fx(m.slowdown_vs(&base)),
                    fx(m.memory_overhead_vs(&base)),
                    fx(m.peak_overhead_vs(&base)),
                    fx(m.cpu_utilisation()),
                    m.sweeps.to_string(),
                ]);
            }
            Ok(table(&rows))
        }
        Command::Exploit { system, corpus, out, fuzz, seed } => {
            if *corpus {
                let matrix = sim::run_corpus(*seed, *fuzz, sim::Weaken::None);
                let mut text = matrix_table(&matrix);
                if let Some(path) = out {
                    write_file(path, &matrix.to_json())?;
                    text.push_str(&format!("wrote security matrix to {path}\n"));
                }
                Ok(text)
            } else {
                let sys = system_by_label(system)?;
                let r = run_exploit(&figure2_attack(), sys);
                Ok(format!(
                    "system: {}\nvictim reallocated: {}\noutcome: {:?}\n",
                    sys.label(),
                    r.victim_reallocated,
                    r.outcome
                ))
            }
        }
        Command::Record { benchmark, out, seed } => {
            let profile = profile_by_name(benchmark)?;
            let text = recorded::write_trace(TraceGen::new(&profile, *seed));
            write_file(out, &text)?;
            Ok(format!("wrote {} lines to {out}\n", text.lines().count()))
        }
        Command::Replay { file, system, knobs, seed } => {
            let text = read_file(file)?;
            let ops = recorded::read_trace(&text).map_err(|e| CliError(e.to_string()))?;
            let ops = recorded::close_trace(ops);
            let profile = profile_by_name(knobs)?;
            let sys = system_by_label(system)?;
            let m = run_trace(&profile, sys, *seed, ops);
            Ok(format!(
                "replayed {file} under {}: {} allocs, {} cycles, avg RSS {}, sweeps {}\n",
                sys.label(),
                m.allocs,
                m.mutator_cycles,
                bytes(m.avg_rss() as u64),
                m.sweeps
            ))
        }
    }
}

/// Largest `exploit --fuzz` count accepted: the corpus runner builds every
/// scenario and reserves every cell up front, so the count bounds memory.
pub const MAX_FUZZ: u32 = 1_000;

/// File name of the sweep trace inside a run directory.
pub const TRACE_FILE: &str = "trace.jsonl";

/// File name of the metrics snapshot inside a run directory.
pub const METRICS_FILE: &str = "metrics.json";

/// Reads a whole file as text.
///
/// # Errors
///
/// [`CliError`] naming the path when it cannot be read.
fn read_file(path: impl AsRef<Path>) -> Result<String, CliError> {
    let path = path.as_ref();
    std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {}: {e}", path.display())))
}

fn write_file(path: impl AsRef<Path>, contents: &str) -> Result<(), CliError> {
    let path = path.as_ref();
    std::fs::write(path, contents)
        .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))
}

/// `part` as a percentage of `total`, or `-` when there is no total.
fn share(part: u64, total: u64) -> String {
    if total == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / total as f64)
    }
}

/// A rendered run dossier ([`render_dossier`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dossier {
    /// The report: every section the run directory supports, then a
    /// `checks` section when any gate ran.
    pub text: String,
    /// One `gate: reason` line per failure; empty when every gate that
    /// ran passed.
    pub failed: Vec<String>,
}

/// Renders the `ms-report` dossier of a run directory written by
/// `minesweeper-sim run --out DIR`: `DIR/metrics.json` (required) and
/// `DIR/trace.jsonl` (when present). Sections come in a fixed order, each
/// only when the files support it:
///
/// 1. `timeline`, `failed frees`, `quarantine` — from the trace;
/// 2. `pinners`, `failed-free detail` — when the trace is forensic;
/// 3. `pauses` — the engine's pause/STW/sweep histograms;
/// 4. `cost ledger` — joined with pinned bytes from a forensic trace;
/// 5. `slo` — when `slo` is given.
///
/// With `check`, every gate the directory supports runs:
/// `trace-reconcile` (trace totals and the forensic ledger against the
/// layer counters), `mark-accounting` (per sweep, scanned words plus
/// skipped bytes equal the plan bytes) and `cost-conservation`
/// ([`sim::CostLedger::reconcile`]). An `slo` spec adds the `slo` gate
/// with or without `check`.
///
/// # Errors
///
/// [`CliError`] when the metrics file is missing or unreadable, a file is
/// malformed, or the SLO spec is malformed or empty. A failed gate is not
/// an error: it lands in [`Dossier::failed`].
pub fn render_dossier(dir: &str, check: bool, slo: Option<&str>) -> Result<Dossier, CliError> {
    let dir = Path::new(dir);
    let snap = Snapshot::from_json(&read_file(dir.join(METRICS_FILE))?)
        .map_err(|e| CliError(format!("bad metrics: {e}")))?;
    let trace = dir.join(TRACE_FILE);
    let report = if trace.exists() {
        let text = read_file(&trace)?;
        Some(RunReport::from_jsonl(&text).map_err(|e| CliError(format!("bad trace: {e}")))?)
    } else {
        None
    };
    let policy = slo.map(parse_slo).transpose()?;

    let mut text = String::new();
    let mut gates: Vec<(&str, Vec<String>)> = Vec::new();
    if let Some(report) = &report {
        push_section(&mut text, "timeline", &timeline_table(report));
        push_section(&mut text, "failed frees", &report.failed_free_table());
        push_section(&mut text, "quarantine", &report.quarantine_table());
        if report.has_forensics() {
            push_section(&mut text, "pinners", &report.pinner_table());
            push_section(&mut text, "failed-free detail", &report.failed_free_detail_table());
        }
        if check {
            gates.push(("trace-reconcile", report.reconcile(&snap).err().into_iter().collect()));
            gates.push(("mark-accounting", mark_accounting(report)));
        }
    }
    let pauses: Vec<String> = ["pause_cycles", "stw_cycles", "sweep_cycles"]
        .iter()
        .filter_map(|name| snap.histogram(ENGINE_SUBSYSTEM, name))
        .filter(|h| h.count() > 0)
        .map(|h| pause_table(h, "cycles"))
        .collect();
    if !pauses.is_empty() {
        push_section(&mut text, "pauses", &pauses.join("\n"));
    }
    if let Some(ledger) = sim::CostLedger::from_snapshot(&snap) {
        let forensic = report.as_ref().filter(|r| r.has_forensics());
        push_section(&mut text, "cost ledger", &cost_ledger(&snap, &ledger, forensic));
        if check {
            gates.push(("cost-conservation", ledger.reconcile()));
        }
    }
    if let Some(policy) = policy {
        let checks = policy.evaluate(&snap);
        push_section(&mut text, "slo", &telemetry::slo_table(&checks));
        let breaches = checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| {
                let observed = c.observed.map_or_else(|| "-".into(), |o| o.to_string());
                format!("{} observed {observed}, limit {}", c.kind.as_str(), c.limit)
            })
            .collect();
        gates.push(("slo", breaches));
    }

    let mut failed = Vec::new();
    if !gates.is_empty() {
        let mut body = String::new();
        for (gate, problems) in gates {
            if problems.is_empty() {
                body.push_str(&format!("{gate}: ok\n"));
            }
            for p in problems {
                body.push_str(&format!("{gate}: FAILED: {p}\n"));
                failed.push(format!("{gate}: {p}"));
            }
        }
        push_section(&mut text, "checks", &body);
    }
    Ok(Dossier { text, failed })
}

fn push_section(text: &mut String, title: &str, body: &str) {
    if !text.is_empty() {
        text.push('\n');
    }
    text.push_str(&format!("== {title} ==\n{body}"));
}

/// Parses an `--slo` spec; an empty policy would vacuously pass, so it is
/// bad input.
fn parse_slo(spec: &str) -> Result<telemetry::SloPolicy, CliError> {
    let policy = telemetry::SloPolicy::parse(spec).map_err(CliError)?;
    if policy.is_empty() {
        return Err(CliError("--slo needs at least one objective (stw=N,sweep=N,qratio=N)".into()));
    }
    Ok(policy)
}

/// The per-sweep timeline (the paper's Fig. 13/14 shapes).
fn timeline_table(report: &RunReport) -> String {
    let mut rows = vec![vec![
        "sweep".to_string(),
        "trigger".into(),
        "quar bytes".into(),
        "marked".into(),
        "released".into(),
        "failed".into(),
        "ff rate".into(),
        "skip".into(),
        "cycles".into(),
        "wall ns".into(),
    ]];
    for r in &report.sweeps {
        rows.push(vec![
            r.sweep.to_string(),
            r.trigger.map_or("-", |t| t.as_str()).to_string(),
            bytes(r.quarantine_bytes),
            r.marked_granules.to_string(),
            r.released.to_string(),
            r.failed_frees.to_string(),
            format!("{:.1}%", r.failed_free_rate() * 100.0),
            format!("{:.1}%", r.skip_rate() * 100.0),
            r.virtual_duration().to_string(),
            r.wall_ns.to_string(),
        ]);
    }
    table(&rows)
}

/// Per-sweep mark accounting: every byte the plan advanced through was
/// either read word by word or skipped wholesale.
fn mark_accounting(report: &RunReport) -> Vec<String> {
    report
        .sweeps
        .iter()
        .filter(|r| r.mark_words * 8 + r.mark_skipped_bytes != r.mark_bytes)
        .map(|r| {
            format!(
                "sweep {}: scanned {} words + skipped {} bytes != {} plan bytes",
                r.sweep, r.mark_words, r.mark_skipped_bytes, r.mark_bytes
            )
        })
        .collect()
}

/// The defence-cost tables: per-kind and per-site (top 10) cycles with
/// each entry's share of `cost/total_cycles`, plus the
/// per-sweep cost distribution. Given a forensic trace, the site table
/// joins the bytes each site's failed frees pin in quarantine — sites that
/// are both expensive to defend and pin memory are the tuning targets.
fn cost_ledger(snap: &Snapshot, ledger: &sim::CostLedger, forensic: Option<&RunReport>) -> String {
    let mut out = format!("defence cost ledger: {} total cycles\n\n", ledger.total);
    let mut kinds: Vec<_> = ledger.kinds.iter().filter(|(_, c, _)| *c > 0).collect();
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut rows =
        vec![vec!["kind".to_string(), "cycles".into(), "share".into(), "charges".into()]];
    for (label, cycles, charges) in kinds {
        rows.push(vec![
            label.clone(),
            cycles.to_string(),
            share(*cycles, ledger.total),
            charges.to_string(),
        ]);
    }
    out.push_str(&table(&rows));

    let mut pinned_by_site: Vec<(String, u64)> = Vec::new();
    for a in forensic.map(RunReport::pinned_now).unwrap_or_default() {
        let key = a.site.to_string();
        match pinned_by_site.iter_mut().find(|(k, _)| *k == key) {
            Some(e) => e.1 += a.bytes,
            None => pinned_by_site.push((key, a.bytes)),
        }
    }
    const TOP_SITES: usize = 10;
    out.push('\n');
    let mut header = vec!["site".to_string(), "cycles".into(), "share".into()];
    if forensic.is_some() {
        header.push("pinned bytes".into());
    }
    let mut rows = vec![header];
    for (key, cycles) in ledger.sites.iter().take(TOP_SITES) {
        let mut row = vec![key.clone(), cycles.to_string(), share(*cycles, ledger.total)];
        if forensic.is_some() {
            let pinned = pinned_by_site
                .iter()
                .find(|(k, _)| k == key)
                .map_or_else(|| "-".into(), |(_, b)| bytes(*b));
            row.push(pinned);
        }
        rows.push(row);
    }
    if ledger.sites.len() > TOP_SITES {
        let rest: u64 = ledger.sites[TOP_SITES..].iter().map(|(_, v)| v).sum();
        let mut row = vec![
            format!("({} more)", ledger.sites.len() - TOP_SITES),
            rest.to_string(),
            share(rest, ledger.total),
        ];
        if forensic.is_some() {
            row.push("-".into());
        }
        rows.push(row);
    }
    out.push_str(&table(&rows));

    if let Some(h) = snap.histogram(sim::COST_SUBSYSTEM, "per_sweep_cycles") {
        if h.count() > 0 {
            out.push_str("\nper-sweep defence cost:\n");
            out.push_str(&pause_table(h, "cycles"));
        }
    }
    out
}

/// Renders the scenario × backend verdict table of a security matrix, with
/// the unprotected baseline's attack window and minesweeper's defence
/// cycles per scenario, then the verdict totals.
fn matrix_table(m: &sim::SecurityMatrix) -> String {
    use workloads::exploit::ExploitOutcome;
    let mut out = format!(
        "security matrix: {} scenarios x {} backends (seed {}, fuzz {})\n",
        m.scenarios.len(),
        m.backends.len(),
        m.seed,
        m.fuzz
    );
    let mut header = vec!["scenario".to_string()];
    header.extend(m.backends.iter().map(|b| b.to_string()));
    header.push("window".into());
    header.push("ms defence".into());
    let mut rows = vec![header];
    // Cells are row-major: one chunk of backend columns per scenario.
    for ((name, _), row) in m.scenarios.iter().zip(m.cells.chunks(m.backends.len())) {
        let cell = |backend: &str| row.iter().find(|c| c.backend == backend);
        let mut line = vec![name.clone()];
        line.extend(row.iter().map(|c| c.run.outcome.code().to_string()));
        // Attack-window latency on the unprotected baseline column: how
        // many frees an attacker needs before the victim slot recycles.
        line.push(
            cell("baseline")
                .and_then(|c| c.run.attack_window)
                .map_or_else(|| "-".into(), |w| w.to_string()),
        );
        // What the verdict cost: minesweeper's defence cycles for this
        // scenario, the price of the protection next to its outcome.
        line.push(
            cell("minesweeper").map_or_else(|| "-".into(), |c| c.run.defence.total.to_string()),
        );
        rows.push(line);
    }
    out.push_str(&table(&rows));
    out.push_str("verdicts: C=compromised T=clean-termination B=benign D=detected\n");
    let count = |o: ExploitOutcome| m.cells.iter().filter(|c| c.run.outcome == o).count();
    out.push_str(&format!(
        "totals: {} compromised, {} clean-termination, {} benign, {} detected\n",
        count(ExploitOutcome::Compromised),
        count(ExploitOutcome::CleanTermination),
        count(ExploitOutcome::Benign),
        count(ExploitOutcome::Detected)
    ));
    let ms_compromised =
        m.column("minesweeper").filter(|c| c.run.outcome == ExploitOutcome::Compromised).count();
    out.push_str(&format!("minesweeper compromised cells: {ms_compromised}\n"));
    let defence: u64 = m.cells.iter().map(|c| c.run.defence.total).sum();
    out.push_str(&format!("defence cycles: {defence} across all cells\n"));
    out
}

/// Usage text.
pub const USAGE: &str = "\
minesweeper-sim — MineSweeper (ASPLOS'22) reproduction driver

USAGE:
    minesweeper-sim list
    minesweeper-sim run <benchmark> [--system <label>] [--seed <n>] [--out <dir>]
                        [--forensics <off|full|sampled:n>]
    minesweeper-sim compare <benchmark> [--seed <n>]
    minesweeper-sim exploit [--system <label>]
    minesweeper-sim exploit --corpus [--out <matrix.json>] [--fuzz <n>] [--seed <n>]
    minesweeper-sim record <benchmark> --out <file> [--seed <n>]
    minesweeper-sim replay <file> [--system <label>] [--knobs <benchmark>] [--seed <n>]
    minesweeper-sim help

SYSTEMS:
    baseline, minesweeper (ms), minesweeper-mostly (mostly), markus,
    ffmalloc (ff), scudo, minesweeper-scudo (ms-scudo), crcount (cr),
    oscar, psweeper (ps), dangsan

run --out <dir> writes a run directory for `ms-report <dir>`: metrics.json
and trace.jsonl. --out and --forensics need a minesweeper-layered system.

exploit --corpus replays the named attack scenarios plus <n> seeded fuzzed
ones (default 3, at most 1000) against every backend and prints the
verdict table; --out writes the matrix JSON. `--seed 42 --fuzz 3` is the
committed SECURITY_matrix.json.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_run_with_flags() {
        let cmd = parse(&argv("run xalancbmk --system markus --seed 9")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                benchmark: "xalancbmk".into(),
                system: "markus".into(),
                seed: 9,
                out: None,
                forensics: None,
            }
        );
    }

    #[test]
    fn parse_out_flag() {
        let cmd = parse(&argv("run demo --out /tmp/run")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                benchmark: "demo".into(),
                system: "minesweeper".into(),
                seed: 42,
                out: Some("/tmp/run".into()),
                forensics: None,
            }
        );
        assert!(parse(&argv("run demo --out")).is_err());
        // The per-file flags and the leak knob are gone.
        for gone in ["--trace-out t.jsonl", "--metrics-out m.json", "--cost-drop zeroing"] {
            assert!(parse(&argv(&format!("run demo {gone}"))).is_err(), "{gone}");
        }
    }

    #[test]
    fn parse_defaults() {
        let cmd = parse(&argv("run demo")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                benchmark: "demo".into(),
                system: "minesweeper".into(),
                seed: 42,
                out: None,
                forensics: None,
            }
        );
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run demo --seed nope")).is_err());
        assert!(parse(&argv("run demo --bogus 1")).is_err());
        assert!(parse(&argv("run a b")).is_err());
        assert!(parse(&argv("run")).is_err());
    }

    #[test]
    fn system_labels_resolve() {
        for label in
            ["baseline", "ms", "mostly", "markus", "ff", "scudo", "ms-scudo", "cr", "oscar", "ps", "dangsan"]
        {
            assert!(system_by_label(label).is_ok(), "{label}");
        }
        assert!(system_by_label("gc").is_err());
    }

    #[test]
    fn profiles_resolve_across_suites() {
        assert!(profile_by_name("xalancbmk").is_ok()); // 2006
        assert!(profile_by_name("leela").is_ok()); // 2017
        assert!(profile_by_name("cfrac").is_ok()); // mimalloc
        assert!(profile_by_name("demo").is_ok());
        assert!(profile_by_name("quake").is_err());
    }

    #[test]
    fn list_and_exploit_execute() {
        let list = execute(&Command::List).unwrap();
        assert!(list.contains("xalancbmk"));
        assert!(list.contains("mimalloc-bench"));
        let single = |system: &str| Command::Exploit {
            system: system.into(),
            corpus: false,
            out: None,
            fuzz: 3,
            seed: 42,
        };
        let out = execute(&single("baseline")).unwrap();
        assert!(out.contains("Compromised"));
        let out = execute(&single("ms")).unwrap();
        assert!(out.contains("Benign"));
    }

    #[test]
    fn parse_corpus_flags() {
        let cmd = parse(&argv("exploit --corpus --fuzz 2 --seed 7 --out /tmp/m.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Exploit {
                system: "minesweeper".into(),
                corpus: true,
                out: Some("/tmp/m.json".into()),
                fuzz: 2,
                seed: 7,
            }
        );
        assert!(parse(&argv("run demo --corpus")).is_err());
        assert!(parse(&argv("compare demo --fuzz 2")).is_err());
        assert!(parse(&argv("exploit --fuzz nope")).is_err());
    }

    #[test]
    fn parse_bounds_the_fuzz_count() {
        let fuzz = |n: u32| match parse(&argv(&format!("exploit --corpus --fuzz {n}"))) {
            Ok(Command::Exploit { fuzz, .. }) => Ok(fuzz),
            Ok(other) => panic!("{other:?}"),
            Err(e) => Err(e.0),
        };
        assert_eq!(fuzz(MAX_FUZZ), Ok(MAX_FUZZ));
        for n in [MAX_FUZZ + 1, u32::MAX] {
            let err = fuzz(n).unwrap_err();
            assert!(err.starts_with("bad fuzz count"), "{err}");
        }
    }

    #[test]
    fn corpus_execute_renders_matrix_and_writes_json() {
        let path = std::env::temp_dir().join("ms_cli_sec_matrix_test.json");
        let path = path.to_string_lossy().to_string();
        let out = execute(&Command::Exploit {
            system: "minesweeper".into(),
            corpus: true,
            out: Some(path.clone()),
            fuzz: 1,
            seed: 42,
        })
        .unwrap();
        assert!(out.contains("security matrix: 9 scenarios x 10 backends"), "{out}");
        assert!(out.contains("ms defence"), "{out}");
        assert!(out.contains("minesweeper compromised cells: 0"), "{out}");
        assert!(out.contains("defence cycles:"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(json, sim::run_corpus(42, 1, sim::Weaken::None).to_json());
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("ms_cli_trace_test.trace");
        let path = dir.to_string_lossy().to_string();
        let out = execute(&Command::Record {
            benchmark: "demo".into(),
            out: path.clone(),
            seed: 3,
        })
        .unwrap();
        assert!(out.contains("wrote"));
        let out = execute(&Command::Replay {
            file: path.clone(),
            system: "ms".into(),
            knobs: "demo".into(),
            seed: 3,
        })
        .unwrap();
        assert!(out.contains("20000 allocs"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_record_requires_out() {
        assert!(parse(&argv("record demo")).is_err());
        let cmd = parse(&argv("record demo --out /tmp/x --seed 2")).unwrap();
        assert_eq!(
            cmd,
            Command::Record { benchmark: "demo".into(), out: "/tmp/x".into(), seed: 2 }
        );
        let cmd = parse(&argv("replay /tmp/x --knobs xalancbmk")).unwrap();
        assert_eq!(
            cmd,
            Command::Replay {
                file: "/tmp/x".into(),
                system: "minesweeper".into(),
                knobs: "xalancbmk".into(),
                seed: 42
            }
        );
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ms_cli_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn run_cmd(system: &str, out: Option<&Path>, forensics: Option<&str>) -> Command {
        Command::Run {
            benchmark: "demo".into(),
            system: system.into(),
            seed: 5,
            out: out.map(|p| p.to_string_lossy().into_owned()),
            forensics: forensics.map(String::from),
        }
    }

    #[test]
    fn run_demo_executes() {
        let out = execute(&run_cmd("ms", None, None)).unwrap();
        assert!(out.contains("sweeps"));
        assert!(out.contains("avg RSS"));
        assert!(out.contains("layer/released_bytes"), "telemetry table:\n{out}");
    }

    #[test]
    fn run_flags_need_a_layered_system() {
        let dir = scratch("baseline_out");
        for cmd in [
            run_cmd("baseline", Some(&dir), None),
            run_cmd("baseline", None, Some("full")),
        ] {
            let err = execute(&cmd).unwrap_err();
            assert!(err.0.contains("layered"), "{err}");
        }
        assert!(!dir.exists(), "a refused run writes no directory");
    }

    #[test]
    fn run_out_writes_a_dossier_directory() {
        let dir = scratch("plain_run");
        let d = dir.to_string_lossy().into_owned();
        let printed = execute(&run_cmd("ms", Some(&dir), None)).unwrap();
        assert_eq!(printed, execute(&run_cmd("ms", None, None)).unwrap());
        let trace = std::fs::read_to_string(dir.join(TRACE_FILE)).unwrap();
        assert!(trace.lines().any(|l| l.contains("\"sweep_start\"")));
        let report = render_dossier(&d, true, None).unwrap();
        assert_eq!(report.failed, Vec::<String>::new(), "{}", report.text);
        for header in ["timeline", "failed frees", "quarantine", "pauses", "cost ledger"] {
            assert!(report.text.contains(&format!("== {header} ==")), "{header}");
        }
        // No forensics in the trace, no SLO spec: those sections stay out.
        for absent in ["== pinners", "== failed-free detail", "== slo"] {
            assert!(!report.text.contains(absent), "{absent}:\n{}", report.text);
        }
        assert!(report.text.contains("trace-reconcile: ok"), "{}", report.text);
        assert!(report.text.contains("proportional"), "{}", report.text);
        // Without --check no gate runs.
        let quiet = render_dossier(&d, false, None).unwrap();
        assert!(!quiet.text.contains("== checks =="), "{}", quiet.text);

        // A torn final line (truncated mid-write) is a clear error, not a
        // panic, and names the offending line.
        let torn = &trace[..trace.len() - trace.len() / 10];
        assert!(!torn.ends_with('\n'), "truncation must tear the last line");
        std::fs::write(dir.join(TRACE_FILE), torn).unwrap();
        let err = render_dossier(&d, false, None).unwrap_err();
        assert!(err.0.contains("bad trace"), "{err}");
        assert!(err.0.contains("torn final line"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn slo_gate_flags_breaches_and_rejects_bad_specs() {
        let dir = scratch("slo");
        std::fs::create_dir_all(&dir).unwrap();
        let reg = telemetry::Registry::new();
        reg.histogram("engine", "stw_cycles").record(5000);
        std::fs::write(dir.join(METRICS_FILE), reg.snapshot().to_json()).unwrap();
        let d = dir.to_string_lossy().into_owned();

        let breached = render_dossier(&d, false, Some("stw=100")).unwrap();
        assert!(breached.text.contains("FAIL"), "{}", breached.text);
        assert_eq!(breached.failed.len(), 1, "{:?}", breached.failed);
        assert!(breached.failed[0].starts_with("slo: stw"), "{:?}", breached.failed);

        let held = render_dossier(&d, false, Some("stw=1000000,qratio=10")).unwrap();
        assert!(held.failed.is_empty(), "{}", held.text);
        assert!(held.text.contains("PASS (unmeasured)"), "qratio never measured: {}", held.text);

        assert!(render_dossier(&d, false, Some("")).is_err(), "empty spec would vacuously pass");
        assert!(render_dossier(&d, false, Some("bogus=1")).is_err());
        let util = render_dossier(&d, false, Some("util=40")).unwrap_err();
        assert!(util.0.contains("unknown SLO objective \"util\""), "{util}");
        std::fs::write(dir.join(METRICS_FILE), "not json").unwrap();
        assert!(render_dossier(&d, false, None).unwrap_err().0.contains("bad metrics"));
        std::fs::remove_dir_all(&dir).ok();
        let err = render_dossier(&d, false, None).unwrap_err();
        assert!(err.0.contains("cannot read"), "{err}");
    }

    #[test]
    fn parse_forensics_flag() {
        let cmd = parse(&argv("run demo --forensics sampled:8")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                benchmark: "demo".into(),
                system: "minesweeper".into(),
                seed: 42,
                out: None,
                forensics: Some("sampled:8".into()),
            }
        );
        assert!(parse(&argv("compare demo --forensics full")).is_err());
        assert!(parse(&argv("run demo --forensics")).is_err());
    }

    #[test]
    fn forensics_labels_resolve() {
        use minesweeper::ForensicsMode;
        assert_eq!(forensics_by_label("off").unwrap(), ForensicsMode::Off);
        assert_eq!(forensics_by_label("full").unwrap(), ForensicsMode::Full);
        assert_eq!(
            forensics_by_label("sampled:16").unwrap(),
            ForensicsMode::Sampled(16)
        );
        assert!(forensics_by_label("sampled:0").is_err());
        assert!(forensics_by_label("sampled:x").is_err());
        assert!(forensics_by_label("everything").is_err());
    }
}
