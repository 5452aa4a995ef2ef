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
use sim::{run, run_arenas, run_exploit, run_trace, Engine, System, ARENA_SUBSYSTEM, ENGINE_SUBSYSTEM};
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
        /// Write sweep-lifecycle events as JSONL here.
        trace_out: Option<String>,
        /// Write the end-of-run metrics snapshot as JSON here.
        metrics_out: Option<String>,
        /// Sweep-forensics mode label (`off`, `full`, `sampled:N`); only
        /// meaningful for minesweeper-layered systems.
        forensics: Option<String>,
        /// Run the benchmark as N identically-shaped tenants over one
        /// sharded [`minesweeper::ArenaPool`]; needs a minesweeper-layered
        /// system.
        arenas: Option<u32>,
        /// Deliberately drop one cost kind's per-kind counter — the leak
        /// self-test for the `ms-report --costs --check` gate. Needs a
        /// minesweeper-layered system.
        cost_drop: Option<String>,
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
        /// Number of fuzzed scenarios appended to the named corpus.
        fuzz: u32,
        /// Protection-weakening knob (`quarantine-off`,
        /// `ignore-failed-frees`) for the CI gate self-test.
        weaken: Option<String>,
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
            let mut trace_out = None;
            let mut metrics_out = None;
            let mut forensics = None;
            let mut arenas = None;
            let mut cost_drop = None;
            let mut corpus = false;
            let mut fuzz = 3u32;
            let mut weaken = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--corpus" => corpus = true,
                    "--fuzz" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--fuzz needs a value".into()))?;
                        fuzz = v
                            .parse()
                            .map_err(|_| CliError(format!("bad fuzz count: {v}")))?;
                    }
                    "--weaken" => {
                        weaken = Some(
                            it.next()
                                .ok_or_else(|| CliError("--weaken needs a value".into()))?
                                .clone(),
                        );
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
                    "--trace-out" => {
                        trace_out = Some(
                            it.next()
                                .ok_or_else(|| {
                                    CliError("--trace-out needs a value".into())
                                })?
                                .clone(),
                        );
                    }
                    "--metrics-out" => {
                        metrics_out = Some(
                            it.next()
                                .ok_or_else(|| {
                                    CliError("--metrics-out needs a value".into())
                                })?
                                .clone(),
                        );
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
                    "--arenas" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--arenas needs a value".into()))?;
                        let n: u32 = v
                            .parse()
                            .map_err(|_| CliError(format!("bad arena count: {v}")))?;
                        if n == 0 {
                            return Err(CliError("--arenas needs at least one".into()));
                        }
                        arenas = Some(n);
                    }
                    "--cost-drop" => {
                        cost_drop = Some(
                            it.next()
                                .ok_or_else(|| {
                                    CliError("--cost-drop needs a cost kind".into())
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
            if cmd != "run"
                && (trace_out.is_some()
                    || metrics_out.is_some()
                    || forensics.is_some()
                    || arenas.is_some()
                    || cost_drop.is_some())
            {
                return Err(CliError(
                    "--trace-out/--metrics-out/--forensics/--arenas/--cost-drop are \
                     only valid with `run`"
                        .into(),
                ));
            }
            if cmd != "exploit" && (corpus || fuzz != 3 || weaken.is_some()) {
                return Err(CliError(
                    "--corpus/--fuzz/--weaken are only valid with `exploit`".into(),
                ));
            }
            match cmd.as_str() {
                "run" => Ok(Command::Run {
                    benchmark: positional("run needs a benchmark name")?,
                    system,
                    seed,
                    trace_out,
                    metrics_out,
                    forensics,
                    arenas,
                    cost_drop,
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
                _ => Ok(Command::Exploit { system, corpus, out, fuzz, weaken, seed }),
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
        Command::Run {
            benchmark,
            system,
            seed,
            trace_out,
            metrics_out,
            forensics,
            arenas,
            cost_drop,
        } => {
            let profile = profile_by_name(benchmark)?;
            let mut sys = system_by_label(system)?;
            if let Some(label) = forensics {
                sys = apply_forensics(sys, label)?;
            }
            let drop_kind = match cost_drop {
                None => None,
                Some(label) => {
                    let kind = sim::CostKind::from_label(label).ok_or_else(|| {
                        CliError(format!(
                            "unknown cost kind: {label} (try one of {})",
                            sim::CostKind::ALL.map(|k| k.label()).join(", ")
                        ))
                    })?;
                    if sys.ms_config().is_none() {
                        return Err(CliError(format!(
                            "--cost-drop needs a minesweeper-layered system, not {system}"
                        )));
                    }
                    Some(kind)
                }
            };
            if let Some(n) = arenas {
                if drop_kind.is_some() {
                    return Err(CliError(
                        "--cost-drop is not supported with --arenas (the pooled \
                         runner's shared recorder has no leak-injection hook)"
                            .into(),
                    ));
                }
                if trace_out.is_some() {
                    return Err(CliError(
                        "--trace-out is not supported with --arenas (the pooled \
                         runner has no per-arena trace sink yet)"
                            .into(),
                    ));
                }
                let cfg = sys.ms_config().ok_or_else(|| {
                    CliError(format!(
                        "--arenas needs a minesweeper-layered system, not {system}"
                    ))
                })?;
                let m = run_arenas(&profile, *n, *seed, cfg);
                if let Some(path) = metrics_out {
                    let snap =
                        m.telemetry.as_ref().expect("pooled runs always export telemetry");
                    std::fs::write(path, snap.to_json())
                        .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                }
                let rows = vec![
                    vec!["metric".to_string(), "value".into()],
                    vec!["benchmark".into(), m.benchmark.clone()],
                    vec!["system".into(), m.system.clone()],
                    vec!["arenas".into(), n.to_string()],
                    vec!["virtual cycles".into(), m.mutator_cycles.to_string()],
                    vec!["background cycles".into(), m.background_cycles.to_string()],
                    vec!["avg RSS".into(), bytes(m.avg_rss() as u64)],
                    vec!["peak RSS".into(), bytes(m.peak_rss)],
                    vec!["sweeps".into(), m.sweeps.to_string()],
                    vec!["failed frees".into(), m.failed_frees.to_string()],
                    vec!["cpu utilisation".into(), fx(m.cpu_utilisation())],
                ];
                let mut out = table(&rows);
                let snap = m.telemetry.as_ref().expect("pooled runs always export telemetry");
                out.push('\n');
                out.push_str(&arena_table(snap)?);
                return Ok(out);
            }
            let m = if trace_out.is_some() || metrics_out.is_some() || drop_kind.is_some()
            {
                let mut eng = Engine::new(&profile, sys, *seed);
                if let Some(kind) = drop_kind {
                    eng.set_cost_drop(kind);
                }
                if let Some(path) = trace_out {
                    let file = std::fs::File::create(path)
                        .map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
                    let sink = JsonlSink::new(std::io::BufWriter::new(file));
                    if !eng.set_trace_sink(Box::new(sink), false) {
                        return Err(CliError(format!(
                            "--trace-out needs a minesweeper-layered system, not {system}"
                        )));
                    }
                }
                let m = eng.run();
                if let Some(path) = metrics_out {
                    let snap = m.telemetry.as_ref().ok_or_else(|| {
                        CliError(format!(
                            "--metrics-out needs a minesweeper-layered system, not {system}"
                        ))
                    })?;
                    std::fs::write(path, snap.to_json())
                        .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                }
                m
            } else {
                run(&profile, sys, *seed)
            };
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
        Command::Exploit { system, corpus, out, fuzz, weaken, seed } => {
            if *corpus {
                let weaken = match weaken.as_deref() {
                    None => sim::Weaken::None,
                    Some(label) => sim::Weaken::parse(label)
                        .ok_or_else(|| CliError(format!("unknown weaken knob: {label}")))?,
                };
                let matrix = sim::run_corpus(*seed, *fuzz, weaken);
                let json = matrix.to_json();
                let mut text = render_security(&json, false)?;
                if let Some(path) = out {
                    std::fs::write(path, &json)
                        .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                    text.push_str(&format!("wrote security matrix to {path}\n"));
                }
                Ok(text)
            } else {
                if weaken.is_some() {
                    return Err(CliError("--weaken needs --corpus".into()));
                }
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
            std::fs::write(out, &text)
                .map_err(|e| CliError(format!("cannot write {out}: {e}")))?;
            Ok(format!("wrote {} lines to {out}\n", text.lines().count()))
        }
        Command::Replay { file, system, knobs, seed } => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError(format!("cannot read {file}: {e}")))?;
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

/// The counter keys every arena shard exports and the run re-accumulates
/// globally — the reconciliation surface between the two paths.
const ARENA_KEYS: [&str; 4] =
    ["quarantined_bytes", "released_bytes", "failed_frees", "sweeps"];

/// Renders the per-arena shard table (one row per tenant, a totals row
/// from the independently accumulated `arena/total_*` counters) plus a
/// scheduler summary line, from a multi-arena metrics snapshot. When the
/// snapshot carries a cost ledger, each shard also shows its share of
/// `cost/total_cycles` next to the SLO-facing counters, so a tenant whose
/// quarantine ratio looks healthy but who is eating the sweep budget is
/// visible in the same table.
///
/// # Errors
///
/// [`CliError`] when the snapshot has no `arena/arenas` counter (i.e. it
/// did not come from a `run --arenas` / `run_arenas` invocation).
fn arena_table(snap: &Snapshot) -> Result<String, CliError> {
    let n = snap.counter(ARENA_SUBSYSTEM, "arenas").ok_or_else(|| {
        CliError(
            "metrics carry no arena shard counters (produced without --arenas?)".into(),
        )
    })?;
    let cost_total = snap.counter(sim::COST_SUBSYSTEM, "total_cycles").unwrap_or(0);
    let cost_share = |cycles: u64| {
        if cost_total == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", cycles as f64 * 100.0 / cost_total as f64)
        }
    };
    let mut rows = vec![vec![
        "arena".to_string(),
        "quar bytes".into(),
        "released".into(),
        "failed".into(),
        "sweeps".into(),
        "cost share".into(),
    ]];
    let fmt = |key: &str, v: u64| {
        if key.ends_with("bytes") {
            bytes(v)
        } else {
            v.to_string()
        }
    };
    let mut attributed = 0u64;
    for k in 0..n {
        let label = format!("a{k}");
        let mut row = vec![label.clone()];
        for key in ARENA_KEYS {
            let v = snap.counter(ARENA_SUBSYSTEM, &format!("{label}_{key}")).unwrap_or(0);
            row.push(fmt(key, v));
        }
        let cycles =
            snap.counter(sim::COST_SUBSYSTEM, &format!("arena_{label}_cycles")).unwrap_or(0);
        attributed += cycles;
        row.push(cost_share(cycles));
        rows.push(row);
    }
    let mut total_row = vec!["total".to_string()];
    for key in ARENA_KEYS {
        let v = snap.counter(ARENA_SUBSYSTEM, &format!("total_{key}")).unwrap_or(0);
        total_row.push(fmt(key, v));
    }
    total_row.push(cost_share(attributed));
    rows.push(total_row);
    let mut out = table(&rows);
    out.push_str(&format!(
        "scheduler: {} rounds, {} arenas swept, {} coalesced\n",
        snap.counter(ARENA_SUBSYSTEM, "sched_rounds").unwrap_or(0),
        snap.counter(ARENA_SUBSYSTEM, "sched_scheduled").unwrap_or(0),
        snap.counter(ARENA_SUBSYSTEM, "sched_coalesced").unwrap_or(0),
    ));
    Ok(out)
}

/// Renders an `ms-report` summary from a multi-arena metrics snapshot
/// alone (no sweep trace): the per-arena shard table, the scheduler
/// summary, and each arena's pause/STW/sweep histograms. With `check`,
/// the sum of every shard's counters must equal the independently
/// accumulated `arena/total_*` globals — a lost update in either
/// accounting path is an error.
///
/// # Errors
///
/// [`CliError`] on malformed metrics, a snapshot without arena counters,
/// or a reconciliation mismatch.
pub fn render_metrics_report(metrics_text: &str, check: bool) -> Result<String, CliError> {
    let snap = Snapshot::from_json(metrics_text)
        .map_err(|e| CliError(format!("bad metrics: {e}")))?;
    let mut out = arena_table(&snap)?;
    let n = snap.counter(ARENA_SUBSYSTEM, "arenas").unwrap_or(0);
    for k in 0..n {
        for name in ["pause_cycles", "stw_cycles", "sweep_cycles"] {
            if let Some(h) = snap.histogram(ARENA_SUBSYSTEM, &format!("a{k}_{name}")) {
                if h.count() > 0 {
                    out.push('\n');
                    out.push_str(&format!("a{k} {name}:\n"));
                    out.push_str(&pause_table(h, "cycles"));
                }
            }
        }
    }
    if check {
        for key in ARENA_KEYS {
            let sum: u64 = (0..n)
                .map(|k| {
                    snap.counter(ARENA_SUBSYSTEM, &format!("a{k}_{key}")).unwrap_or(0)
                })
                .sum();
            let total =
                snap.counter(ARENA_SUBSYSTEM, &format!("total_{key}")).unwrap_or(0);
            if sum != total {
                return Err(CliError(format!(
                    "arena reconcile failed: shard {key} sums to {sum}, global total \
                     counted {total}"
                )));
            }
        }
        out.push_str("\nreconcile: arena shard counters match global totals\n");
    }
    Ok(out)
}

/// What an `ms-report` rendering should include beyond the base timeline.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ReportOpts {
    /// Reconcile trace totals against the metrics snapshot's counters.
    pub check: bool,
    /// Append the forensics pinner table (sites ranked by pinned bytes).
    pub pinners: bool,
    /// Append the per-entry failed-free ledger detail table.
    pub failed_frees: bool,
}

/// Renders an `ms-report` summary: a per-sweep timeline plus failed-free
/// and quarantine tables (the paper's Fig. 13/14 shapes) from a JSONL
/// sweep trace, and — when a metrics snapshot is supplied — the engine's
/// pause/STW/sweep duration histograms. `opts.pinners` /
/// `opts.failed_frees` append the forensics views (which need a trace
/// recorded with the `forensics` knob on). With `opts.check`, the trace's
/// aggregated totals are reconciled against the snapshot's layer counters
/// and any mismatch is an error.
///
/// # Errors
///
/// [`CliError`] on malformed/truncated inputs, `check` without metrics,
/// or a reconciliation mismatch.
pub fn render_report_with(
    trace_text: &str,
    metrics_text: Option<&str>,
    opts: &ReportOpts,
) -> Result<String, CliError> {
    let check = opts.check;
    let report = RunReport::from_jsonl(trace_text)
        .map_err(|e| CliError(format!("bad trace: {e}")))?;
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
    let mut out = table(&rows);
    out.push('\n');
    out.push_str(&report.failed_free_table());
    out.push('\n');
    out.push_str(&report.quarantine_table());
    if opts.pinners {
        out.push('\n');
        out.push_str(&report.pinner_table());
    }
    if opts.failed_frees {
        out.push('\n');
        out.push_str(&report.failed_free_detail_table());
    }
    if let Some(text) = metrics_text {
        let snap = Snapshot::from_json(text)
            .map_err(|e| CliError(format!("bad metrics: {e}")))?;
        for name in ["pause_cycles", "stw_cycles", "sweep_cycles"] {
            if let Some(h) = snap.histogram(ENGINE_SUBSYSTEM, name) {
                if h.count() > 0 {
                    out.push('\n');
                    out.push_str(&pause_table(h, "cycles"));
                }
            }
        }
        if check {
            report.reconcile(&snap).map_err(CliError)?;
            // Per-sweep mark accounting: every byte the plan advanced
            // through was either read word-by-word or skipped wholesale.
            for r in &report.sweeps {
                if r.mark_words * 8 + r.mark_skipped_bytes != r.mark_bytes {
                    return Err(CliError(format!(
                        "sweep {}: scanned {} words + skipped {} bytes != {} plan bytes",
                        r.sweep, r.mark_words, r.mark_skipped_bytes, r.mark_bytes
                    )));
                }
            }
            out.push_str("\nreconcile: trace totals match metrics counters\n");
        }
    } else if check {
        return Err(CliError("--check needs --metrics <file>".into()));
    }
    Ok(out)
}

/// [`render_report_with`] without the forensics views — the pre-forensics
/// signature, kept for callers that only need the timeline and `--check`.
///
/// # Errors
///
/// As [`render_report_with`].
pub fn render_report(
    trace_text: &str,
    metrics_text: Option<&str>,
    check: bool,
) -> Result<String, CliError> {
    render_report_with(trace_text, metrics_text, &ReportOpts { check, ..ReportOpts::default() })
}

/// Evaluates an `ms-report --slo` policy spec against a metrics snapshot.
/// Returns the pass/fail table and whether any objective was violated
/// (the CLI exits nonzero on a breach).
///
/// # Errors
///
/// [`CliError`] on malformed metrics, a malformed spec, or an empty spec
/// (a policy with nothing to check would vacuously pass).
pub fn render_slo(metrics_text: &str, spec: &str) -> Result<(String, bool), CliError> {
    let snap = Snapshot::from_json(metrics_text)
        .map_err(|e| CliError(format!("bad metrics: {e}")))?;
    let policy = telemetry::SloPolicy::parse(spec).map_err(CliError)?;
    if policy.is_empty() {
        return Err(CliError(
            "--slo needs at least one objective (stw=N,sweep=N,qratio=N,util=N)".into(),
        ));
    }
    let checks = telemetry::Watchdog::new(policy).evaluate(&snap);
    let breached = checks.iter().any(|c| !c.pass);
    Ok((telemetry::slo_table(&checks), breached))
}

/// One parsed `SECURITY_matrix.json` cell: a scenario × backend verdict
/// with its baseline attack-window latency and — schema 2 — the defence
/// cycles that backend spent earning the verdict, broken down by
/// [`sim::CostKind`]. Schema-1 documents predate the cost ledger; their
/// cells parse with zero defence cost.
struct SecCellView {
    scenario: String,
    backend: String,
    verdict: String,
    window: Option<u64>,
    defence_cycles: u64,
    defence_kinds: Vec<(String, u64)>,
}

/// A `(scenario, backend) -> verdict label` view of a parsed
/// `SECURITY_matrix.json`, plus the run's provenance fields.
struct SecDoc {
    schema: u64,
    weaken: String,
    seed: u64,
    fuzz: u64,
    backends: Vec<String>,
    scenarios: Vec<String>,
    cells: Vec<SecCellView>,
    counters: Vec<(String, u64)>,
}

fn parse_security(text: &str) -> Result<SecDoc, CliError> {
    let doc = telemetry::json::Json::parse(text)
        .map_err(|e| CliError(format!("bad security matrix: {e}")))?;
    let schema = doc.get("schema").and_then(telemetry::json::Json::as_u64);
    let min = u64::from(sim::SECURITY_MIN_SCHEMA);
    let max = u64::from(sim::SECURITY_SCHEMA);
    let schema = match schema {
        Some(s) if (min..=max).contains(&s) => s,
        _ => {
            return Err(CliError(format!(
                "unsupported security matrix schema {schema:?} (want {min}..={max})"
            )))
        }
    };
    let str_list = |key: &str, field: &str| -> Result<Vec<String>, CliError> {
        doc.get(key)
            .and_then(telemetry::json::Json::as_array)
            .ok_or_else(|| CliError(format!("security matrix missing {key}")))?
            .iter()
            .map(|v| {
                let s = if field.is_empty() {
                    v.as_str()
                } else {
                    v.get(field).and_then(telemetry::json::Json::as_str)
                };
                s.map(String::from)
                    .ok_or_else(|| CliError(format!("malformed {key} entry")))
            })
            .collect()
    };
    let backends = str_list("backends", "")?;
    let scenarios = str_list("scenarios", "name")?;
    let mut cells = Vec::new();
    for cell in doc
        .get("cells")
        .and_then(telemetry::json::Json::as_array)
        .ok_or_else(|| CliError("security matrix missing cells".into()))?
    {
        let field = |k: &str| {
            cell.get(k)
                .and_then(telemetry::json::Json::as_str)
                .map(String::from)
                .ok_or_else(|| CliError(format!("cell missing {k}")))
        };
        let window = cell.get("attack_window").and_then(telemetry::json::Json::as_u64);
        let verdict = field("verdict")?;
        if workloads::exploit::ExploitOutcome::from_label(&verdict).is_none() {
            return Err(CliError(format!("unknown verdict label: {verdict}")));
        }
        // Schema 1 predates the cost ledger: no defence fields, cost 0.
        let defence_cycles =
            cell.get("defence_cycles").and_then(telemetry::json::Json::as_u64).unwrap_or(0);
        let mut defence_kinds = Vec::new();
        if let Some(telemetry::json::Json::Obj(pairs)) = cell.get("defence_kinds") {
            for (k, v) in pairs {
                if sim::CostKind::from_label(k).is_none() {
                    return Err(CliError(format!("unknown defence cost kind: {k}")));
                }
                defence_kinds.push((
                    k.clone(),
                    v.as_u64()
                        .ok_or_else(|| CliError(format!("bad defence kind {k}")))?,
                ));
            }
        }
        cells.push(SecCellView {
            scenario: field("scenario")?,
            backend: field("backend")?,
            verdict,
            window,
            defence_cycles,
            defence_kinds,
        });
    }
    let mut counters = Vec::new();
    if let Some(telemetry::json::Json::Obj(pairs)) = doc.get("counters") {
        for (k, v) in pairs {
            counters.push((
                k.clone(),
                v.as_u64().ok_or_else(|| CliError(format!("bad counter {k}")))?,
            ));
        }
    }
    Ok(SecDoc {
        schema,
        weaken: doc
            .get("weaken")
            .and_then(telemetry::json::Json::as_str)
            .unwrap_or("none")
            .to_string(),
        seed: doc.get("seed").and_then(telemetry::json::Json::as_u64).unwrap_or(0),
        fuzz: doc.get("fuzz").and_then(telemetry::json::Json::as_u64).unwrap_or(0),
        backends,
        scenarios,
        cells,
        counters,
    })
}

fn verdict_rank(label: &str) -> u8 {
    workloads::exploit::ExploitOutcome::from_label(label).map_or(0, |o| o.rank())
}

/// Renders the human-readable scenario × backend security matrix from a
/// `SECURITY_matrix.json` document (`ms-report --security`). With
/// `check`, every `security/*` counter embedded in the document is
/// recomputed from the cells and must match — a drifted counter means the
/// exporter and the matrix disagree about what actually ran.
///
/// # Errors
///
/// [`CliError`] on a malformed document or (with `check`) a counter
/// reconciliation mismatch.
pub fn render_security(text: &str, check: bool) -> Result<String, CliError> {
    let doc = parse_security(text)?;
    let mut out = format!(
        "security matrix: {} scenarios x {} backends (seed {}, fuzz {})\n",
        doc.scenarios.len(),
        doc.backends.len(),
        doc.seed,
        doc.fuzz
    );
    if doc.weaken != "none" {
        out.push_str(&format!(
            "WARNING: protection weakened ({}) — self-test run, NOT a baseline\n",
            doc.weaken
        ));
    }
    let code_of = |scenario: &str, backend: &str| {
        doc.cells
            .iter()
            .find(|c| c.scenario == scenario && c.backend == backend)
            .map(|c| {
                workloads::exploit::ExploitOutcome::from_label(&c.verdict)
                    .map(|o| o.code().to_string())
                    .unwrap_or_else(|| "?".into())
            })
            .unwrap_or_else(|| "-".into())
    };
    let mut rows = Vec::with_capacity(doc.scenarios.len() + 1);
    let mut header = vec!["scenario".to_string()];
    header.extend(doc.backends.iter().cloned());
    header.push("window".into());
    header.push("ms defence".into());
    rows.push(header);
    for sc in &doc.scenarios {
        let mut row = vec![sc.clone()];
        for b in &doc.backends {
            row.push(code_of(sc, b));
        }
        // Attack-window latency on the unprotected baseline column: how
        // many frees an attacker needs before the victim slot recycles.
        let window = doc
            .cells
            .iter()
            .find(|c| c.scenario == *sc && c.backend == "baseline")
            .and_then(|c| c.window)
            .map_or_else(|| "-".into(), |w| w.to_string());
        row.push(window);
        // What the verdict cost: minesweeper's defence cycles for this
        // scenario, the price of the protection next to its outcome.
        let defence = doc
            .cells
            .iter()
            .find(|c| c.scenario == *sc && c.backend == "minesweeper")
            .map_or_else(|| "-".into(), |c| c.defence_cycles.to_string());
        row.push(defence);
        rows.push(row);
    }
    out.push_str(&table(&rows));
    out.push_str("verdicts: C=compromised T=clean-termination B=benign D=detected\n");

    let mut verdictcount = [0u64; 4];
    let mut ms_compromised = 0u64;
    let mut defence_total = 0u64;
    for c in &doc.cells {
        let o = workloads::exploit::ExploitOutcome::from_label(&c.verdict)
            .expect("parse_security validated labels");
        verdictcount[o.rank() as usize] += 1;
        if c.backend == "minesweeper"
            && o == workloads::exploit::ExploitOutcome::Compromised
        {
            ms_compromised += 1;
        }
        defence_total += c.defence_cycles;
    }
    out.push_str(&format!(
        "totals: {} compromised, {} clean-termination, {} benign, {} detected\n",
        verdictcount[0], verdictcount[1], verdictcount[2], verdictcount[3]
    ));
    out.push_str(&format!("minesweeper compromised cells: {ms_compromised}\n"));
    if doc.schema >= 2 {
        out.push_str(&format!(
            "defence cycles: {defence_total} across all cells\n"
        ));
    }

    if check {
        let counter = |key: &str| {
            doc.counters.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
        };
        let mut mismatches = Vec::new();
        let mut expect = |key: &str, want: u64| {
            let got = counter(key);
            if got != want {
                mismatches.push(format!("{key}: counter {got} != cells {want}"));
            }
        };
        expect("security/cells", doc.cells.len() as u64);
        expect("security/verdict_compromised", verdictcount[0]);
        expect("security/verdict_clean_termination", verdictcount[1]);
        expect("security/verdict_benign", verdictcount[2]);
        expect("security/verdict_detected", verdictcount[3]);
        for sc in &doc.scenarios {
            let want = doc
                .cells
                .iter()
                .filter(|c| c.scenario == *sc && c.verdict == "compromised")
                .count() as u64;
            expect(&format!("security/s_{}_compromised", sc.replace('-', "_")), want);
        }
        // Schema 2: the exporter's defence_cycles counter is the sum of
        // every cell's total, and each cell's per-kind breakdown must
        // itself sum to that cell's total.
        expect("security/defence_cycles", defence_total);
        for c in &doc.cells {
            let kind_sum: u64 = c.defence_kinds.iter().map(|(_, v)| v).sum();
            if kind_sum != c.defence_cycles {
                mismatches.push(format!(
                    "{}/{}: defence kinds sum to {kind_sum}, defence_cycles is {}",
                    c.scenario, c.backend, c.defence_cycles
                ));
            }
        }
        if !mismatches.is_empty() {
            return Err(CliError(format!(
                "security counter reconciliation failed:\n  {}",
                mismatches.join("\n  ")
            )));
        }
        out.push_str("check: counters reconcile with cells\n");
    }
    Ok(out)
}

/// Diffs a fresh security matrix against the committed baseline
/// (`ms-report --security NEW --baseline OLD --check`). Returns the
/// report and whether the gate should fail.
///
/// The gate fails when (a) a baseline cell is missing from the new
/// matrix, (b) any cell's verdict regresses to a strictly worse rank
/// (named by scenario and backend), or (c) — the hard floor — any
/// minesweeper cell in the new matrix is Compromised, even for cells the
/// baseline never covered. New-only cells are otherwise informational,
/// so growing the corpus never needs a baseline refresh to merge.
///
/// # Errors
///
/// [`CliError`] when either document is malformed.
pub fn gate_security(baseline_text: &str, new_text: &str) -> Result<(String, bool), CliError> {
    let old = parse_security(baseline_text)?;
    let new = parse_security(new_text)?;
    let mut out = String::new();
    let mut failures = Vec::new();
    if old.weaken != "none" {
        failures.push("baseline was produced with a weaken knob — regenerate it".into());
    }
    if new.weaken != "none" {
        out.push_str(&format!(
            "WARNING: new matrix is protection-weakened ({})\n",
            new.weaken
        ));
    }
    let find = |doc: &SecDoc, s: &str, b: &str| -> Option<String> {
        doc.cells
            .iter()
            .find(|c| c.scenario == s && c.backend == b)
            .map(|c| c.verdict.clone())
    };
    let mut compared = 0u64;
    for c in &old.cells {
        let (s, b, old_verdict) = (&c.scenario, &c.backend, &c.verdict);
        match find(&new, s, b) {
            None => failures.push(format!("{s}/{b}: cell missing from new matrix")),
            Some(new_verdict) => {
                compared += 1;
                if verdict_rank(&new_verdict) < verdict_rank(old_verdict) {
                    failures.push(format!(
                        "{s}/{b}: verdict regressed {old_verdict} -> {new_verdict}"
                    ));
                }
            }
        }
    }
    let mut new_only = 0u64;
    for c in &new.cells {
        let (s, b, verdict) = (&c.scenario, &c.backend, &c.verdict);
        if find(&old, s, b).is_none() {
            new_only += 1;
            out.push_str(&format!("new cell (not in baseline): {s}/{b} = {verdict}\n"));
        }
        if b == "minesweeper" && verdict == "compromised" {
            failures.push(format!("{s}/minesweeper: COMPROMISED (hard floor)"));
        }
    }
    out.push_str(&format!(
        "security gate: {compared} cells compared, {new_only} new-only\n"
    ));
    if failures.is_empty() {
        out.push_str("security gate: PASS — no verdict regressions\n");
        Ok((out, false))
    } else {
        failures.sort();
        failures.dedup();
        out.push_str("security gate: FAIL\n");
        for f in &failures {
            out.push_str(&format!("  {f}\n"));
        }
        Ok((out, true))
    }
}

/// Renders the `ms-report --costs` defence-cost attribution report from a
/// metrics snapshot: per-kind, per-site (top 10) and per-arena cycle
/// tables with each entry's share of `cost/total_cycles`, plus the
/// per-sweep cost distribution. When a forensics trace is supplied, the
/// site table is joined against the bytes each site's failed frees pin in
/// quarantine — sites that are both expensive to defend and pin memory
/// are the tuning targets. With `check`, the ledger's conservation
/// invariants must hold: each kind's counter equals its histogram sum and
/// the kind/site/arena dimensions each sum to the total. A violation
/// names the leaking kind or dimension and gates (the second tuple field
/// is `false`, so `ms-report` exits 2).
///
/// # Errors
///
/// [`CliError`] on malformed metrics, a snapshot without a cost ledger,
/// or a malformed trace.
pub fn render_costs(
    metrics_text: &str,
    trace_text: Option<&str>,
    check: bool,
) -> Result<(String, bool), CliError> {
    let snap = Snapshot::from_json(metrics_text)
        .map_err(|e| CliError(format!("bad metrics: {e}")))?;
    let ledger = sim::CostLedger::from_snapshot(&snap).ok_or_else(|| {
        CliError(
            "metrics carry no cost ledger (cost/total_cycles missing — produced by \
             a baseline, or with the ledger off?)"
                .into(),
        )
    })?;
    let share = |v: u64| {
        if ledger.total == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", v as f64 * 100.0 / ledger.total as f64)
        }
    };
    let mut out = format!("defence cost ledger: {} total cycles\n\n", ledger.total);

    let mut kinds: Vec<_> = ledger.kinds.iter().filter(|(_, c, _)| *c > 0).collect();
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut rows =
        vec![vec!["kind".to_string(), "cycles".into(), "share".into(), "charges".into()]];
    for (label, counted, _) in kinds {
        let charges = snap
            .histogram(sim::COST_SUBSYSTEM, &format!("kind_{label}_cycles_hist"))
            .map_or(0, |h| h.count());
        rows.push(vec![
            label.clone(),
            counted.to_string(),
            share(*counted),
            charges.to_string(),
        ]);
    }
    out.push_str(&table(&rows));

    // Optional forensics join: pinned bytes per site from the trace.
    let pinned_by_site: Vec<(String, u64)> = match trace_text {
        None => Vec::new(),
        Some(text) => {
            let report = RunReport::from_jsonl(text)
                .map_err(|e| CliError(format!("bad trace: {e}")))?;
            let mut agg: Vec<(String, u64)> = Vec::new();
            for a in report.pinned_now() {
                let key = a.site.to_string();
                match agg.iter_mut().find(|(k, _)| *k == key) {
                    Some(e) => e.1 += a.bytes,
                    None => agg.push((key, a.bytes)),
                }
            }
            agg
        }
    };
    let joined = trace_text.is_some();
    const TOP_SITES: usize = 10;
    out.push('\n');
    let mut header = vec!["site".to_string(), "cycles".into(), "share".into()];
    if joined {
        header.push("pinned bytes".into());
    }
    let mut rows = vec![header];
    for (key, cycles) in ledger.sites.iter().take(TOP_SITES) {
        let mut row = vec![key.clone(), cycles.to_string(), share(*cycles)];
        if joined {
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
            share(rest),
        ];
        if joined {
            row.push("-".into());
        }
        rows.push(row);
    }
    out.push_str(&table(&rows));

    if !ledger.arenas.is_empty() {
        out.push('\n');
        let mut rows = vec![vec!["arena".to_string(), "cycles".into(), "share".into()]];
        for (label, cycles) in &ledger.arenas {
            rows.push(vec![label.clone(), cycles.to_string(), share(*cycles)]);
        }
        out.push_str(&table(&rows));
    }

    if let Some(h) = snap.histogram(sim::COST_SUBSYSTEM, "per_sweep_cycles") {
        if h.count() > 0 {
            out.push_str("\nper-sweep defence cost:\n");
            out.push_str(&pause_table(h, "cycles"));
        }
    }

    if check {
        let leaks = ledger.reconcile();
        if !leaks.is_empty() {
            out.push_str("\ncost reconciliation FAILED:\n");
            for l in &leaks {
                out.push_str(&format!("  {l}\n"));
            }
            return Ok((out, false));
        }
        out.push_str(
            "\nreconcile: kind/site/arena dimensions each sum to total_cycles\n",
        );
    }
    Ok((out, true))
}

/// Usage text.
pub const USAGE: &str = "\
minesweeper-sim — MineSweeper (ASPLOS'22) reproduction driver

USAGE:
    minesweeper-sim list
    minesweeper-sim run <benchmark> [--system <label>] [--seed <n>]
                        [--trace-out <run.jsonl>] [--metrics-out <metrics.json>]
                        [--forensics <off|full|sampled:n>] [--arenas <n>]
                        [--cost-drop <kind>]
    minesweeper-sim compare <benchmark> [--seed <n>]
    minesweeper-sim exploit [--system <label>]
    minesweeper-sim exploit --corpus [--out <matrix.json>] [--fuzz <n>]
                        [--weaken <quarantine-off|ignore-failed-frees>] [--seed <n>]
    minesweeper-sim record <benchmark> --out <file> [--seed <n>]
    minesweeper-sim replay <file> [--system <label>] [--knobs <benchmark>] [--seed <n>]
    minesweeper-sim help

SYSTEMS:
    baseline, minesweeper (ms), minesweeper-mostly (mostly), markus,
    ffmalloc (ff), scudo, minesweeper-scudo (ms-scudo), crcount (cr),
    oscar, psweeper (ps), dangsan

COST KINDS (--cost-drop; see ms-report --costs):
    zeroing, quarantine, mark_scan, skip_replay, forensics, stw,
    sched_setup, release, commit
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
                trace_out: None,
                metrics_out: None,
                forensics: None,
                arenas: None,
                cost_drop: None
            }
        );
    }

    #[test]
    fn parse_telemetry_flags() {
        let cmd =
            parse(&argv("run demo --trace-out /tmp/t.jsonl --metrics-out /tmp/m.json"))
                .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                benchmark: "demo".into(),
                system: "minesweeper".into(),
                seed: 42,
                trace_out: Some("/tmp/t.jsonl".into()),
                metrics_out: Some("/tmp/m.json".into()),
                forensics: None,
                arenas: None,
                cost_drop: None
            }
        );
        assert!(parse(&argv("compare demo --trace-out /tmp/t.jsonl")).is_err());
        assert!(parse(&argv("run demo --trace-out")).is_err());
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
                trace_out: None,
                metrics_out: None,
                forensics: None,
                arenas: None,
                cost_drop: None
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
            weaken: None,
            seed: 42,
        };
        let out = execute(&single("baseline")).unwrap();
        assert!(out.contains("Compromised"));
        let out = execute(&single("ms")).unwrap();
        assert!(out.contains("Benign"));
    }

    #[test]
    fn parse_corpus_flags() {
        let cmd = parse(&argv(
            "exploit --corpus --fuzz 2 --seed 7 --weaken quarantine-off --out /tmp/m.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Exploit {
                system: "minesweeper".into(),
                corpus: true,
                out: Some("/tmp/m.json".into()),
                fuzz: 2,
                weaken: Some("quarantine-off".into()),
                seed: 7,
            }
        );
        assert!(parse(&argv("run demo --corpus")).is_err());
        assert!(parse(&argv("compare demo --weaken quarantine-off")).is_err());
        assert!(parse(&argv("exploit --fuzz nope")).is_err());
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
            weaken: None,
            seed: 42,
        })
        .unwrap();
        assert!(out.contains("security matrix:"));
        assert!(out.contains("minesweeper compromised cells: 0"));
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // The written document round-trips through the reporting path.
        let rendered = render_security(&json, true).unwrap();
        assert!(rendered.contains("check: counters reconcile with cells"));
        // Unknown weaken knobs are a CLI error, not a panic.
        let bad = execute(&Command::Exploit {
            system: "minesweeper".into(),
            corpus: true,
            out: None,
            fuzz: 0,
            weaken: Some("bogus".into()),
            seed: 42,
        });
        assert!(bad.is_err());
    }

    #[test]
    fn security_gate_passes_and_fails() {
        let base = sim::run_corpus(42, 1, sim::Weaken::None).to_json();
        // Identical run: pass.
        let (report, fail) = gate_security(&base, &base).unwrap();
        assert!(!fail, "{report}");
        assert!(report.contains("PASS"));
        // Weakened run flips minesweeper cells: fail, named by scenario.
        let weakened = sim::run_corpus(42, 1, sim::Weaken::QuarantineOff).to_json();
        let (report, fail) = gate_security(&base, &weakened).unwrap();
        assert!(fail, "{report}");
        assert!(report.contains("FAIL"));
        assert!(report.contains("minesweeper"));
        assert!(report.contains("hard floor"));
        assert!(report.contains("regressed"));
        // A weakened document can never serve as the baseline.
        let (_, fail) = gate_security(&weakened, &weakened).unwrap();
        assert!(fail);
        // Shrinking the corpus (missing baseline cells) also fails.
        let small = sim::run_corpus(42, 0, sim::Weaken::None).to_json();
        let (report, fail) = gate_security(&base, &small).unwrap();
        assert!(fail);
        assert!(report.contains("missing"));
        // Growing it does not: new-only cells are informational.
        let grown = sim::run_corpus(42, 2, sim::Weaken::None).to_json();
        let (report, fail) = gate_security(&base, &grown).unwrap();
        assert!(!fail, "{report}");
        assert!(report.contains("new cell"));
        // Garbage input is an error, not a pass.
        assert!(gate_security("junk", &base).is_err());
        assert!(gate_security(&base, "junk").is_err());
    }

    #[test]
    fn render_security_check_catches_counter_drift() {
        let good = sim::run_corpus(1, 0, sim::Weaken::None).to_json();
        assert!(render_security(&good, true).is_ok());
        // Corrupt one verdict counter; --check must notice.
        let bad = good.replacen("\"security/verdict_benign\": ", "\"security/verdict_benign\": 9", 1);
        assert!(bad != good, "fixture must actually change");
        let err = render_security(&bad, true).unwrap_err();
        assert!(err.0.contains("reconciliation"), "{err}");
        // Without --check the drift is not fatal.
        assert!(render_security(&bad, false).is_ok());
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

    #[test]
    fn run_demo_executes() {
        let out = execute(&Command::Run {
            benchmark: "demo".into(),
            system: "ms".into(),
            seed: 1,
            trace_out: None,
            metrics_out: None,
            forensics: None,
            arenas: None,
            cost_drop: None,
        })
        .unwrap();
        assert!(out.contains("sweeps"));
        assert!(out.contains("avg RSS"));
        assert!(out.contains("layer/released_bytes"), "telemetry table:\n{out}");
    }

    #[test]
    fn trace_flags_need_a_layered_system() {
        let dir = std::env::temp_dir().join("ms_cli_trace_reject.jsonl");
        let err = execute(&Command::Run {
            benchmark: "demo".into(),
            system: "baseline".into(),
            seed: 1,
            trace_out: Some(dir.to_string_lossy().into_owned()),
            metrics_out: None,
            forensics: None,
            arenas: None,
            cost_drop: None,
        })
        .unwrap_err();
        assert!(err.0.contains("layered"), "{err}");
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn run_trace_and_report_roundtrip() {
        let trace = std::env::temp_dir().join("ms_cli_report_test.jsonl");
        let metrics = std::env::temp_dir().join("ms_cli_report_test.json");
        execute(&Command::Run {
            benchmark: "demo".into(),
            system: "ms".into(),
            seed: 5,
            trace_out: Some(trace.to_string_lossy().into_owned()),
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            forensics: None,
            arenas: None,
            cost_drop: None,
        })
        .unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let metrics_text = std::fs::read_to_string(&metrics).unwrap();
        assert!(trace_text.lines().any(|l| l.contains("\"sweep_start\"")));
        // The reconciliation check is the acceptance gate: JSONL totals
        // must match the exported counters exactly.
        let report = render_report(&trace_text, Some(&metrics_text), true).unwrap();
        assert!(report.contains("reconcile: trace totals match"), "{report}");
        assert!(report.contains("proportional"), "{report}");
        assert!(render_report(&trace_text, None, true).is_err());

        // A torn final line (truncated mid-write) is a clear error, not a
        // panic, and names the offending line.
        let torn = &trace_text[..trace_text.len() - trace_text.len() / 10];
        assert!(!torn.ends_with('\n'), "truncation must tear the last line");
        let err = render_report(torn, None, false).unwrap_err();
        assert!(err.0.contains("bad trace"), "{err}");
        assert!(err.0.contains("torn final line"), "{err}");
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(metrics).ok();
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
                trace_out: None,
                metrics_out: None,
                forensics: Some("sampled:8".into()),
                arenas: None,
                cost_drop: None
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

    #[test]
    fn forensics_needs_a_layered_system() {
        let err = execute(&Command::Run {
            benchmark: "demo".into(),
            system: "baseline".into(),
            seed: 1,
            trace_out: None,
            metrics_out: None,
            forensics: Some("full".into()),
            arenas: None,
            cost_drop: None,
        })
        .unwrap_err();
        assert!(err.0.contains("layered"), "{err}");
    }

    #[test]
    fn forensic_run_report_shows_pinners_and_reconciles() {
        let trace = std::env::temp_dir().join("ms_cli_forensic_test.jsonl");
        let metrics = std::env::temp_dir().join("ms_cli_forensic_test.json");
        execute(&Command::Run {
            benchmark: "demo".into(),
            system: "ms".into(),
            seed: 5,
            trace_out: Some(trace.to_string_lossy().into_owned()),
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            forensics: Some("full".into()),
            arenas: None,
            cost_drop: None,
        })
        .unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let metrics_text = std::fs::read_to_string(&metrics).unwrap();
        assert!(trace_text.lines().any(|l| l.contains("\"ledger_entries\"")));
        let opts = ReportOpts { check: true, pinners: true, failed_frees: true };
        let out = render_report_with(&trace_text, Some(&metrics_text), &opts).unwrap();
        assert!(out.contains("pinned sites"), "{out}");
        assert!(out.contains("reconcile: trace totals match"), "{out}");

        // Without forensics in the trace, the views degrade gracefully.
        let plain = execute(&Command::Run {
            benchmark: "demo".into(),
            system: "ms".into(),
            seed: 5,
            trace_out: Some(trace.to_string_lossy().into_owned()),
            metrics_out: None,
            forensics: None,
            arenas: None,
            cost_drop: None,
        });
        plain.unwrap();
        let plain_text = std::fs::read_to_string(&trace).unwrap();
        let out = render_report_with(&plain_text, None, &opts_no_check()).unwrap();
        assert!(out.contains("no forensics data"), "{out}");
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(metrics).ok();
    }

    fn opts_no_check() -> ReportOpts {
        ReportOpts { check: false, pinners: true, failed_frees: true }
    }

    #[test]
    fn slo_renderer_flags_breaches_and_rejects_empty_specs() {
        let reg = telemetry::Registry::new();
        reg.histogram("engine", "stw_cycles").record(5000);
        let metrics = reg.snapshot().to_json();

        let (table, breached) = render_slo(&metrics, "stw=100").unwrap();
        assert!(breached);
        assert!(table.contains("FAIL"), "{table}");

        let (table, breached) = render_slo(&metrics, "stw=1000000,util=10").unwrap();
        assert!(!breached, "{table}");
        assert!(table.contains("PASS (unmeasured)"), "util never measured: {table}");

        assert!(render_slo(&metrics, "").is_err(), "empty spec would vacuously pass");
        assert!(render_slo(&metrics, "bogus=1").is_err());
        assert!(render_slo("not json", "stw=1").is_err());
    }

    #[test]
    fn parse_arenas_flag() {
        let cmd = parse(&argv("run demo --arenas 4")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                benchmark: "demo".into(),
                system: "minesweeper".into(),
                seed: 42,
                trace_out: None,
                metrics_out: None,
                forensics: None,
                arenas: Some(4),
                cost_drop: None
            }
        );
        assert!(parse(&argv("run demo --arenas 0")).is_err());
        assert!(parse(&argv("run demo --arenas many")).is_err());
        assert!(parse(&argv("run demo --arenas")).is_err());
        assert!(parse(&argv("compare demo --arenas 2")).is_err());
    }

    #[test]
    fn arenas_need_a_layered_system_and_no_trace_sink() {
        let err = execute(&Command::Run {
            benchmark: "demo".into(),
            system: "baseline".into(),
            seed: 1,
            trace_out: None,
            metrics_out: None,
            forensics: None,
            arenas: Some(2),
            cost_drop: None,
        })
        .unwrap_err();
        assert!(err.0.contains("layered"), "{err}");
        let err = execute(&Command::Run {
            benchmark: "demo".into(),
            system: "ms".into(),
            seed: 1,
            trace_out: Some("/tmp/ms_cli_arena_trace.jsonl".into()),
            metrics_out: None,
            forensics: None,
            arenas: Some(2),
            cost_drop: None,
        })
        .unwrap_err();
        assert!(err.0.contains("--trace-out"), "{err}");
    }

    #[test]
    fn multi_arena_run_reports_shards_and_reconciles() {
        let metrics = std::env::temp_dir().join("ms_cli_arena_test.json");
        let out = execute(&Command::Run {
            benchmark: "demo".into(),
            system: "ms".into(),
            seed: 7,
            trace_out: None,
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            forensics: None,
            arenas: Some(3),
            cost_drop: None,
        })
        .unwrap();
        assert!(out.contains("minesweeper-arenas3"), "{out}");
        assert!(out.contains("a2"), "per-shard rows:\n{out}");
        assert!(out.contains("scheduler:"), "{out}");
        assert!(out.contains("cost share"), "per-arena cost shares:\n{out}");
        assert!(out.contains('%'), "shares are percentages:\n{out}");

        // The snapshot round-trips through the metrics-only ms-report path
        // and its two accounting paths reconcile.
        let metrics_text = std::fs::read_to_string(&metrics).unwrap();
        let report = render_metrics_report(&metrics_text, true).unwrap();
        assert!(
            report.contains("reconcile: arena shard counters match global totals"),
            "{report}"
        );
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn metrics_report_rejects_unsharded_or_tampered_snapshots() {
        // A single-arena engine snapshot has no arena counters.
        let reg = telemetry::Registry::new();
        reg.counter("layer", "sweeps").inc();
        let err = render_metrics_report(&reg.snapshot().to_json(), false).unwrap_err();
        assert!(err.0.contains("no arena shard counters"), "{err}");

        // A shard counter that lost an update fails --check by name.
        let reg = telemetry::Registry::new();
        reg.counter("arena", "arenas").add(2);
        reg.counter("arena", "a0_sweeps").add(3);
        reg.counter("arena", "a1_sweeps").add(1);
        reg.counter("arena", "total_sweeps").add(5);
        let text = reg.snapshot().to_json();
        assert!(render_metrics_report(&text, false).is_ok(), "table renders anyway");
        let err = render_metrics_report(&text, true).unwrap_err();
        assert!(err.0.contains("sweeps sums to 4"), "{err}");
        assert!(err.0.contains("counted 5"), "{err}");

        assert!(render_metrics_report("not json", false).is_err());
    }

    #[test]
    fn parse_cost_drop_flag() {
        let cmd = parse(&argv("run demo --cost-drop zeroing")).unwrap();
        match cmd {
            Command::Run { cost_drop, .. } => {
                assert_eq!(cost_drop.as_deref(), Some("zeroing"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&argv("run demo --cost-drop")).is_err());
        assert!(parse(&argv("compare demo --cost-drop zeroing")).is_err());
    }

    #[test]
    fn cost_drop_needs_layered_system_and_known_kind() {
        let run = |system: &str, kind: &str| {
            execute(&Command::Run {
                benchmark: "demo".into(),
                system: system.into(),
                seed: 1,
                trace_out: None,
                metrics_out: None,
                forensics: None,
                arenas: None,
                cost_drop: Some(kind.into()),
            })
        };
        let err = run("baseline", "zeroing").unwrap_err();
        assert!(err.0.contains("layered"), "{err}");
        let err = run("ms", "bogus").unwrap_err();
        assert!(err.0.contains("unknown cost kind"), "{err}");
    }

    #[test]
    fn costs_report_reconciles_and_catches_injected_leak() {
        let metrics = std::env::temp_dir().join("ms_cli_costs_test.json");
        let path = metrics.to_string_lossy().into_owned();
        let run = |drop: Option<&str>| {
            execute(&Command::Run {
                benchmark: "demo".into(),
                system: "ms".into(),
                seed: 5,
                trace_out: None,
                metrics_out: Some(path.clone()),
                forensics: None,
                arenas: None,
                cost_drop: drop.map(String::from),
            })
            .unwrap();
            std::fs::read_to_string(&path).unwrap()
        };
        // Clean run: tables render and every dimension reconciles.
        let clean = run(None);
        let (out, ok) = render_costs(&clean, None, true).unwrap();
        assert!(ok, "{out}");
        assert!(out.contains("defence cost ledger:"), "{out}");
        assert!(out.contains("zeroing"), "{out}");
        assert!(out.contains("reconcile: kind/site/arena"), "{out}");
        // Injected leak: the gate fails (ms-report exit 2) naming the kind.
        let leaky = run(Some("zeroing"));
        let (out, ok) = render_costs(&leaky, None, true).unwrap();
        assert!(!ok, "{out}");
        assert!(out.contains("FAILED"), "{out}");
        assert!(out.contains("zeroing"), "{out}");
        // Without --check the leaky report still renders and passes.
        assert!(render_costs(&leaky, None, false).unwrap().1);
        // A snapshot without the ledger is a clear input error.
        let reg = telemetry::Registry::new();
        reg.counter("layer", "sweeps").inc();
        let err = render_costs(&reg.snapshot().to_json(), None, false).unwrap_err();
        assert!(err.0.contains("no cost ledger"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn costs_report_joins_pinned_bytes_from_a_forensic_trace() {
        let trace = std::env::temp_dir().join("ms_cli_costs_join.jsonl");
        let metrics = std::env::temp_dir().join("ms_cli_costs_join.json");
        execute(&Command::Run {
            benchmark: "demo".into(),
            system: "ms".into(),
            seed: 5,
            trace_out: Some(trace.to_string_lossy().into_owned()),
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            forensics: Some("full".into()),
            arenas: None,
            cost_drop: None,
        })
        .unwrap();
        let (out, ok) = render_costs(
            &std::fs::read_to_string(&metrics).unwrap(),
            Some(&std::fs::read_to_string(&trace).unwrap()),
            true,
        )
        .unwrap();
        assert!(ok, "{out}");
        assert!(out.contains("pinned bytes"), "{out}");
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn schema1_security_matrix_still_parses() {
        let doc = r#"{
  "schema": 1,
  "weaken": "none",
  "seed": 42,
  "fuzz": 0,
  "backends": ["baseline", "minesweeper"],
  "scenarios": [ {"name": "uaf-basic"} ],
  "cells": [
    {"scenario": "uaf-basic", "backend": "baseline", "verdict": "compromised", "attack_window": 3},
    {"scenario": "uaf-basic", "backend": "minesweeper", "verdict": "benign"}
  ],
  "counters": {"security/cells": 2, "security/verdict_compromised": 1, "security/verdict_clean_termination": 0, "security/verdict_benign": 1, "security/verdict_detected": 0, "security/s_uaf_basic_compromised": 1}
}"#;
        // Pre-ledger documents still render and reconcile; their cells
        // parse with zero defence cost and no totals line is shown.
        let out = render_security(doc, true).unwrap();
        assert!(out.contains("check: counters reconcile"), "{out}");
        assert!(!out.contains("defence cycles:"), "{out}");
        // Above the supported range stays rejected.
        let future = doc.replacen("\"schema\": 1", "\"schema\": 99", 1);
        let err = render_security(&future, false).unwrap_err();
        assert!(err.0.contains("unsupported security matrix schema"), "{err}");
    }

    #[test]
    fn security_defence_costs_render_and_reconcile() {
        let good = sim::run_corpus(1, 0, sim::Weaken::None).to_json();
        let out = render_security(&good, true).unwrap();
        assert!(out.contains("ms defence"), "{out}");
        assert!(out.contains("defence cycles:"), "{out}");
        // Corrupting one cell's total breaks both the exporter counter
        // and that cell's per-kind sum; --check catches it.
        let bad = good.replacen("\"defence_cycles\": ", "\"defence_cycles\": 9", 1);
        assert!(bad != good, "fixture must actually change");
        let err = render_security(&bad, true).unwrap_err();
        assert!(err.0.contains("defence"), "{err}");
        assert!(render_security(&bad, false).is_ok());
    }
}
