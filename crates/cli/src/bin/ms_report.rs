//! `ms-report`: summarise a sweep-lifecycle trace (and optional metrics
//! snapshot) produced by `minesweeper-sim run --trace-out/--metrics-out`,
//! check a metrics snapshot against an SLO policy, gate a security matrix
//! against its baseline, or account a run's defence costs.

use std::process::ExitCode;

use ms_cli::{CliError, ReportOpts};

const USAGE: &str = "\
ms-report — summarise MineSweeper sweep-lifecycle traces

USAGE:
    ms-report <run.jsonl> [--metrics <metrics.json>] [--check]
              [--pinners] [--failed-frees]
    ms-report --metrics <metrics.json> [--check]
    ms-report --slo <spec> --metrics <metrics.json>
    ms-report --security <matrix.json> [--baseline <matrix.json>] [--check]
    ms-report --costs <metrics.json> [<run.jsonl>] [--check]

Prints a per-sweep timeline plus failed-free and quarantine tables from
the JSONL event stream; with --metrics also the engine's pause/STW/sweep
histograms. --pinners ranks allocation sites by the bytes their dangling
pointers pin in quarantine, and --failed-frees lists every entry still in
the failed-free ledger (both need a trace recorded with the `forensics`
config knob on). --check reconciles the trace's aggregated totals —
including the forensic ledger, when present — against the snapshot's
counters and fails on any mismatch.

Without a trace file, --metrics alone renders a multi-arena snapshot
(minesweeper-sim run --arenas N --metrics-out): the per-arena shard
table, the sweep-scheduler summary and each arena's pause histograms;
--check then requires the sum of every shard's counters to equal the
independently accumulated arena/total_* globals.

--slo evaluates the snapshot against a comma-separated objective spec
(stw=CYCLES,sweep=CYCLES,qratio=PERMILLE,util=PCT), prints a pass/fail
table and exits 2 on any violation.

--security renders the scenario x backend verdict matrix from a
SECURITY_matrix.json (minesweeper-sim exploit --corpus --out); --check
reconciles its embedded security/* counters against the cells — including
each cell's schema-2 defence-cycle attribution. With --baseline it diffs
the matrix against a committed baseline and exits 2 when a cell's verdict
regressed, a baseline cell went missing, or any minesweeper cell is
compromised (the hard floor).

--costs renders the defence-cost attribution ledger from a metrics
snapshot (minesweeper-sim run --metrics-out): per-kind, per-site and
per-arena cycle tables with their share of cost/total_cycles, plus the
per-sweep cost distribution. An optional trace file joins the top sites
against the bytes they pin in quarantine (needs forensics). --check
verifies the ledger's conservation invariants — every dimension must sum
to the total and each kind's counter must match its histogram — and
exits 2 naming the leaking kind otherwise.

EXIT CODES:
    0  success — report printed, every requested gate passed
    1  bad input — unreadable file, malformed document, unknown flag
    2  gate failure — SLO breach, security verdict regression, or a
       cost-ledger conservation leak
";

/// Exit code for a failed gate (SLO breach, security regression or cost
/// leak) — distinct from 1, which means bad input.
const GATE_FAILED: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((out, gate_ok)) => {
            print!("{out}");
            if gate_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(GATE_FAILED)
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(String, bool), CliError> {
    let mut trace = None;
    let mut metrics = None;
    let mut slo = None;
    let mut security = None;
    let mut baseline = None;
    let mut costs = None;
    let mut opts = ReportOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok((USAGE.to_string(), true)),
            "--metrics" => {
                metrics = Some(
                    it.next()
                        .ok_or_else(|| CliError("--metrics needs a value".into()))?
                        .clone(),
                );
            }
            "--slo" => {
                slo = Some(
                    it.next().ok_or_else(|| CliError("--slo needs a spec".into()))?.clone(),
                );
            }
            "--security" => {
                security = Some(
                    it.next()
                        .ok_or_else(|| CliError("--security needs a value".into()))?
                        .clone(),
                );
            }
            "--baseline" => {
                baseline = Some(
                    it.next()
                        .ok_or_else(|| CliError("--baseline needs a value".into()))?
                        .clone(),
                );
            }
            "--costs" => {
                costs = Some(
                    it.next()
                        .ok_or_else(|| CliError("--costs needs a metrics file".into()))?
                        .clone(),
                );
            }
            "--check" => opts.check = true,
            "--pinners" => opts.pinners = true,
            "--failed-frees" => opts.failed_frees = true,
            flag if flag.starts_with('-') => {
                return Err(CliError(format!("unknown flag: {flag}")));
            }
            name => {
                if trace.replace(name.to_string()).is_some() {
                    return Err(CliError(format!("unexpected argument: {name}")));
                }
            }
        }
    }

    if baseline.is_some() && security.is_none() {
        return Err(CliError("--baseline needs --security <matrix.json>".into()));
    }
    if let Some(path) = costs {
        // The positional trace file, when given, joins pinned bytes into
        // the per-site cost table.
        let trace_text = match &trace {
            Some(p) => Some(read(p)?),
            None => None,
        };
        return ms_cli::render_costs(&read(&path)?, trace_text.as_deref(), opts.check);
    }
    if let Some(path) = security {
        let new_text = read(&path)?;
        let mut out = ms_cli::render_security(&new_text, opts.check)?;
        return match baseline {
            None => Ok((out, true)),
            Some(base) => {
                let (gate, failed) = ms_cli::gate_security(&read(&base)?, &new_text)?;
                out.push_str(&gate);
                Ok((out, !failed))
            }
        };
    }
    if let Some(spec) = slo {
        let metrics =
            metrics.ok_or_else(|| CliError("--slo needs --metrics <file>".into()))?;
        let (out, breached) = ms_cli::render_slo(&read(&metrics)?, &spec)?;
        return Ok((out, !breached));
    }

    let Some(trace) = trace else {
        // Metrics-only mode: a multi-arena snapshot report.
        let metrics = metrics.ok_or_else(|| {
            CliError("ms-report needs a trace file or --metrics <file>".into())
        })?;
        if opts.pinners || opts.failed_frees {
            return Err(CliError(
                "--pinners/--failed-frees need a trace file".into(),
            ));
        }
        let out = ms_cli::render_metrics_report(&read(&metrics)?, opts.check)?;
        return Ok((out, true));
    };
    let trace_text = read(&trace)?;
    let metrics_text = match &metrics {
        Some(path) => Some(read(path)?),
        None => None,
    };
    let out = ms_cli::render_report_with(&trace_text, metrics_text.as_deref(), &opts)?;
    Ok((out, true))
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))
}
