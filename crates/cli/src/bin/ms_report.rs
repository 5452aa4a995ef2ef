//! `ms-report`: render the dossier of a run directory written by
//! `minesweeper-sim run --out DIR` and run its gates, or render and gate
//! a security matrix.

use std::process::ExitCode;

use ms_cli::CliError;

const USAGE: &str = "\
ms-report — one report per MineSweeper run

USAGE:
    ms-report <run-dir> [--check] [--slo <spec>]
    ms-report --security <matrix.json> [--baseline <matrix.json>] [--check]

<run-dir> is what `minesweeper-sim run <benchmark> --out <run-dir>` writes:
metrics.json always, trace.jsonl unless the run used --arenas. The report
renders every section those files support, in this order:

    timeline, failed frees, quarantine  per-sweep tables (trace)
    pinners, failed-free detail         when the trace is forensic
    pauses                              engine pause/STW/sweep histograms
    arenas                              shard table, per-arena histograms
    cost ledger                         per-kind, per-site and per-arena
                                        defence cycles; a forensic trace
                                        adds each site's pinned bytes
    slo                                 with --slo

--check runs every gate the directory supports:
    trace-reconcile    trace totals (and the forensic ledger) equal the
                       layer counters
    mark-accounting    per sweep, scanned words + skipped bytes equal the
                       plan bytes
    arena-shards       per shard, the a<k>_sweeps counter equals the
                       a<k>_sweep_cycles count
    cost-conservation  the kind and site dimensions, and the arena one
                       when present, each sum to cost/total_cycles
--slo <spec> adds the slo table and gate; the spec is a comma list of
stw=CYCLES, sweep=CYCLES, qratio=PERMILLE and util=PCT.

--security renders the scenario x backend verdict matrix from a
SECURITY_matrix.json (minesweeper-sim exploit --corpus --out); --check
reconciles its embedded security/* counters against the cells — including
each cell's schema-2 defence-cycle attribution. With --baseline it diffs
the matrix against a committed baseline and fails when a cell's verdict
regressed, a baseline cell went missing, or any minesweeper cell is
compromised (the hard floor).

EXIT CODES:
    0  report printed, every gate that ran passed
    1  bad input — missing or unreadable directory or file, malformed
       document or SLO spec, unknown flag
    2  a gate failed; the report and stderr name it
";

/// Exit code for a failed gate — distinct from 1, which means bad input.
const GATE_FAILED: u8 = 2;

enum Mode {
    Help,
    Dossier { dir: String, check: bool, slo: Option<String> },
    Security { matrix: String, baseline: Option<String>, check: bool },
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(mode) {
        Ok((out, failed)) => {
            print!("{out}");
            if failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                for f in &failed {
                    eprintln!("check failed: {f}");
                }
                ExitCode::from(GATE_FAILED)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Mode, CliError> {
    let mut dir = None;
    let mut slo = None;
    let mut security = None;
    let mut baseline = None;
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |slot: &mut Option<String>| {
            let v = it.next().ok_or_else(|| CliError(format!("{arg} needs a value")))?;
            *slot = Some(v.clone());
            Ok::<(), CliError>(())
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(Mode::Help),
            "--check" => check = true,
            "--slo" => value(&mut slo)?,
            "--security" => value(&mut security)?,
            "--baseline" => value(&mut baseline)?,
            flag if flag.starts_with('-') => {
                return Err(CliError(format!("unknown flag: {flag}")));
            }
            name => {
                if dir.replace(name.to_string()).is_some() {
                    return Err(CliError(format!("unexpected argument: {name}")));
                }
            }
        }
    }
    match (security, dir) {
        (Some(matrix), None) if slo.is_none() => Ok(Mode::Security { matrix, baseline, check }),
        (Some(_), _) => Err(CliError("--security takes no run directory or --slo".into())),
        (None, _) if baseline.is_some() => {
            Err(CliError("--baseline needs --security <matrix.json>".into()))
        }
        (None, Some(dir)) => Ok(Mode::Dossier { dir, check, slo }),
        (None, None) => Err(CliError("ms-report needs a run directory".into())),
    }
}

/// Runs one mode: the text to print and every failed gate.
fn run(mode: Mode) -> Result<(String, Vec<String>), CliError> {
    match mode {
        Mode::Help => Ok((USAGE.to_string(), Vec::new())),
        Mode::Dossier { dir, check, slo } => {
            let d = ms_cli::render_dossier(&dir, check, slo.as_deref())?;
            Ok((d.text, d.failed))
        }
        Mode::Security { matrix, baseline, check } => {
            let new_text = ms_cli::read_file(&matrix)?;
            let (mut out, drifted) = ms_cli::render_security(&new_text, check)?;
            let mut failed = Vec::new();
            if drifted {
                failed.push("security-counters: counters disagree with the cells".to_string());
            }
            if let Some(base) = baseline {
                let (gate, regressed) =
                    ms_cli::gate_security(&ms_cli::read_file(&base)?, &new_text)?;
                out.push_str(&gate);
                if regressed {
                    failed.push("security-baseline: verdicts regressed".to_string());
                }
            }
            Ok((out, failed))
        }
    }
}
