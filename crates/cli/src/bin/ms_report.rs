//! `ms-report`: render the dossier of a run directory written by
//! `minesweeper-sim run --out DIR` and run its gates.

use std::process::ExitCode;

use ms_cli::CliError;

const USAGE: &str = "\
ms-report — one report per MineSweeper run

USAGE:
    ms-report <run-dir> [--check] [--slo <spec>]

<run-dir> is what `minesweeper-sim run <benchmark> --out <run-dir>` writes:
metrics.json and trace.jsonl. The report renders every section those
files support, in this order:

    timeline, failed frees, quarantine  per-sweep tables (trace)
    pinners, failed-free detail         when the trace is forensic
    pauses                              engine pause/STW/sweep histograms
    cost ledger                         per-kind and per-site defence
                                        cycles; a forensic trace
                                        adds each site's pinned bytes
    slo                                 with --slo

--check runs every gate the directory supports:
    trace-reconcile    trace totals (and the forensic ledger) equal the
                       layer counters
    mark-accounting    per sweep, scanned words + skipped bytes equal the
                       plan bytes
    cost-conservation  the kind and site dimensions each sum to
                       cost/total_cycles
--slo <spec> adds the slo table and gate; the spec is a comma list of
stw=CYCLES, sweep=CYCLES and qratio=PERMILLE.

EXIT CODES:
    0  report printed, every gate that ran passed
    1  bad input — missing or unreadable directory or file, malformed
       file or SLO spec, unknown flag
    2  a gate failed; the report and stderr name it
";

/// Exit code for a failed gate — distinct from 1, which means bad input.
const GATE_FAILED: u8 = 2;

enum Mode {
    Help,
    Dossier { dir: String, check: bool, slo: Option<String> },
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
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Mode::Help),
            "--check" => check = true,
            "--slo" => {
                let v = it.next().ok_or_else(|| CliError("--slo needs a value".into()))?;
                slo = Some(v.clone());
            }
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
    let dir = dir.ok_or_else(|| CliError("ms-report needs a run directory".into()))?;
    Ok(Mode::Dossier { dir, check, slo })
}

/// Runs one mode: the text to print and every failed gate.
fn run(mode: Mode) -> Result<(String, Vec<String>), CliError> {
    match mode {
        Mode::Help => Ok((USAGE.to_string(), Vec::new())),
        Mode::Dossier { dir, check, slo } => {
            let d = ms_cli::render_dossier(&dir, check, slo.as_deref())?;
            Ok((d.text, d.failed))
        }
    }
}
