//! Design-choice ablations beyond the paper's figures — the trade-offs
//! DESIGN.md calls out:
//!
//! 1. **Sweep threshold** (§3.2): the paper picks 15% where MarkUs picked
//!    25%, trading sweep frequency for memory. Sweep the knob.
//! 2. **Helper threads** (§4.4): 6 helpers by default; how does sweep
//!    throughput (and hence memory promptness) scale?
//! 3. **Pause factor** (§5.7): "MineSweeper also makes it possible to
//!    trade off slowdown for memory usage by altering the pausing
//!    threshold."

use minesweeper::MsConfig;
use ms_bench::SEED;
use sim::report::{fx, table};
use sim::{run, System};
use workloads::{mimalloc_bench, spec2006};

fn main() {
    let xalanc = spec2006::by_name("xalancbmk").expect("profile");
    let omnetpp = spec2006::by_name("omnetpp").expect("profile");
    let stress = mimalloc_bench::by_name("glibc-simple").expect("profile");

    println!("== Ablation A: sweep threshold (xalancbmk + omnetpp) ==\n");
    let mut rows = vec![vec![
        "threshold".to_string(),
        "xalanc slowdown".into(),
        "xalanc memory".into(),
        "omnetpp slowdown".into(),
        "omnetpp memory".into(),
        "omnetpp sweeps".into(),
    ]];
    let base_x = run(&xalanc, System::Baseline, SEED);
    let base_o = run(&omnetpp, System::Baseline, SEED);
    for threshold in [0.05, 0.10, 0.15, 0.25, 0.50] {
        let cfg = MsConfig { sweep_threshold: threshold, ..MsConfig::default() };
        let x = run(&xalanc, System::MineSweeper(cfg), SEED);
        let o = run(&omnetpp, System::MineSweeper(cfg), SEED);
        rows.push(vec![
            format!("{:.0}%", threshold * 100.0),
            fx(x.slowdown_vs(&base_x)),
            fx(x.memory_overhead_vs(&base_x)),
            fx(o.slowdown_vs(&base_o)),
            fx(o.memory_overhead_vs(&base_o)),
            o.sweeps.to_string(),
        ]);
    }
    println!("{}", table(&rows));
    println!("Expected: lower thresholds sweep more (more time, less memory);");
    println!("15% is the knee the paper chose.\n");

    println!("== Ablation B: helper threads (omnetpp) ==\n");
    let mut rows = vec![vec![
        "helpers".to_string(),
        "slowdown".into(),
        "memory".into(),
        "cpu util".into(),
    ]];
    for helpers in [0usize, 1, 3, 6, 7] {
        let cfg = MsConfig { helper_threads: helpers, ..MsConfig::default() };
        let m = run(&omnetpp, System::MineSweeper(cfg), SEED);
        rows.push(vec![
            (helpers + 1).to_string() + " threads",
            fx(m.slowdown_vs(&base_o)),
            fx(m.memory_overhead_vs(&base_o)),
            fx(m.cpu_utilisation()),
        ]);
    }
    println!("{}", table(&rows));
    println!("Expected: more sweepers recycle memory more promptly (memory down)");
    println!("at higher CPU utilisation; returns diminish near the core count.\n");

    println!("== Ablation C: pause factor (glibc-simple stress) ==\n");
    let base_s = run(&stress, System::Baseline, SEED);
    let mut rows = vec![vec![
        "pause factor".to_string(),
        "slowdown".into(),
        "memory".into(),
        "pause cycles".into(),
    ]];
    for factor in [1.5, 2.0, 4.0, 8.0, 100.0] {
        let cfg = MsConfig { pause_factor: factor, ..MsConfig::default() };
        let m = run(&stress, System::MineSweeper(cfg), SEED);
        rows.push(vec![
            format!("{factor}"),
            fx(m.slowdown_vs(&base_s)),
            fx(m.memory_overhead_vs(&base_s)),
            m.pause_cycles.to_string(),
        ]);
    }
    println!("{}", table(&rows));
    println!("Expected: tighter pausing = more slowdown, less memory (§5.7).");
}
