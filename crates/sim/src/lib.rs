#![warn(missing_docs)]

//! Discrete-event execution engine, cost model and experiment runner for
//! the MineSweeper reproduction.
//!
//! The paper measures wall-clock slowdown, RSS over time and CPU
//! utilisation of real benchmarks. This crate replaces the hardware with a
//! virtual clock: a mutator replays a [`workloads::TraceGen`] stream
//! against one of ten systems under test ([`System`]: the JeMalloc and
//! Scudo baselines, MineSweeper over each, MarkUs, FFmalloc, CRCount,
//! Oscar, pSweeper and DangSan), every operation is charged cycles from a
//! [`CostModel`], and sweeps advance *in virtual time interleaved with the
//! mutator* — so concurrency, stop-the-world pauses, allocation pauses and
//! the delay-of-reuse cache penalty all emerge from the event stream
//! rather than being asserted.
//!
//! Because every configuration replays the *identically seeded* trace,
//! ratios (slowdown, memory overhead, CPU utilisation) are deterministic
//! and the cost model's absolute constants largely cancel.
//!
//! # Example
//!
//! ```
//! use sim::{run, System};
//! use workloads::Profile;
//!
//! let profile = Profile::demo();
//! let base = run(&profile, System::Baseline, 42);
//! let ms = run(&profile, System::minesweeper_default(), 42);
//! let slowdown = ms.slowdown_vs(&base);
//! assert!(slowdown >= 1.0 && slowdown < 3.0);
//! ```

mod cost;
mod defence;
mod engine;
mod exploit;
mod metrics;
pub mod report;
mod security;
mod system;

pub use cost::CostModel;
pub use engine::{Engine, ENGINE_SUBSYSTEM};
pub use exploit::{
    run_exploit, run_scenario, ScenarioRun, SecSystem, Weaken,
};
pub use metrics::{geomean, RunMetrics};
pub use security::{run_corpus, SecCell, SecurityMatrix, SECURITY_SCHEMA};
pub use telemetry::{CostKind, CostLedger, CostRecorder, COST_SUBSYSTEM};
pub use system::System;

use workloads::{Op, Profile};

/// Runs `profile` under `system` with the given seed and returns the
/// collected metrics. Convenience wrapper over [`Engine`].
pub fn run(profile: &Profile, system: System, seed: u64) -> RunMetrics {
    Engine::new(profile, system, seed).run()
}

/// Replays an explicit op stream (e.g. a parsed recorded trace) under
/// `system`; `profile` supplies the pointer-graph knobs and scaling, and
/// `seed` drives the (deterministic) pointer-graph randomness.
pub fn run_trace(
    profile: &Profile,
    system: System,
    seed: u64,
    ops: impl IntoIterator<Item = Op>,
) -> RunMetrics {
    Engine::new(profile, system, seed).run_ops(ops)
}
