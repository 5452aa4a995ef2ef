//! Wall-clock benchmark of the MineSweeper reproduction.
//!
//! Five workloads (see [`workload::ALL`]) each replay a generated op
//! stream through `sim::run_trace`, untraced for the end-to-end metrics,
//! then once more with the op stream and the layer's trace events stamped
//! from outside for the per-layer metrics. See `README.md` next to this
//! package for the method and its limits.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod compare;
#[allow(unsafe_code)]
pub mod heap;
pub mod host;
pub mod measure;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
