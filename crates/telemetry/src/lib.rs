//! Telemetry for the MineSweeper reproduction: a metrics registry,
//! sweep-lifecycle tracing, and exportable run timelines.
//!
//! The crate has three planes, deliberately decoupled:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Histogram`]) — always-on
//!   counters and log2 histograms, labelled by subsystem. The simulator
//!   runs on one thread, so every cell is a plain `Cell`. A [`Snapshot`]
//!   captures them at a point in time and round-trips through
//!   schema-versioned JSON.
//! * **Tracing** ([`Tracer`], [`Sink`], [`Event`]) — typed
//!   sweep-lifecycle events routed through a pluggable sink (null, JSONL
//!   writer). When disabled the hot path costs one branch and constructs
//!   nothing.
//! * **Timelines** ([`RunReport`], [`SweepRecord`]) — folds an event
//!   stream into per-sweep records and paper-style summary tables, and
//!   [`RunReport::reconcile`]s event-derived totals against the metric
//!   counters so the two planes can never silently drift apart.
//!
//! On top of the three planes sits one evaluator: [`SloPolicy::evaluate`]
//! checks a run's final snapshot against SLO objectives.
//!
//! [`IdMap`] (the [`idhash`] module) is the integer-keyed map every crate
//! on the simulator's per-op path shares.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod idhash;
pub mod json;
pub mod registry;
pub mod slo;
pub mod timeline;
pub mod trace;

pub use cost::{CostKind, CostLedger, CostRecorder, COST_SUBSYSTEM};
pub use idhash::{IdHasher, IdMap};
pub use json::{Json, JsonError};
pub use registry::{
    Counter, CounterSample, Histogram, HistogramSample, Registry, Snapshot, HISTOGRAM_BUCKETS,
    SNAPSHOT_SCHEMA_VERSION,
};
pub use slo::{slo_table, SloCheck, SloKind, SloPolicy};
pub use timeline::{pause_table, AgedRecord, PinRecord, RunReport, SweepRecord};
pub use trace::{
    Event, EventKind, JsonlSink, LedgerTotals, MarkProf, NullSink, SharedBuf, Sink, Stopwatch,
    Tracer, Trigger,
};
