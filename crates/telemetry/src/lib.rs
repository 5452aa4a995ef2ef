//! Telemetry for the MineSweeper reproduction: a lock-free metrics
//! registry, sweep-lifecycle tracing, and exportable run timelines.
//!
//! The crate has three planes, deliberately decoupled:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Histogram`]) — always-on
//!   atomic counters and log2 histograms, labelled by subsystem. A
//!   [`Snapshot`] captures them at a point in time, supports `delta`
//!   algebra for before/after measurements, and exports to JSON or
//!   Prometheus text exposition.
//! * **Tracing** ([`Tracer`], [`Sink`], [`Event`]) — typed
//!   sweep-lifecycle events routed through a pluggable sink (null, ring
//!   buffer, JSONL writer). When disabled the hot path costs one branch
//!   and constructs nothing.
//! * **Timelines** ([`RunReport`], [`SweepRecord`]) — folds an event
//!   stream into per-sweep records and paper-style summary tables, and
//!   [`RunReport::reconcile`]s event-derived totals against the metric
//!   counters so the two planes can never silently drift apart.
//!
//! On top of the three planes sits one evaluator: the [`Watchdog`]
//! checks a snapshot (usually a delta) against SLO objectives and emits
//! [`EventKind::SloViolation`] events for breaches.
//!
//! [`IdMap`] and [`IdSet`] (the [`idhash`] module) are the integer-keyed
//! maps every crate on the simulator's per-op path shares.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod idhash;
pub mod json;
pub mod registry;
pub mod timeline;
pub mod trace;
pub mod watchdog;

pub use cost::{CostKind, CostLedger, CostRecorder, COST_SUBSYSTEM};
pub use idhash::{IdHasher, IdMap, IdSet};
pub use json::{Json, JsonError};
pub use registry::{
    Counter, CounterSample, Histogram, HistogramSample, Registry, Snapshot,
    HISTOGRAM_BUCKETS, SNAPSHOT_MIN_SCHEMA_VERSION, SNAPSHOT_SCHEMA_VERSION,
};
pub use timeline::{
    pause_table, AgedRecord, PinRecord, RunReport, SloRecord, SweepRecord,
};
pub use trace::{
    Event, EventKind, JsonlSink, LedgerTotals, MarkProf, NullSink, RingSink, SharedBuf,
    Sink, Stopwatch, Tracer, Trigger,
};
pub use watchdog::{slo_table, SloCheck, SloKind, SloPolicy, Watchdog};
