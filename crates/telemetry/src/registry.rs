//! The metrics registry: counters and fixed-bucket log2 histograms,
//! labelled by subsystem, with point-in-time snapshots.
//!
//! The simulator runs on one thread, so a cell is a plain [`Cell`]: an
//! increment is one load and one store. Handles ([`Counter`],
//! [`Histogram`]) are cheap `Rc` clones and stay valid for the registry's
//! lifetime; a snapshot reads the live cells in registration order.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::json::{escape, Json, JsonError};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`, and bucket 64 tops out at
/// `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Snapshot schema version written into JSON exports; bump on any
/// incompatible change so downstream tooling can compare runs safely.
/// Version 2 added the forensics instruments (`pin_edges`,
/// `ledger_bytes_in`/`ledger_bytes_out` counters and the
/// `residency_sweeps` histogram). [`Snapshot::from_json`] reads this
/// version only.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

/// A counter handle. Clones share the cell; adds wrap.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

// `#[inline]`: the layer's free path bumps several of these per free, and
// out of line each bump would be a call into this crate.
impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, wrapping.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Shared storage of a histogram.
#[derive(Debug)]
struct HistogramCore {
    buckets: [Cell<u64>; HISTOGRAM_BUCKETS],
    sum: Cell<u64>,
}

/// A fixed-bucket log2 histogram handle.
///
/// Bucket boundaries are powers of two, so recording costs one
/// `leading_zeros`, a bucket add and a saturating add on the sum: fine per
/// sweep, but a per-op path should count in plain memory and hand the
/// counts over with [`Histogram::add_counts`].
#[derive(Clone, Debug)]
pub struct Histogram(Rc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Rc::new(HistogramCore {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            sum: Cell::new(0),
        }))
    }
}

impl Histogram {
    /// The bucket index `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, …,
    /// `u64::MAX`).
    pub fn bucket_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let cell = &self.0.buckets[Self::bucket_index(value)];
        cell.set(cell.get().wrapping_add(1));
        self.add_sum(value);
    }

    /// Adds pre-counted observations: `buckets[i]` more values in bucket
    /// `i`, summing to `sum`. Equal to recording each value one by one.
    pub fn add_counts(&self, buckets: &[u64; HISTOGRAM_BUCKETS], sum: u64) {
        for (cell, &n) in self.0.buckets.iter().zip(buckets) {
            cell.set(cell.get().wrapping_add(n));
        }
        self.add_sum(sum);
    }

    /// Saturates instead of wrapping: a sum that pegs at `u64::MAX` is an
    /// obviously overflowed export; a wrapped one silently lies.
    fn add_sum(&self, value: u64) {
        self.0.sum.set(self.0.sum.get().saturating_add(value));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(Cell::get).sum()
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.0.sum.get()
    }

    fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].get())
    }
}

/// One registered instrument.
#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    subsystem: String,
    name: String,
    instrument: Instrument,
}

/// The metrics registry. Cloning shares the underlying storage, so
/// subsystems in different layers (the allocator layer, the sim engine, a
/// benchmark harness) can register into one registry and export one
/// coherent snapshot.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    entries: Rc<RefCell<Vec<Entry>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or retrieves) the counter `subsystem/name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a histogram.
    pub fn counter(&self, subsystem: &str, name: &str) -> Counter {
        match self.instrument(subsystem, name, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            Instrument::Histogram(_) => panic!("{subsystem}/{name} is registered as a histogram"),
        }
    }

    /// Registers (or retrieves) the histogram `subsystem/name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a counter.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Histogram {
        match self.instrument(subsystem, name, || Instrument::Histogram(Histogram::default())) {
            Instrument::Histogram(h) => h,
            Instrument::Counter(_) => panic!("{subsystem}/{name} is registered as a counter"),
        }
    }

    /// The instrument registered as `subsystem/name`, registering `new()`
    /// first if the name is free.
    fn instrument(
        &self,
        subsystem: &str,
        name: &str,
        new: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut entries = self.entries.borrow_mut();
        if let Some(e) = entries.iter().find(|e| e.subsystem == subsystem && e.name == name) {
            return e.instrument.clone();
        }
        let instrument = new();
        entries.push(Entry {
            subsystem: subsystem.to_string(),
            name: name.to_string(),
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Takes a point-in-time snapshot of every registered instrument.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.borrow();
        let mut snap = Snapshot::default();
        for e in entries.iter() {
            match &e.instrument {
                Instrument::Counter(c) => snap.counters.push(CounterSample {
                    subsystem: e.subsystem.clone(),
                    name: e.name.clone(),
                    value: c.get(),
                }),
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    snap.histograms.push(HistogramSample {
                        subsystem: e.subsystem.clone(),
                        name: e.name.clone(),
                        buckets: counts
                            .iter()
                            .enumerate()
                            .filter(|&(_, &c)| c > 0)
                            .map(|(i, &c)| (i, c))
                            .collect(),
                        sum: h.sum(),
                    });
                }
            }
        }
        snap
    }
}

/// A counter's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Subsystem label (`layer`, `engine`, `bench`, …).
    pub subsystem: String,
    /// Metric name within the subsystem.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// A histogram's state at snapshot time. Buckets are sparse
/// `(bucket_index, count)` pairs; see [`Histogram::bucket_bound`] for the
/// bound of each index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Subsystem label.
    pub subsystem: String,
    /// Metric name within the subsystem.
    pub name: String,
    /// Non-empty buckets as `(bucket_index, count)`.
    pub buckets: Vec<(usize, u64)>,
    /// Saturating sum of recorded values.
    pub sum: u64,
}

impl HistogramSample {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum()
    }

    /// Count in bucket `i` (0 if empty).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.iter().find(|&&(b, _)| b == i).map_or(0, |&(_, c)| c)
    }
}

/// A point-in-time view of a [`Registry`], suitable for diffing,
/// serialising and exposing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Looks up a counter value.
    pub fn counter(&self, subsystem: &str, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.subsystem == subsystem && c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram sample.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.subsystem == subsystem && h.name == name)
    }

    /// Serialises the snapshot as JSON (schema-versioned; round-trips via
    /// [`Snapshot::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema_version\": {SNAPSHOT_SCHEMA_VERSION},\n  \"counters\": ["
        ));
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"subsystem\": \"{}\", \"name\": \"{}\", \"value\": {}}}",
                escape(&c.subsystem),
                escape(&c.name),
                c.value
            ));
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let buckets: Vec<String> =
                h.buckets.iter().map(|&(b, c)| format!("[{b}, {c}]")).collect();
            out.push_str(&format!(
                "    {{\"subsystem\": \"{}\", \"name\": \"{}\", \"sum\": {}, \"count\": {}, \"buckets\": [{}]}}",
                escape(&h.subsystem),
                escape(&h.name),
                h.sum,
                h.count(),
                buckets.join(", ")
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a snapshot back from its JSON form.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON or a missing/mistyped field.
    pub fn from_json(text: &str) -> Result<Snapshot, JsonError> {
        let v = Json::parse(text)?;
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| JsonError::new("missing schema_version"))?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(JsonError::new(format!(
                "unsupported schema_version {version} (expected {SNAPSHOT_SCHEMA_VERSION})"
            )));
        }
        let mut snap = Snapshot::default();
        for c in v.get("counters").and_then(Json::as_array).unwrap_or(&[]) {
            snap.counters.push(CounterSample {
                subsystem: field_str(c, "subsystem")?,
                name: field_str(c, "name")?,
                value: field_u64(c, "value")?,
            });
        }
        for h in v.get("histograms").and_then(Json::as_array).unwrap_or(&[]) {
            let mut buckets = Vec::new();
            for pair in h.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| JsonError::new("bucket must be [index, count]"))?;
                let idx = pair[0]
                    .as_u64()
                    .ok_or_else(|| JsonError::new("bucket index must be a number"))?;
                let count = pair[1]
                    .as_u64()
                    .ok_or_else(|| JsonError::new("bucket count must be a number"))?;
                buckets.push((idx as usize, count));
            }
            snap.histograms.push(HistogramSample {
                subsystem: field_str(h, "subsystem")?,
                name: field_str(h, "name")?,
                buckets,
                sum: field_u64(h, "sum")?,
            });
        }
        Ok(snap)
    }
}

fn field_str(v: &Json, key: &str) -> Result<String, JsonError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| JsonError::new(format!("missing string field {key}")))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, JsonError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| JsonError::new(format!("missing numeric field {key}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_share() {
        let reg = Registry::new();
        let a = reg.counter("layer", "sweeps");
        let b = reg.counter("layer", "sweeps");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same cell behind both handles");
        assert_eq!(reg.snapshot().counter("layer", "sweeps"), Some(3));
    }

    #[test]
    fn shared_registry_clone_sees_the_same_metrics() {
        let reg = Registry::new();
        let shared = reg.clone();
        reg.counter("layer", "frees").add(7);
        assert_eq!(shared.snapshot().counter("layer", "frees"), Some(7));
    }

    #[test]
    #[should_panic(expected = "registered as a histogram")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.histogram("x", "y");
        reg.counter("x", "y");
    }

    #[test]
    fn counters_are_read_live_in_registration_order_and_wrap() {
        let reg = Registry::new();
        reg.counter("layer", "first");
        let second = reg.counter("layer", "second");
        reg.histogram("layer", "third");
        second.inc();
        second.add(41);
        assert_eq!(second.get(), 42);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["first", "second"]);
        assert_eq!(snap.counter("layer", "second"), Some(42));
        second.add(u64::MAX);
        assert_eq!(second.get(), 41, "adds wrap");
    }

    #[test]
    fn histogram_bucketing_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(1), 1);
        assert_eq!(Histogram::bucket_bound(2), 3);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound covers it.
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_bound(i));
            if i > 0 {
                assert!(v > Histogram::bucket_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_records_and_saturates() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), u64::MAX, "sum saturates rather than wrapping");
    }

    #[test]
    fn added_counts_equal_recording_one_by_one() {
        let (one_by_one, counted) = (Registry::new(), Registry::new());
        let mut buckets = [0; HISTOGRAM_BUCKETS];
        for v in [0u64, 5, 5, 1 << 40, u64::MAX] {
            one_by_one.histogram("x", "h").record(v);
            buckets[Histogram::bucket_index(v)] += 1;
        }
        counted.histogram("x", "h").add_counts(&buckets, u64::MAX);
        assert_eq!(counted.snapshot(), one_by_one.snapshot());
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let reg = Registry::new();
        reg.counter("layer", "sweeps").add(42);
        let h = reg.histogram("engine", "pause_cycles");
        h.record(0);
        h.record(u64::MAX);
        let snap = reg.snapshot();
        let text = snap.to_json();
        let parsed = Snapshot::from_json(&text).unwrap();
        assert_eq!(parsed, snap, "JSON round-trip must be lossless:\n{text}");
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(Snapshot::from_json("{\"schema_version\": 999}").is_err());
        assert!(Snapshot::from_json("{\"schema_version\": 0}").is_err());
        assert!(Snapshot::from_json("{\"schema_version\": 1}").is_err());
        assert!(Snapshot::from_json("not json").is_err());
    }
}
