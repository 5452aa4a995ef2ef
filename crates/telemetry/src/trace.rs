//! Sweep-lifecycle tracing: typed events, pluggable sinks, and the
//! [`Tracer`] front end the allocator layer embeds.
//!
//! The tracer is designed so the hot path pays **one branch** when
//! tracing is disabled: [`Tracer::emit`] takes a closure and returns
//! before constructing the event if no sink is attached.

use std::cell::RefCell;
use std::fmt;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use crate::json::{Json, JsonError};

/// What caused a sweep to start (§3.2 / §4.2 triggers, or an explicit
/// caller request).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Quarantined bytes crossed the proportional heap-fraction threshold
    /// (15 % by default).
    Proportional,
    /// Unmapped quarantined bytes reached the 9× RSS trigger.
    Unmapped,
    /// The caller asked for a sweep without either trigger having fired.
    Manual,
}

impl Trigger {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Trigger::Proportional => "proportional",
            Trigger::Unmapped => "unmapped",
            Trigger::Manual => "manual",
        }
    }

    fn parse(s: &str) -> Option<Trigger> {
        match s {
            "proportional" => Some(Trigger::Proportional),
            "unmapped" => Some(Trigger::Unmapped),
            "manual" => Some(Trigger::Manual),
            _ => None,
        }
    }
}

/// Failed-free ledger totals as of a sweep's end, carried in
/// [`EventKind::SweepEnd`] when forensics is enabled. `bytes` must equal
/// the quarantine's failed bytes at the same instant (byte conservation)
/// and `fail_events` the cumulative `failed_frees` counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct LedgerTotals {
    /// Entries currently in the failed-free ledger.
    pub entries: u64,
    /// Swept bytes those entries pin in quarantine.
    pub bytes: u64,
    /// Cumulative failed-free decisions recorded by the ledger.
    pub fail_events: u64,
}

/// Mark-phase attribution counters, the payload of
/// [`EventKind::MarkPhase`]'s `prof` field. Nothing in this workspace
/// produces one: the field and its JSON keys stay only so the
/// `benchmark/` package's trace test, which builds a `MarkPhase` with
/// `prof: None`, keeps compiling. Both go when ROADMAP item 3 deletes
/// `benchmark/src/trace.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MarkProf {
    /// Nanoseconds spent inside the scan kernel, summed over the sweep's
    /// mark steps (0 in deterministic mode).
    pub scan_ns: u64,
    /// Shadow-map marks published through the write-combine window.
    pub wc_window_bits: u64,
    /// Shadow-map marks stored directly (window closed: scattered marks).
    pub wc_direct: u64,
    /// Direct-mapped chunk-cache evictions in the shadow writer.
    pub cache_evictions: u64,
}

/// A typed sweep-lifecycle event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A sweep began: the quarantine generation is being locked in.
    SweepStart {
        /// 1-based sweep number.
        sweep: u64,
        /// What fired the sweep.
        trigger: Trigger,
        /// Swept (non-unmapped) quarantined bytes at sweep start.
        quarantine_bytes: u64,
        /// Quarantined allocations at sweep start.
        quarantine_entries: u64,
    },
    /// The concurrent marking phase of a sweep completed.
    MarkPhase {
        /// Sweep number.
        sweep: u64,
        /// Bytes advanced through the sweep plan (including skipped
        /// pages).
        bytes: u64,
        /// Words actually read and tested.
        words: u64,
        /// Bytes advanced without reading: cache-replayed clean pages plus
        /// protected/unmapped skips. Invariant: `bytes == words * 8 +
        /// skipped_bytes`.
        skipped_bytes: u64,
        /// Granules marked in the shadow map when marking finished.
        marked_granules: u64,
        /// Heap-pointing words suppressed by the candidate filter during
        /// marking, summed over the sweep's mark steps.
        filter_rejects: u64,
        /// Wall-clock marking time in nanoseconds (0 in deterministic
        /// mode).
        wall_ns: u64,
        /// Always `None` from this workspace (the JSON then omits the
        /// `prof_*` keys); see [`MarkProf`] for why the field remains.
        prof: Option<MarkProf>,
    },
    /// A stop-the-world soft-dirty re-check ran (mostly-concurrent mode).
    StwPass {
        /// Sweep number.
        sweep: u64,
        /// Pages re-examined.
        pages: u64,
        /// Words re-examined.
        words: u64,
    },
    /// The release phase of a sweep completed.
    Release {
        /// Sweep number.
        sweep: u64,
        /// Entries proven pointer-free and recycled.
        released: u64,
        /// Bytes recycled.
        released_bytes: u64,
        /// Entries retained because a (possible) dangling pointer was
        /// found.
        failed_frees: u64,
    },
    /// The post-sweep allocator purge ran (§4.5).
    Purge {
        /// Sweep number.
        sweep: u64,
        /// Pages the allocator decommitted.
        purged_pages: u64,
    },
    /// A thread-local quarantine buffer spilled to the global list.
    QuarantineFlush {
        /// Entries flushed.
        entries: u64,
    },
    /// Forensics: aggregated provenance edges discovered by one sweep for
    /// one quarantined candidate (who points at quarantine). Emitted only
    /// when the `forensics` knob is on and the sweep recorded at least one
    /// edge into the entry.
    PinEdge {
        /// Sweep number.
        sweep: u64,
        /// Allocation-site id of the pinned quarantine entry.
        site: u32,
        /// Base address of the pinned entry.
        base: u64,
        /// Swept bytes the entry pins.
        bytes: u64,
        /// Edges recorded into the entry this sweep (post-sampling).
        hits: u64,
        /// Example source address of one recorded edge (page-granular for
        /// cache-replayed words; 0 when unknown).
        src: u64,
    },
    /// Forensics: a quarantined entry failed its sweep (again). Emitted on
    /// every failed-free decision while forensics is on, so per-sweep event
    /// counts reconcile exactly with [`EventKind::Release`]'s
    /// `failed_frees`.
    FailedFreeAged {
        /// Sweep number.
        sweep: u64,
        /// Allocation-site id of the failed entry.
        site: u32,
        /// Base address of the failed entry.
        base: u64,
        /// Swept bytes the entry pins.
        bytes: u64,
        /// Consecutive sweeps the entry has failed (1 on first failure).
        survivals: u64,
        /// Sweep number of the first failure.
        first_failed: u64,
    },
    /// A sweep finished end to end.
    SweepEnd {
        /// Sweep number.
        sweep: u64,
        /// Wall-clock sweep duration in nanoseconds (0 in deterministic
        /// mode).
        wall_ns: u64,
        /// Failed-free ledger totals at sweep end; `None` when forensics
        /// is off (the JSON then omits the ledger keys, so pre-forensics
        /// traces parse unchanged).
        ledger: Option<LedgerTotals>,
    },
}

/// An emitted event: an [`EventKind`] stamped with a sequence number and
/// the virtual clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic per-tracer sequence number.
    pub seq: u64,
    /// Virtual time (simulated cost units) when the event was emitted; 0
    /// when no virtual clock drives the tracer.
    pub vnow: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// Serialises the event as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let head = format!("{{\"seq\": {}, \"vnow\": {}", self.seq, self.vnow);
        let body = match &self.kind {
            EventKind::SweepStart { sweep, trigger, quarantine_bytes, quarantine_entries } => {
                format!(
                    "\"type\": \"sweep_start\", \"sweep\": {sweep}, \"trigger\": \"{}\", \
                     \"quarantine_bytes\": {quarantine_bytes}, \"quarantine_entries\": {quarantine_entries}",
                    trigger.as_str()
                )
            }
            EventKind::MarkPhase {
                sweep,
                bytes,
                words,
                skipped_bytes,
                marked_granules,
                filter_rejects,
                wall_ns,
                prof,
            } => {
                // skip_rate is derived (skipped_bytes / bytes), emitted for
                // human consumers; parsing recomputes it from the integers.
                let skip_rate = if *bytes == 0 {
                    0.0
                } else {
                    *skipped_bytes as f64 / *bytes as f64
                };
                let mut s = format!(
                    "\"type\": \"mark_phase\", \"sweep\": {sweep}, \"bytes\": {bytes}, \
                     \"words\": {words}, \"skipped_bytes\": {skipped_bytes}, \
                     \"skip_rate\": {skip_rate:.4}, \
                     \"marked_granules\": {marked_granules}, \
                     \"filter_rejects\": {filter_rejects}, \"wall_ns\": {wall_ns}"
                );
                if let Some(p) = prof {
                    s.push_str(&format!(
                        ", \"prof_scan_ns\": {}, \"wc_window_bits\": {}, \
                         \"wc_direct\": {}, \"cache_evictions\": {}",
                        p.scan_ns, p.wc_window_bits, p.wc_direct, p.cache_evictions
                    ));
                }
                s
            }
            EventKind::StwPass { sweep, pages, words } => {
                format!("\"type\": \"stw_pass\", \"sweep\": {sweep}, \"pages\": {pages}, \"words\": {words}")
            }
            EventKind::Release { sweep, released, released_bytes, failed_frees } => {
                format!(
                    "\"type\": \"release\", \"sweep\": {sweep}, \"released\": {released}, \
                     \"released_bytes\": {released_bytes}, \"failed_frees\": {failed_frees}"
                )
            }
            EventKind::Purge { sweep, purged_pages } => {
                format!("\"type\": \"purge\", \"sweep\": {sweep}, \"purged_pages\": {purged_pages}")
            }
            EventKind::QuarantineFlush { entries } => {
                format!("\"type\": \"quarantine_flush\", \"entries\": {entries}")
            }
            EventKind::PinEdge { sweep, site, base, bytes, hits, src } => {
                format!(
                    "\"type\": \"pin_edge\", \"sweep\": {sweep}, \"site\": {site}, \
                     \"base\": {base}, \"bytes\": {bytes}, \"hits\": {hits}, \"src\": {src}"
                )
            }
            EventKind::FailedFreeAged { sweep, site, base, bytes, survivals, first_failed } => {
                format!(
                    "\"type\": \"failed_free_aged\", \"sweep\": {sweep}, \"site\": {site}, \
                     \"base\": {base}, \"bytes\": {bytes}, \"survivals\": {survivals}, \
                     \"first_failed\": {first_failed}"
                )
            }
            EventKind::SweepEnd { sweep, wall_ns, ledger } => match ledger {
                None => format!(
                    "\"type\": \"sweep_end\", \"sweep\": {sweep}, \"wall_ns\": {wall_ns}"
                ),
                Some(l) => format!(
                    "\"type\": \"sweep_end\", \"sweep\": {sweep}, \"wall_ns\": {wall_ns}, \
                     \"ledger_entries\": {}, \"ledger_bytes\": {}, \"ledger_fail_events\": {}",
                    l.entries, l.bytes, l.fail_events
                ),
            },
        };
        format!("{head}, {body}}}")
    }

    /// Parses an event back from its JSONL line.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, an unknown `type`, or a missing
    /// field.
    pub fn from_json(line: &str) -> Result<Event, JsonError> {
        let v = Json::parse(line)?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::new(format!("missing numeric field {key}")))
        };
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::new("missing type"))?;
        let kind = match ty {
            "sweep_start" => {
                let trigger = v
                    .get("trigger")
                    .and_then(Json::as_str)
                    .and_then(Trigger::parse)
                    .ok_or_else(|| JsonError::new("bad trigger"))?;
                EventKind::SweepStart {
                    sweep: num("sweep")?,
                    trigger,
                    quarantine_bytes: num("quarantine_bytes")?,
                    quarantine_entries: num("quarantine_entries")?,
                }
            }
            "mark_phase" => EventKind::MarkPhase {
                sweep: num("sweep")?,
                bytes: num("bytes")?,
                words: num("words")?,
                skipped_bytes: num("skipped_bytes")?,
                marked_granules: num("marked_granules")?,
                // Optional for wire back-compat: traces written before the
                // filter-reject accounting carry no such key.
                filter_rejects: v.get("filter_rejects").and_then(Json::as_u64).unwrap_or(0),
                wall_ns: num("wall_ns")?,
                // Optional keys: every trace this workspace writes omits
                // them (see `MarkProf`).
                prof: match v.get("prof_scan_ns") {
                    None => None,
                    Some(_) => Some(MarkProf {
                        scan_ns: num("prof_scan_ns")?,
                        wc_window_bits: num("wc_window_bits")?,
                        wc_direct: num("wc_direct")?,
                        cache_evictions: num("cache_evictions")?,
                    }),
                },
            },
            "stw_pass" => EventKind::StwPass {
                sweep: num("sweep")?,
                pages: num("pages")?,
                words: num("words")?,
            },
            "release" => EventKind::Release {
                sweep: num("sweep")?,
                released: num("released")?,
                released_bytes: num("released_bytes")?,
                failed_frees: num("failed_frees")?,
            },
            "purge" => EventKind::Purge {
                sweep: num("sweep")?,
                purged_pages: num("purged_pages")?,
            },
            "quarantine_flush" => EventKind::QuarantineFlush { entries: num("entries")? },
            "pin_edge" => EventKind::PinEdge {
                sweep: num("sweep")?,
                site: num("site")? as u32,
                base: num("base")?,
                bytes: num("bytes")?,
                hits: num("hits")?,
                src: num("src")?,
            },
            "failed_free_aged" => EventKind::FailedFreeAged {
                sweep: num("sweep")?,
                site: num("site")? as u32,
                base: num("base")?,
                bytes: num("bytes")?,
                survivals: num("survivals")?,
                first_failed: num("first_failed")?,
            },
            "sweep_end" => {
                // The ledger keys are optional: pre-forensics traces (and
                // forensics-off runs) omit them.
                let ledger = match v.get("ledger_entries") {
                    None => None,
                    Some(_) => Some(LedgerTotals {
                        entries: num("ledger_entries")?,
                        bytes: num("ledger_bytes")?,
                        fail_events: num("ledger_fail_events")?,
                    }),
                };
                EventKind::SweepEnd { sweep: num("sweep")?, wall_ns: num("wall_ns")?, ledger }
            }
            other => return Err(JsonError::new(format!("unknown event type {other:?}"))),
        };
        Ok(Event { seq: num("seq")?, vnow: num("vnow")?, kind })
    }
}

/// Where emitted events go. Implementations must be cheap: the layer
/// calls [`Sink::record`] inline on sweep paths.
pub trait Sink {
    /// Receives one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// A sink that discards everything (useful to measure tracing overhead
/// with the emission machinery engaged).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _event: &Event) {}
}

/// A sink that writes one JSON line per event to any [`Write`]r.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a JSONL sink over `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, lines: 0 }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        // Trace IO failures must not take down the traced program; drop
        // the line (the lines() counter stops advancing, which reconcilers
        // notice).
        if writeln!(self.writer, "{}", event.to_json()).is_ok() {
            self.lines += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A clonable in-memory byte buffer implementing [`Write`]; pair with
/// [`JsonlSink`] to capture a trace as text (golden tests, CLI tests).
#[derive(Clone, Debug, Default)]
pub struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// The buffered bytes as UTF-8 text.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.borrow()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A wall-clock stopwatch that is inert when tracing is disabled or
/// deterministic output is requested.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Nanoseconds elapsed since the stopwatch started (0 if inert).
    pub fn elapsed_ns(&self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
    }
}

/// The tracing front end: an optional sink plus the clocks used to stamp
/// events.
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn Sink>>,
    vnow: u64,
    seq: u64,
    deterministic: bool,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .field("vnow", &self.vnow)
            .field("seq", &self.seq)
            .field("deterministic", &self.deterministic)
            .finish()
    }
}

impl Tracer {
    /// A tracer with no sink: every emit is a single branch and returns.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Attaches a sink (replacing any previous one).
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = Some(sink);
    }

    /// In deterministic mode wall-clock durations are reported as 0, so
    /// identical runs produce byte-identical traces (golden tests, CI).
    pub fn set_deterministic(&mut self, on: bool) {
        self.deterministic = on;
    }

    /// Sets the virtual clock stamped into subsequent events.
    pub fn set_virtual_now(&mut self, vnow: u64) {
        self.vnow = vnow;
    }

    /// The current virtual clock.
    pub fn virtual_now(&self) -> u64 {
        self.vnow
    }

    /// Starts a stopwatch; inert (always reads 0) when tracing is
    /// disabled or deterministic.
    pub fn stopwatch(&self) -> Stopwatch {
        if self.sink.is_some() && !self.deterministic {
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }

    /// Emits an event. The closure only runs when a sink is attached, so
    /// the disabled path costs one branch and no construction.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> EventKind) {
        let Some(sink) = self.sink.as_mut() else { return };
        let event = Event { seq: self.seq, vnow: self.vnow, kind: make() };
        self.seq += 1;
        sink.record(&event);
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<EventKind> {
        vec![
            EventKind::SweepStart {
                sweep: 1,
                trigger: Trigger::Proportional,
                quarantine_bytes: 4096,
                quarantine_entries: 3,
            },
            EventKind::MarkPhase {
                sweep: 1,
                bytes: 8192,
                words: 512,
                skipped_bytes: 4096,
                marked_granules: 7,
                filter_rejects: 5,
                wall_ns: 0,
                prof: None,
            },
            EventKind::MarkPhase {
                sweep: 2,
                bytes: 8192,
                words: 512,
                skipped_bytes: 4096,
                marked_granules: 7,
                filter_rejects: 5,
                wall_ns: 120,
                prof: Some(MarkProf {
                    scan_ns: 90,
                    wc_window_bits: 40,
                    wc_direct: 3,
                    cache_evictions: 1,
                }),
            },
            EventKind::StwPass { sweep: 1, pages: 2, words: 1024 },
            EventKind::Release { sweep: 1, released: 2, released_bytes: 128, failed_frees: 1 },
            EventKind::Purge { sweep: 1, purged_pages: 9 },
            EventKind::QuarantineFlush { entries: 64 },
            EventKind::PinEdge {
                sweep: 1,
                site: 42,
                base: 0x1_0000_2000,
                bytes: 320,
                hits: 3,
                src: 0x7f_0000_0008,
            },
            EventKind::FailedFreeAged {
                sweep: 1,
                site: 42,
                base: 0x1_0000_2000,
                bytes: 320,
                survivals: 2,
                first_failed: 1,
            },
            EventKind::SweepEnd { sweep: 1, wall_ns: u64::MAX, ledger: None },
            EventKind::SweepEnd {
                sweep: 2,
                wall_ns: 0,
                ledger: Some(LedgerTotals { entries: 1, bytes: 320, fail_events: 2 }),
            },
        ]
    }

    #[test]
    fn event_json_roundtrip() {
        for (i, kind) in sample_events().into_iter().enumerate() {
            let e = Event { seq: i as u64, vnow: 17, kind };
            let line = e.to_json();
            let parsed = Event::from_json(&line).unwrap();
            assert_eq!(parsed, e, "round-trip failed for {line}");
        }
    }

    #[test]
    fn pre_forensics_sweep_end_lines_still_parse() {
        // Wire back-compat: traces written before the forensics schema
        // carry no ledger keys and must parse to `ledger: None`.
        let old = "{\"seq\": 6, \"vnow\": 10000, \"type\": \"sweep_end\", \"sweep\": 1, \"wall_ns\": 0}";
        let e = Event::from_json(old).unwrap();
        assert_eq!(e.kind, EventKind::SweepEnd { sweep: 1, wall_ns: 0, ledger: None });
        assert_eq!(e.to_json(), old, "ledger-free events serialise without ledger keys");
    }

    #[test]
    fn pre_filter_reject_mark_phase_lines_still_parse() {
        // Wire back-compat: traces written before filter-reject accounting
        // carry no filter_rejects key and must parse to 0.
        let old = "{\"seq\": 1, \"vnow\": 0, \"type\": \"mark_phase\", \"sweep\": 1, \
                   \"bytes\": 8192, \"words\": 1024, \"skipped_bytes\": 0, \
                   \"skip_rate\": 0.0000, \"marked_granules\": 3, \"wall_ns\": 0}";
        let e = Event::from_json(old).unwrap();
        assert_eq!(
            e.kind,
            EventKind::MarkPhase {
                sweep: 1,
                bytes: 8192,
                words: 1024,
                skipped_bytes: 0,
                marked_granules: 3,
                filter_rejects: 0,
                wall_ns: 0,
                prof: None,
            }
        );
    }

    #[test]
    fn mark_phase_omits_prof_keys_when_none() {
        // `prof: None` keeps the wire shape the golden fixtures pin.
        let e = Event {
            seq: 1,
            vnow: 0,
            kind: EventKind::MarkPhase {
                sweep: 1,
                bytes: 8192,
                words: 1024,
                skipped_bytes: 0,
                marked_granules: 3,
                filter_rejects: 0,
                wall_ns: 0,
                prof: None,
            },
        };
        assert!(!e.to_json().contains("prof_scan_ns"));
        let p = Event {
            kind: EventKind::MarkPhase {
                sweep: 1,
                bytes: 8192,
                words: 1024,
                skipped_bytes: 0,
                marked_granules: 3,
                filter_rejects: 0,
                wall_ns: 0,
                prof: Some(MarkProf::default()),
            },
            ..e
        };
        assert!(p.to_json().contains("\"prof_scan_ns\": 0"));
    }

    #[test]
    fn from_json_rejects_unknown_type() {
        assert!(Event::from_json("{\"seq\":0,\"vnow\":0,\"type\":\"nope\"}").is_err());
        assert!(Event::from_json("{\"seq\":0,\"vnow\":0,\"type\":\"release\"}").is_err());
    }

    #[test]
    fn disabled_tracer_builds_nothing() {
        let mut t = Tracer::disabled();
        let mut built = false;
        t.emit(|| {
            built = true;
            EventKind::QuarantineFlush { entries: 1 }
        });
        assert!(!built, "closure must not run without a sink");
        assert!(!t.enabled());
        assert_eq!(t.stopwatch().elapsed_ns(), 0);
    }

    #[test]
    fn tracer_stamps_seq_and_vnow() {
        let buf = SharedBuf::new();
        let mut t = Tracer::disabled();
        t.set_sink(Box::new(JsonlSink::new(buf.clone())));
        t.set_virtual_now(5);
        t.emit(|| EventKind::QuarantineFlush { entries: 1 });
        t.set_virtual_now(9);
        t.emit(|| EventKind::QuarantineFlush { entries: 2 });
        let text = buf.contents();
        let events: Vec<Event> = text.lines().map(|l| Event::from_json(l).unwrap()).collect();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].seq, events[0].vnow), (0, 5));
        assert_eq!((events[1].seq, events[1].vnow), (1, 9));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf = SharedBuf::new();
        let mut t = Tracer::disabled();
        t.set_sink(Box::new(JsonlSink::new(buf.clone())));
        for kind in sample_events() {
            t.emit(|| kind.clone());
        }
        t.flush();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for line in lines {
            Event::from_json(line).expect("every line must parse");
        }
    }

    #[test]
    fn deterministic_mode_zeroes_stopwatches() {
        let mut t = Tracer::disabled();
        t.set_sink(Box::new(NullSink));
        t.set_deterministic(true);
        let sw = t.stopwatch();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(sw.elapsed_ns(), 0);
        t.set_deterministic(false);
        let sw = t.stopwatch();
        assert!(sw.0.is_some());
    }
}
