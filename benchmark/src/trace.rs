//! Outside-in tracing of one engine run.
//!
//! Nothing inside the program is instrumented. Two things are stamped from
//! the benchmark's side of the API:
//!
//! * [`TimedOps`] wraps the op stream and stamps `Instant::now()` each time
//!   the engine asks for the next op. An op's span runs from `next()`
//!   returning it to the following `next()` call, so it includes the
//!   engine's housekeeping after the op (sweep trigger, `start_sweep`,
//!   concurrent sweep progress).
//! * [`StampSink`] is a `telemetry::Sink` attached to the layer's tracer;
//!   it stamps each lifecycle event as it arrives.
//!
//! [`attribute`] then folds both stamp streams into per-op-kind totals and
//! per-sweep layer spans. It works on nanosecond offsets so it can be fed
//! synthetic stamps in tests.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use minesweeper::telemetry::{Event, EventKind, Sink};
use workloads::Op;

/// The op stream, stamping each `next()` call into a pre-sized buffer.
pub struct TimedOps<'a> {
    ops: std::slice::Iter<'a, Op>,
    stamps: &'a mut Vec<Instant>,
}

impl<'a> TimedOps<'a> {
    /// Wraps `ops`; `stamps` is cleared and sized for one stamp per op plus
    /// the final `next()` that ends the stream.
    pub fn new(ops: &'a [Op], stamps: &'a mut Vec<Instant>) -> Self {
        stamps.clear();
        stamps.reserve(ops.len() + 1);
        TimedOps {
            ops: ops.iter(),
            stamps,
        }
    }
}

impl Iterator for TimedOps<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.stamps.push(Instant::now());
        self.ops.next().copied()
    }
}

/// A trace sink that stamps each layer event on arrival. Clones share the
/// buffer: hand one to the engine, keep one to read back.
#[derive(Clone, Default)]
pub struct StampSink {
    events: Arc<Mutex<Vec<(Instant, EventKind)>>>,
}

impl StampSink {
    /// The stamped events so far, in arrival order.
    pub fn take(&self) -> Vec<(Instant, EventKind)> {
        std::mem::take(&mut *self.events.lock().expect("stamp buffer poisoned"))
    }
}

impl Sink for StampSink {
    fn record(&mut self, event: &Event) {
        let at = Instant::now();
        let kind = event.kind.clone();
        self.events
            .lock()
            .expect("stamp buffer poisoned")
            .push((at, kind));
    }
}

/// What an op span is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `Op::Alloc`.
    Alloc,
    /// `Op::Free`.
    Free,
    /// `Op::Work`, plus the single `Op::Teardown` marker.
    Work,
}

impl OpKind {
    /// The kind an op's span is charged to.
    pub fn of(op: &Op) -> OpKind {
        match op {
            Op::Alloc { .. } => OpKind::Alloc,
            Op::Free { .. } => OpKind::Free,
            Op::Work(_) | Op::Teardown => OpKind::Work,
        }
    }
}

/// One sweep's layer spans and work counts, from its trace events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepSpans {
    /// 1-based sweep number.
    pub sweep: u64,
    /// `SweepStart` stamp to the next stamp of any kind.
    pub start_ns: u64,
    /// The layer's own `MarkPhase.wall_ns`.
    pub mark_ns: u64,
    /// `MarkPhase` to `StwPass` (mostly-concurrent mode only).
    pub stw_ns: u64,
    /// `StwPass` (or `MarkPhase`) to `Release`.
    pub release_ns: u64,
    /// `Release` to `Purge`.
    pub purge_ns: u64,
    /// Plan bytes the mark advanced, including skipped pages.
    pub mark_bytes: u64,
    /// Words the mark read.
    pub mark_words: u64,
    /// Bytes the mark skipped without reading.
    pub mark_skipped_bytes: u64,
    /// Entries released.
    pub released: u64,
    /// Entries retained as failed frees.
    pub failed: u64,
    /// Pages the post-sweep purge decommitted.
    pub purged_pages: u64,
}

impl SweepSpans {
    /// The stamped (non-mark) span time of this sweep.
    pub fn stamped_ns(&self) -> u64 {
        self.start_ns + self.stw_ns + self.release_ns + self.purge_ns
    }

    /// One JSONL row.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sweep\": {}, \"start_sweep_ns\": {}, \"mark_ns\": {}, \"stw_ns\": {}, \
             \"release_ns\": {}, \"purge_ns\": {}, \"mark_bytes\": {}, \"mark_words\": {}, \
             \"mark_skipped_bytes\": {}, \"released\": {}, \"failed\": {}, \"purged_pages\": {}}}",
            self.sweep,
            self.start_ns,
            self.mark_ns,
            self.stw_ns,
            self.release_ns,
            self.purge_ns,
            self.mark_bytes,
            self.mark_words,
            self.mark_skipped_bytes,
            self.released,
            self.failed,
            self.purged_pages
        )
    }
}

/// A traced run folded into spans. All times are nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Per-op spans of `Alloc` ops, in stream order.
    pub alloc_spans: Vec<u64>,
    /// Per-op spans of `Free` ops, in stream order.
    pub free_spans: Vec<u64>,
    /// Σ spans of `Work` (and `Teardown`) ops.
    pub work_ns: u64,
    /// Last `next()` (the one that ends the stream) to the run's return.
    pub finalize_ns: u64,
    /// Run start to the first `next()`: engine construction and sink
    /// attachment, covered by no op span.
    pub unattributed_ns: u64,
    /// Run start to the run's return.
    pub total_ns: u64,
    /// Per-sweep layer spans, by sweep number.
    pub sweeps: Vec<SweepSpans>,
    /// Stamped layer spans that cross an op boundary or fall outside the
    /// run; 0 when every span nests inside one op span or finalize.
    pub unnested: u64,
}

impl Attribution {
    /// Σ op spans of every kind.
    pub fn op_ns(&self) -> u64 {
        self.alloc_spans.iter().sum::<u64>() + self.free_spans.iter().sum::<u64>() + self.work_ns
    }

    /// Σ layer spans: stamped spans plus the layer's own mark time.
    pub fn layer_ns(&self) -> u64 {
        self.sweeps.iter().map(|s| s.stamped_ns() + s.mark_ns).sum()
    }
}

/// Folds a traced run into spans.
///
/// `kinds[i]` is op `i`'s kind and `op_stamps[i]` the `next()` that
/// returned it; `op_stamps` holds one more stamp than `kinds`, for the
/// `next()` that ended the stream. `events` are the layer stamps in
/// arrival order. Times are offsets from the run's start; `end` is the
/// run's return.
pub fn attribute(
    kinds: &[OpKind],
    op_stamps: &[u64],
    events: &[(u64, EventKind)],
    end: u64,
) -> Attribution {
    assert_eq!(
        op_stamps.len(),
        kinds.len() + 1,
        "one stamp per next() call"
    );
    let first = op_stamps[0];
    let last = op_stamps[kinds.len()];
    let mut a = Attribution {
        finalize_ns: end - last,
        unattributed_ns: first,
        total_ns: end,
        ..Attribution::default()
    };
    for (kind, w) in kinds.iter().zip(op_stamps.windows(2)) {
        let span = w[1] - w[0];
        match kind {
            OpKind::Alloc => a.alloc_spans.push(span),
            OpKind::Free => a.free_spans.push(span),
            OpKind::Work => a.work_ns += span,
        }
    }

    // The first op stamp strictly after `t`, or the run's return.
    let next_op = |t: u64| {
        let i = op_stamps.partition_point(|&s| s <= t);
        op_stamps.get(i).copied().unwrap_or(end)
    };
    // A span [from, to] nests when no op boundary falls inside it.
    let nests = |from: u64, to: u64| from >= first && to <= end && next_op(from) >= to;

    let mut sweeps: BTreeMap<u64, SweepSpans> = BTreeMap::new();
    // The stamp the next stw, release or purge span starts from.
    let mut from = 0;
    for (i, (at, kind)) in events.iter().enumerate() {
        let at = *at;
        let sweep = match kind {
            EventKind::SweepStart { sweep, .. }
            | EventKind::MarkPhase { sweep, .. }
            | EventKind::StwPass { sweep, .. }
            | EventKind::Release { sweep, .. }
            | EventKind::Purge { sweep, .. } => *sweep,
            _ => continue,
        };
        let s = sweeps.entry(sweep).or_insert_with(|| SweepSpans {
            sweep,
            ..SweepSpans::default()
        });
        let since = at.saturating_sub(from);
        let (span_from, span_to) = match *kind {
            EventKind::SweepStart { .. } => {
                let to = next_op(at).min(events.get(i + 1).map_or(end, |e| e.0));
                s.start_ns = to.saturating_sub(at);
                (at, to)
            }
            EventKind::MarkPhase {
                bytes,
                words,
                skipped_bytes,
                wall_ns,
                ..
            } => {
                s.mark_ns = wall_ns;
                s.mark_bytes = bytes;
                s.mark_words = words;
                s.mark_skipped_bytes = skipped_bytes;
                (at, at)
            }
            EventKind::StwPass { .. } => {
                s.stw_ns = since;
                (from, at)
            }
            EventKind::Release {
                released,
                failed_frees,
                ..
            } => {
                s.release_ns = since;
                s.released = released;
                s.failed = failed_frees;
                (from, at)
            }
            EventKind::Purge { purged_pages, .. } => {
                s.purge_ns = since;
                s.purged_pages = purged_pages;
                (from, at)
            }
            _ => unreachable!("filtered above"),
        };
        if !nests(span_from, span_to) {
            a.unnested += 1;
        }
        from = at;
    }
    a.sweeps = sweeps.into_values().collect();
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper::telemetry::Trigger;

    fn start(sweep: u64) -> EventKind {
        EventKind::SweepStart {
            sweep,
            trigger: Trigger::Proportional,
            quarantine_bytes: 0,
            quarantine_entries: 0,
        }
    }

    fn mark(sweep: u64, wall_ns: u64) -> EventKind {
        EventKind::MarkPhase {
            sweep,
            bytes: 8192,
            words: 512,
            skipped_bytes: 4096,
            marked_granules: 0,
            filter_rejects: 0,
            wall_ns,
            prof: None,
        }
    }

    fn release(sweep: u64) -> EventKind {
        EventKind::Release {
            sweep,
            released: 3,
            released_bytes: 96,
            failed_frees: 1,
        }
    }

    #[test]
    fn op_spans_finalize_and_unattributed_add_up_to_the_total() {
        let kinds = [OpKind::Work, OpKind::Alloc, OpKind::Free, OpKind::Alloc];
        let stamps = [10, 25, 45, 60, 100, 130];
        let a = attribute(&kinds, &stamps[..5], &[], 130);
        assert_eq!(a.unattributed_ns, 10);
        assert_eq!(a.work_ns, 15);
        assert_eq!(a.alloc_spans, vec![20, 40]);
        assert_eq!(a.free_spans, vec![15]);
        assert_eq!(a.finalize_ns, 30);
        assert_eq!(a.op_ns() + a.finalize_ns + a.unattributed_ns, a.total_ns);
    }

    #[test]
    fn start_span_ends_at_the_next_stamp_of_any_kind() {
        let kinds = [OpKind::Free, OpKind::Alloc, OpKind::Alloc];
        let stamps = [0, 100, 200, 300];
        // Sweep 1 starts inside op 0 and runs to op 1's stamp; sweep 2
        // starts inside op 1 and is cut short by its own mark event.
        let events = vec![
            (40, start(1)),
            (150, start(2)),
            (170, mark(2, 9)),
            (190, release(2)),
        ];
        let a = attribute(&kinds, &stamps, &events, 320);
        assert_eq!(a.sweeps[0].start_ns, 60);
        assert_eq!(a.sweeps[1].start_ns, 20);
        assert_eq!(a.sweeps[1].mark_ns, 9);
        assert_eq!(a.sweeps[1].release_ns, 20);
        assert_eq!((a.sweeps[1].released, a.sweeps[1].failed), (3, 1));
        assert_eq!(a.unnested, 0);
        assert_eq!(a.layer_ns(), 60 + 20 + 9 + 20);
    }

    #[test]
    fn spans_that_cross_an_op_boundary_are_counted() {
        let kinds = [OpKind::Free, OpKind::Free];
        let stamps = [0, 100, 200];
        let stw = EventKind::StwPass {
            sweep: 1,
            pages: 1,
            words: 1,
        };
        let events = vec![
            (10, start(1)),
            (50, mark(1, 5)),
            (150, stw),
            (160, release(1)),
        ];
        let a = attribute(&kinds, &stamps, &events, 210);
        assert_eq!(a.sweeps[0].stw_ns, 100);
        assert_eq!(a.sweeps[0].release_ns, 10);
        assert_eq!(a.unnested, 1, "mark -> stw crosses the op stamp at 100");
    }
}
