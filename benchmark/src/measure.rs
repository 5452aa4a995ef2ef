//! One workload's measurement, start to finish, in this process.
//!
//! A workload's input is [`STREAMS`] op streams generated from the seed:
//! stream 0 is `TraceGen::new(profile, seed)` and the others use seeds
//! derived from it, so one run's numbers average over several draws of
//! the same shape instead of hanging on one.
//!
//! 1. *Set-up.* Generate the streams several times; the median is
//!    `setup_s`, and every repeat must equal the first.
//! 2. *Warm-up.* One untraced rep per stream, each between a heap-peak
//!    reset and read, gives `peak_heap_mib` and each stream's reference
//!    model digest.
//! 3. *Timed reps.* Untraced `sim::run_trace` reps, cycling through the
//!    streams back to back (a closed loop with one caller), give
//!    `run_wall_ms`. Each rep follows a calibration kernel run and is
//!    scaled to reference host speed (see [`crate::calib`]); set-up times
//!    are scaled the same way.
//! 4. *Traced pass.* One engine run of stream 0 with [`TimedOps`] and
//!    [`StampSink`] attached gives the `engine.*`, `layer.*` and `trace.*`
//!    metrics.
//! 5. *Probe.* The substrate probe on stream 0 gives `jalloc.*` and
//!    `vmem.*`.
//!
//! Everything runs on this thread: the engine models helper threads in
//! virtual time and starts none.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sim::{Engine, RunMetrics, System};
use workloads::{Op, Profile, TraceGen};

use crate::calib::{Calibration, REFERENCE_MS};
use crate::heap;
use crate::host::Host;
use crate::metrics::{Check, Record};
use crate::probe;
use crate::stats::{median, percentile, quartiles};
use crate::trace::{attribute, Attribution, OpKind, StampSink, SweepSpans, TimedOps};

/// Op streams a workload's input is made of.
pub const STREAMS: usize = 4;

/// Generations of the streams timed for `setup_s`; the median is reported.
const SETUPS: usize = 3;

/// The seed of stream `k` of the input generated from `seed`.
pub fn stream_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(k as u64 * 0x9E37_79B9_7F4A_7C15)
}

/// How much to measure.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Op streams to use, at most [`STREAMS`].
    pub streams: usize,
    /// Timed rounds to run at least; a round is one rep of every stream.
    pub rounds: usize,
    /// Keep adding timed reps until this much time has passed.
    pub budget: Duration,
    /// Whether to run the substrate probe.
    pub probe: bool,
}

/// The model-level outputs every rep of one stream must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Virtual mutator cycles.
    pub mutator_cycles: u64,
    /// Virtual background cycles.
    pub background_cycles: u64,
    /// Sweeps or collections.
    pub sweeps: u64,
    /// Failed frees.
    pub failed_frees: u64,
    /// Modelled peak RSS, bytes.
    pub peak_rss: u64,
}

impl Digest {
    fn of(m: &RunMetrics) -> Digest {
        Digest {
            mutator_cycles: m.mutator_cycles,
            background_cycles: m.background_cycles,
            sweeps: m.sweeps,
            failed_frees: m.failed_frees,
            peak_rss: m.peak_rss,
        }
    }
}

/// A measured workload: its record and the traced pass's sweep rows.
pub struct Outcome {
    /// Metrics, checks and counts.
    pub record: Record,
    /// Per-sweep layer spans from the traced pass.
    pub sweeps: Vec<SweepSpans>,
}

/// Counts reps and pins every rep of a stream to that stream's first good
/// digest.
struct RepCheck {
    allocs: Vec<u64>,
    reference: Vec<Option<Digest>>,
    attempted: u64,
    failed: u64,
}

impl RepCheck {
    /// Checks one rep of stream `k`: it must not panic, must free every
    /// allocation the stream made, and must reproduce the stream's digest.
    fn check(&mut self, k: usize, rep: std::thread::Result<RunMetrics>) -> Option<Digest> {
        self.attempted += 1;
        let allocs = self.allocs[k];
        let reference = &mut self.reference[k];
        let good = rep.ok().map(|m| (Digest::of(&m), m)).filter(|(d, m)| {
            m.allocs == allocs && m.frees == allocs && *reference.get_or_insert(*d) == *d
        });
        if good.is_none() {
            self.failed += 1;
        }
        good.map(|(d, _)| d)
    }
}

/// Measures one workload.
pub fn measure(name: &str, profile: &Profile, system: System, seed: u64, plan: &Plan) -> Outcome {
    let host = Host::current();
    let layered = matches!(system, System::MineSweeper(_));
    let seeds: Vec<u64> = (0..plan.streams.clamp(1, STREAMS))
        .map(|k| stream_seed(seed, k))
        .collect();
    let mut calib = Calibration::default();
    let mut checks = Vec::new();

    // 1. Set-up. Repeats are compared stream by stream and dropped, so at
    // most one extra stream is held at a time.
    let mut streams: Vec<Vec<Op>> = Vec::new();
    let mut setup_s = Vec::new();
    let mut same_inputs = true;
    for _ in 0..SETUPS {
        let scale = calib.scale();
        let mut secs = 0.0;
        for (k, &s) in seeds.iter().enumerate() {
            let t = Instant::now();
            let ops: Vec<Op> = TraceGen::new(profile, s).collect();
            secs += t.elapsed().as_secs_f64();
            match streams.get(k) {
                Some(first) => same_inputs &= *first == ops,
                None => streams.push(ops),
            }
        }
        setup_s.push(secs * scale);
    }
    checks.push(Check::new(
        "inputs_deterministic",
        same_inputs,
        format!("{} generations of {} streams", setup_s.len(), streams.len()),
    ));
    let allocs: Vec<u64> = streams
        .iter()
        .map(|ops| ops.iter().filter(|o| matches!(o, Op::Alloc { .. })).count() as u64)
        .collect();
    checks.push(Check::new(
        "stream_allocs",
        allocs.iter().all(|&a| a == profile.total_allocs),
        format!(
            "{allocs:?} allocs per stream, profile says {}",
            profile.total_allocs
        ),
    ));
    let mut reps = RepCheck {
        allocs,
        reference: vec![None; seeds.len()],
        attempted: 0,
        failed: 0,
    };
    let run_rep = |k: usize| {
        let ops = streams[k].iter().copied();
        catch_unwind(AssertUnwindSafe(|| {
            sim::run_trace(profile, system, seeds[k], ops)
        }))
    };

    // 2. Warm-up, each rep between a heap-peak reset and read.
    let mut peaks = Vec::new();
    for k in 0..seeds.len() {
        let before = heap::live();
        heap::reset_peak();
        reps.check(k, run_rep(k));
        peaks.push(heap::peak().saturating_sub(before) as f64 / (1u64 << 20) as f64);
    }
    let peak_heap_mib = peaks.iter().sum::<f64>() / peaks.len() as f64;
    checks.push(Check::new(
        "peak_heap_measured",
        peak_heap_mib > 0.0,
        format!("{peaks:?} MiB"),
    ));

    // 3. Timed reps, cycling through the streams, each after a calibration.
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut kernel = Vec::new();
    let wanted = plan.rounds.max(1) * seeds.len();
    let started = Instant::now();
    for i in 0.. {
        if reps.failed > 0 || (i >= wanted && started.elapsed() >= plan.budget) {
            break;
        }
        let k = i % seeds.len();
        let kernel_ms = calib.kernel_ms();
        let t = Instant::now();
        let rep = run_rep(k);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if reps.check(k, rep).is_some() {
            raw[k].push(ms);
            scaled[k].push(ms * REFERENCE_MS / kernel_ms);
            kernel.push(kernel_ms);
        }
    }
    let run_wall_ms = stream_mean(&scaled, median);

    // 4. Traced pass.
    let scale = calib.scale();
    let (traced, attribution) = traced_pass(profile, system, seeds[0], &streams[0]);
    let traced_digest = reps.check(0, traced);
    checks.push(Check::new(
        "traced_digest",
        traced_digest.is_some() && traced_digest == reps.reference[0],
        format!("traced {traced_digest:?}, untraced {:?}", reps.reference[0]),
    ));
    let a = &attribution;
    checks.push(Check::new(
        "trace_reconciles",
        a.op_ns() + a.finalize_ns + a.unattributed_ns == a.total_ns,
        format!(
            "ops {} + finalize {} + unattributed {} vs total {} ns",
            a.op_ns(),
            a.finalize_ns,
            a.unattributed_ns,
            a.total_ns
        ),
    ));
    checks.push(Check::new(
        "unattributed_within_2pct",
        a.unattributed_ns * 50 <= a.total_ns,
        format!("{} of {} ns", a.unattributed_ns, a.total_ns),
    ));
    checks.push(Check::new(
        "layer_spans_nest",
        a.unnested == 0 && a.layer_ns() <= a.op_ns() + a.finalize_ns,
        format!(
            "{} unnested spans; layers {} ns within ops+finalize {} ns",
            a.unnested,
            a.layer_ns(),
            a.op_ns() + a.finalize_ns
        ),
    ));
    if layered {
        let model_sweeps = reps.reference[0].map_or(0, |d| d.sweeps);
        checks.push(Check::new(
            "trace_saw_every_sweep",
            a.sweeps.len() as u64 == model_sweeps,
            format!(
                "{} traced sweeps, model counted {model_sweeps}",
                a.sweeps.len()
            ),
        ));
    }

    let mut record = Record {
        workload: name.to_string(),
        wall_q1: stream_mean(&scaled, |w| quartiles(w).map(|q| q.0)),
        wall_q3: stream_mean(&scaled, |w| quartiles(w).map(|q| q.1)),
        wall_n: scaled.iter().map(Vec::len).sum(),
        raw_ms: stream_mean(&raw, median),
        kernel_ms: median(&kernel).unwrap_or(0.0),
        attempted: reps.attempted,
        failed: reps.failed,
        host: host.to_json(),
        ..Record::default()
    };
    let mut put = |k: &str, v: f64| {
        record.values.insert(k.to_string(), v);
    };
    put("run_wall_ms", run_wall_ms);
    put("setup_s", median(&setup_s).unwrap_or(0.0));
    put("peak_heap_mib", peak_heap_mib);
    let traced_ms = a.total_ns as f64 / 1e6 * scale;
    let untraced_ms = median(&scaled[0]).unwrap_or(0.0);
    put_trace_metrics(&mut put, a, ratio(traced_ms, untraced_ms), streams[0].len());

    // 5. Probe.
    if plan.probe {
        let mut p = probe::run(&streams[0], layered);
        put(
            "jalloc.malloc_ns_p50",
            percentile(&mut p.malloc_ns, 50.0) as f64,
        );
        put(
            "jalloc.malloc_ns_p99",
            percentile(&mut p.malloc_ns, 99.0) as f64,
        );
        put(
            "jalloc.free_ns_p50",
            percentile(&mut p.free_ns, 50.0) as f64,
        );
        put(
            "jalloc.free_ns_p99",
            percentile(&mut p.free_ns, 99.0) as f64,
        );
        put(
            "vmem.write_word_ns",
            ratio(p.write_ns as f64, p.writes as f64),
        );
        put(
            "vmem.fill_zero_ns_per_kib",
            ratio(p.zero_ns as f64, p.zero_bytes as f64 / 1024.0),
        );
    }
    record.checks = checks;
    Outcome {
        record,
        sweeps: attribution.sweeps,
    }
}

/// One engine run with the op stream and the layer's events stamped.
fn traced_pass(
    profile: &Profile,
    system: System,
    seed: u64,
    ops: &[Op],
) -> (std::thread::Result<RunMetrics>, Attribution) {
    let sink = StampSink::default();
    let mut stamps = Vec::with_capacity(ops.len() + 1);
    let t0 = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut engine = Engine::new(profile, system, seed);
        engine.set_trace_sink(Box::new(sink.clone()), false);
        engine.run_ops(TimedOps::new(ops, &mut stamps))
    }));
    let end = Instant::now();
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let attribution = if run.is_ok() {
        let kinds: Vec<OpKind> = ops.iter().map(OpKind::of).collect();
        let op_stamps: Vec<u64> = stamps.iter().map(|&t| ns(t)).collect();
        let events: Vec<_> = sink.take().into_iter().map(|(t, e)| (ns(t), e)).collect();
        attribute(&kinds, &op_stamps, &events, ns(end))
    } else {
        Attribution::default()
    };
    (run, attribution)
}

/// The mean over streams of a per-stream statistic (0 for a stream with
/// no samples).
fn stream_mean(per_stream: &[Vec<f64>], stat: fn(&[f64]) -> Option<f64>) -> f64 {
    let sum: f64 = per_stream.iter().map(|s| stat(s).unwrap_or(0.0)).sum();
    sum / per_stream.len().max(1) as f64
}

/// The `engine.*`, `layer.*`, `workloads.*` and `trace.*` metrics of a
/// traced pass; `slowdown` is the traced run's time over the untraced
/// median. Layer metrics are 0 on workloads without the layer.
fn put_trace_metrics(put: &mut impl FnMut(&str, f64), a: &Attribution, slowdown: f64, ops: usize) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let sum = |f: fn(&SweepSpans) -> u64| a.sweeps.iter().map(f).sum::<u64>();
    let mut alloc = a.alloc_spans.clone();
    let mut free = a.free_spans.clone();
    put("engine.alloc_op_ms", ms(alloc.iter().sum()));
    put(
        "engine.alloc_op_ns_p50",
        percentile(&mut alloc, 50.0) as f64,
    );
    put(
        "engine.alloc_op_ns_p99",
        percentile(&mut alloc, 99.0) as f64,
    );
    put("engine.free_op_ms", ms(free.iter().sum()));
    put("engine.free_op_ns_p50", percentile(&mut free, 50.0) as f64);
    put("engine.free_op_ns_p99", percentile(&mut free, 99.0) as f64);
    put("engine.work_op_ms", ms(a.work_ns));
    put("engine.finalize_ms", ms(a.finalize_ns));
    put(
        "engine.other_ms",
        ms(a.op_ns() + a.finalize_ns) - ms(a.layer_ns()),
    );

    let starts: Vec<f64> = a.sweeps.iter().map(|s| s.start_ns as f64 / 1e3).collect();
    let entries = sum(|s| s.released + s.failed) as f64;
    let mark_ns = sum(|s| s.mark_ns) as f64;
    let mark_bytes = sum(|s| s.mark_bytes) as f64;
    put("layer.sweeps", a.sweeps.len() as f64);
    put("layer.start_sweep_ms", ms(sum(|s| s.start_ns)));
    put("layer.start_sweep_us_p50", median(&starts).unwrap_or(0.0));
    put("layer.mark_ms", mark_ns / 1e6);
    put(
        "layer.mark_gib_per_s",
        ratio(mark_bytes, mark_ns) * 1e9 / (1u64 << 30) as f64,
    );
    put(
        "layer.mark_skip_ratio",
        ratio(sum(|s| s.mark_skipped_bytes) as f64, mark_bytes),
    );
    put("layer.stw_ms", ms(sum(|s| s.stw_ns)));
    put("layer.release_ms", ms(sum(|s| s.release_ns)));
    put(
        "layer.release_ns_per_entry",
        ratio(sum(|s| s.release_ns) as f64, entries),
    );
    put(
        "layer.failed_free_ratio",
        ratio(sum(|s| s.failed) as f64, entries),
    );
    put("layer.purge_ms", ms(sum(|s| s.purge_ns)));

    put("workloads.ops", ops as f64);
    put("trace.overhead_pct", (slowdown - 1.0) * 100.0);
    put("trace.unattributed_ms", ms(a.unattributed_ns));
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{from_probe, END_TO_END, PER_LAYER};

    #[test]
    fn demo_smoke_run_reconciles() {
        let plan = Plan {
            streams: 2,
            rounds: 1,
            budget: Duration::ZERO,
            probe: false,
        };
        let out = measure(
            "demo",
            &Profile::demo(),
            System::minesweeper_default(),
            42,
            &plan,
        );
        let r = &out.record;
        // The size-dependent checks (unattributed share, peak RSS) are for
        // full workloads; this one is 20k allocations in a test harness.
        let must_pass = [
            "inputs_deterministic",
            "stream_allocs",
            "traced_digest",
            "trace_reconciles",
            "layer_spans_nest",
            "trace_saw_every_sweep",
        ];
        for name in must_pass {
            let c = r.checks.iter().find(|c| c.name == name).expect("check ran");
            assert!(c.ok, "check {name} failed: {}", c.detail);
        }
        assert_eq!(r.error_rate(), 0.0);
        assert_eq!(
            r.attempted, 5,
            "two warm-ups, one round of two reps, traced pass"
        );
        assert!(
            !out.sweeps.is_empty(),
            "the demo profile sweeps under MineSweeper"
        );
        let layer: f64 = ["layer.start_sweep_ms", "layer.mark_ms", "layer.stw_ms"]
            .iter()
            .chain(&["layer.release_ms", "layer.purge_ms"])
            .map(|k| r.values[*k])
            .sum();
        let ops = r.values["engine.alloc_op_ms"]
            + r.values["engine.free_op_ms"]
            + r.values["engine.work_op_ms"]
            + r.values["engine.finalize_ms"];
        assert!(
            layer > 0.0 && layer <= ops,
            "layer spans {layer} ms within op spans {ops} ms"
        );
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert_eq!(
                r.values.contains_key(d.name),
                !from_probe(d.name),
                "{}",
                d.name
            );
        }
    }
}
