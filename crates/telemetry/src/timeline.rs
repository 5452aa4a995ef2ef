//! Per-sweep timelines: folds a stream of [`Event`]s into one
//! [`SweepRecord`] per sweep, aggregates them into a [`RunReport`], and
//! renders the paper-style summary tables (`Fig. 13`/`Fig. 14`:
//! failed-free rates over sweeps, quarantine high-water marks, pause-time
//! histograms).

use crate::json::JsonError;
use crate::registry::{Histogram, HistogramSample, Snapshot};
use crate::trace::{Event, EventKind, LedgerTotals, Trigger};

/// One `PinEdge` event: provenance of the pointers that pinned a
/// quarantined entry during one sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PinRecord {
    /// Sweep the edges were recorded in.
    pub sweep: u64,
    /// Allocation-site id of the pinned entry.
    pub site: u32,
    /// Base address of the pinned entry.
    pub base: u64,
    /// Swept bytes the entry pins.
    pub bytes: u64,
    /// Edges recorded into the entry (post-sampling).
    pub hits: u64,
    /// Example source address of a pinning pointer (0 if none captured).
    pub src: u64,
}

/// One `FailedFreeAged` event: a failed-free decision with its ledger
/// history attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AgedRecord {
    /// Sweep that made the decision.
    pub sweep: u64,
    /// Allocation-site id of the entry.
    pub site: u32,
    /// Base address of the entry.
    pub base: u64,
    /// Swept bytes the entry pins.
    pub bytes: u64,
    /// Consecutive sweeps the entry has failed (1 = first failure).
    pub survivals: u64,
    /// Sweep of the first failure.
    pub first_failed: u64,
}

/// Everything one sweep did, folded from its lifecycle events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepRecord {
    /// 1-based sweep number.
    pub sweep: u64,
    /// What fired the sweep (absent if the trace starts mid-sweep).
    pub trigger: Option<Trigger>,
    /// Virtual time at `SweepStart`.
    pub start_vnow: u64,
    /// Virtual time at `SweepEnd` (equal to `start_vnow` if the sweep
    /// never finished within the trace).
    pub end_vnow: u64,
    /// Swept quarantined bytes when the sweep started.
    pub quarantine_bytes: u64,
    /// Quarantined entries when the sweep started.
    pub quarantine_entries: u64,
    /// Bytes advanced through during marking.
    pub mark_bytes: u64,
    /// Words examined during marking.
    pub mark_words: u64,
    /// Bytes marking advanced through without reading (incremental sweep:
    /// cache-replayed clean pages plus protected/unmapped skips).
    pub mark_skipped_bytes: u64,
    /// Shadow-map granules marked.
    pub marked_granules: u64,
    /// Heap-pointing words the candidate filter suppressed during
    /// marking, summed over the sweep's mark steps.
    pub mark_filter_rejects: u64,
    /// Wall-clock marking time (ns; 0 in deterministic traces).
    pub mark_wall_ns: u64,
    /// Pages re-checked by the stop-the-world pass.
    pub stw_pages: u64,
    /// Words re-checked by the stop-the-world pass.
    pub stw_words: u64,
    /// Entries released back to the allocator.
    pub released: u64,
    /// Bytes released back to the allocator.
    pub released_bytes: u64,
    /// Entries retained by dangling pointers (failed frees, §5.4).
    pub failed_frees: u64,
    /// Pages the allocator purge decommitted after the sweep.
    pub purged_pages: u64,
    /// Wall-clock sweep duration (ns; 0 in deterministic traces).
    pub wall_ns: u64,
    /// Provenance-edge hits recorded this sweep (Σ `PinEdge.hits`).
    pub pin_hits: u64,
    /// `FailedFreeAged` events this sweep (equals `failed_frees` when
    /// forensics was on).
    pub aged_entries: u64,
    /// Failed-free ledger totals at sweep end (`None` when the trace was
    /// recorded without forensics).
    pub ledger: Option<LedgerTotals>,
}

impl SweepRecord {
    /// Fraction of this sweep's candidate entries that failed to free
    /// (`failed / (released + failed)`), the per-sweep quantity behind
    /// the paper's Fig. 13.
    pub fn failed_free_rate(&self) -> f64 {
        let total = self.released + self.failed_frees;
        if total == 0 {
            0.0
        } else {
            self.failed_frees as f64 / total as f64
        }
    }

    /// Sweep duration in virtual cost units.
    pub fn virtual_duration(&self) -> u64 {
        self.end_vnow.saturating_sub(self.start_vnow)
    }

    /// Fraction of the marking phase's bytes that were skipped rather
    /// than read (`mark_skipped_bytes / mark_bytes`; 0 when nothing was
    /// marked) — the incremental sweep's effectiveness for this sweep.
    pub fn skip_rate(&self) -> f64 {
        if self.mark_bytes == 0 {
            0.0
        } else {
            self.mark_skipped_bytes as f64 / self.mark_bytes as f64
        }
    }
}

/// A whole run's timeline: every sweep plus the quarantine-flush
/// traffic between them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// One record per sweep, in sweep order.
    pub sweeps: Vec<SweepRecord>,
    /// Thread-local quarantine buffer flushes observed.
    pub flushes: u64,
    /// Entries those flushes spilled to the global quarantine.
    pub flushed_entries: u64,
    /// Total events folded in.
    pub events: u64,
    /// Every `PinEdge` event, in emission order (forensics traces only).
    pub pins: Vec<PinRecord>,
    /// Every `FailedFreeAged` event, in emission order (forensics traces
    /// only).
    pub aged: Vec<AgedRecord>,
}

impl RunReport {
    /// Folds a stream of events (in emission order) into a report.
    /// Events for a sweep number not yet seen open a new record, so a
    /// trace that starts mid-sweep still aggregates.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> RunReport {
        let mut report = RunReport::default();
        for event in events {
            report.events += 1;
            match &event.kind {
                EventKind::SweepStart { sweep, trigger, quarantine_bytes, quarantine_entries } => {
                    let r = report.record_mut(*sweep);
                    r.trigger = Some(*trigger);
                    r.start_vnow = event.vnow;
                    r.end_vnow = event.vnow;
                    r.quarantine_bytes = *quarantine_bytes;
                    r.quarantine_entries = *quarantine_entries;
                }
                EventKind::MarkPhase {
                    sweep,
                    bytes,
                    words,
                    skipped_bytes,
                    marked_granules,
                    filter_rejects,
                    wall_ns,
                    prof: _,
                } => {
                    let r = report.record_mut(*sweep);
                    r.mark_bytes += bytes;
                    r.mark_words += words;
                    r.mark_skipped_bytes += skipped_bytes;
                    r.marked_granules = *marked_granules;
                    r.mark_filter_rejects += filter_rejects;
                    r.mark_wall_ns += wall_ns;
                }
                EventKind::StwPass { sweep, pages, words } => {
                    let r = report.record_mut(*sweep);
                    r.stw_pages += pages;
                    r.stw_words += words;
                }
                EventKind::Release { sweep, released, released_bytes, failed_frees } => {
                    let r = report.record_mut(*sweep);
                    r.released += released;
                    r.released_bytes += released_bytes;
                    r.failed_frees += failed_frees;
                }
                EventKind::Purge { sweep, purged_pages } => {
                    report.record_mut(*sweep).purged_pages += purged_pages;
                }
                EventKind::QuarantineFlush { entries } => {
                    report.flushes += 1;
                    report.flushed_entries += entries;
                }
                EventKind::SweepEnd { sweep, wall_ns, ledger } => {
                    let r = report.record_mut(*sweep);
                    r.end_vnow = event.vnow;
                    r.wall_ns = *wall_ns;
                    r.ledger = *ledger;
                }
                EventKind::PinEdge { sweep, site, base, bytes, hits, src } => {
                    report.record_mut(*sweep).pin_hits += hits;
                    report.pins.push(PinRecord {
                        sweep: *sweep,
                        site: *site,
                        base: *base,
                        bytes: *bytes,
                        hits: *hits,
                        src: *src,
                    });
                }
                EventKind::FailedFreeAged {
                    sweep,
                    site,
                    base,
                    bytes,
                    survivals,
                    first_failed,
                } => {
                    report.record_mut(*sweep).aged_entries += 1;
                    report.aged.push(AgedRecord {
                        sweep: *sweep,
                        site: *site,
                        base: *base,
                        bytes: *bytes,
                        survivals: *survivals,
                        first_failed: *first_failed,
                    });
                }
            }
        }
        report
    }

    /// Parses a JSONL trace (one event per line, blank lines ignored)
    /// and folds it into a report.
    ///
    /// # Errors
    ///
    /// [`JsonError`] naming the 1-based line if any line fails to parse
    /// as an event — a failure on the final line usually means the trace
    /// was truncated mid-write (torn line).
    pub fn from_jsonl(text: &str) -> Result<RunReport, JsonError> {
        let mut events = Vec::new();
        let total = text.lines().count();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(Event::from_json(line).map_err(|e| {
                let hint = if idx + 1 == total {
                    " (torn final line: trace truncated mid-write?)"
                } else {
                    ""
                };
                JsonError::new(format!("line {}: {e}{hint}", idx + 1))
            })?);
        }
        Ok(RunReport::from_events(&events))
    }

    fn record_mut(&mut self, sweep: u64) -> &mut SweepRecord {
        if let Some(i) = self.sweeps.iter().position(|r| r.sweep == sweep) {
            &mut self.sweeps[i]
        } else {
            self.sweeps.push(SweepRecord { sweep, ..SweepRecord::default() });
            self.sweeps.last_mut().expect("just pushed")
        }
    }

    /// Total entries released across all sweeps.
    pub fn total_released(&self) -> u64 {
        self.sweeps.iter().map(|r| r.released).sum()
    }

    /// Total bytes released across all sweeps.
    pub fn total_released_bytes(&self) -> u64 {
        self.sweeps.iter().map(|r| r.released_bytes).sum()
    }

    /// Total failed frees across all sweeps.
    pub fn total_failed_frees(&self) -> u64 {
        self.sweeps.iter().map(|r| r.failed_frees).sum()
    }

    /// Total bytes advanced through during marking across all sweeps.
    pub fn total_mark_bytes(&self) -> u64 {
        self.sweeps.iter().map(|r| r.mark_bytes).sum()
    }

    /// Total bytes marking skipped (cache replay + protected/unmapped)
    /// across all sweeps.
    pub fn total_mark_skipped_bytes(&self) -> u64 {
        self.sweeps.iter().map(|r| r.mark_skipped_bytes).sum()
    }

    /// Total stop-the-world pages re-checked across all sweeps.
    pub fn total_stw_pages(&self) -> u64 {
        self.sweeps.iter().map(|r| r.stw_pages).sum()
    }

    /// Total filter-rejected heap words across all sweeps' mark phases.
    pub fn total_mark_filter_rejects(&self) -> u64 {
        self.sweeps.iter().map(|r| r.mark_filter_rejects).sum()
    }

    /// Total provenance-edge hits recorded across all sweeps.
    pub fn total_pin_hits(&self) -> u64 {
        self.sweeps.iter().map(|r| r.pin_hits).sum()
    }

    /// Whether the trace carries forensics data (any sweep ended with a
    /// ledger snapshot).
    pub fn has_forensics(&self) -> bool {
        self.sweeps.iter().any(|r| r.ledger.is_some())
    }

    /// The last sweep's ledger totals, if the trace carries them.
    pub fn last_ledger(&self) -> Option<LedgerTotals> {
        self.sweeps.iter().rev().find_map(|r| r.ledger)
    }

    /// The entries pinned at the end of the trace: each currently failed
    /// entry re-fails (and re-ages) every sweep, so the last sweep's
    /// `FailedFreeAged` records ARE the live ledger.
    pub fn pinned_now(&self) -> Vec<AgedRecord> {
        let Some(last) = self.sweeps.iter().map(|r| r.sweep).max() else {
            return Vec::new();
        };
        self.aged.iter().filter(|a| a.sweep == last).copied().collect()
    }

    /// Cumulative failed-free rate over the whole run.
    pub fn failed_free_rate(&self) -> f64 {
        let total = self.total_released() + self.total_failed_frees();
        if total == 0 {
            0.0
        } else {
            self.total_failed_frees() as f64 / total as f64
        }
    }

    /// The largest quarantine footprint any sweep started with — the
    /// run's quarantine high-water mark in bytes.
    pub fn quarantine_high_water_bytes(&self) -> u64 {
        self.sweeps.iter().map(|r| r.quarantine_bytes).max().unwrap_or(0)
    }

    /// The largest entry count any sweep started with.
    pub fn quarantine_high_water_entries(&self) -> u64 {
        self.sweeps.iter().map(|r| r.quarantine_entries).max().unwrap_or(0)
    }

    /// Checks the timeline against a metrics [`Snapshot`] from the same
    /// run: event-derived totals must exactly equal the layer's counters.
    /// This is the cross-check that keeps the two telemetry planes
    /// honest with each other.
    ///
    /// # Errors
    ///
    /// A human-readable description of every mismatched metric.
    pub fn reconcile(&self, snap: &Snapshot) -> Result<(), String> {
        let mut mismatches = Vec::new();
        let mut check = |name: &str, from_events: u64| {
            let from_counters = snap.counter("layer", name).unwrap_or(0);
            if from_events != from_counters {
                mismatches.push(format!(
                    "{name}: events say {from_events}, counters say {from_counters}"
                ));
            }
        };
        check("sweeps", self.sweeps.len() as u64);
        check("released", self.total_released());
        check("released_bytes", self.total_released_bytes());
        check("failed_frees", self.total_failed_frees());
        check("swept_bytes", self.total_mark_bytes());
        check("skipped_bytes", self.total_mark_skipped_bytes());
        check("stw_pages", self.total_stw_pages());
        check("filter_rejects", self.total_mark_filter_rejects());
        check("tl_flushes", self.flushes);
        check("tl_flushed_entries", self.flushed_entries);
        check("pin_edges", self.total_pin_hits());
        // Forensics-specific invariants, only meaningful when the trace
        // carries ledger snapshots.
        if let Some(ledger) = self.last_ledger() {
            let bytes_in = snap.counter("layer", "ledger_bytes_in").unwrap_or(0);
            let bytes_out = snap.counter("layer", "ledger_bytes_out").unwrap_or(0);
            if ledger.bytes != bytes_in.saturating_sub(bytes_out) {
                mismatches.push(format!(
                    "ledger_bytes: last SweepEnd says {}, counters say {} in - {} out",
                    ledger.bytes, bytes_in, bytes_out
                ));
            }
            let failed = snap.counter("layer", "failed_frees").unwrap_or(0);
            if ledger.fail_events != failed {
                mismatches.push(format!(
                    "ledger_fail_events: last SweepEnd says {}, failed_frees counter says {failed}",
                    ledger.fail_events
                ));
            }
            for r in &self.sweeps {
                if r.ledger.is_some() && r.aged_entries != r.failed_frees {
                    mismatches.push(format!(
                        "sweep {}: {} FailedFreeAged events but {} failed frees",
                        r.sweep, r.aged_entries, r.failed_frees
                    ));
                }
            }
            // Byte conservation: the last completed sweep's aged records
            // are exactly the live ledger (skip if the trace ends inside
            // an unfinished sweep — it has no snapshot to compare with).
            if let Some(last) = self.sweeps.iter().max_by_key(|r| r.sweep) {
                if last.ledger.is_some() {
                    let pinned: u64 = self.pinned_now().iter().map(|a| a.bytes).sum();
                    if pinned != ledger.bytes {
                        mismatches.push(format!(
                            "pinned bytes: last sweep's aged records sum to {pinned}, \
                             ledger says {}",
                            ledger.bytes
                        ));
                    }
                }
            }
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("; "))
        }
    }

    /// Renders the Fig. 13-style table: per-sweep failed-free counts and
    /// rates, with a cumulative-total row.
    pub fn failed_free_table(&self) -> String {
        let mut out = String::from(
            "sweep  trigger       released  failed  rate     cumulative\n",
        );
        let mut cum_released = 0u64;
        let mut cum_failed = 0u64;
        for r in &self.sweeps {
            cum_released += r.released;
            cum_failed += r.failed_frees;
            let cum_total = cum_released + cum_failed;
            let cum_rate = if cum_total == 0 {
                0.0
            } else {
                cum_failed as f64 / cum_total as f64
            };
            out.push_str(&format!(
                "{:>5}  {:<12}  {:>8}  {:>6}  {:>6.2}%  {:>9.2}%\n",
                r.sweep,
                r.trigger.map_or("?", Trigger::as_str),
                r.released,
                r.failed_frees,
                r.failed_free_rate() * 100.0,
                cum_rate * 100.0,
            ));
        }
        out.push_str(&format!(
            "total  {:<12}  {:>8}  {:>6}  {:>6.2}%\n",
            "",
            self.total_released(),
            self.total_failed_frees(),
            self.failed_free_rate() * 100.0,
        ));
        out
    }

    /// Renders the quarantine table: per-sweep footprint at sweep start
    /// plus the run high-water marks.
    pub fn quarantine_table(&self) -> String {
        let mut out =
            String::from("sweep  quarantine_bytes  entries   released_bytes  purged_pages\n");
        for r in &self.sweeps {
            out.push_str(&format!(
                "{:>5}  {:>16}  {:>7}  {:>15}  {:>12}\n",
                r.sweep, r.quarantine_bytes, r.quarantine_entries, r.released_bytes, r.purged_pages
            ));
        }
        out.push_str(&format!(
            "high-water: {} bytes / {} entries; flushes: {} ({} entries)\n",
            self.quarantine_high_water_bytes(),
            self.quarantine_high_water_entries(),
            self.flushes,
            self.flushed_entries,
        ));
        out
    }

    /// Renders the pinner table: allocation sites ranked by the
    /// bytes their failed frees currently pin in quarantine, with the
    /// provenance-edge hits recorded against them in the final sweep.
    pub fn pinner_table(&self) -> String {
        if !self.has_forensics() {
            return String::from(
                "no forensics data in trace (run with forensics enabled)\n",
            );
        }
        let pinned = self.pinned_now();
        let last_sweep = pinned.first().map_or(0, |a| a.sweep);
        // Per-site aggregation over the live ledger; hits joined from the
        // same sweep's PinEdge records by entry base.
        let mut sites: Vec<(u32, u64, u64, u64)> = Vec::new(); // site, entries, bytes, hits
        for a in &pinned {
            let hits: u64 = self
                .pins
                .iter()
                .filter(|p| p.sweep == a.sweep && p.base == a.base)
                .map(|p| p.hits)
                .sum();
            match sites.iter_mut().find(|s| s.0 == a.site) {
                Some(s) => {
                    s.1 += 1;
                    s.2 += a.bytes;
                    s.3 += hits;
                }
                None => sites.push((a.site, 1, a.bytes, hits)),
            }
        }
        sites.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        let mut out = format!(
            "pinned sites after sweep {last_sweep} (ranked by pinned bytes)\n\
             site   entries  pinned_bytes  pin_hits\n"
        );
        for (site, entries, bytes, hits) in &sites {
            out.push_str(&format!(
                "{site:>5}  {entries:>7}  {bytes:>12}  {hits:>8}\n"
            ));
        }
        let total_bytes: u64 = pinned.iter().map(|a| a.bytes).sum();
        out.push_str(&format!(
            "total  {:>7}  {total_bytes:>12}  (ledger: {} entries, {} fail events)\n",
            pinned.len(),
            self.last_ledger().map_or(0, |l| l.entries),
            self.last_ledger().map_or(0, |l| l.fail_events),
        ));
        out
    }

    /// Renders the failed-free detail table: every currently pinned entry
    /// with its ledger history, oldest residents first.
    pub fn failed_free_detail_table(&self) -> String {
        if !self.has_forensics() {
            return String::from(
                "no forensics data in trace (run with forensics enabled)\n",
            );
        }
        let mut pinned = self.pinned_now();
        pinned.sort_by(|a, b| {
            b.survivals.cmp(&a.survivals).then(a.base.cmp(&b.base))
        });
        let mut out = String::from(
            "base                site   bytes  first_failed  survivals  example_pinner\n",
        );
        for a in &pinned {
            let src = self
                .pins
                .iter()
                .filter(|p| p.sweep == a.sweep && p.base == a.base && p.src != 0)
                .map(|p| p.src)
                .next();
            out.push_str(&format!(
                "{:#018x}  {:>5}  {:>6}  {:>12}  {:>9}  {}\n",
                a.base,
                a.site,
                a.bytes,
                a.first_failed,
                a.survivals,
                src.map_or_else(|| String::from("-"), |s| format!("{s:#x}")),
            ));
        }
        out.push_str(&format!("{} entries pinned\n", pinned.len()));
        out
    }
}

/// Renders a pause-time histogram sample (Fig. 14-style) as an ASCII
/// table: one row per occupied log2 bucket with a proportional bar.
pub fn pause_table(sample: &HistogramSample, unit: &str) -> String {
    let total = sample.count();
    let mut out = format!(
        "{}/{} — {} observations, sum {} {}\n",
        sample.subsystem, sample.name, total, sample.sum, unit
    );
    if total == 0 {
        return out;
    }
    let max = sample.buckets.iter().map(|&(_, c)| c).max().unwrap_or(1);
    for &(i, count) in &sample.buckets {
        let lo = if i == 0 { 0 } else { Histogram::bucket_bound(i - 1).saturating_add(1) };
        let hi = Histogram::bucket_bound(i);
        let bar = "#".repeat(((count * 40).div_ceil(max)) as usize);
        out.push_str(&format!(
            "  [{lo:>10} .. {hi:>20}] {count:>8}  {bar}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(vnow: u64, kind: EventKind) -> Event {
        Event { seq: 0, vnow, kind }
    }

    fn sample_run() -> Vec<Event> {
        vec![
            ev(1, EventKind::QuarantineFlush { entries: 32 }),
            ev(
                10,
                EventKind::SweepStart {
                    sweep: 1,
                    trigger: Trigger::Proportional,
                    quarantine_bytes: 1000,
                    quarantine_entries: 10,
                },
            ),
            ev(
                20,
                EventKind::MarkPhase {
                    sweep: 1,
                    bytes: 4096,
                    words: 512,
                    skipped_bytes: 0,
                    marked_granules: 4,
                    filter_rejects: 3,
                    wall_ns: 0,
                    prof: None,
                },
            ),
            ev(25, EventKind::StwPass { sweep: 1, pages: 2, words: 1024 }),
            ev(
                30,
                EventKind::Release {
                    sweep: 1,
                    released: 8,
                    released_bytes: 800,
                    failed_frees: 2,
                },
            ),
            ev(32, EventKind::Purge { sweep: 1, purged_pages: 3 }),
            ev(35, EventKind::SweepEnd { sweep: 1, wall_ns: 0, ledger: None }),
            ev(
                50,
                EventKind::SweepStart {
                    sweep: 2,
                    trigger: Trigger::Unmapped,
                    quarantine_bytes: 3000,
                    quarantine_entries: 30,
                },
            ),
            ev(
                60,
                EventKind::MarkPhase {
                    sweep: 2,
                    bytes: 8192,
                    words: 512,
                    skipped_bytes: 4096,
                    marked_granules: 0,
                    filter_rejects: 1,
                    wall_ns: 0,
                    prof: None,
                },
            ),
            ev(
                70,
                EventKind::Release {
                    sweep: 2,
                    released: 30,
                    released_bytes: 3000,
                    failed_frees: 0,
                },
            ),
            ev(75, EventKind::SweepEnd { sweep: 2, wall_ns: 0, ledger: None }),
        ]
    }

    /// A two-sweep forensics run: entry A (site 3) fails both sweeps,
    /// entry B (site 5) fails sweep 1 and is released in sweep 2.
    fn forensic_run() -> Vec<Event> {
        vec![
            ev(
                10,
                EventKind::SweepStart {
                    sweep: 1,
                    trigger: Trigger::Proportional,
                    quarantine_bytes: 512,
                    quarantine_entries: 2,
                },
            ),
            ev(
                20,
                EventKind::PinEdge {
                    sweep: 1,
                    site: 3,
                    base: 0x1000,
                    bytes: 64,
                    hits: 4,
                    src: 0x9008,
                },
            ),
            ev(
                20,
                EventKind::PinEdge {
                    sweep: 1,
                    site: 5,
                    base: 0x2000,
                    bytes: 128,
                    hits: 1,
                    src: 0x9010,
                },
            ),
            ev(
                20,
                EventKind::FailedFreeAged {
                    sweep: 1,
                    site: 3,
                    base: 0x1000,
                    bytes: 64,
                    survivals: 1,
                    first_failed: 1,
                },
            ),
            ev(
                20,
                EventKind::FailedFreeAged {
                    sweep: 1,
                    site: 5,
                    base: 0x2000,
                    bytes: 128,
                    survivals: 1,
                    first_failed: 1,
                },
            ),
            ev(
                21,
                EventKind::Release {
                    sweep: 1,
                    released: 0,
                    released_bytes: 0,
                    failed_frees: 2,
                },
            ),
            ev(
                22,
                EventKind::SweepEnd {
                    sweep: 1,
                    wall_ns: 0,
                    ledger: Some(LedgerTotals {
                        entries: 2,
                        bytes: 192,
                        fail_events: 2,
                    }),
                },
            ),
            ev(
                30,
                EventKind::SweepStart {
                    sweep: 2,
                    trigger: Trigger::Manual,
                    quarantine_bytes: 192,
                    quarantine_entries: 2,
                },
            ),
            ev(
                40,
                EventKind::PinEdge {
                    sweep: 2,
                    site: 3,
                    base: 0x1000,
                    bytes: 64,
                    hits: 2,
                    src: 0x9008,
                },
            ),
            ev(
                40,
                EventKind::FailedFreeAged {
                    sweep: 2,
                    site: 3,
                    base: 0x1000,
                    bytes: 64,
                    survivals: 2,
                    first_failed: 1,
                },
            ),
            ev(
                41,
                EventKind::Release {
                    sweep: 2,
                    released: 1,
                    released_bytes: 128,
                    failed_frees: 1,
                },
            ),
            ev(
                42,
                EventKind::SweepEnd {
                    sweep: 2,
                    wall_ns: 0,
                    ledger: Some(LedgerTotals {
                        entries: 1,
                        bytes: 64,
                        fail_events: 3,
                    }),
                },
            ),
        ]
    }

    #[test]
    fn forensic_events_fold_into_pins_and_ledger() {
        let report = RunReport::from_events(&forensic_run());
        assert!(report.has_forensics());
        assert_eq!(report.total_pin_hits(), 7);
        assert_eq!(report.sweeps[0].pin_hits, 5);
        assert_eq!(report.sweeps[0].aged_entries, 2);
        assert_eq!(report.sweeps[1].pin_hits, 2);
        assert_eq!(
            report.last_ledger(),
            Some(LedgerTotals { entries: 1, bytes: 64, fail_events: 3 })
        );
        let pinned = report.pinned_now();
        assert_eq!(pinned.len(), 1, "only the site-3 entry survives");
        assert_eq!((pinned[0].base, pinned[0].survivals), (0x1000, 2));
    }

    #[test]
    fn forensic_tables_rank_sites_and_entries() {
        let report = RunReport::from_events(&forensic_run());
        let p = report.pinner_table();
        assert!(p.contains("pinned sites after sweep 2"), "{p}");
        assert!(p.contains("ledger: 1 entries, 3 fail events"), "{p}");
        let site_row = p.lines().nth(2).unwrap();
        assert!(site_row.trim_start().starts_with('3'), "site 3 ranked first: {p}");
        let d = report.failed_free_detail_table();
        assert!(d.contains("0x0000000000001000"), "{d}");
        assert!(d.contains("1 entries pinned"), "{d}");
        assert!(d.contains("0x9008"), "example pinner shown: {d}");

        let bare = RunReport::from_events(&sample_run());
        assert!(bare.pinner_table().contains("no forensics data"));
        assert!(bare.failed_free_detail_table().contains("no forensics data"));
    }

    #[test]
    fn reconcile_checks_forensic_invariants() {
        let report = RunReport::from_events(&forensic_run());
        let reg = crate::registry::Registry::new();
        reg.counter("layer", "sweeps").add(2);
        reg.counter("layer", "released").add(1);
        reg.counter("layer", "released_bytes").add(128);
        reg.counter("layer", "failed_frees").add(3);
        reg.counter("layer", "pin_edges").add(7);
        reg.counter("layer", "ledger_bytes_in").add(192);
        reg.counter("layer", "ledger_bytes_out").add(128);
        report.reconcile(&reg.snapshot()).expect("forensic totals must match");

        reg.counter("layer", "ledger_bytes_out").add(64);
        let err = report.reconcile(&reg.snapshot()).unwrap_err();
        assert!(err.contains("ledger_bytes"), "{err}");

        let reg2 = crate::registry::Registry::new();
        reg2.counter("layer", "sweeps").add(2);
        reg2.counter("layer", "released").add(1);
        reg2.counter("layer", "released_bytes").add(128);
        reg2.counter("layer", "failed_frees").add(3);
        reg2.counter("layer", "pin_edges").add(6); // one hit short
        reg2.counter("layer", "ledger_bytes_in").add(192);
        reg2.counter("layer", "ledger_bytes_out").add(128);
        let err = report.reconcile(&reg2.snapshot()).unwrap_err();
        assert!(err.contains("pin_edges"), "{err}");
    }

    #[test]
    fn folds_events_into_sweep_records() {
        let report = RunReport::from_events(&sample_run());
        assert_eq!(report.sweeps.len(), 2);
        assert_eq!(report.events, 11);
        let r1 = &report.sweeps[0];
        assert_eq!(r1.trigger, Some(Trigger::Proportional));
        assert_eq!(r1.virtual_duration(), 25);
        assert_eq!(r1.mark_bytes, 4096);
        assert_eq!(r1.mark_skipped_bytes, 0);
        assert!((r1.skip_rate() - 0.0).abs() < 1e-12);
        let r2 = &report.sweeps[1];
        assert_eq!(r2.mark_skipped_bytes, 4096);
        assert!((r2.skip_rate() - 0.5).abs() < 1e-12);
        assert_eq!(report.total_mark_skipped_bytes(), 4096);
        assert_eq!(r1.stw_pages, 2);
        assert_eq!(r1.released, 8);
        assert_eq!(r1.failed_frees, 2);
        assert_eq!(r1.purged_pages, 3);
        assert!((r1.failed_free_rate() - 0.2).abs() < 1e-12);
        assert_eq!(report.flushes, 1);
        assert_eq!(report.flushed_entries, 32);
        assert_eq!(report.total_released(), 38);
        assert_eq!(report.total_released_bytes(), 3800);
        assert_eq!(report.total_failed_frees(), 2);
        assert_eq!(report.quarantine_high_water_bytes(), 3000);
        assert_eq!(report.quarantine_high_water_entries(), 30);
        assert!((report.failed_free_rate() - 2.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_round_trip_matches_direct_fold() {
        let events = sample_run();
        let text: String =
            events.iter().map(|e| format!("{}\n", e.to_json())).collect();
        let via_jsonl = RunReport::from_jsonl(&text).unwrap();
        assert_eq!(via_jsonl, RunReport::from_events(&events));
        assert!(RunReport::from_jsonl("{\"seq\":}").is_err());
    }

    #[test]
    fn reconcile_agrees_with_matching_counters() {
        let report = RunReport::from_events(&sample_run());
        let reg = crate::registry::Registry::new();
        reg.counter("layer", "sweeps").add(2);
        reg.counter("layer", "released").add(38);
        reg.counter("layer", "released_bytes").add(3800);
        reg.counter("layer", "failed_frees").add(2);
        reg.counter("layer", "swept_bytes").add(4096 + 8192);
        reg.counter("layer", "skipped_bytes").add(4096);
        reg.counter("layer", "stw_pages").add(2);
        reg.counter("layer", "filter_rejects").add(4);
        reg.counter("layer", "tl_flushes").add(1);
        reg.counter("layer", "tl_flushed_entries").add(32);
        report.reconcile(&reg.snapshot()).expect("totals must match");

        reg.counter("layer", "failed_frees").add(1);
        let err = report.reconcile(&reg.snapshot()).unwrap_err();
        assert!(err.contains("failed_frees"), "mismatch must be named: {err}");

        let reg3 = crate::registry::Registry::new();
        let err = RunReport::from_events(&sample_run()).reconcile(&reg3.snapshot()).unwrap_err();
        assert!(err.contains("filter_rejects"), "filter rejects reconcile too: {err}");
    }

    #[test]
    fn tables_render_totals() {
        let report = RunReport::from_events(&sample_run());
        let t = report.failed_free_table();
        assert!(t.contains("proportional"), "{t}");
        assert!(t.contains("unmapped"), "{t}");
        assert!(t.lines().count() == 4, "header + 2 sweeps + total:\n{t}");
        let q = report.quarantine_table();
        assert!(q.contains("high-water: 3000 bytes / 30 entries"), "{q}");

        let reg = crate::registry::Registry::new();
        let hh = reg.histogram("engine", "pause_cycles");
        hh.record(5);
        hh.record(1000);
        let snap = reg.snapshot();
        let table = pause_table(snap.histogram("engine", "pause_cycles").unwrap(), "cycles");
        assert!(table.contains("2 observations"), "{table}");
        assert!(table.contains('#'), "{table}");
    }

    #[test]
    fn mid_trace_sweep_still_aggregates() {
        let events = vec![ev(
            5,
            EventKind::Release { sweep: 7, released: 1, released_bytes: 16, failed_frees: 0 },
        )];
        let report = RunReport::from_events(&events);
        assert_eq!(report.sweeps.len(), 1);
        assert_eq!(report.sweeps[0].sweep, 7);
        assert_eq!(report.sweeps[0].trigger, None);
        assert_eq!(report.total_released(), 1);
    }
}
