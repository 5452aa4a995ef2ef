//! Sweep forensics: dangling-pointer provenance and failed-free
//! attribution.
//!
//! Two cooperating pieces, both off unless the `forensics` config knob is
//! set ([`crate::ForensicsMode`]):
//!
//! * [`EdgeRecorder`] — a per-sweep aggregator the mark loop feeds
//!   through `&mut`. When a scanned word points into a locked quarantine
//!   candidate, the recorder attributes a *provenance edge* (source
//!   address → target entry) to the entry, keeping a hit count and one
//!   example source per entry. Sampled mode records 1-in-N edges through
//!   a tick.
//! * [`FailedFreeLedger`] — survives across sweeps in the layer. Every
//!   failed-free decision lands here (first-failed generation, survival
//!   count, capped pinner-page set); releases of previously failed entries
//!   retire their record and report the residency time. The ledger's
//!   totals mirror the quarantine's failed-byte accounting exactly —
//!   sampling never affects them, because they derive from release
//!   decisions, not from recorded edges.

use std::collections::HashMap;

use telemetry::LedgerTotals;
use vmem::{Addr, PAGE_SIZE};

use crate::config::ForensicsMode;
use crate::quarantine::QEntry;

/// Maximum distinct pinner pages remembered per ledger entry.
const MAX_PINNERS: usize = 4;

/// Aggregated provenance edges for one locked candidate over one sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EdgeAgg {
    /// Edges recorded into the entry (post-sampling).
    pub hits: u64,
    /// First source address recorded (0 when none).
    pub src: u64,
}

/// Per-sweep recorder of provenance edges into the locked quarantine
/// candidates.
///
/// Built once per sweep from the locked generation; the mark loop calls
/// [`EdgeRecorder::note`] for every word it marks. A miss (the target is
/// not inside any candidate) costs one binary search over the sorted
/// candidate starts; a hit additionally bumps two counters.
#[derive(Debug)]
pub struct EdgeRecorder {
    /// Candidate base addresses, sorted ascending.
    starts: Vec<u64>,
    /// Exclusive end address of each candidate, in `starts` order.
    ends: Vec<u64>,
    /// Recorded hits per candidate, in `starts` order.
    hits: Vec<u64>,
    /// First recorded source address per candidate (0 = none yet).
    src: Vec<u64>,
    /// Record one edge in `period` (1 = record everything).
    period: u64,
    /// Sampling tick: calls to [`EdgeRecorder::note`] so far.
    tick: u64,
    /// Total edges recorded, post-sampling.
    recorded: u64,
}

impl EdgeRecorder {
    /// Builds a recorder over the locked candidates, or `None` when the
    /// mode is [`ForensicsMode::Off`] (the mark loop then skips the hook
    /// entirely — its single disabled branch).
    pub fn new(entries: &[QEntry], mode: ForensicsMode) -> Option<EdgeRecorder> {
        let period = match mode {
            ForensicsMode::Off => return None,
            ForensicsMode::Sampled(n) => u64::from(n.max(1)),
            ForensicsMode::Full => 1,
        };
        let mut ranges: Vec<(u64, u64)> =
            entries.iter().map(|e| (e.base.raw(), e.base.raw() + e.usable)).collect();
        ranges.sort_unstable();
        let n = ranges.len();
        Some(EdgeRecorder {
            starts: ranges.iter().map(|&(s, _)| s).collect(),
            ends: ranges.iter().map(|&(_, e)| e).collect(),
            hits: vec![0; n],
            src: vec![0; n],
            period,
            tick: 0,
            recorded: 0,
        })
    }

    /// Records one provenance edge if the sampler elects this call and
    /// `target` lies inside a candidate. `src` is the address of the
    /// scanned word holding the pointer — page-granular for
    /// cache-replayed words. The sampler runs first so sampled mode
    /// skips the candidate search for the 1-in-N calls it drops.
    #[inline]
    pub fn note(&mut self, src: Addr, target: Addr) {
        if self.period > 1 {
            let tick = self.tick;
            self.tick += 1;
            if !tick.is_multiple_of(self.period) {
                return;
            }
        }
        let t = target.raw();
        let Some(idx) = self.starts.partition_point(|&s| s <= t).checked_sub(1) else {
            return;
        };
        if t >= self.ends[idx] {
            return;
        }
        self.hits[idx] += 1;
        if self.src[idx] == 0 {
            self.src[idx] = src.raw();
        }
        self.recorded += 1;
    }

    /// Total edges recorded so far (post-sampling).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Per-candidate aggregates for every candidate with at least one
    /// recorded edge, keyed by candidate base address.
    pub fn aggregates(&self) -> HashMap<u64, EdgeAgg> {
        let mut out = HashMap::new();
        for (i, &base) in self.starts.iter().enumerate() {
            if self.hits[i] > 0 {
                out.insert(base, EdgeAgg { hits: self.hits[i], src: self.src[i] });
            }
        }
        out
    }
}

/// One failed-free record in the ledger.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LedgerEntry {
    /// Allocation-site id of the failed entry.
    pub site: u32,
    /// Swept bytes the entry pins in quarantine.
    pub bytes: u64,
    /// Sweep number of the first failure.
    pub first_failed: u64,
    /// Consecutive sweeps the entry has failed (1 after the first).
    pub survivals: u64,
    /// Distinct pages holding recorded pinning pointers, capped at
    /// [`MAX_PINNERS`].
    pub pinners: Vec<u64>,
}

/// The cross-sweep failed-free ledger: who is pinned, since when, and by
/// what.
///
/// Byte conservation: at every sweep end, [`FailedFreeLedger::totals`]'s
/// `bytes` equals the quarantine's failed bytes, because entries join
/// exactly when [`crate::Quarantine::on_failed`] first flags them and
/// leave exactly when a failed entry is released.
#[derive(Clone, Debug, Default)]
pub struct FailedFreeLedger {
    entries: HashMap<u64, LedgerEntry>,
    bytes: u64,
    fail_events: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl FailedFreeLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        FailedFreeLedger::default()
    }

    /// Records a failed-free decision for `entry` at sweep `sweep`.
    /// Returns the updated record and whether this was the entry's first
    /// failure (the caller counts `bytes_in` exactly once per residency).
    pub fn on_failed(
        &mut self,
        entry: &QEntry,
        sweep: u64,
        agg: Option<EdgeAgg>,
    ) -> (&LedgerEntry, bool) {
        self.fail_events += 1;
        let key = entry.base.raw();
        let first = !self.entries.contains_key(&key);
        if first {
            self.bytes += entry.swept_bytes();
            self.bytes_in += entry.swept_bytes();
            self.entries.insert(
                key,
                LedgerEntry {
                    site: entry.site,
                    bytes: entry.swept_bytes(),
                    first_failed: sweep,
                    survivals: 0,
                    pinners: Vec::new(),
                },
            );
        }
        let rec = self.entries.get_mut(&key).expect("just inserted");
        rec.survivals += 1;
        if let Some(a) = agg {
            if a.src != 0 {
                let page = a.src & !(PAGE_SIZE as u64 - 1);
                if rec.pinners.len() < MAX_PINNERS && !rec.pinners.contains(&page) {
                    rec.pinners.push(page);
                }
            }
        }
        (&*rec, first)
    }

    /// Retires the record for a released entry, if it ever failed.
    /// Returns the retired record (its residency is
    /// `sweep - first_failed` sweeps at the caller's current sweep).
    pub fn on_released(&mut self, base: Addr) -> Option<LedgerEntry> {
        let rec = self.entries.remove(&base.raw())?;
        self.bytes -= rec.bytes;
        self.bytes_out += rec.bytes;
        Some(rec)
    }

    /// Current totals for the sweep-end ledger snapshot.
    pub fn totals(&self) -> LedgerTotals {
        LedgerTotals {
            entries: self.entries.len() as u64,
            bytes: self.bytes,
            fail_events: self.fail_events,
        }
    }

    /// Cumulative bytes that ever entered the failed state.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Cumulative bytes that left the failed state via release.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// The record for `base`, if it is currently failed.
    pub fn get(&self, base: Addr) -> Option<&LedgerEntry> {
        self.entries.get(&base.raw())
    }

    /// Iterates the current records as `(base, record)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &LedgerEntry)> {
        self.entries.iter().map(|(&k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(base: u64, usable: u64, site: u32) -> QEntry {
        QEntry { base: Addr::new(base), usable, unmapped_pages: 0, failed: false, site }
    }

    #[test]
    fn recorder_attributes_hits_to_the_right_entry() {
        let entries = [entry(0x2000, 0x100, 1), entry(0x1000, 0x80, 2)];
        let mut rec = EdgeRecorder::new(&entries, ForensicsMode::Full).unwrap();
        rec.note(Addr::new(0x9000), Addr::new(0x2000)); // base hit
        rec.note(Addr::new(0x9008), Addr::new(0x20ff)); // interior hit
        rec.note(Addr::new(0x9010), Addr::new(0x2100)); // one past end: miss
        rec.note(Addr::new(0x9018), Addr::new(0x1040)); // other entry
        rec.note(Addr::new(0x9020), Addr::new(0x0800)); // below all: miss
        rec.note(Addr::new(0x9028), Addr::new(0x1f00)); // gap between: miss
        assert_eq!(rec.recorded(), 3);
        let agg = rec.aggregates();
        assert_eq!(agg[&0x2000], EdgeAgg { hits: 2, src: 0x9000 });
        assert_eq!(agg[&0x1000], EdgeAgg { hits: 1, src: 0x9018 });
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn recorder_off_is_none_and_sampling_thins_hits() {
        assert!(EdgeRecorder::new(&[entry(0x1000, 0x100, 0)], ForensicsMode::Off).is_none());
        let mut rec =
            EdgeRecorder::new(&[entry(0x1000, 0x100, 0)], ForensicsMode::Sampled(4)).unwrap();
        for i in 0..100 {
            rec.note(Addr::new(0x9000 + i * 8), Addr::new(0x1000));
        }
        assert_eq!(rec.recorded(), 25, "1-in-4 sampling records a quarter");
    }

    #[test]
    fn ledger_tracks_survivals_and_conserves_bytes() {
        let mut l = FailedFreeLedger::new();
        let e = entry(0x1000, 64, 7);
        let (rec, first) = l.on_failed(&e, 1, Some(EdgeAgg { hits: 2, src: 0x9123 }));
        assert!(first);
        assert_eq!((rec.survivals, rec.first_failed, rec.site), (1, 1, 7));
        let (rec, first) = l.on_failed(&e, 2, Some(EdgeAgg { hits: 1, src: 0xa001 }));
        assert!(!first);
        assert_eq!(rec.survivals, 2);
        assert_eq!(rec.pinners, vec![0x9000, 0xa000]);
        assert_eq!(
            l.totals(),
            LedgerTotals { entries: 1, bytes: 64, fail_events: 2 }
        );
        let retired = l.on_released(e.base).unwrap();
        assert_eq!(retired.survivals, 2);
        assert_eq!(l.totals(), LedgerTotals { entries: 0, bytes: 0, fail_events: 2 });
        assert_eq!((l.bytes_in(), l.bytes_out()), (64, 64));
        assert!(l.on_released(e.base).is_none(), "never-failed releases are no-ops");
    }

    #[test]
    fn pinner_set_is_capped() {
        let mut l = FailedFreeLedger::new();
        let e = entry(0x1000, 64, 0);
        for i in 0..10u64 {
            l.on_failed(&e, i + 1, Some(EdgeAgg { hits: 1, src: (i + 1) * 0x10_000 }));
        }
        assert_eq!(l.get(e.base).unwrap().pinners.len(), MAX_PINNERS);
    }
}
