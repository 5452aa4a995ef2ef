//! Cost-attribution ledger: tags every defence-cycle charge with a
//! [`CostKind`] and an attribution key (allocation site, arena), and
//! accumulates them as ordinary `cost/*` registry metrics so the existing
//! snapshot / delta / JSON machinery carries them for free.
//!
//! The design is *dual accumulation*: every charge lands in
//!
//! * `cost/total_cycles` — the independent grand total,
//! * a per-kind counter `cost/kind_<k>_cycles` **and** a per-kind
//!   histogram `cost/kind_<k>_cycles_hist` (counter for the sum,
//!   histogram for the per-charge distribution),
//! * a per-site counter `cost/site_<id>_cycles` (or `site_none_cycles`),
//! * a per-arena counter `cost/arena_<label>_cycles` (or
//!   `arena_none_cycles`).
//!
//! Each of the three attribution dimensions therefore sums to the total
//! independently, and each kind's counter must equal its histogram's sum.
//! [`CostLedger::reconcile`] checks all of these and **names the kind (or
//! dimension) that leaked**, which is what `ms-report --costs --check`
//! gates on. [`CostRecorder::set_drop`] deliberately skips one kind's
//! counter (histogram and total still charged) so CI can prove the gate
//! fires.

use std::collections::HashMap;

use crate::idhash::IdMap;
use crate::registry::{Counter, Histogram, Registry, Snapshot};

/// Subsystem label for all ledger metrics.
pub const COST_SUBSYSTEM: &str = "cost";

/// What a defence-cycle charge paid for.
///
/// The taxonomy follows the sim's `CostModel` charge points; every charge
/// the engine (or the exploit interpreter's per-backend recipes) makes is
/// tagged with exactly one kind, so the kinds partition the total.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CostKind {
    /// Zero-on-free memory scrubbing.
    Zeroing,
    /// Quarantine bookkeeping: insert, thread-local buffer flush, unmap.
    Quarantine,
    /// Linear mark/scan work (chunk scanning + survivor upkeep).
    MarkScan,
    /// Incremental-sweep skip replay (clean pages replayed from digests).
    SkipReplay,
    /// Forensics: pin-edge provenance and pointer-tracking upkeep.
    Forensics,
    /// Stop-the-world passes and blocking pause stalls.
    Stw,
    /// Sweep-scheduler round setup.
    SchedSetup,
    /// Quarantine release and page purge/decommit work.
    Release,
    /// Demand-commit faults taken by the sweeper.
    Commit,
}

impl CostKind {
    /// Every kind, in canonical (serialisation) order.
    pub const ALL: [CostKind; 9] = [
        CostKind::Zeroing,
        CostKind::Quarantine,
        CostKind::MarkScan,
        CostKind::SkipReplay,
        CostKind::Forensics,
        CostKind::Stw,
        CostKind::SchedSetup,
        CostKind::Release,
        CostKind::Commit,
    ];

    /// Stable snake_case label used in metric names and JSON.
    pub fn label(self) -> &'static str {
        match self {
            CostKind::Zeroing => "zeroing",
            CostKind::Quarantine => "quarantine",
            CostKind::MarkScan => "mark_scan",
            CostKind::SkipReplay => "skip_replay",
            CostKind::Forensics => "forensics",
            CostKind::Stw => "stw",
            CostKind::SchedSetup => "sched_setup",
            CostKind::Release => "release",
            CostKind::Commit => "commit",
        }
    }

    /// Parses a [`CostKind::label`] back (`None` for unknown labels).
    pub fn from_label(s: &str) -> Option<CostKind> {
        CostKind::ALL.iter().copied().find(|k| k.label() == s)
    }

    /// Position of this kind in [`CostKind::ALL`] — the canonical index
    /// for fixed-size per-kind arrays (e.g. `DefenceCost` in the sim).
    pub fn index(self) -> usize {
        CostKind::ALL.iter().position(|&k| k == self).expect("kind in ALL")
    }
}

/// Live recorder: one per engine/pool run, registered on that run's
/// [`Registry`]. The hot path is a handful of relaxed atomic adds; site
/// and arena counter handles are memoised so registration's mutex is hit
/// once per distinct key.
#[derive(Debug)]
pub struct CostRecorder {
    total: Counter,
    kinds: Vec<Counter>,
    kind_hists: Vec<Histogram>,
    per_sweep: Histogram,
    sites: IdMap<Option<u32>, Counter>,
    /// `arena_none_cycles`, registered on the first unlabelled charge.
    arena_none: Option<Counter>,
    arenas: HashMap<String, Counter>,
    registry: Registry,
    dropped: Option<CostKind>,
}

impl CostRecorder {
    /// Creates a recorder and eagerly registers the total and per-kind
    /// metrics (so a zero-cost run still snapshots a complete ledger).
    pub fn new(registry: &Registry) -> CostRecorder {
        let total = registry.counter(COST_SUBSYSTEM, "total_cycles");
        let mut kinds = Vec::with_capacity(CostKind::ALL.len());
        let mut kind_hists = Vec::with_capacity(CostKind::ALL.len());
        for k in CostKind::ALL {
            let name = format!("kind_{}_cycles", k.label());
            kinds.push(registry.counter(COST_SUBSYSTEM, &name));
            kind_hists.push(registry.histogram(COST_SUBSYSTEM, &format!("{name}_hist")));
        }
        CostRecorder {
            total,
            kinds,
            kind_hists,
            per_sweep: registry.histogram(COST_SUBSYSTEM, "per_sweep_cycles"),
            sites: IdMap::default(),
            arena_none: None,
            arenas: HashMap::new(),
            registry: registry.clone(),
            dropped: None,
        }
    }

    /// Self-test leak injection: skip `kind`'s *counter* on every future
    /// charge while still feeding its histogram and the total, so
    /// reconciliation fails and names exactly that kind.
    pub fn set_drop(&mut self, kind: Option<CostKind>) {
        self.dropped = kind;
    }

    /// Records one charge. Zero-cycle charges are ignored (they cannot
    /// move any sum and would only pollute the histograms).
    pub fn charge(
        &mut self,
        kind: CostKind,
        cycles: u64,
        site: Option<u32>,
        arena: Option<&str>,
    ) {
        if cycles == 0 {
            return;
        }
        self.total.add(cycles);
        let i = kind.index();
        if self.dropped != Some(kind) {
            self.kinds[i].add(cycles);
        }
        self.kind_hists[i].record(cycles);
        let registry = &self.registry;
        self.sites
            .entry(site)
            .or_insert_with(|| {
                let name = match site {
                    Some(id) => format!("site_{id}_cycles"),
                    None => "site_none_cycles".into(),
                };
                registry.counter(COST_SUBSYSTEM, &name)
            })
            .add(cycles);
        match arena {
            None => self
                .arena_none
                .get_or_insert_with(|| registry.counter(COST_SUBSYSTEM, "arena_none_cycles"))
                .add(cycles),
            Some(label) => match self.arenas.get(label) {
                Some(counter) => counter.add(cycles),
                None => {
                    let name = format!("arena_{label}_cycles");
                    let counter = registry.counter(COST_SUBSYSTEM, &name);
                    counter.add(cycles);
                    self.arenas.insert(label.to_string(), counter);
                }
            },
        }
    }

    /// Total defence cycles recorded so far.
    pub fn total(&self) -> u64 {
        self.total.get()
    }

    /// Attributes `cycles` to one sweep generation — a distribution view
    /// (`cost/per_sweep_cycles`), not part of the conservation sums.
    pub fn record_sweep(&self, cycles: u64) {
        self.per_sweep.record(cycles);
    }
}

/// A typed view of the `cost/*` metrics in a [`Snapshot`] (or a snapshot
/// *delta* — the ledger composes with the existing delta algebra because
/// it is built from plain counters and histograms).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// Independently accumulated grand total (`cost/total_cycles`).
    pub total: u64,
    /// Per-kind `(label, counter_cycles, histogram_sum)` in
    /// [`CostKind::ALL`] order.
    pub kinds: Vec<(String, u64, u64)>,
    /// Per-site `(key, cycles)`; key is the numeric site id as text or
    /// `"none"` for unattributed charges. Sorted by cycles descending.
    pub sites: Vec<(String, u64)>,
    /// Per-arena `(label, cycles)`, sorted by cycles descending.
    pub arenas: Vec<(String, u64)>,
}

fn strip<'a>(name: &'a str, prefix: &str, suffix: &str) -> Option<&'a str> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)
}

impl CostLedger {
    /// Extracts the ledger from a snapshot; `None` when the snapshot
    /// carries no `cost/total_cycles` counter (ledger was off).
    pub fn from_snapshot(snap: &Snapshot) -> Option<CostLedger> {
        let total = snap.counter(COST_SUBSYSTEM, "total_cycles")?;
        let mut kinds = Vec::with_capacity(CostKind::ALL.len());
        for k in CostKind::ALL {
            let name = format!("kind_{}_cycles", k.label());
            let counted = snap.counter(COST_SUBSYSTEM, &name).unwrap_or(0);
            let summed = snap
                .histogram(COST_SUBSYSTEM, &format!("{name}_hist"))
                .map_or(0, |h| h.sum);
            kinds.push((k.label().to_string(), counted, summed));
        }
        let mut sites = Vec::new();
        let mut arenas = Vec::new();
        for c in &snap.counters {
            if c.subsystem != COST_SUBSYSTEM {
                continue;
            }
            if let Some(key) = strip(&c.name, "site_", "_cycles") {
                sites.push((key.to_string(), c.value));
            } else if let Some(key) = strip(&c.name, "arena_", "_cycles") {
                arenas.push((key.to_string(), c.value));
            }
        }
        sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        arenas.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Some(CostLedger { total, kinds, sites, arenas })
    }

    /// Sum of the per-kind counters.
    pub fn kind_sum(&self) -> u64 {
        self.kinds.iter().map(|(_, c, _)| c).sum()
    }

    /// Checks the conservation invariants and returns every violation,
    /// each naming the kind or dimension that leaked. Empty = clean.
    ///
    /// Invariants: each kind's counter equals its histogram sum; the
    /// kind, site and arena dimensions each sum to `total_cycles`.
    pub fn reconcile(&self) -> Vec<String> {
        let mut leaks = Vec::new();
        for (label, counted, summed) in &self.kinds {
            if counted != summed {
                leaks.push(format!(
                    "kind {label}: counter {counted} != histogram sum {summed} \
                     (charge leaked in {label})"
                ));
            }
        }
        let check_dim = |leaks: &mut Vec<String>, dim: &str, sum: u64| {
            if sum != self.total {
                leaks.push(format!(
                    "{dim} dimension sums to {sum}, total_cycles is {}",
                    self.total
                ));
            }
        };
        check_dim(&mut leaks, "kind", self.kind_sum());
        check_dim(&mut leaks, "site", self.sites.iter().map(|(_, v)| v).sum());
        check_dim(&mut leaks, "arena", self.arenas.iter().map(|(_, v)| v).sum());
        leaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_roundtrip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in CostKind::ALL {
            assert_eq!(CostKind::from_label(k.label()), Some(k));
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
        }
        assert_eq!(CostKind::from_label("bogus"), None);
    }

    #[test]
    fn recorder_conserves_across_all_dimensions() {
        let reg = Registry::new();
        let mut rec = CostRecorder::new(&reg);
        rec.charge(CostKind::Zeroing, 100, Some(7), None);
        rec.charge(CostKind::Quarantine, 40, Some(7), Some("a0"));
        rec.charge(CostKind::MarkScan, 900, None, Some("a1"));
        rec.charge(CostKind::Stw, 0, None, None); // ignored
        assert_eq!(rec.total(), 1040);

        let ledger = CostLedger::from_snapshot(&reg.snapshot()).unwrap();
        assert_eq!(ledger.total, 1040);
        assert_eq!(ledger.reconcile(), Vec::<String>::new());
        assert_eq!(ledger.sites[0], ("none".to_string(), 900));
        assert!(ledger.sites.contains(&("7".to_string(), 140)));
        assert!(ledger.arenas.contains(&("a1".to_string(), 900)));
    }

    #[test]
    fn dropped_kind_is_named_by_reconcile() {
        let reg = Registry::new();
        let mut rec = CostRecorder::new(&reg);
        rec.charge(CostKind::Zeroing, 10, None, None);
        rec.set_drop(Some(CostKind::Stw));
        rec.charge(CostKind::Stw, 55, None, None);

        let ledger = CostLedger::from_snapshot(&reg.snapshot()).unwrap();
        let leaks = ledger.reconcile();
        assert!(!leaks.is_empty());
        assert!(leaks.iter().any(|l| l.contains("kind stw")), "{leaks:?}");
        // Sites and arenas still conserve: the drop only loses the kind
        // counter, so exactly the kind checks fire.
        assert!(leaks.iter().all(|l| !l.contains("site dimension")), "{leaks:?}");
    }

    #[test]
    fn ledger_supports_delta_algebra() {
        let reg = Registry::new();
        let mut rec = CostRecorder::new(&reg);
        rec.charge(CostKind::Release, 70, Some(1), Some("a0"));
        let before = reg.snapshot();
        rec.charge(CostKind::Release, 30, Some(1), Some("a0"));
        rec.charge(CostKind::Commit, 2500, None, Some("a0"));
        let after = reg.snapshot();

        let ledger = CostLedger::from_snapshot(&after.delta(&before)).unwrap();
        assert_eq!(ledger.total, 2530);
        assert_eq!(ledger.reconcile(), Vec::<String>::new());
        assert_eq!(ledger.arenas, vec![("a0".to_string(), 2530)]);
    }

    #[test]
    fn absent_cost_counters_yield_no_ledger() {
        let reg = Registry::new();
        reg.counter("engine", "unrelated").inc();
        assert!(CostLedger::from_snapshot(&reg.snapshot()).is_none());
    }
}
