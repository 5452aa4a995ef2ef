//! Cost-attribution ledger: tags every defence-cycle charge with a
//! [`CostKind`] and an allocation site. [`CostRecorder`] adds charges up
//! in plain memory; [`CostRecorder::publish`] moves them into ordinary
//! `cost/*` registry metrics, so the existing snapshot / JSON machinery
//! carries them for free.
//!
//! Every charge lands once in each dimension:
//!
//! * `cost/total_cycles` — the grand total,
//! * a per-kind histogram `cost/kind_<k>_cycles_hist`, whose sum is the
//!   kind's cycles and whose count is its number of charges,
//! * a per-site counter `cost/site_<id>_cycles` (or `site_none_cycles`).
//!
//! The kind and site dimensions must each sum to the total.
//! [`CostLedger::reconcile`] checks them and names the dimension that
//! leaked.

use crate::idhash::IdMap;
use crate::registry::{Counter, Histogram, Registry, Snapshot, HISTOGRAM_BUCKETS};

/// Subsystem label for all ledger metrics.
pub const COST_SUBSYSTEM: &str = "cost";

/// What a defence-cycle charge paid for.
///
/// The taxonomy follows the sim's `CostModel` charge points; every charge
/// the sim's engine or its exploit interpreter records is tagged with
/// exactly one kind, so the kinds partition the total.
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
    /// Quarantine release and page purge/decommit work.
    Release,
    /// Demand-commit faults taken by the sweeper.
    Commit,
}

impl CostKind {
    /// Every kind, in canonical (serialisation) order.
    pub const ALL: [CostKind; 8] = [
        CostKind::Zeroing,
        CostKind::Quarantine,
        CostKind::MarkScan,
        CostKind::SkipReplay,
        CostKind::Forensics,
        CostKind::Stw,
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
            CostKind::Release => "release",
            CostKind::Commit => "commit",
        }
    }

    /// Position of this kind in [`CostKind::ALL`] — the canonical index
    /// for per-kind arrays, such as a [`CostLedger`]'s `kinds`.
    /// `ALL` lists the variants in declaration order, so this is the
    /// discriminant.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A registered histogram whose observations are counted in plain memory
/// until [`Buffered::publish`] adds them to it.
#[derive(Debug)]
struct Buffered {
    hist: Histogram,
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

impl Buffered {
    fn new(hist: Histogram) -> Buffered {
        Buffered { hist, buckets: [0; HISTOGRAM_BUCKETS], sum: 0 }
    }

    fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    fn publish(&mut self) {
        self.hist.add_counts(&self.buckets, self.sum);
        self.buckets = [0; HISTOGRAM_BUCKETS];
        self.sum = 0;
    }
}

/// Live recorder: one per engine or security-interpreter run, registered
/// on that run's [`Registry`]. A charge is a few plain adds (the total,
/// the kind's bucket and sum, the site's cycles); nothing reaches the
/// registry until [`CostRecorder::publish`], which a snapshot reader must
/// call first. A site's counter is still registered at that site's first
/// charge, so snapshots list sites in first-charge order.
#[derive(Debug)]
pub struct CostRecorder {
    /// Cycles charged so far, published or not.
    total: u64,
    /// The part of `total` already added to `total_counter`.
    published_total: u64,
    total_counter: Counter,
    /// One histogram per kind, in [`CostKind::ALL`] order.
    kinds: Vec<Buffered>,
    /// Boxed, like `kinds`, so the recorder stays small inside the
    /// engine's state.
    per_sweep: Box<Buffered>,
    /// Per site: its registered counter and the cycles not yet added to it.
    sites: IdMap<Option<u32>, (Counter, u64)>,
    registry: Registry,
}

impl CostRecorder {
    /// Creates a recorder and eagerly registers the total and per-kind
    /// metrics (so a zero-cost run still snapshots a complete ledger).
    pub fn new(registry: &Registry) -> CostRecorder {
        let hist = |name: &str| Buffered::new(registry.histogram(COST_SUBSYSTEM, name));
        CostRecorder {
            total: 0,
            published_total: 0,
            total_counter: registry.counter(COST_SUBSYSTEM, "total_cycles"),
            kinds: CostKind::ALL
                .iter()
                .map(|k| hist(&format!("kind_{}_cycles_hist", k.label())))
                .collect(),
            per_sweep: Box::new(hist("per_sweep_cycles")),
            sites: IdMap::default(),
            registry: registry.clone(),
        }
    }

    /// Records one charge. Zero-cycle charges are ignored (they cannot
    /// move any sum and would only pollute the histograms).
    pub fn charge(&mut self, kind: CostKind, cycles: u64, site: Option<u32>) {
        self.charge_all(&[(kind, cycles)], site);
    }

    /// Records several charges against one site, exactly as charging each
    /// in turn would, but with one site lookup.
    pub fn charge_all(&mut self, charges: &[(CostKind, u64)], site: Option<u32>) {
        let mut cycles = 0;
        for &(kind, c) in charges {
            if c > 0 {
                self.kinds[kind.index()].record(c);
                cycles += c;
            }
        }
        if cycles == 0 {
            return;
        }
        self.total += cycles;
        let registry = &self.registry;
        self.sites
            .entry(site)
            .or_insert_with(|| {
                let name = match site {
                    Some(id) => format!("site_{id}_cycles"),
                    None => "site_none_cycles".into(),
                };
                (registry.counter(COST_SUBSYSTEM, &name), 0)
            })
            .1 += cycles;
    }

    /// Total defence cycles recorded so far, published or not.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Attributes `cycles` to one sweep generation — a distribution view
    /// (`cost/per_sweep_cycles`), not part of the conservation sums.
    pub fn record_sweep(&mut self, cycles: u64) {
        self.per_sweep.record(cycles);
    }

    /// Moves everything recorded since the last publish into the
    /// registry's `cost/*` metrics. Publishing twice in a row adds
    /// nothing the second time.
    pub fn publish(&mut self) {
        self.total_counter.add(self.total - self.published_total);
        self.published_total = self.total;
        for hist in self.kinds.iter_mut().chain([&mut *self.per_sweep]) {
            hist.publish();
        }
        for (counter, pending) in self.sites.values_mut() {
            counter.add(std::mem::take(pending));
        }
    }
}

/// A typed view of the `cost/*` metrics in a [`Snapshot`], built from
/// plain counters and histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// The grand total (`cost/total_cycles`).
    pub total: u64,
    /// Per-kind `(label, cycles, charges)` — the sum and count of the
    /// kind's histogram — in [`CostKind::ALL`] order.
    pub kinds: Vec<(String, u64, u64)>,
    /// Per-site `(key, cycles)`; key is the numeric site id as text or
    /// `"none"` for unattributed charges. Sorted by cycles descending.
    pub sites: Vec<(String, u64)>,
}

fn strip<'a>(name: &'a str, prefix: &str, suffix: &str) -> Option<&'a str> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)
}

impl CostLedger {
    /// Extracts the ledger from a snapshot; `None` when the snapshot
    /// carries no `cost/total_cycles` counter (ledger was off).
    pub fn from_snapshot(snap: &Snapshot) -> Option<CostLedger> {
        let total = snap.counter(COST_SUBSYSTEM, "total_cycles")?;
        let kinds = CostKind::ALL
            .iter()
            .map(|k| {
                let hist =
                    snap.histogram(COST_SUBSYSTEM, &format!("kind_{}_cycles_hist", k.label()));
                let (cycles, charges) = hist.map_or((0, 0), |h| (h.sum, h.count()));
                (k.label().to_string(), cycles, charges)
            })
            .collect();
        let mut sites = Vec::new();
        for c in &snap.counters {
            if c.subsystem != COST_SUBSYSTEM {
                continue;
            }
            if let Some(key) = strip(&c.name, "site_", "_cycles") {
                sites.push((key.to_string(), c.value));
            }
        }
        sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Some(CostLedger { total, kinds, sites })
    }

    /// Sum of the per-kind cycles.
    pub fn kind_sum(&self) -> u64 {
        self.kinds.iter().map(|(_, c, _)| c).sum()
    }

    /// Checks the conservation invariants and returns every violation,
    /// each naming the dimension that leaked. Empty = clean.
    ///
    /// Invariants: the kind and site dimensions each sum to
    /// `total_cycles`.
    pub fn reconcile(&self) -> Vec<String> {
        let site_sum = self.sites.iter().map(|(_, c)| c).sum::<u64>();
        [("kind", self.kind_sum()), ("site", site_sum)]
            .into_iter()
            .filter(|&(_, s)| s != self.total)
            .map(|(dim, s)| {
                format!("{dim} dimension sums to {s}, total_cycles is {}", self.total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in CostKind::ALL {
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
        }
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, k) in CostKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{}", k.label());
        }
    }

    #[test]
    fn recorder_conserves_across_all_dimensions() {
        let reg = Registry::new();
        let mut rec = CostRecorder::new(&reg);
        rec.charge(CostKind::Zeroing, 100, Some(7));
        rec.charge(CostKind::Quarantine, 40, Some(7));
        rec.charge(CostKind::MarkScan, 900, None);
        rec.charge(CostKind::MarkScan, 50, None);
        rec.charge(CostKind::Stw, 0, None); // ignored
        assert_eq!(rec.total(), 1090);
        rec.publish();

        let ledger = CostLedger::from_snapshot(&reg.snapshot()).unwrap();
        assert_eq!(ledger.total, 1090);
        assert_eq!(ledger.reconcile(), Vec::<String>::new());
        assert_eq!(ledger.kinds[CostKind::MarkScan.index()], ("mark_scan".into(), 950, 2));
        assert_eq!(ledger.kinds[CostKind::Stw.index()], ("stw".into(), 0, 0));
        assert_eq!(ledger.sites[0], ("none".to_string(), 950));
        assert!(ledger.sites.contains(&("7".to_string(), 140)));
    }

    #[test]
    fn a_leaked_site_charge_is_named_by_dimension() {
        let reg = Registry::new();
        let mut rec = CostRecorder::new(&reg);
        rec.charge(CostKind::Zeroing, 10, Some(3));
        rec.publish();
        // A charge that bypassed the recorder's site counter.
        reg.counter(COST_SUBSYSTEM, "site_3_cycles").add(1);
        let leaks = CostLedger::from_snapshot(&reg.snapshot()).unwrap().reconcile();
        assert_eq!(leaks, vec!["site dimension sums to 11, total_cycles is 10".to_string()]);
    }

    /// A few charges over two kinds, two sites and one sweep window.
    fn charge_some(rec: &mut CostRecorder) {
        rec.charge(CostKind::Zeroing, 64, Some(1));
        rec.charge(CostKind::Quarantine, 30, Some(2));
        rec.charge(CostKind::Quarantine, 1 << 20, None);
        rec.record_sweep(5_000);
    }

    #[test]
    fn charges_show_only_after_publish_and_then_reconcile() {
        let reg = Registry::new();
        let mut rec = CostRecorder::new(&reg);
        let empty = reg.snapshot();
        charge_some(&mut rec);
        let before = reg.snapshot();
        let ledger = CostLedger::from_snapshot(&before).unwrap();
        assert_eq!(ledger.total, 0, "unpublished charges stay out of the registry");
        assert_eq!(ledger.kind_sum(), 0);
        assert!(ledger.sites.iter().all(|&(_, c)| c == 0), "{:?}", ledger.sites);
        let per_sweep = |s: &Snapshot| s.histogram(COST_SUBSYSTEM, "per_sweep_cycles").cloned();
        assert_eq!(per_sweep(&before), per_sweep(&empty));

        rec.publish();
        let after = reg.snapshot();
        let ledger = CostLedger::from_snapshot(&after).unwrap();
        assert_eq!(ledger.total, rec.total());
        assert_eq!(ledger.reconcile(), Vec::<String>::new());
        let quarantine = ("quarantine".into(), 30 + (1 << 20), 2);
        assert_eq!(ledger.kinds[CostKind::Quarantine.index()], quarantine);
        assert_eq!(per_sweep(&after).unwrap().sum, 5_000);
    }

    #[test]
    fn a_second_publish_without_charges_changes_nothing() {
        let reg = Registry::new();
        let mut rec = CostRecorder::new(&reg);
        charge_some(&mut rec);
        rec.publish();
        let once = reg.snapshot();
        rec.publish();
        assert_eq!(reg.snapshot(), once);
    }

    #[test]
    fn charges_split_across_publishes_sum_to_one_ledger() {
        let (split, whole) = (Registry::new(), Registry::new());
        let mut a = CostRecorder::new(&split);
        charge_some(&mut a);
        a.publish();
        charge_some(&mut a);
        a.charge(CostKind::Stw, 7, Some(9));
        a.publish();
        let mut b = CostRecorder::new(&whole);
        charge_some(&mut b);
        charge_some(&mut b);
        b.charge(CostKind::Stw, 7, Some(9));
        b.publish();
        assert_eq!(split.snapshot(), whole.snapshot());
    }

    #[test]
    fn charging_all_at_once_equals_charging_each() {
        let (all, each) = (Registry::new(), Registry::new());
        let mut a = CostRecorder::new(&all);
        let mut e = CostRecorder::new(&each);
        let frees: [(u64, u64, Option<u32>); 4] =
            [(0, 0, Some(4)), (0, 30, Some(2)), (64, 30, Some(1)), (16, 0, Some(2))];
        for (zeroing, quarantine, site) in frees {
            a.charge_all(
                &[(CostKind::Zeroing, zeroing), (CostKind::Quarantine, quarantine)],
                site,
            );
            e.charge(CostKind::Zeroing, zeroing, site);
            e.charge(CostKind::Quarantine, quarantine, site);
        }
        a.publish();
        e.publish();
        // Byte-equal snapshots: same sums, same histogram counts, and the
        // sites registered in the same first-non-zero-charge order (site
        // 4 never is).
        assert_eq!(all.snapshot(), each.snapshot());
        assert_eq!(all.snapshot().counter(COST_SUBSYSTEM, "site_4_cycles"), None);
    }

    #[test]
    fn the_largest_site_id_is_a_plain_key() {
        let reg = Registry::new();
        let mut rec = CostRecorder::new(&reg);
        rec.charge(CostKind::Zeroing, 12, Some(u32::MAX));
        rec.publish();
        let ledger = CostLedger::from_snapshot(&reg.snapshot()).unwrap();
        assert_eq!(ledger.sites, vec![(u32::MAX.to_string(), 12)]);
        assert_eq!(ledger.reconcile(), Vec::<String>::new());
        // One entry per site charged, whatever the id: nothing sized by it.
        assert_eq!(rec.sites.len(), 1);
        assert!(rec.sites.capacity() < 64, "capacity {}", rec.sites.capacity());
    }

    #[test]
    fn absent_cost_counters_yield_no_ledger() {
        let reg = Registry::new();
        reg.counter("engine", "unrelated").inc();
        assert!(CostLedger::from_snapshot(&reg.snapshot()).is_none());
    }
}
