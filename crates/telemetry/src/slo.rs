//! Service-level objectives: [`SloPolicy::evaluate`] judges a run's final
//! metrics [`Snapshot`] and reports pass/fail per objective, the verdict
//! `ms-report DIR --slo SPEC` prints.
//!
//! Objectives cover three quantities the paper's evaluation watches: the
//! worst stop-the-world pause, the worst whole-sweep duration, and how
//! much of everything ever quarantined is still pinned. An objective
//! whose backing metric is absent from the snapshot is reported as
//! *unmeasured* and passes — a fully concurrent run has no pauses to
//! hold against a pause ceiling.

use crate::registry::{Histogram, HistogramSample, Snapshot};

/// Which objective a check belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// Worst stop-the-world pause (`engine/stw_cycles`, cycles).
    StwPause,
    /// Worst whole-sweep duration (`engine/sweep_cycles`, cycles).
    SweepDeadline,
    /// Quarantine-residency ceiling: permille of all bytes ever
    /// quarantined that have not been released (`layer` counters).
    QuarantineRatio,
}

impl SloKind {
    /// Stable wire/CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            SloKind::StwPause => "stw",
            SloKind::SweepDeadline => "sweep",
            SloKind::QuarantineRatio => "qratio",
        }
    }

    /// Unit the limit and observed value are expressed in.
    pub fn unit(self) -> &'static str {
        match self {
            SloKind::StwPause | SloKind::SweepDeadline => "cycles",
            SloKind::QuarantineRatio => "permille",
        }
    }
}

/// The configured objectives; `None` leaves an objective unchecked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloPolicy {
    /// Max acceptable stop-the-world pause, in engine cycles.
    pub max_stw_cycles: Option<u64>,
    /// Max acceptable whole-sweep duration, in engine cycles.
    pub max_sweep_cycles: Option<u64>,
    /// Max permille of ever-quarantined bytes still resident.
    pub max_quarantine_permille: Option<u64>,
}

impl SloPolicy {
    /// Parses a `key=value` comma list, e.g.
    /// `stw=4096,sweep=2000000,qratio=500`. Keys may appear at
    /// most once; unknown keys are an error.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed clause.
    pub fn parse(spec: &str) -> Result<SloPolicy, String> {
        let mut p = SloPolicy::default();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("SLO clause {clause:?} is not key=value"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("SLO value in {clause:?} is not a number"))?;
            let slot = match key.trim() {
                "stw" => &mut p.max_stw_cycles,
                "sweep" => &mut p.max_sweep_cycles,
                "qratio" => &mut p.max_quarantine_permille,
                other => return Err(format!("unknown SLO objective {other:?}")),
            };
            if slot.replace(value).is_some() {
                return Err(format!("SLO objective {:?} given twice", key.trim()));
            }
        }
        Ok(p)
    }

    /// Whether any objective is configured.
    pub fn is_empty(&self) -> bool {
        *self == SloPolicy::default()
    }

    /// Evaluates every configured objective against `snap`. Checks come
    /// back in declaration order.
    pub fn evaluate(&self, snap: &Snapshot) -> Vec<SloCheck> {
        let mut checks = Vec::new();
        if let Some(limit) = self.max_stw_cycles {
            let observed = worst_observed(snap.histogram("engine", "stw_cycles"));
            checks.push(ceiling(SloKind::StwPause, limit, observed));
        }
        if let Some(limit) = self.max_sweep_cycles {
            let observed = worst_observed(snap.histogram("engine", "sweep_cycles"));
            checks.push(ceiling(SloKind::SweepDeadline, limit, observed));
        }
        if let Some(limit) = self.max_quarantine_permille {
            checks.push(ceiling(SloKind::QuarantineRatio, limit, quarantine_permille(snap)));
        }
        checks
    }
}

/// One evaluated objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloCheck {
    /// Which objective.
    pub kind: SloKind,
    /// The configured limit.
    pub limit: u64,
    /// The observed value, or `None` when the backing metric is absent
    /// from the snapshot (unmeasured objectives pass).
    pub observed: Option<u64>,
    /// Whether the objective held.
    pub pass: bool,
}

fn ceiling(kind: SloKind, limit: u64, observed: Option<u64>) -> SloCheck {
    SloCheck { kind, limit, observed, pass: observed.is_none_or(|o| o <= limit) }
}

/// Worst observation a log2 histogram can prove: the inclusive upper
/// bound of its highest occupied bucket (conservative — the true maximum
/// may be up to 2× smaller, so a pass here is a real pass).
fn worst_observed(h: Option<&HistogramSample>) -> Option<u64> {
    let h = h.filter(|h| h.count() > 0)?;
    let top = h.buckets.iter().map(|&(i, _)| i).max()?;
    Some(Histogram::bucket_bound(top))
}

/// Permille of all ever-quarantined bytes that have not been released
/// back to the allocator. `None` when the run quarantined nothing.
fn quarantine_permille(snap: &Snapshot) -> Option<u64> {
    let quarantined = snap.counter("layer", "quarantined_bytes")?;
    if quarantined == 0 {
        return None;
    }
    let released = snap.counter("layer", "released_bytes").unwrap_or(0);
    let resident = quarantined.saturating_sub(released);
    Some(resident.saturating_mul(1000) / quarantined)
}

/// Renders the SLO pass/fail table (`ms-report DIR --slo SPEC`).
pub fn slo_table(checks: &[SloCheck]) -> String {
    let mut out = String::from("objective  limit         observed      unit      verdict\n");
    for c in checks {
        let observed = c
            .observed
            .map_or_else(|| String::from("-"), |o| o.to_string());
        let verdict = match (c.pass, c.observed) {
            (true, None) => "PASS (unmeasured)",
            (true, Some(_)) => "PASS",
            (false, _) => "FAIL",
        };
        out.push_str(&format!(
            "{:<9}  {:<12}  {:<12}  {:<8}  {verdict}\n",
            c.kind.as_str(),
            c.limit,
            observed,
            c.kind.unit(),
        ));
    }
    let failed = checks.iter().filter(|c| !c.pass).count();
    out.push_str(&format!(
        "{} objectives checked, {failed} violated\n",
        checks.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn policy_parse_accepts_full_spec_and_rejects_junk() {
        let p = SloPolicy::parse("stw=4096,sweep=2000000,qratio=500").unwrap();
        assert_eq!(p.max_stw_cycles, Some(4096));
        assert_eq!(p.max_sweep_cycles, Some(2_000_000));
        assert_eq!(p.max_quarantine_permille, Some(500));

        assert!(SloPolicy::parse("").unwrap().is_empty());
        assert_eq!(SloPolicy::parse(" stw = 7 ").unwrap().max_stw_cycles, Some(7));
        assert!(SloPolicy::parse("bogus=1").is_err());
        assert!(SloPolicy::parse("util=40").is_err(), "no helper-utilization objective");
        assert!(SloPolicy::parse("stw").is_err());
        assert!(SloPolicy::parse("stw=abc").is_err());
        assert!(SloPolicy::parse("stw=1,stw=2").is_err());
    }

    #[test]
    fn ceilings_use_the_bucket_upper_bound() {
        let reg = Registry::new();
        let h = reg.histogram("engine", "stw_cycles");
        h.record(5); // bucket 3, bound 7
        let snap = reg.snapshot();

        let ok = SloPolicy { max_stw_cycles: Some(7), ..Default::default() };
        let checks = ok.evaluate(&snap);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].observed, Some(7), "conservative bucket bound");
        assert!(checks[0].pass);

        let tight = SloPolicy { max_stw_cycles: Some(6), ..Default::default() };
        assert!(!tight.evaluate(&snap)[0].pass, "bound 7 breaches limit 6");
    }

    #[test]
    fn unmeasured_objectives_pass() {
        let snap = Registry::new().snapshot();
        let policy = SloPolicy {
            max_stw_cycles: Some(1),
            max_sweep_cycles: Some(1),
            max_quarantine_permille: Some(1),
        };
        let checks = policy.evaluate(&snap);
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| c.pass && c.observed.is_none()));
        let table = slo_table(&checks);
        assert!(table.contains("PASS (unmeasured)"), "{table}");
        assert!(table.contains("3 objectives checked, 0 violated"), "{table}");
    }

    #[test]
    fn quarantine_ratio_ceiling() {
        let reg = Registry::new();
        reg.counter("layer", "quarantined_bytes").add(1000);
        reg.counter("layer", "released_bytes").add(400);
        let snap = reg.snapshot();

        let policy = SloPolicy { max_quarantine_permille: Some(500), ..Default::default() };
        let checks = policy.evaluate(&snap);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].kind, SloKind::QuarantineRatio);
        assert_eq!(checks[0].observed, Some(600), "600‰ still resident");
        assert!(!checks[0].pass);
    }
}
