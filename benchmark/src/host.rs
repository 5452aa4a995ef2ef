//! Host metadata printed with every result.

use std::fs;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Where a measurement was taken.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPUs available to this process.
    pub nproc: usize,
    /// Mark-kernel tier the layer dispatched to on this CPU.
    pub scan_tier: &'static str,
    /// Commit of the checkout the benchmark was built from, or `unknown`.
    pub git_rev: String,
    /// When the measurement started, ISO 8601 UTC.
    pub utc: String,
}

impl Host {
    /// Reads the current host's metadata.
    pub fn current() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            scan_tier: minesweeper::simd::active_tier().as_str(),
            git_rev: git_rev(),
            utc: utc_now(),
        }
    }

    /// The metadata as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"scan_tier\": \"{}\", \"git_rev\": \"{}\", \"utc\": \"{}\"}}",
            self.nproc, self.scan_tier, self.git_rev, self.utc
        )
    }
}

/// The checkout's `HEAD` commit, read from `.git` next to the benchmark
/// package without asking git (so a checkout without `.git` never makes
/// git search the directories above it).
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
    };
    rev.filter(|r| r.len() >= 7 && r.bytes().all(|b| b.is_ascii_hexdigit()))
        .map_or_else(|| "unknown".into(), |r| r[..12.min(r.len())].to_string())
}

/// The current time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Days since 1970-01-01 to a proleptic Gregorian date (Howard Hinnant's
/// `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_round_known_days() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        assert_eq!(civil_from_days(20_742), (2026, 10, 16));
    }
}
