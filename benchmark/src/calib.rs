//! Host-speed calibration.
//!
//! On a shared host the same run can take twice as long a few minutes
//! later because neighbours load the machine. To keep a slow period from
//! reading as a regression, every timed interval is paired with a fixed
//! calibration kernel run just before it, and reported scaled to the
//! speed at which the kernel takes [`REFERENCE_MS`]:
//! `reported = measured × REFERENCE_MS / kernel_ms`. The kernel is
//! benchmark code that no change to the repository's crates can speed
//! up or slow down, so the scale tracks the host only.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// A hasher with fixed keys, so every run of the kernel does the same work.
type Fixed = BuildHasherDefault<DefaultHasher>;

/// Roughly the kernel's time on the 2-vCPU Intel Xeon VM the bounds were
/// set on, in a quiet period. It fixes the scale of reported times, not
/// their spread or their ratios.
pub const REFERENCE_MS: f64 = 32.0;

/// Pages the page-churn phase cycles through (16 MiB of 4 KiB pages).
const PAGES: u64 = 4096;

/// The calibration kernel and the table its first phase reads.
pub struct Calibration {
    table: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        let table = (0..1u64 << 20)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .collect();
        Calibration { table }
    }
}

impl Calibration {
    /// Runs the kernel once and returns its wall time, ms.
    pub fn kernel_ms(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.hash_phase() ^ page_phase());
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The factor that scales a time measured now to reference speed.
    pub fn scale(&mut self) -> f64 {
        REFERENCE_MS / self.kernel_ms()
    }

    /// Hash-map churn, a bounded priority queue and dependent random
    /// read-modify-writes over an 8 MiB table: compute-bound work, which
    /// a loaded host slows less than it slows the engine.
    fn hash_phase(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut map: HashMap<u64, u64, Fixed> = HashMap::default();
        let mut queue = BinaryHeap::new();
        let mut acc = 0u64;
        let len = self.table.len() as u64;
        for i in 0..100_000u64 {
            x = xorshift(x);
            let key = x % 65_536;
            if i % 4 == 0 {
                map.remove(&key);
            } else {
                *map.entry(key).or_default() += i;
            }
            queue.push(Reverse(x));
            if queue.len() > 4096 {
                queue.pop();
            }
            let j = ((acc ^ x) % len) as usize;
            self.table[j] = self.table[j].wrapping_add(i);
            acc = acc.wrapping_add(self.table[j]);
        }
        acc ^ map.len() as u64
    }
}

/// A page map whose 4 KiB pages are allocated, written and dropped,
/// beside an object map that grows and shrinks: allocation- and
/// memory-bound work, which a loaded host slows more than it slows the
/// engine. The two phases together tracked the engine's slowdown better
/// than either alone.
fn page_phase() -> u64 {
    let mut x = 0x1234_5678_9ABC_DEF1u64;
    let mut pages: HashMap<u64, Box<[u64; 512]>, Fixed> = HashMap::default();
    let mut objects: HashMap<u64, Vec<u64>, Fixed> = HashMap::default();
    let mut acc = 0u64;
    for i in 0..80_000u64 {
        x = xorshift(x);
        let page = pages.entry(x % PAGES).or_insert_with(|| Box::new([0; 512]));
        page[(x >> 20) as usize % 512] ^= i;
        acc = acc.wrapping_add(page[(x >> 30) as usize % 512]);
        if i % 7 == 0 {
            pages.remove(&((x >> 12) % PAGES));
        }
        let object = x % 100_000;
        if i % 3 == 0 {
            objects.remove(&object);
        } else {
            objects.entry(object).or_default().push(i);
        }
    }
    acc ^ pages.len() as u64 ^ objects.len() as u64
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
