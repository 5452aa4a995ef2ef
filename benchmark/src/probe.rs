//! The substrate probe: the workload's `Alloc`/`Free` ops replayed
//! straight into `jalloc` on a fresh `vmem` address space, each call
//! timed from outside.
//!
//! This is a separate program from the engine run, not a slice of it: the
//! engine's quarantine delays frees, its pointer wiring writes more words,
//! and MarkUs runs its own heap. Its numbers are reported under their own
//! names and never subtracted from engine spans.

use std::time::Instant;

use jalloc::{JAlloc, JallocConfig};
use vmem::{Addr, AddrSpace, PAGE_SIZE, WORD_SIZE};
use workloads::Op;

/// Per-call timings of one probe replay. Times are nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// One span per `malloc`.
    pub malloc_ns: Vec<u64>,
    /// One span per `free`.
    pub free_ns: Vec<u64>,
    /// Σ time in the engine-style page-touch writes.
    pub write_ns: u64,
    /// Page-touch writes made.
    pub writes: u64,
    /// Σ time in `fill_zero` (MineSweeper workloads only).
    pub zero_ns: u64,
    /// Bytes `fill_zero` cleared.
    pub zero_bytes: u64,
}

/// Replays `ops` into a fresh heap. `layered` selects MineSweeper's jalloc
/// configuration and zeroes each allocation before freeing it, as the
/// layer's free path does.
pub fn run(ops: &[Op], layered: bool) -> Probe {
    let cfg = if layered {
        JallocConfig::minesweeper()
    } else {
        JallocConfig::stock()
    };
    let mut heap = JAlloc::with_config(cfg);
    let mut space = AddrSpace::new();
    let mut live: Vec<Option<(Addr, u64)>> = Vec::new();
    let mut p = Probe::default();
    let page = PAGE_SIZE as u64;
    for op in ops {
        match *op {
            Op::Alloc { id, size, .. } => {
                let t = Instant::now();
                let base = heap.malloc(&mut space, size);
                p.malloc_ns.push(elapsed_ns(t));
                // The engine's commit touch: the first word, then one word
                // at every page boundary inside the object.
                let mut writes = 1;
                let t = Instant::now();
                space
                    .write_word(base, id | 1)
                    .expect("fresh allocation is writable");
                let mut at = base.align_down(page).add_bytes(page);
                while at < base.add_bytes(size) {
                    space
                        .write_word(at, id | 1)
                        .expect("fresh allocation is writable");
                    writes += 1;
                    at = at.add_bytes(page);
                }
                p.write_ns += elapsed_ns(t);
                p.writes += writes;
                let slot = usize::try_from(id).expect("op ids fit in memory");
                if live.len() <= slot {
                    live.resize(slot + 1, None);
                }
                live[slot] = Some((base, size));
            }
            Op::Free { id } => {
                let slot = usize::try_from(id).expect("op ids fit in memory");
                let (base, _) = live[slot].take().expect("trace frees live ids once");
                if layered {
                    let usable = heap.usable_size(base).expect("live allocation");
                    let len = usable / WORD_SIZE as u64 * WORD_SIZE as u64;
                    let t = Instant::now();
                    space
                        .fill_zero(base, len)
                        .expect("live allocation is accessible");
                    p.zero_ns += elapsed_ns(t);
                    p.zero_bytes += len;
                }
                let t = Instant::now();
                heap.free(&mut space, base).expect("live allocation");
                p.free_ns.push(elapsed_ns(t));
            }
            Op::Work(_) | Op::Teardown => {}
        }
    }
    p
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Profile, TraceGen};

    #[test]
    fn probe_times_every_call_and_zeroes_only_when_layered() {
        let ops: Vec<Op> = TraceGen::new(&Profile::demo(), 3).collect();
        let allocs = ops.iter().filter(|o| matches!(o, Op::Alloc { .. })).count();
        let plain = run(&ops, false);
        assert_eq!(plain.malloc_ns.len(), allocs);
        assert_eq!(plain.free_ns.len(), allocs);
        assert!(plain.writes >= allocs as u64);
        assert_eq!(plain.zero_bytes, 0);
        let layered = run(&ops, true);
        assert!(layered.zero_bytes > 0);
    }
}
