//! Property-based tests for the allocator.
//!
//! Invariants:
//! * Live allocations never overlap, and each lies inside an active extent.
//! * `allocation_range` agrees with the allocator's own bookkeeping for
//!   every live base and for interior pointers.
//! * Free + purge never lose mapped memory: RSS ≤ mapped, and purge_all
//!   drops RSS of the free cache to zero without disturbing live data.
//! * Double frees and wild frees are always rejected, whatever the history.
//! * Address lookups match an oracle. `Op::Probe` checks
//!   `allocation_range`, `usable_size` and `free`'s error at addresses
//!   around, inside and between the heaps' extents against the test's own
//!   `live` map plus a `BTreeMap` range search over the active extents
//!   (the lookup the allocator used before its page → extent map).

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use jalloc::{FreeError, JAlloc, JallocConfig, PurgePolicy, SMALL_MAX};
use vmem::{Addr, AddrSpace, Segment, PAGE_SIZE};

const P: u64 = PAGE_SIZE as u64;

#[derive(Clone, Debug)]
enum Op {
    Malloc { size: u64 },
    FreeNth { n: usize },
    DoubleFreeNth { n: usize },
    PurgeAll,
    Tick { cycles: u64 },
    Probe { n: usize, offset: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u64..40_000).prop_map(|size| Op::Malloc { size }),
        4 => any::<usize>().prop_map(|n| Op::FreeNth { n }),
        1 => any::<usize>().prop_map(|n| Op::DoubleFreeNth { n }),
        1 => Just(Op::PurgeAll),
        1 => (1u64..10_000).prop_map(|cycles| Op::Tick { cycles }),
        1 => (any::<usize>(), 0u64..1 << 16).prop_map(|(n, offset)| Op::Probe { n, offset }),
    ]
}

/// One allocator and what the test knows about it.
struct Heap {
    heap: JAlloc,
    live: BTreeMap<u64, u64>, // base -> usable
    freed: Vec<Addr>,
}

impl Heap {
    fn new(cfg: JallocConfig) -> Self {
        Heap {
            heap: JAlloc::with_config(cfg),
            live: BTreeMap::new(),
            freed: Vec::new(),
        }
    }

    fn apply(&mut self, space: &mut AddrSpace, op: &Op, clock: u64) -> Result<(), TestCaseError> {
        let heap = &mut self.heap;
        match *op {
            Op::Malloc { size } => {
                let a = heap.malloc(space, size);
                let usable = heap.usable_size(a).expect("fresh allocation has a size");
                prop_assert!(usable >= size, "usable {usable} < requested {size}");
                // No overlap with any live allocation.
                if let Some((&b, &l)) = self.live.range(..=a.raw()).next_back() {
                    prop_assert!(b + l <= a.raw(), "overlaps predecessor");
                }
                if let Some((&b, _)) = self.live.range(a.raw() + 1..).next() {
                    prop_assert!(a.raw() + usable <= b, "overlaps successor");
                }
                self.live.insert(a.raw(), usable);
                // Previously freed bases that got reused are no longer freed.
                self.freed
                    .retain(|&f| !(f.raw() >= a.raw() && f.raw() < a.raw() + usable));
            }
            Op::FreeNth { n } => {
                if self.live.is_empty() {
                    return Ok(());
                }
                let &base = self.live.keys().nth(n % self.live.len()).unwrap();
                heap.free(space, Addr::new(base))
                    .expect("freeing a live base must succeed");
                self.live.remove(&base);
                self.freed.push(Addr::new(base));
            }
            Op::DoubleFreeNth { n } => {
                if self.freed.is_empty() {
                    return Ok(());
                }
                let addr = self.freed[n % self.freed.len()];
                // The address may have been reused (then it's live again and
                // not in `freed`), so any address still in `freed` must fail.
                let res = heap.free(space, addr);
                prop_assert!(
                    matches!(
                        res,
                        Err(FreeError::DoubleFree(_)) | Err(FreeError::InvalidPointer(_))
                    ),
                    "double free must be rejected, got {res:?}"
                );
            }
            Op::PurgeAll => {
                heap.purge_all(space);
                prop_assert_eq!(heap.free_committed_bytes(space), 0);
            }
            Op::Tick { .. } => {
                heap.advance_clock(clock);
                heap.purge_aged(space);
            }
            Op::Probe { .. } => unreachable!("probes span every heap"),
        }
        Ok(())
    }

    fn check_invariants(&self, space: &AddrSpace) -> Result<(), TestCaseError> {
        prop_assert!(space.rss_bytes() <= space.mapped_bytes());
        let heap = &self.heap;
        let ranges = heap.active_ranges();
        prop_assert!(
            ranges.windows(2).all(|w| w[0].0 < w[1].0),
            "active ranges in address order"
        );
        for (&base, &usable) in &self.live {
            let a = Addr::new(base);
            prop_assert_eq!(heap.usable_size(a), Some(usable));
            let (b2, l2) = heap.allocation_range(a + (usable - 8).min(64)).unwrap();
            prop_assert_eq!(b2, a, "interior pointer resolves to base");
            prop_assert_eq!(l2, usable);
            prop_assert!(
                ranges
                    .iter()
                    .any(|&(rb, rl)| a >= rb && a.raw() + usable <= rb.raw() + rl),
                "live allocation outside active ranges"
            );
        }
        // A freed base has no usable size, even while the tcache holds it.
        for &f in &self.freed {
            prop_assert_eq!(heap.usable_size(f), None, "freed {}", f);
        }
        Ok(())
    }

    /// Checks every probe address against the oracle. The tcache is
    /// flushed first, so every region the allocator counts as live is in
    /// `live` and every active extent holds at least one of them.
    fn check_probes(
        &mut self,
        space: &mut AddrSpace,
        probes: &BTreeSet<u64>,
    ) -> Result<(), TestCaseError> {
        self.heap.flush_tcache();
        let extents: BTreeMap<u64, u64> = self
            .heap
            .active_ranges()
            .into_iter()
            .map(|(b, len)| (b.raw(), len))
            .collect();
        for &a in probes {
            let addr = Addr::new(a);
            let alloc = self
                .live
                .range(..=a)
                .next_back()
                .filter(|&(&b, &len)| a < b + len)
                .map(|(&b, &len)| (Addr::new(b), len));
            prop_assert_eq!(
                self.heap.allocation_range(addr),
                alloc,
                "allocation_range({:#x})",
                a
            );
            prop_assert_eq!(
                self.heap.usable_size(addr),
                self.live.get(&a).copied(),
                "usable_size({:#x})",
                a
            );
            if self.live.contains_key(&a) {
                continue;
            }
            let extent = extents
                .range(..=a)
                .next_back()
                .filter(|&(&b, &len)| a < b + len);
            let want = match extent {
                None => FreeError::InvalidPointer(addr),
                Some((&b, _)) => {
                    // A large extent holds one allocation; a slab's live
                    // regions all have its class size.
                    let (_, &usable) = self
                        .live
                        .range(b..)
                        .next()
                        .expect("active extent holds a live allocation");
                    if usable > SMALL_MAX || !(a - b).is_multiple_of(usable) {
                        FreeError::InvalidPointer(addr)
                    } else {
                        // A region boundary that is not live, tail slack included.
                        FreeError::DoubleFree(addr)
                    }
                }
            };
            prop_assert_eq!(self.heap.free(space, addr), Err(want), "free({:#x})", a);
        }
        Ok(())
    }
}

/// Probe addresses: around the heap segment and the heap cursor, at the
/// edges of every active and free extent of every heap, in slab tail
/// slack, and inside and just past the `n`th live allocation of each heap.
fn probe_addrs(space: &mut AddrSpace, heaps: &[Heap], n: usize, offset: u64) -> BTreeSet<u64> {
    let heap_base = space.layout().segment_base(Segment::Heap).raw();
    let cursor = space.reserve_heap(0).raw(); // reserving nothing reads the cursor
    let mut out: BTreeSet<u64> = [
        0,
        heap_base - P,
        heap_base - 8,
        cursor,
        cursor + 8,
        cursor + P,
    ]
    .into();
    for h in heaps {
        let active = h.heap.active_ranges();
        let free = h.heap.free_ranges();
        for &(b, len) in &free {
            out.extend([b.raw(), b.raw() + len / 2, b.raw() + len - 8]);
        }
        for &(b, len) in active.iter().chain(&free) {
            out.extend([b.raw() - 8, b.raw() - 1, b.raw() + len - 1, b.raw() + len]);
        }
        for (&base, &usable) in &h.live {
            if usable > SMALL_MAX {
                continue;
            }
            let &(slab, len) = active
                .iter()
                .find(|&&(b, len)| base >= b.raw() && base < b.raw() + len)
                .expect("live allocation is in an active extent");
            let slack = len % usable;
            if slack > 0 {
                let tail = slab.raw() + len - slack;
                out.extend([tail, tail + slack / 2, slab.raw() + len - 8]);
            }
        }
        if let Some((&base, &usable)) = h.live.iter().nth(n % h.live.len().max(1)) {
            out.extend([base + offset % usable, base + usable - 1, base + usable]);
        }
    }
    out
}

/// Runs `ops` against one heap per config, all sharing one address space
/// the way arenas do. `ops[i].0` picks the heap (modulo the heap count).
fn run_heaps(cfgs: &[JallocConfig], ops: &[(usize, Op)]) -> Result<(), TestCaseError> {
    let mut space = AddrSpace::new();
    let mut heaps: Vec<Heap> = cfgs.iter().map(|&cfg| Heap::new(cfg)).collect();
    let mut clock = 0u64;

    for (k, op) in ops {
        match *op {
            Op::Probe { n, offset } => {
                let probes = probe_addrs(&mut space, &heaps, n, offset);
                for h in &mut heaps {
                    h.check_probes(&mut space, &probes)?;
                }
            }
            Op::Tick { cycles } => {
                clock += cycles;
                heaps[k % cfgs.len()].apply(&mut space, op, clock)?;
            }
            _ => heaps[k % cfgs.len()].apply(&mut space, op, clock)?,
        }
        for h in &heaps {
            h.check_invariants(&space)?;
        }
    }
    Ok(())
}

fn run_ops(cfg: JallocConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let ops: Vec<(usize, Op)> = ops.iter().map(|op| (0, op.clone())).collect();
    run_heaps(&[cfg], &ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stock_allocator_obeys_invariants(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_ops(JallocConfig::stock(), &ops)?;
    }

    #[test]
    fn minesweeper_allocator_obeys_invariants(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_ops(JallocConfig::minesweeper(), &ops)?;
    }

    #[test]
    fn no_tcache_allocator_obeys_invariants(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_ops(JallocConfig { tcache: false, ..JallocConfig::stock() }, &ops)?;
    }

    #[test]
    fn commit_decommit_allocator_obeys_invariants(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_ops(JallocConfig { purge_policy: PurgePolicy::CommitDecommit, ..JallocConfig::stock() }, &ops)?;
    }

    #[test]
    fn heaps_sharing_a_space_never_resolve_each_others_pages(
        ops in proptest::collection::vec((0usize..2, op_strategy()), 1..120),
    ) {
        run_heaps(&[JallocConfig::stock(), JallocConfig::minesweeper()], &ops)?;
    }

    #[test]
    fn purge_policies_preserve_live_data(
        sizes in proptest::collection::vec(1u64..100_000, 1..20),
        policy in prop_oneof![Just(PurgePolicy::Madvise), Just(PurgePolicy::CommitDecommit)],
    ) {
        let mut space = AddrSpace::new();
        let mut heap = JAlloc::with_config(JallocConfig {
            purge_policy: policy,
            ..JallocConfig::stock()
        });
        // Allocate, write a signature, free every other one, purge.
        let addrs: Vec<Addr> = sizes.iter().map(|&s| {
            let a = heap.malloc(&mut space, s.max(8));
            space.write_word(a, a.raw() ^ 0xabcd).unwrap();
            a
        }).collect();
        for (i, &a) in addrs.iter().enumerate() {
            if i % 2 == 1 {
                heap.free(&mut space, a).unwrap();
            }
        }
        heap.purge_all(&mut space);
        for (i, &a) in addrs.iter().enumerate() {
            if i % 2 == 0 {
                prop_assert_eq!(space.read_word(a).unwrap(), a.raw() ^ 0xabcd,
                    "purge must not corrupt live allocation {}", i);
            }
        }
    }
}
