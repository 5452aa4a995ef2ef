//! `GranuleSet` against a `HashSet<u64>` oracle: random insert, remove
//! and contains sequences must answer exactly as the hash set does, over
//! the address shapes the quarantine and MarkUs see — a jalloc heap, Scudo's
//! per-class regions, and bases below the first member's leaf.

use proptest::prelude::*;
use std::collections::HashSet;

use minesweeper::GranuleSet;
use vmem::Addr;

/// Where the heap segment starts (`vmem::Layout`'s heap base).
const HEAP: u64 = 0x1_0000_0000;

/// Scudo's region stride: 64 MiB of address space per size class.
const REGION: u64 = 64 << 20;

#[derive(Clone, Copy, Debug)]
enum Pattern {
    /// 16-byte-aligned bases in a 64 MiB jalloc-like heap above 4 GiB.
    Jalloc,
    /// Bases in the first 4 MiB of 16 regions 64 MiB apart.
    Scudo,
    /// Bases across 256 MiB, the first insert at the top, so nearly every
    /// later base falls below the directory's first leaf.
    BelowFirst,
}

impl Pattern {
    fn addr(self, raw: u64) -> Addr {
        let granules = |span: u64| raw % (span / 16) * 16;
        Addr::new(match self {
            Pattern::Jalloc => HEAP + granules(64 << 20),
            Pattern::Scudo => HEAP + (raw >> 40) % 16 * REGION + granules(4 << 20),
            Pattern::BelowFirst => HEAP + granules(256 << 20),
        })
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(usize),
    Remove(usize),
    Contains(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..48).prop_map(Op::Insert),
        2 => (0usize..48).prop_map(Op::Remove),
        2 => (0usize..48).prop_map(Op::Contains),
    ]
}

/// Runs `ops` over a pool of 48 addresses drawn from `raws` and checks
/// every answer against the oracle.
fn check(pattern: Pattern, raws: Vec<u64>, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut pool: Vec<Addr> = raws.into_iter().map(|r| pattern.addr(r)).collect();
    let mut set = GranuleSet::new();
    let mut oracle: HashSet<u64> = HashSet::new();
    if let Pattern::BelowFirst = pattern {
        pool.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert!(set.insert(pool[0]));
        oracle.insert(pool[0].raw());
    }
    for op in ops {
        match op {
            Op::Insert(i) => {
                prop_assert_eq!(set.insert(pool[i]), oracle.insert(pool[i].raw()), "{:?}", op);
            }
            Op::Remove(i) => {
                prop_assert_eq!(set.remove(pool[i]), oracle.remove(&pool[i].raw()), "{:?}", op);
            }
            Op::Contains(i) => {
                prop_assert_eq!(set.contains(pool[i]), oracle.contains(&pool[i].raw()), "{:?}", op);
                prop_assert!(!set.contains(pool[i].add_bytes(8)), "misaligned probe");
            }
        }
    }
    for a in &pool {
        prop_assert_eq!(set.contains(*a), oracle.contains(&a.raw()), "final {}", a);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn agrees_with_a_hash_set_on_jalloc_bases(
        raws in proptest::collection::vec(any::<u64>(), 48..49),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        check(Pattern::Jalloc, raws, ops)?;
    }

    #[test]
    fn agrees_with_a_hash_set_on_scudo_regions(
        raws in proptest::collection::vec(any::<u64>(), 48..49),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        check(Pattern::Scudo, raws, ops)?;
    }

    #[test]
    fn agrees_with_a_hash_set_below_the_first_leaf(
        raws in proptest::collection::vec(any::<u64>(), 48..49),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        check(Pattern::BelowFirst, raws, ops)?;
    }
}

/// A flat bitmap over Scudo's 16 regions would hold 8 MiB. The sparse set
/// holds its directory (one slot per 512 KiB of the span) plus a 4 KiB
/// leaf per 512 KiB that ever had a member, and reuses those leaves when
/// the same bases come back.
#[test]
fn resident_bytes_stay_small_across_scudo_regions() {
    let mut set = GranuleSet::new();
    // Highest region first, so the directory grows down 15 times.
    let bases: Vec<Addr> = (0..16u64)
        .rev()
        .flat_map(|r| (0..512u64).map(move |k| Addr::new(HEAP + r * REGION + k * 2048)))
        .collect();
    for &b in &bases {
        assert!(set.insert(b));
    }
    // 16 regions × 1 MiB of bases = 32 leaves; the directory spans 1 GiB
    // in 2,048 eight-byte slots, with room to double.
    let bound = 32 * 4096 + 2 * 2048 * 8;
    let resident = set.resident_bytes();
    assert!(resident <= bound, "{resident} resident bytes, bound {bound}");
    assert!(resident < 256 * 1024, "far below a flat bitmap's 8 MiB");
    for _ in 0..3 {
        for &b in &bases {
            assert!(set.remove(b));
        }
        for &b in &bases {
            assert!(set.insert(b));
        }
    }
    assert_eq!(set.resident_bytes(), resident, "emptied leaves are reused, not regrown");
}
