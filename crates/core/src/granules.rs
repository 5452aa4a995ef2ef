//! A set of allocation bases: one bit per 16-byte granule.
//!
//! The smallest size class is one granule (16 bytes), so distinct
//! allocations have distinct base granules and membership of a base is a
//! single bit — the same indexing the shadow map uses (§3.2). `insert`,
//! `contains` and `remove` are a directory index, a shift and a mask; no
//! key is hashed.
//!
//! The bitmap is sparse, like `jalloc`'s extent map and `vmem`'s page
//! table: a directory of lazily boxed 4 KiB leaves, each covering 32 Ki
//! granules (512 KiB of address space). The directory starts at the leaf
//! of the first member and grows down when a lower base arrives, so it
//! spans only the leaves between the lowest and highest member ever seen,
//! never the space below the heap. A flat bitmap would not do: Scudo
//! reserves 64 MiB of address space per size class, and one bit per
//! granule across its 16 regions is 8 MiB.
//!
//! A leaf stays once allocated, like the shadow map's chunks. A quarantine
//! empties and refills with every sweep, and a large allocation's base
//! often has a leaf to itself, so freeing emptied leaves would allocate
//! and zero a fresh 4 KiB leaf at most such frees; a kept leaf costs at
//! most 1/128 of the address span it covers, the shadow map's own ratio.

use std::fmt;

use vmem::{Addr, GRANULE_SIZE};

/// `u64` words per leaf: 512 words, one 4 KiB bitmap page.
const LEAF_WORDS: usize = 512;

/// log2 of the granules one leaf covers (512 words × 64 bits).
const LEAF_SHIFT: u32 = (LEAF_WORDS * 64).trailing_zeros();

/// log2 of [`GRANULE_SIZE`].
const GRANULE_SHIFT: u32 = GRANULE_SIZE.trailing_zeros();

/// One 4 KiB bitmap leaf.
type Leaf = Box<[u64; LEAF_WORDS]>;

/// A set of granule-aligned addresses, one bit per 16-byte granule.
///
/// # Example
///
/// ```
/// use minesweeper::GranuleSet;
/// use vmem::Addr;
///
/// let mut set = GranuleSet::new();
/// let base = Addr::new(0x1_0000_0040);
/// assert!(set.insert(base));
/// assert!(!set.insert(base), "already a member");
/// assert!(set.contains(base));
/// assert!(!set.contains(base.add_bytes(8)), "not granule-aligned");
/// assert!(set.remove(base));
/// assert!(!set.contains(base));
/// ```
#[derive(Clone, Default)]
pub struct GranuleSet {
    /// Leaf number (`granule >> LEAF_SHIFT`) that `dir[0]` covers.
    dir_base: u64,
    dir: Vec<Option<Leaf>>,
}

/// Where `addr`'s bit lives: `(leaf number, word in leaf, bit mask)`.
/// `None` when `addr` is not granule-aligned, so it cannot be a member.
fn locate(addr: Addr) -> Option<(u64, usize, u64)> {
    let raw = addr.raw();
    if raw & (GRANULE_SIZE as u64 - 1) != 0 {
        return None;
    }
    let granule = raw >> GRANULE_SHIFT;
    let word = (granule >> 6) as usize & (LEAF_WORDS - 1);
    Some((granule >> LEAF_SHIFT, word, 1 << (granule & 63)))
}

impl GranuleSet {
    /// Creates an empty set (no directory, no leaves).
    pub fn new() -> Self {
        GranuleSet::default()
    }

    /// Leaf number `leaf`, if it is allocated.
    fn leaf(&self, leaf: u64) -> Option<&Leaf> {
        let idx = leaf.checked_sub(self.dir_base)?;
        self.dir.get(usize::try_from(idx).ok()?)?.as_ref()
    }

    /// `leaf`, for updates.
    fn leaf_mut(&mut self, leaf: u64) -> Option<&mut Leaf> {
        let idx = leaf.checked_sub(self.dir_base)?;
        self.dir.get_mut(usize::try_from(idx).ok()?)?.as_mut()
    }

    /// Adds `addr`. Returns whether it was not yet a member.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not granule-aligned (no allocation base is).
    pub fn insert(&mut self, addr: Addr) -> bool {
        let Some((leaf, word, mask)) = locate(addr) else {
            panic!("{addr} is not granule-aligned");
        };
        let bits = self.leaf_for_insert(leaf);
        if bits[word] & mask != 0 {
            return false;
        }
        bits[word] |= mask;
        true
    }

    /// Whether `addr` is a member. An address that is not granule-aligned
    /// never is.
    pub fn contains(&self, addr: Addr) -> bool {
        let Some((leaf, word, mask)) = locate(addr) else {
            return false;
        };
        self.leaf(leaf).is_some_and(|bits| bits[word] & mask != 0)
    }

    /// Removes `addr`. Returns whether it was a member.
    pub fn remove(&mut self, addr: Addr) -> bool {
        let Some((leaf, word, mask)) = locate(addr) else {
            return false;
        };
        let Some(bits) = self.leaf_mut(leaf) else {
            return false;
        };
        let member = bits[word] & mask != 0;
        bits[word] &= !mask;
        member
    }

    /// Leaf number `leaf`, allocated (and the directory grown up or down)
    /// if needed.
    fn leaf_for_insert(&mut self, leaf: u64) -> &mut Leaf {
        if self.dir.is_empty() {
            self.dir_base = leaf;
        } else if leaf < self.dir_base {
            let grow = usize::try_from(self.dir_base - leaf).expect("directory fits memory");
            self.dir.splice(0..0, std::iter::repeat_with(|| None).take(grow));
            self.dir_base = leaf;
        }
        let idx = usize::try_from(leaf - self.dir_base).expect("directory fits memory");
        if idx >= self.dir.len() {
            self.dir.resize_with(idx + 1, || None);
        }
        self.dir[idx].get_or_insert_with(|| {
            vec![0; LEAF_WORDS].into_boxed_slice().try_into().expect("LEAF_WORDS words")
        })
    }

    /// Heap bytes the set holds: its directory plus its resident leaves.
    pub fn resident_bytes(&self) -> u64 {
        let dir = self.dir.capacity() * std::mem::size_of::<Option<Leaf>>();
        let leaves = self.resident_leaves() * std::mem::size_of::<[u64; LEAF_WORDS]>();
        (dir + leaves) as u64
    }

    fn resident_leaves(&self) -> usize {
        self.dir.iter().flatten().count()
    }
}

impl fmt::Debug for GranuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GranuleSet")
            .field("dir_base", &self.dir_base)
            .field("dir_len", &self.dir.len())
            .field("resident_leaves", &self.resident_leaves())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEAF_SPAN: u64 = (GRANULE_SIZE as u64) << LEAF_SHIFT;

    #[test]
    fn leaf_is_one_page() {
        assert_eq!(std::mem::size_of::<[u64; LEAF_WORDS]>(), 4096);
        assert_eq!(LEAF_SPAN, 512 * 1024);
    }

    #[test]
    fn neighbouring_granules_are_distinct() {
        let mut set = GranuleSet::new();
        let a = Addr::new(0x1_0000_0000);
        assert!(set.insert(a));
        assert!(!set.contains(a.add_bytes(GRANULE_SIZE as u64)));
        assert!(set.insert(a.add_bytes(GRANULE_SIZE as u64)));
        assert!(set.remove(a));
        assert!(set.contains(a.add_bytes(GRANULE_SIZE as u64)));
        assert!(!set.remove(a), "second remove finds nothing");
    }

    #[test]
    fn directory_grows_down_and_keeps_empty_leaves() {
        let mut set = GranuleSet::new();
        let high = Addr::new(0x2_0000_0000);
        let low = Addr::new(0x1_0000_0000);
        set.insert(high);
        assert_eq!((set.dir.len(), set.resident_leaves()), (1, 1));
        set.insert(low);
        assert_eq!(set.dir.len() as u64, (high.raw() - low.raw()) / LEAF_SPAN + 1);
        assert!(set.contains(high) && set.contains(low));
        assert!(set.remove(high));
        assert!(!set.contains(high));
        assert_eq!(set.resident_leaves(), 2, "an emptied leaf stays for reuse");
        assert!(set.insert(high));
        assert_eq!(set.resident_leaves(), 2);
    }

    #[test]
    fn misaligned_and_out_of_range_addresses_are_never_members() {
        let mut set = GranuleSet::new();
        let a = Addr::new(0x1_0000_0000);
        set.insert(a);
        for probe in [a.add_bytes(8), Addr::new(0), Addr::new(!15), Addr::new(16)] {
            assert!(!set.contains(probe), "{probe}");
            assert!(!set.remove(probe), "{probe}");
        }
        assert!(set.contains(a));
    }

    #[test]
    #[should_panic(expected = "not granule-aligned")]
    fn inserting_a_misaligned_address_panics() {
        GranuleSet::new().insert(Addr::new(0x1_0000_0008));
    }
}
