//! A cheap integer hasher for the maps on the simulator's per-op path.
//!
//! [`IdHasher`] is **not DoS-resistant**: it is unseeded and an adversary
//! who picks keys can force collisions. That is acceptable here because
//! every key is a simulator-assigned op id or a simulated address (or a
//! small enum/site id built from them), never untrusted input, and
//! determinism is a feature: the same run hashes the same way every time.
//!
//! The mix is tuned for hashbrown, which indexes buckets with the hash's
//! low bits and tags entries with its top 7 bits. `n ^ (n >> 12)` folds
//! page-number bits under the low 12; the odd multiply keeps the low bits
//! a bijection of the folded key (dense ids, 16-byte and page strides land
//! in distinct buckets) and carries every bit into the top; `finish` xors
//! the product's high half into bits 12.. so larger tables index on mixed
//! bits too.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by simulator ids or simulated addresses.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply/xor-shift hasher for integer keys (see the [module docs](self)).
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n ^ (n >> 12)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ ((self.0 >> 32) << 12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// 4,096 keys of each kind the per-op maps see: hashbrown's 7-bit tag
    /// (top bits) takes every value and the low-12-bit bucket indices of
    /// a 4,096-bucket table are at least 90% distinct. At 65,536 keys the
    /// low 16 bits stay at least half distinct (a random hash gives ~63%;
    /// a bare multiply gives ~6% for aligned addresses).
    #[test]
    fn spreads_dense_ids_and_aligned_addresses() {
        let kinds = [
            ("dense ids", 0, 1),
            ("16-byte-aligned addresses", 0x1_0012_3450, 16),
            ("page-aligned addresses", 0x1_0000_0000, 4096),
        ];
        for (kind, base, stride) in kinds {
            let key = |i: u64| base + stride * i;
            let hashes: Vec<u64> = (0..4096).map(|i| hash(key(i))).collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
            assert_eq!(tags.len(), 128, "{kind}: tag values");
            assert!(
                buckets.len() * 10 >= 4096 * 9,
                "{kind}: {} distinct buckets of 4096",
                buckets.len()
            );
            let wide: HashSet<u64> = (0..1 << 16).map(|i| hash(key(i)) & 0xffff).collect();
            assert!(
                wide.len() * 2 >= 1 << 16,
                "{kind}: {} distinct of 65536",
                wide.len()
            );
        }
    }

    #[test]
    fn maps_behave_like_std() {
        let mut map: IdMap<Option<u32>, u64> = IdMap::default();
        map.insert(None, 1);
        map.insert(Some(0), 2);
        *map.entry(Some(0)).or_insert(0) += 5;
        assert_eq!((map[&None], map[&Some(0)], map.len()), (1, 7, 2));
        assert_eq!(map.remove(&None), Some(1));
    }
}
