//! Runtime-dispatched SIMD kernel that builds a page's heap-word map.
//!
//! The sweep (§4.4) treats every aligned word as a potential pointer:
//! is it a heap address? That is a pure range test against the heap
//! segment — `lo <= word < hi` — and the kernel answers it for a whole
//! page at once, returning the page's [`HeapMap`] (bit `i` set exactly
//! when word `i` is in range). A page is classified once, the first time
//! a sweep reads it; `vmem` keeps the map exact from then on, and the
//! sweep walks the map's set bits. Two properties make the kernel fast:
//!
//! * **zero dominates.** Zero-on-free (§4.1) makes all-zero memory the
//!   overwhelmingly common swept input, so words are processed in chunks
//!   of [`CHUNK_WORDS`] with a lane-OR early-out: one compare retires
//!   eight words.
//! * **the test is branch-free.** `lo <= x < hi` for unsigned `x` is
//!   `(x - lo) < (hi - lo)` — one subtract and one compare per lane, no
//!   data-dependent branches.
//!
//! Three tiers implement the same contract (the exact map of the page)
//! and are selected once per process by [`active_tier`]:
//!
//! * [`ScanTier::Avx2`] — 4×u64 vectors; the unsigned compare uses the
//!   sign-flip trick (`x ^ MSB` turns unsigned order into signed order)
//!   because AVX2 has no unsigned 64-bit compare. Lane results come back
//!   as movemask bits, which are the map's bits.
//! * [`ScanTier::Sse2`] — baseline x86-64 vectors: the zero early-out is
//!   vectorised (SSE2 has no 64-bit compare at all), chunks that survive
//!   it take the scalar range test.
//! * [`ScanTier::Swar`] — portable scalar fallback: chunked lane-OR
//!   early-out plus the same branch-free range test, no `std::arch`.
//!   This is what non-x86 targets run, and what `MS_SCAN_TIER=swar`
//!   forces so any machine can exercise both code paths.
//!
//! All tiers are differential-tested against each other (bit-identical
//! maps) here and through the whole mark pipeline in the core proptests.

use std::sync::OnceLock;

use vmem::{HeapMap, PAGE_SIZE, WORD_SIZE};

/// Words per kernel chunk. Eight words (64 bytes) is one cache line: the
/// lane-OR early-out retires exactly one line per compare (the AVX2 tier
/// tests four chunks at once).
pub const CHUNK_WORDS: usize = 8;

/// Environment variable naming the scan tier to force (`avx2`, `sse2` or
/// `swar`). Requests for a tier the CPU lacks fall back to the best
/// available one; `swar` always works, which is how CI exercises the
/// portable fallback on AVX2 hardware.
pub const TIER_ENV: &str = "MS_SCAN_TIER";

/// One implementation tier of the scan kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScanTier {
    /// AVX2: 4×u64 lanes, vectorised zero early-out and range test.
    Avx2,
    /// SSE2 (x86-64 baseline): vectorised zero early-out, scalar range
    /// test on chunks that survive it.
    Sse2,
    /// Portable scalar fallback (SWAR): chunked OR early-out, branch-free
    /// scalar range test. Runs on every target.
    Swar,
}

impl ScanTier {
    /// Lower-case tier name, as accepted by [`TIER_ENV`].
    pub fn as_str(self) -> &'static str {
        match self {
            ScanTier::Avx2 => "avx2",
            ScanTier::Sse2 => "sse2",
            ScanTier::Swar => "swar",
        }
    }

    /// Parses a tier name (case-insensitive).
    pub fn parse(s: &str) -> Option<ScanTier> {
        match s.to_ascii_lowercase().as_str() {
            "avx2" => Some(ScanTier::Avx2),
            "sse2" => Some(ScanTier::Sse2),
            "swar" => Some(ScanTier::Swar),
            _ => None,
        }
    }
}

/// The tiers this CPU can run, best first. [`ScanTier::Swar`] is always
/// last (and always present).
pub fn available_tiers() -> &'static [ScanTier] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            &[ScanTier::Avx2, ScanTier::Sse2, ScanTier::Swar]
        } else {
            // SSE2 is architecturally guaranteed on x86-64.
            &[ScanTier::Sse2, ScanTier::Swar]
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[ScanTier::Swar]
    }
}

/// The tier the sweep uses when none is forced: the best available one,
/// unless [`TIER_ENV`] requests a (supported) downgrade. Resolved once
/// per process.
pub fn active_tier() -> ScanTier {
    static TIER: OnceLock<ScanTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let best = available_tiers()[0];
        match std::env::var(TIER_ENV).ok().as_deref().and_then(ScanTier::parse) {
            Some(forced) if available_tiers().contains(&forced) => forced,
            _ => best,
        }
    })
}

/// Words per page: the kernel classifies whole pages.
pub const PAGE_WORDS: usize = PAGE_SIZE / WORD_SIZE;

/// Runs the scan kernel over one page: the returned map has bit `i` set
/// exactly when `words[i]` lies in `[lo, hi)`. All tiers return the same
/// map; `tier` only selects *how* the out-of-range words are rejected.
/// Requires `0 < lo < hi` (the heap never starts at address zero), which
/// lets every tier treat zero words as trivially out of range.
pub fn heap_word_map(tier: ScanTier, words: &[u64; PAGE_WORDS], lo: u64, hi: u64) -> HeapMap {
    debug_assert!(0 < lo && lo < hi);
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_tier`/`available_tiers` only hand out Avx2 when
        // the CPU reports it; a hand-constructed tier is re-checked here.
        ScanTier::Avx2 if std::arch::is_x86_feature_detected!("avx2") => unsafe {
            x86::map_avx2(words, lo, hi)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline.
        ScanTier::Sse2 => unsafe { x86::map_sse2(words, lo, hi) },
        _ => map_swar(words, lo, hi),
    }
}

/// The branch-free range test of one chunk: bit `j` set when `c[j]` is in
/// `[lo, lo + span)`.
#[inline]
fn chunk_mask(c: &[u64], lo: u64, span: u64) -> u64 {
    c.iter()
        .enumerate()
        .fold(0, |mask, (j, &v)| mask | u64::from(v.wrapping_sub(lo) < span) << j)
}

/// Portable fallback: 8-word chunks, lane-OR zero early-out, branch-free
/// range test. `u64` arithmetic only — this is the reference
/// implementation the vector tiers are tested against.
fn map_swar(words: &[u64; PAGE_WORDS], lo: u64, hi: u64) -> HeapMap {
    let span = hi - lo;
    let mut map = HeapMap::default();
    for (n, c) in words.chunks_exact(CHUNK_WORDS).enumerate() {
        if c[0] | c[1] | c[2] | c[3] | c[4] | c[5] | c[6] | c[7] != 0 {
            let at = n * CHUNK_WORDS;
            map.0[at / 64] |= chunk_mask(c, lo, span) << (at % 64);
        }
    }
    map
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{chunk_mask, HeapMap, CHUNK_WORDS, PAGE_WORDS};
    use std::arch::x86_64::*;

    /// AVX2 kernel. Works in 32-word groups (eight 4×u64 loads): one
    /// `vptest` zero early-out per group, then the group's 32 map bits
    /// from eight movemasks.
    ///
    /// The range test is three ops per lane: `x - lo` (wrapping),
    /// sign-bit flip, one signed compare against `span ^ MSB`. Flipping
    /// the sign bit maps unsigned order onto signed order, which is the
    /// only 64-bit compare AVX2 has.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn map_avx2(words: &[u64; PAGE_WORDS], lo: u64, hi: u64) -> HeapMap {
        const SIGN: i64 = i64::MIN;
        const GROUP: usize = 4 * CHUNK_WORDS;
        let lo_v = _mm256_set1_epi64x(lo as i64);
        let span_s = _mm256_set1_epi64x((hi - lo) as i64 ^ SIGN);
        let sign = _mm256_set1_epi64x(SIGN);
        // in-range ⇔ (x - lo) <u span ⇔ ((x - lo) ^ MSB) <s (span ^ MSB).
        // Zero words fall out for free: 0 - lo wraps to 2^64 - lo, far
        // above any heap span (the kernel contract requires lo > 0).
        let lane_mask = |v: __m256i| -> u64 {
            let d = _mm256_xor_si256(_mm256_sub_epi64(v, lo_v), sign);
            _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(span_s, d))) as u64
        };
        let mut map = HeapMap::default();
        for g in 0..PAGE_WORDS / GROUP {
            // SAFETY: group `g` is words `[32 g, 32 g + 32)`, inside the
            // page; the loads are unaligned.
            let p = words.as_ptr().add(g * GROUP).cast::<__m256i>();
            let v = [
                _mm256_loadu_si256(p),
                _mm256_loadu_si256(p.add(1)),
                _mm256_loadu_si256(p.add(2)),
                _mm256_loadu_si256(p.add(3)),
                _mm256_loadu_si256(p.add(4)),
                _mm256_loadu_si256(p.add(5)),
                _mm256_loadu_si256(p.add(6)),
                _mm256_loadu_si256(p.add(7)),
            ];
            let or = _mm256_or_si256(
                _mm256_or_si256(_mm256_or_si256(v[0], v[1]), _mm256_or_si256(v[2], v[3])),
                _mm256_or_si256(_mm256_or_si256(v[4], v[5]), _mm256_or_si256(v[6], v[7])),
            );
            if _mm256_testz_si256(or, or) != 0 {
                continue;
            }
            let mask = (0..8).fold(0, |mask, k| mask | lane_mask(v[k]) << (4 * k));
            map.0[g / 2] |= mask << (GROUP * (g % 2));
        }
        map
    }

    /// SSE2 kernel: the zero early-out is vectorised (four 2×u64 loads
    /// ORed, one byte-compare movemask); SSE2 has no 64-bit compare, so
    /// chunks that survive take the scalar branch-free range test.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2 (always true on x86-64).
    #[target_feature(enable = "sse2")]
    pub unsafe fn map_sse2(words: &[u64; PAGE_WORDS], lo: u64, hi: u64) -> HeapMap {
        let span = hi - lo;
        let zero = _mm_setzero_si128();
        let mut map = HeapMap::default();
        for (n, c) in words.chunks_exact(CHUNK_WORDS).enumerate() {
            let p = c.as_ptr().cast::<__m128i>();
            // SAFETY: the chunk is eight words; the loads are unaligned.
            let or = _mm_or_si128(
                _mm_or_si128(_mm_loadu_si128(p), _mm_loadu_si128(p.add(1))),
                _mm_or_si128(_mm_loadu_si128(p.add(2)), _mm_loadu_si128(p.add(3))),
            );
            if _mm_movemask_epi8(_mm_cmpeq_epi8(or, zero)) != 0xffff {
                let at = n * CHUNK_WORDS;
                map.0[at / 64] |= chunk_mask(c, lo, span) << (at % 64);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force classification: the oracle every tier must equal.
    fn naive(words: &[u64; PAGE_WORDS], lo: u64, hi: u64) -> HeapMap {
        let mut map = HeapMap::default();
        for (i, &v) in words.iter().enumerate() {
            if (lo..hi).contains(&v) {
                map.0[i / 64] |= 1 << (i % 64);
            }
        }
        map
    }

    #[test]
    fn tiers_agree_on_boundaries_at_every_offset() {
        let (lo, hi) = (0x1_0000_0000u64, 0x101_0000_0000u64);
        // Boundary values, zeros and junk, placed at every word offset of
        // the page in turn, so each lands in every lane, chunk and group
        // position.
        let pattern = [
            0u64,
            lo - 1,
            lo,
            lo + 8,
            hi - 1,
            hi,
            hi + 8,
            1,
            u64::MAX,
            0,
            0,
            lo + 4096,
            42,
            0,
            lo + (1 << 30),
            0x7000_0000,
            0,
        ];
        for shift in 0..PAGE_WORDS {
            let mut words = [0u64; PAGE_WORDS];
            for (k, &v) in pattern.iter().enumerate() {
                words[(shift + k * 31) % PAGE_WORDS] = v;
            }
            let want = naive(&words, lo, hi);
            for &tier in available_tiers() {
                assert_eq!(heap_word_map(tier, &words, lo, hi), want, "{tier:?} shift {shift}");
            }
        }
    }

    #[test]
    fn all_zero_and_all_heap_pages() {
        let (lo, hi) = (0x1_0000_0000, 0x2_0000_0000);
        for &tier in available_tiers() {
            assert_eq!(heap_word_map(tier, &[0; PAGE_WORDS], lo, hi), HeapMap::default());
            assert_eq!(heap_word_map(tier, &[lo; PAGE_WORDS], lo, hi), HeapMap([u64::MAX; 8]));
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for t in [ScanTier::Avx2, ScanTier::Sse2, ScanTier::Swar] {
            assert_eq!(ScanTier::parse(t.as_str()), Some(t));
        }
        assert_eq!(ScanTier::parse("AVX2"), Some(ScanTier::Avx2));
        assert_eq!(ScanTier::parse("neon"), None);
    }

    #[test]
    fn active_tier_is_available() {
        assert!(available_tiers().contains(&active_tier()));
        assert_eq!(*available_tiers().last().unwrap(), ScanTier::Swar);
    }
}
