//! Pinned trace digest: every op of [`TraceGen`] for every shipped
//! profile, folded into one 64-bit value per `(profile, seed)`.
//!
//! This is the refactor lock for the generator: a change meant to keep
//! the streams byte-identical (a new death schedule, a new container)
//! must leave every row alone. `total_allocs` is capped at 10,000 so a
//! debug `cargo test` stays fast; `scripts/ci.sh --stage model-lock`
//! pins the full-length `record` output. When a change *intends* to move
//! the streams, copy the rows from the failure message, which prints the
//! observed table in source form.

use workloads::{mimalloc_bench, spec2006, spec2017, Op, Profile, TraceGen};

/// Allocation events per stream: the profile's own count, capped here.
const CAP: u64 = 10_000;

/// Seeds every profile is expanded with.
const SEEDS: [u64; 2] = [1, 42];

/// Mixes one word into the running digest (FxHash-style step).
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// `(op count, digest)` of the whole stream: every op contributes a tag
/// word and each of its fields, in stream order.
fn digest(profile: &Profile, seed: u64) -> (u64, u64) {
    let mut h = 0u64;
    let mut n = 0u64;
    for op in TraceGen::new(profile, seed) {
        n += 1;
        h = match op {
            Op::Work(c) => mix(mix(h, 0), c),
            Op::Alloc { id, size, site } => mix(mix(mix(mix(h, 1), id), size), u64::from(site)),
            Op::Free { id } => mix(mix(h, 2), id),
            Op::Teardown => mix(h, 3),
        };
    }
    (n, h)
}

/// Every shipped profile, labelled `suite/name` (SPEC 2006 and 2017
/// share five names), with `total_allocs` capped at [`CAP`].
fn profiles() -> Vec<(String, Profile)> {
    let mut out = Vec::new();
    for (suite, list) in [
        ("spec2006", spec2006::all()),
        ("spec2017", spec2017::all()),
        ("mimalloc", mimalloc_bench::all()),
    ] {
        for mut p in list {
            p.total_allocs = p.total_allocs.min(CAP);
            out.push((format!("{suite}/{}", p.name), p));
        }
    }
    out
}

/// `(label, seed, ops, digest)`.
const PINNED: &[(&str, u64, u64, u64)] = &[
    ("spec2006/astar", 1, 30001, 0xca2f880aa0263d88),
    ("spec2006/astar", 42, 30001, 0xe88c429f71cb9dd1),
    ("spec2006/bzip2", 1, 1801, 0x3d185d2262f7b572),
    ("spec2006/bzip2", 42, 1801, 0x8262ec83222dcb5e),
    ("spec2006/dealII", 1, 30001, 0x96934dd0904b6eaf),
    ("spec2006/dealII", 42, 30001, 0xb99e870362100f5c),
    ("spec2006/gcc", 1, 30157, 0xb7def424263e36f7),
    ("spec2006/gcc", 42, 30152, 0xc970433721767e0e),
    ("spec2006/gobmk", 1, 4501, 0xb460564d2765f43f),
    ("spec2006/gobmk", 42, 4501, 0x435ad236bf25226a),
    ("spec2006/h264ref", 1, 6001, 0x3e1ea95df86c376b),
    ("spec2006/h264ref", 42, 6001, 0xa56200ac057dcb92),
    ("spec2006/hmmer", 1, 3601, 0x2c074cf8ef3a182a),
    ("spec2006/hmmer", 42, 3601, 0x2244893c5a822ea6),
    ("spec2006/lbm", 1, 73, 0x027adc2d574e0d18),
    ("spec2006/lbm", 42, 73, 0xc60a9e6b9416bcc1),
    ("spec2006/libquantum", 1, 451, 0xb47726248ffb84a9),
    ("spec2006/libquantum", 42, 451, 0xdcb4865750c3b996),
    ("spec2006/mcf", 1, 121, 0x81d240066ce290b2),
    ("spec2006/mcf", 42, 121, 0xd0997ec7b2880492),
    ("spec2006/milc", 1, 2401, 0x3899d068bcad2dff),
    ("spec2006/milc", 42, 2401, 0x6306010549f46549),
    ("spec2006/namd", 1, 901, 0x4f6a205bffa06bb9),
    ("spec2006/namd", 42, 901, 0x1b437eb6da514b3a),
    ("spec2006/omnetpp", 1, 30001, 0x3137cadb2c947b45),
    ("spec2006/omnetpp", 42, 30001, 0x0102594668b9298b),
    ("spec2006/perlbench", 1, 30001, 0x71230f791e1ef246),
    ("spec2006/perlbench", 42, 30001, 0x3650548528bac7b2),
    ("spec2006/povray", 1, 30001, 0x07d9332508d28ec3),
    ("spec2006/povray", 42, 30001, 0xcfaaf7167d86b6e7),
    ("spec2006/sjeng", 1, 361, 0xeb84c0b0d5d0f657),
    ("spec2006/sjeng", 42, 361, 0xfd5e1316857522aa),
    ("spec2006/sphinx3", 1, 30001, 0x9d3a221c17415984),
    ("spec2006/sphinx3", 42, 30001, 0x3cf18ec27967e9ac),
    ("spec2006/soplex", 1, 24001, 0x3e8b1fee118a825a),
    ("spec2006/soplex", 42, 24001, 0x8356bd2197c46c3f),
    ("spec2006/xalancbmk", 1, 30001, 0x495b10b9f743dbf4),
    ("spec2006/xalancbmk", 42, 30001, 0x5d237ac25592672b),
    ("spec2017/perlbench", 1, 30001, 0xd74ed23019826eb6),
    ("spec2017/perlbench", 42, 30001, 0x7df2ffeed7bb3354),
    ("spec2017/gcc", 1, 30001, 0x494900233d6f8bbf),
    ("spec2017/gcc", 42, 30001, 0xe74be0a1378f6a09),
    ("spec2017/mcf", 1, 241, 0xa4f3fce6c84e7f53),
    ("spec2017/mcf", 42, 241, 0xe887c47c38d67ebc),
    ("spec2017/xalancbmk", 1, 30001, 0x49ce3d7cb7b03f3b),
    ("spec2017/xalancbmk", 42, 30001, 0x382e22cced47eb74),
    ("spec2017/x264", 1, 18001, 0xa7131b9972532826),
    ("spec2017/x264", 42, 18001, 0xf5cc0ac0cf8b8f73),
    ("spec2017/deepsjeng", 1, 2701, 0x4bc02201a62dc753),
    ("spec2017/deepsjeng", 42, 2701, 0xdec8bef027cedafd),
    ("spec2017/leela", 1, 30001, 0x708a0f42c01e9e2f),
    ("spec2017/leela", 42, 30001, 0x21ead48bbaf59731),
    ("spec2017/exchange2", 1, 241, 0x651ae22f8803390a),
    ("spec2017/exchange2", 42, 241, 0x6da43f246ed74e59),
    ("spec2017/xz", 1, 6001, 0xf15dd237f00ad758),
    ("spec2017/xz", 42, 6001, 0xd3de1c7739189a45),
    ("spec2017/bwaves", 1, 361, 0xbcf03e24d9ebe8a2),
    ("spec2017/bwaves", 42, 361, 0xb632292b794927e8),
    ("spec2017/cactuBSSN", 1, 361, 0x17bb0d3fd86cbf90),
    ("spec2017/cactuBSSN", 42, 361, 0xd012a15918bdd906),
    ("spec2017/lbm", 1, 361, 0x0da5c73aab731213),
    ("spec2017/lbm", 42, 361, 0xbc03b71c07a447ec),
    ("spec2017/wrf", 1, 30001, 0x960f08d631a9f1f4),
    ("spec2017/wrf", 42, 30001, 0xbba499a9a7c01df5),
    ("spec2017/pop2", 1, 24001, 0x55d8018c7e2a3c1b),
    ("spec2017/pop2", 42, 24001, 0xf33ba50d83043e3e),
    ("spec2017/imagick", 1, 361, 0x53241584fc839c1a),
    ("spec2017/imagick", 42, 361, 0x4fe769858ec32e9d),
    ("spec2017/nab", 1, 361, 0x5fb8c8309f1b0b33),
    ("spec2017/nab", 42, 361, 0xde44934f0730cf5a),
    ("spec2017/fotonik3d", 1, 361, 0xfb7d9a8f0700f72c),
    ("spec2017/fotonik3d", 42, 361, 0x6fac4f4b5dedb788),
    ("spec2017/roms", 1, 361, 0xbcf03e24d9ebe8a2),
    ("spec2017/roms", 42, 361, 0xb632292b794927e8),
    ("mimalloc/alloc-test1", 1, 30001, 0x528ca700697c3fb7),
    ("mimalloc/alloc-test1", 42, 30001, 0xbb31159aa8230a95),
    ("mimalloc/alloc-testN", 1, 30001, 0x528ca700697c3fb7),
    ("mimalloc/alloc-testN", 42, 30001, 0xbb31159aa8230a95),
    ("mimalloc/barnes", 1, 30001, 0x51b9803cff624f45),
    ("mimalloc/barnes", 42, 30001, 0x147b4bcd4b0c692a),
    ("mimalloc/cache-scratch1", 1, 15001, 0x24151802895cfe34),
    ("mimalloc/cache-scratch1", 42, 15001, 0xd0c600daaa45b7ce),
    ("mimalloc/cache-scratchN", 1, 15001, 0x24151802895cfe34),
    ("mimalloc/cache-scratchN", 42, 15001, 0xd0c600daaa45b7ce),
    ("mimalloc/cfrac", 1, 30001, 0x3873f0efab0cf95a),
    ("mimalloc/cfrac", 42, 30001, 0xc34da197a29d3163),
    ("mimalloc/espresso", 1, 30001, 0x0bc40b05679ea7ce),
    ("mimalloc/espresso", 42, 30001, 0x25ae2dc0f25230a3),
    ("mimalloc/glibc-simple", 1, 30001, 0x59e372815a84daf0),
    ("mimalloc/glibc-simple", 42, 30001, 0x991903a911a616bf),
    ("mimalloc/glibc-thread", 1, 30001, 0x59e372815a84daf0),
    ("mimalloc/glibc-thread", 42, 30001, 0x991903a911a616bf),
    ("mimalloc/larsonN", 1, 30001, 0xad864eee135eb39b),
    ("mimalloc/larsonN", 42, 30001, 0xd8dc721239524afb),
    ("mimalloc/larsonN-sized", 1, 30001, 0xad864eee135eb39b),
    ("mimalloc/larsonN-sized", 42, 30001, 0xd8dc721239524afb),
    ("mimalloc/mstressN", 1, 30001, 0xbd3d1ce5f044e430),
    ("mimalloc/mstressN", 42, 30001, 0x607fe1617fb40039),
    ("mimalloc/rptestN", 1, 30001, 0x883aa16c500c860c),
    ("mimalloc/rptestN", 42, 30001, 0xba20c0962dd2c138),
    ("mimalloc/sh6benchN", 1, 30001, 0x983a5c0921efbfba),
    ("mimalloc/sh6benchN", 42, 30001, 0x31fd4191736a93b0),
    ("mimalloc/sh8benchN", 1, 30001, 0x983a5c0921efbfba),
    ("mimalloc/sh8benchN", 42, 30001, 0x31fd4191736a93b0),
    ("mimalloc/xmalloc-testN", 1, 30001, 0x6af967935b4a8fd9),
    ("mimalloc/xmalloc-testN", 42, 30001, 0xcfce498af91413c9),
];

#[test]
fn every_profile_stream_is_pinned() {
    let mut observed = Vec::new();
    for (label, p) in profiles() {
        for seed in SEEDS {
            let (n, h) = digest(&p, seed);
            observed.push((label.clone(), seed, n, h));
        }
    }
    let matches =
        observed.iter().map(|(l, s, n, h)| (l.as_str(), *s, *n, *h)).eq(PINNED.iter().copied());
    let table: Vec<String> = observed
        .iter()
        .map(|(l, s, n, h)| format!("    (\"{l}\", {s}, {n}, {h:#018x}),"))
        .collect();
    assert!(matches, "trace digest moved; observed table:\n{}", table.join("\n"));
}
