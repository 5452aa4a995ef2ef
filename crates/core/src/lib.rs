#![warn(missing_docs)]

//! **MineSweeper**: drop-in use-after-free prevention by quarantine and
//! linear memory sweeps — a reproduction of Erdős, Ainsworth & Jones,
//! *MineSweeper: A "Clean Sweep" for Drop-In Use-after-Free Prevention*,
//! ASPLOS 2022.
//!
//! # How it works
//!
//! MineSweeper interposes on `free()`. Instead of returning memory to the
//! allocator, it:
//!
//! 1. **zero-fills** the allocation (flattening the reference graph so no
//!    transitive marking is needed and quarantined cycles collapse, §4.1),
//! 2. **decommits and protects** the full pages of large allocations
//!    (§4.2), and
//! 3. places the allocation in a **quarantine**, de-duplicating double
//!    frees (§3).
//!
//! When quarantined bytes exceed a threshold fraction of the heap (15 % by
//! default), a **sweep** runs: every aligned word of heap, stack and globals
//! is treated as a potential pointer and its target granule is marked in a
//! **shadow map** (one bit per 16 bytes, §3.2). Quarantined allocations with
//! no marked granule provably have no dangling pointers and are released to
//! the real allocator; the rest are *failed frees* and stay quarantined.
//!
//! Two modes ship (§4.3): **fully concurrent** (single pass, no
//! stop-the-world; guarantees dangling pointers that are not *moved* during
//! the sweep are found) and **mostly concurrent** (a brief stop-the-world
//! re-check of soft-dirty pages; equivalent guarantees to MarkUs).
//!
//! # Quick start
//!
//! ```
//! use minesweeper::{MineSweeper, MsConfig, FreeOutcome};
//! use vmem::AddrSpace;
//!
//! let mut space = AddrSpace::new();
//! let mut ms = MineSweeper::new(MsConfig::fully_concurrent());
//!
//! let p = ms.malloc(&mut space, 64);
//! space.write_word(p, 123).unwrap();
//!
//! // Store a dangling pointer in another allocation, then free p.
//! let q = ms.malloc(&mut space, 64);
//! space.write_word(q, p.raw()).unwrap();
//! assert_eq!(ms.free(&mut space, p), FreeOutcome::Quarantined);
//!
//! // The sweep finds the dangling pointer: p is NOT recycled.
//! let report = ms.sweep_now(&mut space);
//! assert_eq!(report.failed, 1);
//!
//! // Erase the dangling pointer; the next sweep releases p.
//! space.write_word(q, 0).unwrap();
//! let report = ms.sweep_now(&mut space);
//! assert_eq!(report.released, 1);
//! ```

mod arena;
mod backend;
mod config;
mod filter;
mod forensics;
mod layer;
mod mte;
mod pagecache;
mod quarantine;
mod shadow;
pub mod simd;
mod stats;
mod sweep;
mod telem;

pub use arena::{Arena, ArenaId, ArenaPool, RoundReport, SchedPolicy, SweepScheduler};
pub use backend::{ArenaBackend, HeapBackend};
pub use config::{ForensicsMode, MsConfig, MsConfigBuilder, SweepMode};
pub use filter::CandidateFilter;
pub use forensics::{EdgeAgg, EdgeRecorder, FailedFreeLedger, LedgerEntry};
pub use layer::{FreeOutcome, MineSweeper, SweepReport};
pub use mte::{tag_ptr, untag_ptr, MteError, MteHeap, TagTable, QUARANTINE_TAG, TAG_GRANULE};
pub use pagecache::PageCache;
pub use quarantine::{QEntry, Quarantine};
pub use shadow::{NaiveShadowMap, ShadowMap, ShadowWriter, WriterProf, MAX_SHADOWED};
pub use stats::MsStats;
pub use simd::ScanTier;
pub use sweep::{
    effective_helper_count, parallel_mark_pool, MarkAccel, MarkProfile, Marker,
    ParallelMarkStats, PoolMarkJob, PoolMarkOpts, PoolMarkResult, StepResult, SweepPlan,
    PARALLEL_CHUNK_PAGES,
};
pub use telem::{MsCounters, SweepProf, LAYER_SUBSYSTEM, SWEEP_SUBSYSTEM};

// The telemetry crate itself, re-exported so embedders can name sinks,
// snapshots and events without a separate dependency.
pub use ::telemetry;
