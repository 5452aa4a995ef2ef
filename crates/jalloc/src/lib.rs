#![warn(missing_docs)]

//! A JeMalloc-style size-class allocator over simulated virtual memory.
//!
//! MineSweeper (ASPLOS '22) is implemented "as a layer over the top of
//! JeMalloc" and leans on several allocator internals: size-class slabs,
//! extent recycling, decay-based purging of dirty pages, and the extent-hook
//! API the paper modifies so purging uses a commit/decommit pair instead of
//! `madvise` + demand paging (§4.5). This crate rebuilds those mechanisms
//! over [`vmem::AddrSpace`] so the quarantine layer and the baselines can be
//! evaluated on a realistic allocator rather than a toy free list.
//!
//! Faithfulness notes:
//!
//! * **Size classes** follow jemalloc's spacing: a linear region up to 128 B
//!   then four classes per size doubling, small up to 14 KiB, larger
//!   requests served from page-granular extents.
//! * **Extent lookup** is jemalloc's emap (its page-keyed rtree): a
//!   two-level radix map sends every page of an active extent to the
//!   extent's slot, so [`JAlloc::free`], [`JAlloc::usable_size`] and
//!   [`JAlloc::allocation_range`] find the extent holding any address in
//!   constant time, whatever the number of live extents.
//! * **Metadata is out of line** (Rust structures, not heap headers), like
//!   JeMalloc and unlike GNU malloc — the property footnote 2 of the paper
//!   relies on, and §6.6 highlights versus MarkUs.
//! * **`end()` padding**: each request is grown by 1 byte so C++
//!   one-past-the-end pointers still land inside the allocation (§3.2).
//! * **Purging** is driven by a virtual-time decay clock plus an explicit
//!   [`JAlloc::purge_all`], which MineSweeper triggers after every sweep.
//! * **Purge policy** selects between jemalloc's default
//!   (`madvise`-like: decommit, demand-zero on next touch) and the paper's
//!   commit/decommit hooks (decommit **and protect**, so sweeps skip the
//!   range instead of faulting it back in).
//!
//! # Example
//!
//! ```
//! use vmem::AddrSpace;
//! use jalloc::JAlloc;
//!
//! let mut space = AddrSpace::new();
//! let mut heap = JAlloc::new();
//! let a = heap.malloc(&mut space, 100);
//! assert!(heap.usable_size(a).unwrap() >= 101); // +1 end() byte
//! space.write_word(a, 42).unwrap();
//! heap.free(&mut space, a).unwrap();
//! ```

mod alloc;
mod classes;
mod config;
mod emap;
mod error;
mod extent;
mod stats;
mod tcache;

pub use alloc::JAlloc;
pub use classes::{SizeClasses, SMALL_MAX};
pub use config::{JallocConfig, PurgePolicy};
pub use error::FreeError;
pub use stats::AllocStats;
