#![warn(missing_docs)]

//! Simulated paged virtual memory for the MineSweeper reproduction.
//!
//! The MineSweeper paper ([Erdős, Ainsworth & Jones, ASPLOS '22]) operates on
//! the raw virtual memory of a protected process: it sweeps every mapped word
//! looking for pointers, decommits the physical pages behind large
//! quarantined allocations, `mprotect`s them against stray writes, and uses
//! Linux *soft-dirty* page tracking for its mostly-concurrent mode. This
//! crate provides a faithful, fully deterministic model of that substrate so
//! the rest of the workspace can exercise the exact same code paths in safe
//! Rust.
//!
//! # Model
//!
//! * A 64-bit, word-granular (8-byte) address space divided into 4 KiB pages.
//! * Pages are **mapped** (the virtual range is reserved) and independently
//!   **committed** (physical backing exists and counts towards RSS).
//! * Reading a mapped-but-uncommitted page *demand-commits* it and returns
//!   zeroes, exactly like demand paging after `madvise(MADV_DONTNEED)` — this
//!   is the behaviour §4.5 of the paper works around with commit/decommit
//!   extent hooks.
//! * Pages carry a [`Protection`]; accessing a [`Protection::None`] page is a
//!   memory-protection violation ([`MemError::Protected`]), the "clean
//!   termination" the paper turns use-after-free bugs into.
//! * Every write sets the page's *soft-dirty* bit ([`AddrSpace::write_word`]),
//!   which the mostly-concurrent sweep clears and re-reads, mirroring
//!   `/proc/pid/clear_refs` + pagemap.
//! * A page the sweep has read ([`AddrSpace::scan_heap_words`]) carries a
//!   [`HeapMap`] of the words that hold heap addresses, kept exact by every
//!   later write, zero-fill and decommit, so the next read visits only
//!   those words. Pages no sweep reads carry none.
//! * Every access through a page's words ([`AddrSpace::read_word`],
//!   [`AddrSpace::write_word`], [`AddrSpace::fill_zero`],
//!   [`AddrSpace::scan_heap_words`], [`AddrSpace::touch_page`]) walks the
//!   page table once: the protection and alias checks, a demand commit
//!   and the update of the word, its heap-word bit and the soft-dirty bit
//!   all act on the page slot that walk reaches. Only an alias looks up
//!   its frame as well.
//!
//! # Example
//!
//! ```
//! use vmem::{AddrSpace, Addr, PAGE_SIZE};
//!
//! # fn main() -> Result<(), vmem::MemError> {
//! let mut space = AddrSpace::new();
//! let base = space.reserve_heap(4); // 4 pages of fresh heap VA
//! space.map(base, 4)?;
//! space.write_word(base, 0xdead_beef)?;
//! assert_eq!(space.read_word(base)?, 0xdead_beef);
//! assert_eq!(space.rss_bytes(), PAGE_SIZE as u64); // only the touched page
//! # Ok(())
//! # }
//! ```
//!
//! [Erdős, Ainsworth & Jones, ASPLOS '22]: https://doi.org/10.1145/3503222.3507712

mod addr;
mod error;
mod layout;
mod page;
mod space;
mod stats;
mod table;

pub use addr::{Addr, PageIdx, PageRange, GRANULE_SIZE, PAGE_SIZE, WORD_SIZE};
pub use error::MemError;
pub use layout::{Layout, Segment};
pub use page::{HeapMap, Protection};
pub use space::AddrSpace;
pub use stats::MemStats;
