//! Striping and disk-layout substrate.
//!
//! The paper assumes a PVFS-like parallel file system: each array lives in
//! a file striped round-robin across a set of I/O nodes (one disk per
//! node), described by the 3-tuple
//! `(starting disk, stripe factor, stripe size)` — exactly PVFS's
//! `(base, pcount, ssize)`. This crate owns that math:
//!
//! * [`striping`] — the 3-tuple itself and byte-range -> per-disk extent
//!   mapping,
//! * [`pool`] — disk identities and fixed-size disk pools,
//! * [`file`](mod@file) — striped array files with per-disk base addresses and
//!   block-granular placement,
//! * [`order`] — row-/column-major storage orders and index linearization
//!   (needed by the tiling transformation's layout conversion),
//! * [`alloc`] — the proportional disk allocator used by the Fig. 11
//!   fission algorithm ("more data an array group has, more disks it is
//!   assigned").

#![forbid(unsafe_code)]
pub mod alloc;
pub mod file;
pub mod order;
pub mod pool;
pub mod striping;

pub use alloc::allocate_proportional;
pub use file::{ArrayFile, FileExtent, BLOCK_BYTES};
pub use order::{linearize, StorageOrder};
pub use pool::{DiskId, DiskPool, DiskSet};
pub use striping::{StripeExtent, Striping};
