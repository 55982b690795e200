//! Experiment harness: regenerates every table and figure of the paper.
//!
//! See `src/bin/repro.rs` for the command-line entry point. How fast the
//! reproduction runs is measured by the standalone `benchmark/` package
//! at the repository root, not by this crate.

#![forbid(unsafe_code)]
pub mod ablations;
pub mod experiments;
pub mod faultsim;
pub mod format;
pub mod lint;
pub mod mixbench;
#[cfg(feature = "obs")]
pub mod profile;
pub mod prove;

pub use experiments::*;

/// The counting global allocator from `sdpm-obs`, installed for every
/// binary and test in this crate so `repro profile`'s spans report
/// allocation totals and heap peaks.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static COUNTING_ALLOC: sdpm_obs::prof::CountingAlloc = sdpm_obs::prof::CountingAlloc;
