//! Trace-driven multi-disk power simulator.
//!
//! The simulator plays an application trace ([`sdpm_trace::Trace`], or its
//! run-compressed form [`sdpm_trace::RunTrace`]) against a bank of modeled
//! disks and reports execution time and a per-disk energy breakdown. It
//! is *closed-loop*: the application blocks on each I/O request, so any
//! extra device latency — low-RPM service, an in-flight speed shift, a
//! spin-up from standby — lengthens execution time, which is how the
//! paper's Fig. 4 penalties arise.
//!
//! Two engines share the disk model, one per arrival kind:
//!
//! * [`Engine`] — the closed loop above, and the crate's one fallible
//!   entry point for it: `Engine::new(params, pool, policy)`, optional
//!   [`Engine::faults`] and (with the `obs` feature) `Engine::recorder`,
//!   then [`Engine::events`] for a per-event [`Trace`] or [`Engine::runs`]
//!   for a run-compressed [`sdpm_trace::RunTrace`]. [`simulate`] and
//!   [`simulate_source`] are the panicking shorthands.
//! * [`simulate_mix`] — the open loop: requests from one or more tenants
//!   arrive at fixed times on a shared pool, so delays show up as
//!   response time and queueing instead. One tenant under
//!   [`MixPolicy::Base`] is the classic DiskSim-style trace replay.
//!   [`simulate_mix_merged`] runs the same engine on the lazy merge of
//!   the tenants' traces instead of a merged vector.
//!
//! Seven schemes from Section 4.2 are covered by five policy kinds:
//!
//! | paper scheme | here |
//! |---|---|
//! | Base          | [`Policy::Base`] |
//! | TPM           | [`Policy::Tpm`] (fixed idleness threshold) |
//! | ITPM          | [`Policy::IdealTpm`] (oracle schedule over the Base gaps) |
//! | DRPM          | [`Policy::Drpm`] (reactive window heuristic of \[10\]) |
//! | IDRPM         | [`Policy::IdealDrpm`] (oracle schedule over the Base gaps) |
//! | CMTPM, CMDRPM | [`Policy::Directive`] (executes compiler-inserted calls carried by the trace) |
//!
//! The oracle policies replay a provably-feasible action schedule
//! ([`oracle`]) built from the true per-disk idle gaps of a clean Base
//! run. An [`Engine`] built with an oracle policy runs that Base pass
//! itself before the replay; `sdpm_core::Session` keeps the Base report
//! of its first clean Base pass and the schedules built from it, each
//! built once per session, so a seven-scheme suite plays the trace seven
//! times. Every session run still plays its own measured pass.
//!
//! # Example
//!
//! ```
//! use sdpm_disk::ultrastar36z15;
//! use sdpm_layout::{DiskId, DiskPool};
//! use sdpm_sim::{simulate, Policy};
//! use sdpm_trace::{AppEvent, IoRequest, ReqKind, Trace};
//!
//! // One request, 30 s of compute, another request: a classic idle gap.
//! let io = |iter| AppEvent::Io(IoRequest {
//!     disk: DiskId(0), start_block: iter * 128, size_bytes: 65536,
//!     kind: ReqKind::Read, sequential: false, nest: 0, iter,
//! });
//! let trace = Trace {
//!     name: "demo".into(),
//!     pool_size: 2,
//!     events: vec![
//!         io(0),
//!         AppEvent::Compute { nest: 0, first_iter: 1, iters: 1, secs: 30.0 },
//!         io(2),
//!     ],
//! };
//! let pool = DiskPool::new(2);
//! let base = simulate(&trace, &ultrastar36z15(), pool, &Policy::Base);
//! let ideal = simulate(&trace, &ultrastar36z15(), pool, &Policy::IdealDrpm);
//! assert!(ideal.total_energy_j() < base.total_energy_j());
//! assert_eq!(ideal.exec_secs, base.exec_secs); // pre-activation hides the shifts
//! ```

// The engine replays untrusted traces; a stray `unwrap()` on decoded
// input is a denial-of-service. Failures must flow through `SimError`
// (or, for the panicking shorthands, an explicit `panic!`).
// Narrowing and sign-discarding casts silently corrupt replayed values,
// so each one must be spelled as an audited conversion or carry an
// allow with its range argument.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod mix;
pub mod oracle;
pub mod policy;
sdpm_obs::prof_hooks!();
pub mod report;

pub use engine::Engine;
pub use error::SimError;
pub use mix::{
    simulate_mix, simulate_mix_merged, MixPolicy, MixReport, OpenDiskReport, TenantMixReport,
};
pub use policy::{AdaptiveConfig, DirectiveConfig, DrpmConfig, Policy, ScheduledAction, TpmConfig};
pub use report::{GapRecord, MisfireCause, MisfireCauses, PerDiskReport, SimPath, SimReport};

use sdpm_disk::DiskParams;
use sdpm_layout::DiskPool;
use sdpm_trace::Trace;

/// Simulates `trace` on `pool.count()` disks of model `params` under
/// `policy`: [`simulate_source`] after validating the trace.
///
/// # Panics
/// If `params` fails validation, the trace fails validation, or the trace
/// was generated for a different pool size.
#[must_use]
pub fn simulate(trace: &Trace, params: &DiskParams, pool: DiskPool, policy: &Policy) -> SimReport {
    if let Err(e) = trace.validate() {
        panic!("{}", SimError::InvalidTrace(e));
    }
    simulate_source(trace, params, pool, policy)
}

/// Panicking shorthand for [`Engine::events`] with no faults and no
/// recorder: simulates `trace` under `policy` without validating it first.
///
/// # Panics
/// On any [`SimError`]: invalid `params`, a pool size that does not match
/// the trace's, or malformed events.
#[must_use]
pub fn simulate_source(
    trace: &Trace,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> SimReport {
    match Engine::new(params.clone(), pool, policy.clone()).events(trace) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}
