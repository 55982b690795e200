//! I/O traces, trace generation, and power-management directives.
//!
//! The paper's toolchain (Fig. 1) runs the compiler-instrumented program
//! once to produce a disk I/O request trace — each request a 4-tuple
//! `(arrival time ms, start block, request size, read|write)` — which then
//! drives the disk power simulator. This crate owns that interface layer:
//!
//! * [`event`] — the application event stream: `Compute` segments, blocking
//!   [`IoRequest`]s, and the explicit power-management calls
//!   (`spin_down` / `spin_up` / `set_RPM`) the compiler inserts,
//! * [`trace`] — whole traces with provenance, statistics, and the paper's
//!   nominal 4-tuple view,
//! * [`gen`] — the trace generator: executes an IR program, filters
//!   element accesses through a one-chunk-per-array buffer cache, and
//!   emits block-level striped requests; it solves for chunk-boundary
//!   crossings in closed form instead of visiting every iteration and
//!   appends each event straight to the [`Trace`] ([`generate`]),
//! * [`run`] — the run-compressed form ([`RunTrace`]), built only by
//!   [`compress`] from a [`Trace`], and its lowering,
//! * [`mix`] — per-tenant timelines and their deterministic multi-way
//!   merge onto one shared pool.
//!
//! Traces live in memory: the largest one the paper's suite builds holds
//! under 100,000 events, so every consumer takes a [`Trace`] or a
//! [`RunTrace`] whole.
//!
//! Traces are *closed-loop*: each request carries the compute time that
//! precedes it rather than a fixed wall-clock arrival, so the simulator
//! can propagate device stalls into application execution time — exactly
//! the effect behind the paper's Fig. 4 performance comparison.

// A stray `unwrap()` turns a caller's bad input into an unexplained
// panic: failures must be returned (`Trace::validate`, `Run::validate`)
// or, for caller contract violations, raised by an explicit `panic!`
// with context. Narrowing and sign-discarding casts silently corrupt
// block and iteration numbers, so each one must be spelled as an
// audited conversion or carry an allow with its range argument.
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

pub mod event;
pub mod gen;
pub mod mix;
sdpm_obs::prof_hooks!();
pub mod run;
pub mod trace;

pub use event::{AppEvent, IoRequest, PowerAction, ReqKind};
pub use gen::{generate, TraceGenConfig};
pub use mix::{
    merge_tenants, tenant_timeline, Merged, TenantCursor, TenantEvent, TenantMerge, TenantStream,
    Timed, TimedEvent,
};
pub use run::{compress, IoTemplate, REvent, Run, RunTrace, MAX_ROTATION};
pub use trace::{Trace, TraceStats};
