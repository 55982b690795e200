//! `sdpm-verify` — static directive-safety and transform-legality
//! checking with rustc-style diagnostics.
//!
//! The pipeline in `sdpm-core` *produces* instrumented traces and
//! transformed programs; this crate independently *checks* them. It
//! re-derives the disk power state a directive stream commands
//! ([`verify_directives`]), replays directive semantics against the
//! power-state machine to cross-check simulator reports
//! ([`crosscheck_report`]), and re-proves transform legality from the
//! dependence and conformance analyses ([`check_fission`],
//! [`check_tiling`]). Findings come back as [`Diagnostic`]s with stable
//! `SDPM-Exxx` codes, spans into the trace or program, and fix hints —
//! renderable for humans ([`render_human_all`]) or as JSON lines
//! ([`render_json_all`]), and surfaced on the command line as
//! `repro lint`.
//!
//! # Linting a pipeline run
//!
//! ```
//! use sdpm_core::{run_scheme_with_artifacts, PipelineConfig, Scheme};
//! use sdpm_verify::{verify_run, PlanRef};
//!
//! let program = sdpm_workloads::swim().program;
//! let cfg = PipelineConfig::default();
//! let art = run_scheme_with_artifacts(&program, Scheme::CmTpm, &cfg);
//! let plan = art.insertion.as_ref().map(PlanRef::of);
//! let diags = verify_run(
//!     &art.trace,
//!     &cfg.params,
//!     cfg.overhead_secs,
//!     plan,
//!     Some(&art.report),
//! );
//! assert!(!sdpm_verify::has_errors(&diags));
//! ```

#![forbid(unsafe_code)]
pub mod diag;
pub mod directive;
pub mod legality;
pub mod mix;
sdpm_obs::prof_hooks!();
pub mod replay;
pub mod symbolic;

pub use diag::{
    has_errors, render_human, render_human_all, render_json, render_json_all, tally, Code,
    Diagnostic, Label, Severity, Span,
};
pub use directive::{verify_directives, PlanRef, EPS_SECS};
pub use legality::{check_fission, check_tiling};
pub use mix::{verify_mix, verify_mix_session};
pub use replay::{crosscheck_report, replay_directives, ReplayDisk, ReplayReport};
pub use symbolic::{prove_all_schemes, prove_scheme, PlacementPolicy, ProverConfig, Verdict};

use sdpm_disk::DiskParams;
use sdpm_sim::SimReport;
use sdpm_trace::Trace;

/// One-call verification of a pipeline run: directive safety always,
/// plus the replay cross-check when the simulator's report is supplied.
///
/// Only pass `report` for directive-driven runs (the Base and
/// compiler-managed schemes) — reactive and oracle policies act on their
/// own clocks, so a replay from the trace alone cannot reproduce them.
#[must_use]
pub fn verify_run(
    trace: &Trace,
    params: &DiskParams,
    overhead_secs: f64,
    plan: Option<PlanRef<'_>>,
    report: Option<&SimReport>,
) -> Vec<Diagnostic> {
    let _sp = crate::prof::span("verify.run");
    let mut diags = verify_directives(trace, params, overhead_secs, plan);
    if let Some(r) = report {
        diags.extend(crosscheck_report(trace, params, overhead_secs, r));
    }
    diags
}
