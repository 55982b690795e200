//! `repro profile`: the host-side profiling driver.
//!
//! Turns on the profiling spine ([`sdpm_obs::prof`]) and drives the
//! full pipeline once over one kernel, in three labeled legs:
//!
//! 1. `profile.per_event` — the seven-scheme suite through
//!    [`Session::run`] (generation, instrumentation, per-event engine),
//!    plus one CMDRPM run with the Chrome recorder attached so the
//!    exported timeline carries sim-time tracks next to the host spans.
//! 2. `profile.run_compressed` — the same suite through
//!    [`Session::run_compressed`] (generation, compression of the base
//!    and instrumented traces, O(#runs) engine).
//! 3. `profile.verify` — the static verifier over the base trace.
//!
//! Every span below the legs comes from the instrumented crates
//! themselves (`trace.gen.analytic`, `sim.simulate`, `verify.run`, ...),
//! so the tree is the ground truth of what the pipeline actually executed,
//! and the per-stage counters (`gen.events`, `compress.records_out`,
//! `sim.records`, ...) give throughput once divided by the span times.
//!
//! The collected [`Profile`] exports three ways (see the CLI): a
//! deterministic JSON document, host tracks merged into the Chrome
//! trace next to the sim-time tracks, and a terminal summary.

use crate::config_for;
use sdpm_core::{Scheme, Session};
use sdpm_obs::prof;
use sdpm_obs::{ChromeTraceRecorder, Profile};
use sdpm_workloads::Benchmark;

/// Runs the three profiling legs over `bench` and returns the collected
/// profile plus the Chrome recorder that watched the CMDRPM run (attach
/// the profile to it and write it out for the merged timeline).
///
/// The spine is enabled for the duration of the call and disabled
/// again before returning; any profiling data recorded by this process
/// beforehand is discarded so the profile covers exactly these legs.
#[must_use]
pub fn run_profile(bench: &Benchmark) -> (Profile, ChromeTraceRecorder) {
    let cfg = config_for(bench);

    prof::disable();
    let _stale = prof::take();
    prof::enable();

    let chrome = ChromeTraceRecorder::new();

    let base = {
        let _leg = prof::span("profile.per_event");
        let mut s = Session::new(&bench.program, &cfg);
        for &scheme in &Scheme::all() {
            let _ = s.run(scheme);
        }
        let _ = s.run_with_recorder(Scheme::CmDrpm, &chrome);
        s.base_trace().clone()
    };

    {
        let _leg = prof::span("profile.run_compressed");
        let mut s = Session::new(&bench.program, &cfg);
        for &scheme in &Scheme::all() {
            let _ = s.run_compressed(scheme);
        }
    }

    {
        let _leg = prof::span("profile.verify");
        let _ = sdpm_verify::verify_run(&base, &cfg.params, cfg.overhead_secs, None, None);
    }

    prof::disable();
    (prof::take(), chrome)
}
