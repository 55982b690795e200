//! `repro bench`: the streaming-vs-materialized timing harness.
//!
//! Runs the same scheme suite through the two trace data paths —
//! generate-then-materialize ([`sdpm_sim::simulate`] on a [`Trace`]) and
//! lazy streaming ([`sdpm_sim::simulate_source`] over a
//! [`sdpm_trace::GenSource`]) — and reports suite wall time and peak RSS
//! per path, as the machine-readable `BENCH_streaming.json` record that
//! tracks the perf trajectory in CI.
//!
//! Peak memory per phase comes from the counting allocator's heap
//! watermark ([`sdpm_obs::prof::heap_mark`], installed by this crate's
//! `alloc-profile` feature): the watermark is reset before each phase,
//! so every phase reads its *own* peak instead of inheriting an earlier
//! phase's maximum. Without the allocator the harness falls back to
//! `/proc/self/status` `VmHWM` — a process-lifetime high-water mark
//! whose readings after the first phase are stale upper bounds.

use crate::config_for;
use sdpm_core::PipelineConfig;
use sdpm_layout::DiskPool;
use sdpm_sim::{simulate, simulate_source, Policy, SimReport};
use sdpm_trace::{generate, GenSource, Trace};
use sdpm_workloads::Benchmark;
use std::time::Instant;

/// Policies the harness times: the single-pass schemes, whose cost is
/// dominated by trace generation + simulation. (Oracle policies replay
/// the stream twice and CM schemes instrument a materialized trace, so
/// neither isolates the data-path difference.)
fn timed_policies(cfg: &PipelineConfig) -> Vec<(&'static str, Policy)> {
    vec![
        ("Base", Policy::Base),
        ("TPM", Policy::Tpm(cfg.tpm)),
        ("DRPM", Policy::Drpm(cfg.drpm)),
    ]
}

/// One data path's measured suite cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PathCost {
    pub wall_secs: f64,
    /// Peak heap (counting allocator) or peak RSS (`VmHWM` fallback)
    /// over the phase, KiB; 0 when neither source is available.
    pub peak_kib: u64,
}

/// The full harness record, one benchmark per run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBench {
    pub bench: &'static str,
    pub schemes: Vec<&'static str>,
    pub streamed: PathCost,
    pub materialized: PathCost,
    /// Every scheme's streamed report matched the materialized one
    /// bitwise.
    pub reports_identical: bool,
}

/// Runs `f` as one measured phase and returns its result with the
/// phase's peak memory in KiB. With the counting allocator installed
/// (the `alloc-profile` feature) the heap watermark is reset at phase
/// entry, so the reading covers exactly this phase; otherwise the
/// process-lifetime `VmHWM` is read after the phase (monotone, so later
/// phases inherit earlier maxima — an upper bound, not a measurement).
pub fn measure_phase_peak<T>(f: impl FnOnce() -> T) -> (T, u64) {
    #[cfg(feature = "obs")]
    {
        let mark = sdpm_obs::prof::heap_mark();
        let out = f();
        let kib = mark.peak_kib().unwrap_or_else(peak_rss_kib);
        (out, kib)
    }
    #[cfg(not(feature = "obs"))]
    {
        let out = f();
        (out, peak_rss_kib())
    }
}

/// Current `VmHWM` (peak resident set) in KiB, or 0 off-Linux.
#[must_use]
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn identical(a: &SimReport, b: &SimReport) -> bool {
    a.exec_secs.to_bits() == b.exec_secs.to_bits()
        && a.total_energy_j().to_bits() == b.total_energy_j().to_bits()
        && a == b
}

/// Suite repetitions per data path; the reported wall time is the
/// minimum, which strips scheduler and page-cache noise.
const REPS: usize = 5;

/// Times the suite over both data paths for `bench`. Repetitions are
/// interleaved across the paths so system-load drift hits every path
/// equally; within the first repetition the streamed path still runs
/// first (see the module docs for why), so its RSS reading precedes any
/// materialized allocation. The reports are cross-checked bitwise as a
/// side effect.
#[must_use]
pub fn run_stream_bench(bench: &Benchmark) -> StreamBench {
    let cfg = config_for(bench);
    let pool = DiskPool::new(cfg.disks);
    let policies = timed_policies(&cfg);

    let source = GenSource::new(&bench.program, pool, cfg.gen);
    // Untimed warm-up (page cache, allocator, lazy relocations). It must
    // not materialize anything: a trace allocation here would raise the
    // high-water mark before the streamed reading.
    let _ = simulate_source(&source, &cfg.params, pool, &Policy::Base);

    let suites: [Box<dyn Fn() -> Vec<SimReport>>; 2] = [
        Box::new(|| {
            policies
                .iter()
                .map(|(_, p)| simulate_source(&source, &cfg.params, pool, p))
                .collect()
        }),
        Box::new(|| {
            policies
                .iter()
                .map(|(_, p)| {
                    let trace: Trace = generate(&bench.program, pool, cfg.gen);
                    simulate(&trace, &cfg.params, pool, p)
                })
                .collect()
        }),
    ];

    let mut best = [f64::INFINITY; 2];
    let mut peak = [0u64; 2];
    let mut reports: [Vec<SimReport>; 2] = [Vec::new(), Vec::new()];
    for rep in 0..REPS {
        for (i, run) in suites.iter().enumerate() {
            let t0 = Instant::now();
            if rep == 0 {
                let (r, kib) = measure_phase_peak(run);
                reports[i] = r;
                peak[i] = kib;
            } else {
                reports[i] = run();
            }
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
        }
    }
    drop(suites);

    let [streamed_reports, materialized_reports] = reports;
    let cost = |i: usize| PathCost {
        wall_secs: best[i],
        peak_kib: peak[i],
    };

    let reports_identical = streamed_reports
        .iter()
        .zip(&materialized_reports)
        .all(|(s, m)| identical(s, m));

    StreamBench {
        bench: bench.name,
        schemes: policies.iter().map(|(label, _)| *label).collect(),
        streamed: cost(0),
        materialized: cost(1),
        reports_identical,
    }
}

impl StreamBench {
    /// The `BENCH_streaming.json` document (serde here is an API-only
    /// stand-in, so the JSON is assembled by hand).
    #[must_use]
    pub fn to_json(&self) -> String {
        let path = |c: &PathCost| {
            format!(
                "{{\"wall_secs\": {:.6}, \"peak_kib\": {}}}",
                c.wall_secs, c.peak_kib
            )
        };
        let schemes = self
            .schemes
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"schemes\": [{}],\n  \
             \"streamed\": {},\n  \"materialized\": {},\n  \
             \"reports_identical\": {}\n}}\n",
            self.bench,
            schemes,
            path(&self.streamed),
            path(&self.materialized),
            self.reports_identical,
        )
    }

    /// Human-readable summary table rows.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        [
            ("streamed", &self.streamed),
            ("materialized", &self.materialized),
        ]
        .iter()
        .map(|(label, c)| {
            vec![
                (*label).to_string(),
                format!("{:.3}", c.wall_secs),
                format!("{}", c.peak_kib),
            ]
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_bench_cross_checks_and_reads_rss() {
        let bench = sdpm_workloads::swim();
        let r = run_stream_bench(&bench);
        assert!(r.reports_identical, "data paths must agree bitwise");
        assert!(r.streamed.wall_secs > 0.0 && r.materialized.wall_secs > 0.0);
        if cfg!(target_os = "linux") {
            // Either source (per-phase heap watermark or VmHWM fallback)
            // reads a positive peak for a suite that simulates anything.
            assert!(r.streamed.peak_kib > 0);
            assert!(r.materialized.peak_kib > 0);
        }
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"171.swim\""));
        assert!(json.contains("\"reports_identical\": true"));
    }
}
