//! One run of one workload: repeated set-up, an untimed warm-up pass
//! whose outputs become the canonical ones, timed passes, the checks,
//! and the metrics.

use crate::check::Expected;
use crate::inputs::job_order;
use crate::metrics::{end_to_end, per_layer, Metric, FAILED_FRAC};
use crate::spans::{layer_totals, LayerTotals, Span, Tracer, JOB};
use crate::stats::{median, percentile};
use crate::workload::{
    cm_mode, output_violations, reference_output, run_job, set_up, Inputs, Output, Probe, State,
    Workload,
};
use sdpm_core::{PipelineConfig, Scheme, Session};
use sdpm_sim::{DirectiveConfig, Policy, SimError};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up runs at least this many times before the passes.
const MIN_SETUPS: usize = 3;
/// A set-up shorter than this share of a pass also runs once after
/// every timed pass, so its median, like the passes', spans the whole
/// run rather than one moment of host speed.
const CHEAP_SETUP_SHARE: f64 = 0.01;
/// An untraced run times at least this many jobs, so `job_s.p90` has
/// ten samples beyond it.
const MIN_JOB_SAMPLES: usize = 101;
/// A traced run alternates at least this many traced and untraced passes.
const MIN_TRACE_PASSES: usize = 3;
/// Passes stop after this multiple of `--seconds` even short of the
/// minimum sample count, so a much slower change still finishes.
const MAX_OVERRUN: f64 = 4.0;
/// Alternating repetitions per cell of the session-overhead probe.
const PROBE_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Trace alternate passes and report the per-layer metrics instead
    /// of the end-to-end ones.
    pub trace: bool,
}

#[derive(Debug)]
pub struct Outcome {
    /// The metrics of the result line, in table order.
    pub metrics: Vec<(Metric, f64)>,
    /// Further printed figures: sample counts and `failed_frac`.
    pub info: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Where the traced run wrote its spans.
    pub spans_file: Option<String>,
}

/// Per-job attempt and failure counts.
struct Tally {
    attempts: Vec<u64>,
    mismatches: Vec<u64>,
    /// A job whose canonical output failed a check: every attempt of it
    /// counts as failed.
    bad: Vec<bool>,
}

impl Tally {
    fn attempted(&self) -> u64 {
        self.attempts.iter().sum()
    }

    fn failed(&self) -> u64 {
        (0..self.attempts.len())
            .map(|j| {
                if self.bad[j] {
                    self.attempts[j]
                } else {
                    self.mismatches[j]
                }
            })
            .sum()
    }
}

/// Runs `f`, turning a panic or a simulator error into a message.
fn guarded(f: impl FnOnce() -> Result<Output, SimError>) -> Result<Output, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(out) => out.map_err(|e| e.to_string()),
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_else(|| "panic".to_string())),
    }
}

/// One timed set-up whose inputs live for the rest of the process, as
/// the kept sessions borrow them.
fn kept_set_up(w: Workload, seed: u64, times: &mut Vec<f64>) -> (&'static Inputs, State<'static>) {
    let t = Instant::now();
    let inputs: &'static Inputs = Box::leak(Box::new(Inputs::new(w, seed)));
    let state = set_up(w, inputs);
    times.push(t.elapsed().as_secs_f64());
    (inputs, state)
}

/// The time of one set-up whose state is then dropped.
fn discarded_set_up(w: Workload, seed: u64) -> f64 {
    let t = Instant::now();
    let inputs = Inputs::new(w, seed);
    let _state = set_up(w, &inputs);
    t.elapsed().as_secs_f64()
}

#[must_use]
pub fn run(o: &Options) -> Outcome {
    let w = o.workload;
    let mut setup_s = Vec::new();
    let (inputs, mut state) = kept_set_up(w, o.seed, &mut setup_s);
    // Frontier cells are checked against sessions from a second,
    // independent set-up.
    let mut reference =
        (w == Workload::MixFrontier).then(|| kept_set_up(w, o.seed, &mut setup_s).1);
    while setup_s.len() < MIN_SETUPS {
        setup_s.push(discarded_set_up(w, o.seed));
    }

    let n = inputs.jobs(w);
    let mut tally = Tally {
        attempts: vec![0; n],
        mismatches: vec![0; n],
        bad: vec![false; n],
    };
    let flag = |tally: &mut Tally, job: usize, why: &str| {
        eprintln!(
            "{} job {job} ({}): {why}",
            w.name(),
            inputs.job_label(w, job)
        );
        tally.bad[job] = true;
    };
    let expected = if o.seed == 0 {
        Expected::seed0()
            .map_err(|e| (0..n).for_each(|j| flag(&mut tally, j, &e)))
            .ok()
    } else {
        None
    };

    // Warm-up pass: caches fill, and its outputs are the canonical ones
    // every later attempt of the same job must equal bit for bit.
    let mut canonical: Vec<Option<Output>> = vec![None; n];
    for job in job_order(o.seed, 0, n) {
        match guarded(|| run_job(w, inputs, &mut state, job, &mut Probe::new(None, 0))) {
            Ok(out) => {
                for v in output_violations(inputs, job, &out, expected.as_ref()) {
                    flag(&mut tally, job, &v);
                }
                canonical[job] = Some(out);
            }
            Err(e) => flag(&mut tally, job, &e),
        }
    }

    let mut tracer = Tracer::default();
    let (mut plain_pass_s, mut traced_pass_s) = (Vec::new(), Vec::new());
    let mut job_s = Vec::new();
    let started = Instant::now();
    let mut seq = 0;
    for pass in 1.. {
        let traced = o.trace && pass % 2 == 0;
        let mut pass_s = 0.0;
        for job in job_order(o.seed, pass, n) {
            let label = inputs.job_label(w, job);
            let t = Instant::now();
            let out = guarded(|| {
                let mut p = Probe::new(traced.then_some(&mut tracer), seq);
                let id = p.enter(JOB, label);
                let out = run_job(w, inputs, &mut state, job, &mut p);
                p.exit(id);
                out
            });
            let dt = t.elapsed().as_secs_f64();
            tracer.close_all();
            pass_s += dt;
            if !traced {
                job_s.push(dt);
            }
            tally.attempts[job] += 1;
            let same = matches!((&out, &canonical[job]), (Ok(a), Some(b)) if a.same(b));
            if !same {
                tally.mismatches[job] += 1;
            }
            seq += 1;
        }
        if traced {
            traced_pass_s.push(pass_s);
        } else {
            plain_pass_s.push(pass_s);
        }
        if median(&setup_s).is_some_and(|s| s < CHEAP_SETUP_SHARE * pass_s) {
            setup_s.push(discarded_set_up(w, o.seed));
        }
        let elapsed = started.elapsed().as_secs_f64();
        let enough = if o.trace {
            plain_pass_s.len().min(traced_pass_s.len()) >= MIN_TRACE_PASSES
        } else {
            job_s.len() >= MIN_JOB_SAMPLES
        };
        if (elapsed >= o.seconds && enough) || elapsed >= MAX_OVERRUN * o.seconds.max(1.0) {
            break;
        }
    }

    // Each job's canonical output against a different path.
    for (job, want) in canonical.iter().enumerate() {
        let Some(want) = want else { continue };
        match guarded(|| reference_output(w, inputs, reference.as_mut(), job)) {
            Ok(got) if got.same(want) => {}
            Ok(_) => flag(&mut tally, job, "differs from its reference path"),
            Err(e) => flag(&mut tally, job, &format!("reference path failed: {e}")),
        }
    }

    let attempted = tally.attempted();
    let failed = tally.failed();
    let mut info = vec![(FAILED_FRAC, failed as f64 / attempted as f64, "frac")];
    let mut values = BTreeMap::new();
    let table = if o.trace {
        let overhead =
            median(&traced_pass_s).unwrap_or(0.0) / median(&plain_pass_s).unwrap_or(1.0) - 1.0;
        values = layer_values(w, &tracer, traced_pass_s.len());
        values.insert("tracing_overhead_frac".to_string(), overhead);
        if let State::Warm(sessions) = &mut state {
            values.insert(
                "core.session.overhead_frac".to_string(),
                session_overhead(inputs, sessions),
            );
        }
        info.push((
            "passes",
            (plain_pass_s.len() + traced_pass_s.len()) as f64,
            "count",
        ));
        per_layer()
    } else {
        let pass = median(&plain_pass_s).expect("at least one timed pass");
        values.insert("jobs_per_s".to_string(), n as f64 / pass);
        values.insert(
            "job_s.p50".to_string(),
            percentile(&job_s, 50).unwrap_or(0.0),
        );
        values.insert(
            "job_s.p90".to_string(),
            percentile(&job_s, 90).unwrap_or(0.0),
        );
        values.insert(
            "setup_s".to_string(),
            median(&setup_s).expect("set up at least once"),
        );
        values.insert("peak_rss_mib".to_string(), peak_rss_mib());
        info.push(("job_s.n", job_s.len() as f64, "count"));
        info.push(("setup.n", setup_s.len() as f64, "count"));
        end_to_end()
    };
    let spans_file = o.trace.then(|| write_spans(w, o.seed, &tracer));
    Outcome {
        metrics: table
            .into_iter()
            .map(|m| {
                let v = values.get(&m.name).copied().unwrap_or(0.0);
                (m, v)
            })
            .collect(),
        info,
        attempted,
        failed,
        spans_file,
    }
}

/// Per-layer figures from the traced passes' spans. Busy time, calls
/// and counts are per pass; `share` is a layer's self time over the
/// summed job time.
fn layer_values(w: Workload, tracer: &Tracer, passes: usize) -> BTreeMap<String, f64> {
    let passes = passes.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_pass = |x: u64| x as f64 / passes;
    let job_ns: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == JOB)
        .map(Span::dur_ns)
        .sum();
    let mut v = BTreeMap::new();
    let mut layers: BTreeMap<&str, LayerTotals> = BTreeMap::new();
    for ((name, label), t) in layer_totals(&tracer.spans) {
        if name == "sim.engine" {
            v.insert(
                format!("sim.engine.busy_s.{label}"),
                per_pass(t.self_ns) / 1e9,
            );
        }
        let l = layers.entry(name).or_default();
        l.calls += t.calls;
        l.self_ns += t.self_ns;
        l.counts += t.counts;
    }
    for (name, t) in layers {
        let c = t.counts;
        v.insert(format!("{name}.busy_s"), per_pass(t.self_ns) / 1e9);
        v.insert(format!("{name}.share"), ratio(t.self_ns, job_ns));
        v.insert(format!("{name}.calls"), per_pass(t.calls));
        v.insert(format!("{name}.events"), per_pass(c.events));
        v.insert(format!("{name}.records"), per_pass(c.records));
        v.insert(format!("{name}.directives"), per_pass(c.directives));
        v.insert(format!("{name}.requests"), per_pass(c.requests));
        v.insert(format!("{name}.ns_per_event"), ratio(t.self_ns, c.events));
        v.insert(format!("{name}.ns_per_record"), ratio(t.self_ns, c.records));
        v.insert(
            format!("{name}.ns_per_request"),
            ratio(t.self_ns, c.requests),
        );
        v.insert(
            format!("{name}.events_per_record"),
            ratio(c.events, c.records),
        );
    }
    if let Some(&t) = v.get("core.scenario.timeline.busy_s") {
        v.insert("core.scenario.timeline_s".to_string(), t);
    }
    let mut per_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in tracer.spans.iter().filter(|s| s.name == JOB) {
        per_label
            .entry(s.label)
            .or_default()
            .push(s.dur_ns() as f64 / 1e9);
    }
    let prefix = if w.runs_kernels() { "kernel" } else { "mix" };
    for (label, xs) in per_label {
        v.insert(
            format!("{prefix}.{label}.job_s"),
            median(&xs).unwrap_or(0.0),
        );
    }
    v
}

/// The policy `Session` runs `scheme` under.
fn policy_of(cfg: &PipelineConfig, scheme: Scheme) -> Policy {
    match scheme {
        Scheme::Base => Policy::Base,
        Scheme::Tpm => Policy::Tpm(cfg.tpm),
        Scheme::ITpm => Policy::IdealTpm,
        Scheme::Drpm => Policy::Drpm(cfg.drpm),
        Scheme::IDrpm => Policy::IdealDrpm,
        Scheme::CmTpm | Scheme::CmDrpm => Policy::Directive(DirectiveConfig {
            overhead_secs: cfg.overhead_secs,
        }),
    }
}

/// The facade tax: `Session::run` time over a direct
/// `sdpm_sim::simulate_source` on the same cached trace, minus 1,
/// summed over every kernel and scheme. Runs outside the job spans.
fn session_overhead(inputs: &Inputs, sessions: &mut [Session<'_>]) -> f64 {
    let (mut via_session, mut direct) = (0.0, 0.0);
    for (k, s) in inputs.kernels.iter().zip(sessions) {
        let pool = s.pool();
        for scheme in Scheme::all() {
            let policy = policy_of(&k.cfg, scheme);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for _ in 0..PROBE_REPS {
                let t = Instant::now();
                let trace = match cm_mode(scheme) {
                    Some(m) => &s.instrumented(m).trace,
                    None => s.base_trace(),
                };
                black_box(sdpm_sim::simulate_source(
                    trace,
                    &k.cfg.params,
                    pool,
                    &policy,
                ));
                b.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                black_box(s.run(scheme));
                a.push(t.elapsed().as_secs_f64());
            }
            via_session += median(&a).unwrap_or(0.0);
            direct += median(&b).unwrap_or(0.0);
        }
    }
    via_session / direct - 1.0
}

/// VmHWM of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Writes the spans under the benchmark's `out/` directory and returns
/// the path (or the error).
fn write_spans(w: Workload, seed: u64, tracer: &Tracer) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{seed}.json", w.name());
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(w.name(), seed)))
        .map_or_else(|e| format!("(not written: {e})"), |()| path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::self_times;

    /// A traced job's layer spans plus the job's unattributed self time
    /// account for the job span's duration within 2%.
    #[test]
    fn traced_jobs_reconcile_with_their_layers() {
        for w in [Workload::SuiteRuns, Workload::SimWarm] {
            let inputs = Inputs::new(w, 3);
            let mut state = set_up(w, &inputs);
            let job = inputs
                .kernels
                .iter()
                .position(|k| k.short() == "swim")
                .unwrap();
            let mut tracer = Tracer::default();
            let mut p = Probe::new(Some(&mut tracer), 0);
            let id = p.enter(JOB, "swim");
            let out = run_job(w, &inputs, &mut state, job, &mut p).unwrap();
            p.exit(id);
            let selfs = self_times(&tracer.spans);
            let children: u64 = tracer
                .spans
                .iter()
                .filter(|s| s.parent == id)
                .map(Span::dur_ns)
                .sum();
            let job_ns = tracer.spans[id.unwrap()].dur_ns() as f64;
            let accounted = (children + selfs[id.unwrap()]) as f64;
            assert!(
                (accounted - job_ns).abs() <= 0.02 * job_ns,
                "{}: {accounted} vs {job_ns}",
                w.name()
            );
            assert!(
                tracer.spans.len() > 7,
                "{}: every layer call has a span",
                w.name()
            );
            // The traced decomposition computes the untraced results.
            let plain = run_job(
                w,
                &inputs,
                &mut set_up(w, &inputs),
                job,
                &mut Probe::new(None, 0),
            )
            .unwrap();
            assert!(out.same(&plain));
        }
    }
}
