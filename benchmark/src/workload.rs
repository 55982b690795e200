//! The four workloads: their set-up, their jobs, and the independent
//! reference path each job's output is checked against.
//!
//! A *job* is one unit of user work; a *pass* runs every job of a
//! workload once. Traced jobs make the same calls as untraced ones,
//! split per layer through the caching `Session` so that each layer
//! gets its own span.

use crate::check::{cell_key, paper_rules, report_key, same_cell, same_reports, Entry, Expected};
use crate::inputs::{self, policies, Kernel, MixDef, LOADS};
use crate::spans::{Counts, Tracer};
use sdpm_core::{CmMode, MixSession, Scheme, Session};
use sdpm_layout::DiskPool;
use sdpm_sim::{simulate_mix, MixPolicy, MixReport, SimError, SimReport};
use sdpm_trace::merge_tenants;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fresh `Session` runs all seven schemes on one kernel through
    /// the per-event path: the walk generator dominates.
    SuiteWalk,
    /// The same jobs through the run-compressed fast path.
    SuiteRuns,
    /// All seven schemes on a session whose traces were cached during
    /// set-up: the closed-loop per-event engine dominates.
    SimWarm,
    /// One cell of the contention frontier (mix × load × pool policy)
    /// on warmed mix sessions: the open-loop shared-pool engine.
    MixFrontier,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SuiteWalk,
        Workload::SuiteRuns,
        Workload::SimWarm,
        Workload::MixFrontier,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteWalk => "suite-walk",
            Workload::SuiteRuns => "suite-runs",
            Workload::SimWarm => "sim-warm",
            Workload::MixFrontier => "mix-frontier",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's jobs are kernels (the rest are frontier
    /// cells).
    #[must_use]
    pub fn runs_kernels(self) -> bool {
        self != Workload::MixFrontier
    }
}

/// Everything a workload's jobs read, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub kernels: Vec<Kernel>,
    pub mixes: Vec<MixDef>,
    pub policies: [MixPolicy; 4],
}

impl Inputs {
    #[must_use]
    pub fn new(w: Workload, seed: u64) -> Self {
        let kernels = inputs::kernels(seed);
        let mixes = if w.runs_kernels() {
            Vec::new()
        } else {
            inputs::mixes(seed, &kernels)
        };
        Inputs {
            kernels,
            mixes,
            policies: policies(),
        }
    }

    /// Jobs per pass.
    #[must_use]
    pub fn jobs(&self, w: Workload) -> usize {
        if w.runs_kernels() {
            self.kernels.len()
        } else {
            self.mixes.len() * LOADS.len() * self.policies.len()
        }
    }

    /// `(mix, session index, policy)` of frontier cell `job`.
    fn cell(&self, job: usize) -> (&MixDef, usize, &MixPolicy) {
        let session = job / self.policies.len();
        (
            &self.mixes[session / LOADS.len()],
            session,
            &self.policies[job % self.policies.len()],
        )
    }

    /// The kernel or mix a job runs, for its span and per-name metrics.
    #[must_use]
    pub fn job_label(&self, w: Workload, job: usize) -> &'static str {
        if w.runs_kernels() {
            self.kernels[job].short()
        } else {
            self.cell(job).0.name
        }
    }
}

/// The warm state the timed jobs reuse.
#[derive(Debug)]
pub enum State<'a> {
    /// Every job opens its own session.
    Fresh,
    /// One session per kernel, traces cached.
    Warm(Vec<Session<'a>>),
    /// One session per (mix, load), traces cached.
    Mix(Vec<MixSession<'a>>),
}

/// The workload's set-up over `inputs`: timed as `setup_s`, never as
/// part of a job.
#[must_use]
pub fn set_up(w: Workload, inputs: &Inputs) -> State<'_> {
    match w {
        Workload::SuiteWalk | Workload::SuiteRuns => State::Fresh,
        Workload::SimWarm => State::Warm(
            inputs
                .kernels
                .iter()
                .map(|k| {
                    let mut s = Session::new(&k.program, &k.cfg);
                    let _ = s.base_trace();
                    let _ = s.instrumented(CmMode::Tpm);
                    let _ = s.instrumented(CmMode::Drpm);
                    s
                })
                .collect(),
        ),
        Workload::MixFrontier => State::Mix(
            inputs
                .mixes
                .iter()
                .flat_map(|m| LOADS.iter().map(move |&load| m.session(load)))
                .map(|mut s| {
                    let _ = s.tenant_streams();
                    s
                })
                .collect(),
        ),
    }
}

/// What one job produces.
#[derive(Debug, Clone)]
pub enum Output {
    /// One kernel's seven reports, in [`Scheme::all`] order.
    Reports(Vec<SimReport>),
    /// One frontier cell.
    Cell(Box<MixReport>),
}

impl Output {
    /// Bit-for-bit equality of results.
    #[must_use]
    pub fn same(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Reports(a), Output::Reports(b)) => same_reports(a, b),
            (Output::Cell(a), Output::Cell(b)) => same_cell(a, b),
            _ => false,
        }
    }

    /// The output as expected-file entries.
    #[must_use]
    pub fn entries(&self, inputs: &Inputs, job: usize) -> Vec<Entry> {
        match self {
            Output::Reports(reports) => Scheme::all()
                .iter()
                .zip(reports)
                .map(|(&s, r)| Entry::of_report(report_key(inputs.kernels[job].name, s), r))
                .collect(),
            Output::Cell(r) => {
                let (mix, session, policy) = inputs.cell(job);
                let key = cell_key(mix.name, LOADS[session % LOADS.len()], policy.label());
                vec![Entry::of_cell(key, r)]
            }
        }
    }
}

/// Span recording for one job; every method is a no-op when the job
/// runs untraced.
pub struct Probe<'t> {
    tracer: Option<&'t mut Tracer>,
    job: u64,
    last: Option<usize>,
}

impl<'t> Probe<'t> {
    #[must_use]
    pub fn new(tracer: Option<&'t mut Tracer>, job: u64) -> Self {
        Probe {
            tracer,
            job,
            last: None,
        }
    }

    #[must_use]
    pub fn on(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn enter(&mut self, name: &'static str, label: &'static str) -> Option<usize> {
        let job = self.job;
        self.tracer
            .as_deref_mut()
            .map(|t| t.enter(name, label, job))
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer.as_deref_mut(), id) {
            t.exit(id);
            self.last = Some(id);
        }
    }

    /// Runs `f` inside a span.
    pub fn layer<T>(
        &mut self,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, label);
        let out = f();
        self.exit(id);
        out
    }

    /// Attaches work counts to the span that closed last.
    pub fn count(&mut self, c: Counts) {
        if let (Some(t), Some(id)) = (self.tracer.as_deref_mut(), self.last) {
            t.spans[id].counts = c;
        }
    }
}

/// Runs job `job` of workload `w`.
///
/// # Errors
/// The simulator's error for a frontier cell that fails to simulate.
pub fn run_job(
    w: Workload,
    inputs: &Inputs,
    state: &mut State<'_>,
    job: usize,
    p: &mut Probe<'_>,
) -> Result<Output, SimError> {
    match (w, state) {
        (Workload::SuiteWalk | Workload::SuiteRuns, _) => {
            let k = &inputs.kernels[job];
            let mut session = Session::new(&k.program, &k.cfg);
            let path = if w == Workload::SuiteWalk {
                Path::Walk
            } else {
                Path::Runs
            };
            Ok(Output::Reports(seven_schemes(&mut session, path, p)))
        }
        (Workload::SimWarm, State::Warm(sessions)) => Ok(Output::Reports(seven_schemes(
            &mut sessions[job],
            Path::Warm,
            p,
        ))),
        (Workload::MixFrontier, State::Mix(sessions)) => {
            let (mix, session, policy) = inputs.cell(job);
            frontier_cell(&mut sessions[session], mix, policy, p).map(|r| Output::Cell(Box::new(r)))
        }
        (w, _) => unreachable!("{} runs on the state its own set-up built", w.name()),
    }
}

/// How a kernel job reaches its seven reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Fresh session, per-event path (walk generator).
    Walk,
    /// Fresh session, run-compressed path (analytic generator).
    Runs,
    /// Cached traces, per-event path.
    Warm,
}

/// The instrumentation mode a compiler-managed scheme runs on.
#[must_use]
pub fn cm_mode(s: Scheme) -> Option<CmMode> {
    match s {
        Scheme::CmTpm => Some(CmMode::Tpm),
        Scheme::CmDrpm => Some(CmMode::Drpm),
        _ => None,
    }
}

fn seven_schemes(s: &mut Session<'_>, path: Path, p: &mut Probe<'_>) -> Vec<SimReport> {
    if p.on() && path != Path::Warm {
        // Fill the session's caches one layer at a time so each layer
        // gets its own span; the scheme runs below then only simulate.
        if path == Path::Runs {
            p.layer("trace.gen_analytic", "", || {
                let _ = s.base_runs();
            });
            let rt = s.base_runs();
            p.count(Counts {
                events: rt.event_len(),
                records: rt.events.len() as u64,
                ..Counts::default()
            });
            p.layer("trace.lower", "", || {
                let _ = s.base_trace();
            });
        } else {
            p.layer("trace.gen_walk", "", || {
                let _ = s.base_trace();
            });
        }
        let events = s.base_trace().events.len() as u64;
        p.count(Counts {
            events,
            ..Counts::default()
        });
        for (mode, label) in [(CmMode::Tpm, "TPM"), (CmMode::Drpm, "DRPM")] {
            p.layer("core.insert", label, || {
                let _ = s.instrumented(mode);
            });
            p.count(Counts {
                events,
                directives: s.instrumented(mode).inserted as u64,
                ..Counts::default()
            });
            if path == Path::Runs {
                p.layer("trace.compress", label, || {
                    let _ = s.instrumented_runs(mode);
                });
                p.count(Counts {
                    events: s.instrumented(mode).trace.events.len() as u64,
                    records: s.instrumented_runs(mode).events.len() as u64,
                    ..Counts::default()
                });
            }
        }
    }
    Scheme::all()
        .into_iter()
        .map(|scheme| {
            let r = if path == Path::Runs {
                p.layer("sim.runs", scheme.label(), || s.run_compressed(scheme))
            } else {
                p.layer("sim.engine", scheme.label(), || s.run(scheme))
            };
            if p.on() {
                // The oracle schemes replay the trace twice.
                let passes = if matches!(scheme, Scheme::ITpm | Scheme::IDrpm) {
                    2
                } else {
                    1
                };
                let mut c = Counts::default();
                match (path, cm_mode(scheme)) {
                    (Path::Runs, Some(m)) => c.records = s.instrumented_runs(m).events.len() as u64,
                    (Path::Runs, None) => c.records = s.base_runs().events.len() as u64,
                    (_, Some(m)) => c.events = s.instrumented(m).trace.events.len() as u64,
                    (_, None) => c.events = s.base_trace().events.len() as u64,
                }
                c.records *= passes;
                c.events *= passes;
                p.count(c);
            }
            r
        })
        .collect()
}

fn frontier_cell(
    ms: &mut MixSession<'_>,
    mix: &MixDef,
    policy: &MixPolicy,
    p: &mut Probe<'_>,
) -> Result<MixReport, SimError> {
    if !p.on() {
        return ms.contended(policy);
    }
    // `contended` split into its three layers.
    let streams = p.layer("core.scenario.timeline", "", || ms.tenant_streams());
    p.count(Counts {
        events: streams.iter().map(|s| s.events.len() as u64).sum(),
        ..Counts::default()
    });
    let merged = p.layer("trace.mix_merge", "", || merge_tenants(&streams));
    p.count(Counts {
        events: merged.len() as u64,
        ..Counts::default()
    });
    let cfg = &mix.tenants[0].cfg;
    let names = mix.tenant_names();
    let report = p.layer("sim.mix", "", || {
        simulate_mix(
            &merged,
            &names,
            &cfg.params,
            DiskPool::new(cfg.disks),
            policy,
        )
    });
    if let Ok(r) = &report {
        p.count(Counts {
            requests: r.requests,
            ..Counts::default()
        });
    }
    report
}

/// Job `job`'s output computed by a different path than the timed one:
/// per-event jobs against a fresh run-compressed session, run-compressed
/// jobs against a fresh per-event session, and frontier cells against
/// the independently set-up `reference` sessions.
///
/// # Errors
/// The simulator's error for a frontier cell that fails to simulate.
pub fn reference_output(
    w: Workload,
    inputs: &Inputs,
    reference: Option<&mut State<'_>>,
    job: usize,
) -> Result<Output, SimError> {
    if w == Workload::MixFrontier {
        let Some(State::Mix(sessions)) = reference else {
            unreachable!("mix-frontier keeps a reference set-up")
        };
        let (_, session, policy) = inputs.cell(job);
        return sessions[session]
            .contended(policy)
            .map(|r| Output::Cell(Box::new(r)));
    }
    let k = &inputs.kernels[job];
    let mut s = Session::new(&k.program, &k.cfg);
    let reports = Scheme::all()
        .into_iter()
        .map(|scheme| {
            if w == Workload::SuiteRuns {
                s.run(scheme)
            } else {
                s.run_compressed(scheme)
            }
        })
        .collect();
    Ok(Output::Reports(reports))
}

/// Everything wrong with a job's warm-up output: the paper's rules on
/// kernel reports, and on seed 0 the recorded exact results.
#[must_use]
pub fn output_violations(
    inputs: &Inputs,
    job: usize,
    out: &Output,
    expected: Option<&Expected>,
) -> Vec<String> {
    let mut bad = match out {
        Output::Reports(r) => paper_rules(&inputs.kernels[job], r),
        Output::Cell(_) => Vec::new(),
    };
    if let Some(exp) = expected {
        bad.extend(out.entries(inputs, job).iter().filter_map(|e| exp.check(e)));
    }
    bad
}
