//! Shared pipeline session: one trace generation per `(program, cfg)`.
//!
//! Evaluating the paper's seven schemes over a program replays the *same*
//! generated trace seven times; before this type existed every
//! [`run_scheme`](crate::run_scheme) call regenerated it from scratch. A
//! [`Session`] generates the per-event base trace once and validates it
//! at cache time, compresses it to the run form only when a run-path
//! caller asks, and caches the per-mode instrumentation outcomes, so
//! repeated scheme runs — including the artifact- and recorder-carrying
//! variants — pay for generation and instrumentation at most once.
//! Schemes hand the cached [`Trace`]s and [`RunTrace`]s to
//! [`sdpm_sim::Engine::events`] and [`sdpm_sim::Engine::runs`] by
//! reference, so no scheme run regenerates or re-validates a trace.
//!
//! The oracle schemes (ITPM, IDRPM) need the Base run's idle gaps. The
//! session keeps the report of its first clean Base pass (no faults, no
//! recorder), whether `run(Base)` or the first oracle run made it, and
//! the ITPM and IDRPM schedules built from it: each is built once per
//! session, on the first oracle run that needs it, and every later run
//! replays a copy. A seven-scheme suite on the per-event path therefore
//! plays the trace seven times, not nine. Every run still plays its own
//! measured pass; the kept report and schedules are only its input.
//! [`Session::run_compressed`] leaves the oracles to
//! [`sdpm_sim::Engine::runs`], which runs its own Base pass.
//!
//! Phase spans (`dap-construction`, the compiler phases) are emitted to a
//! recorder only when the corresponding work actually runs, i.e. on the
//! first scheme that needs it; cache hits are silent.

use crate::insert::{insert_directives, CmMode, InsertOutcome};
use crate::pipeline::{PipelineConfig, Scheme, SchemeArtifacts};
use sdpm_disk::DiskParams;
use sdpm_fault::FaultPlan;
use sdpm_ir::Program;
use sdpm_layout::DiskPool;
use sdpm_sim::{oracle, DirectiveConfig, Engine, Policy, ScheduledAction, SimError, SimReport};
use sdpm_trace::{compress, generate, RunTrace, Trace};

#[cfg(feature = "obs")]
pub(crate) type Obs<'a> = Option<&'a dyn sdpm_obs::Recorder>;
#[cfg(not(feature = "obs"))]
pub(crate) type Obs<'a> = Option<&'a std::convert::Infallible>;

/// Runs `f` inside a `PhaseStart`/`PhaseEnd` pair when recording.
#[cfg(feature = "obs")]
pub(crate) fn phase<T>(rec: Obs<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(r) = rec else { return f() };
    r.record(&sdpm_obs::Event::PhaseStart { phase: name });
    let out = f();
    r.record(&sdpm_obs::Event::PhaseEnd { phase: name });
    out
}

#[cfg(not(feature = "obs"))]
pub(crate) fn phase<T>(_rec: Obs<'_>, _name: &'static str, f: impl FnOnce() -> T) -> T {
    f()
}

/// One program + pipeline configuration, with the generated trace and
/// instrumentation outcomes cached across scheme runs.
#[derive(Debug)]
pub struct Session<'a> {
    program: &'a Program,
    cfg: &'a PipelineConfig,
    pool: DiskPool,
    /// The generated base trace, validated when cached.
    base: Option<Trace>,
    /// Its run-compressed form, compressed from `base` on first use.
    base_runs: Option<RunTrace>,
    /// Cached instrumentation, indexed by [`CmMode`] (`Tpm` = 0).
    cm: [Option<InsertOutcome>; 2],
    /// Run-compressed instrumented traces, indexed like `cm`.
    cm_runs: [Option<RunTrace>; 2],
    /// The report of the first clean Base pass on the per-event trace:
    /// the idle gaps the oracle schedules are built from.
    clean_base: Option<SimReport>,
    /// The ITPM and IDRPM schedules built from `clean_base`, indexed by
    /// [`oracle_slot`], each on the first run that needs it.
    schedules: [Option<Schedule>; 2],
    generations: usize,
}

impl<'a> Session<'a> {
    #[must_use]
    pub fn new(program: &'a Program, cfg: &'a PipelineConfig) -> Self {
        Session {
            program,
            cfg,
            pool: DiskPool::new(cfg.disks),
            base: None,
            base_runs: None,
            cm: [None, None],
            cm_runs: [None, None],
            clean_base: None,
            schedules: [None, None],
            generations: 0,
        }
    }

    /// How many times this session has generated a trace. Stays at 1 no
    /// matter how many schemes run — a probe for the regression tests.
    #[must_use]
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// The disk pool every scheme in this session simulates against.
    #[must_use]
    pub fn pool(&self) -> DiskPool {
        self.pool
    }

    /// The base (un-instrumented) trace, generated and validated on
    /// first use.
    pub fn base_trace(&mut self) -> &Trace {
        self.base_trace_obs(None)
    }

    fn base_trace_obs(&mut self, rec: Obs<'_>) -> &Trace {
        if self.base.is_none() {
            let _sp = crate::prof::span("session.generate");
            self.generations += 1;
            let trace = phase(rec, "dap-construction", || {
                generate(self.program, self.pool, self.cfg.gen)
            });
            trace.validate().expect("generated trace must be valid");
            self.base = Some(trace);
        }
        self.base.as_ref().expect("just cached")
    }

    /// The run-compressed base trace: [`compress`] of
    /// [`Session::base_trace`], on first use.
    pub fn base_runs(&mut self) -> &RunTrace {
        if self.base_runs.is_none() {
            let runs = compress(self.base_trace());
            self.base_runs = Some(runs);
        }
        self.base_runs.as_ref().expect("just cached")
    }

    /// The run-compressed form of the instrumented trace for `mode`,
    /// compressed from the cached per-event instrumentation outcome on
    /// first use (directive insertion itself is a per-event pass).
    pub fn instrumented_runs(&mut self, mode: CmMode) -> &RunTrace {
        let idx = slot(mode);
        if self.cm_runs[idx].is_none() {
            let rt = compress(&self.instrumented(mode).trace);
            self.cm_runs[idx] = Some(rt);
        }
        self.cm_runs[idx].as_ref().expect("just cached")
    }

    /// The instrumentation outcome for `mode`, computed (from the cached
    /// base trace) and validated on first use.
    pub fn instrumented(&mut self, mode: CmMode) -> &InsertOutcome {
        self.instrumented_obs(mode, None)
    }

    fn instrumented_obs(&mut self, mode: CmMode, rec: Obs<'_>) -> &InsertOutcome {
        let idx = slot(mode);
        if self.cm[idx].is_none() {
            self.base_trace_obs(rec);
            let _sp = crate::prof::span("session.instrument");
            let base = self.base.as_ref().expect("just cached");
            let out = instrument(base, self.cfg, mode, rec);
            out.trace
                .validate()
                .expect("instrumented trace must be valid");
            self.cm[idx] = Some(out);
        }
        self.cm[idx].as_ref().expect("just cached")
    }

    /// The trace `scheme` replays: the instrumented trace for a CM
    /// scheme, the base trace otherwise, generated (and instrumented) and
    /// validated on first use.
    pub fn scheme_trace(&mut self, scheme: Scheme) -> &Trace {
        self.cache_trace(scheme, None);
        self.cached_trace(scheme).expect("cached above")
    }

    /// Caches the trace `scheme` replays, emitting the phases that run.
    fn cache_trace(&mut self, scheme: Scheme, rec: Obs<'_>) {
        match scheme_plan(scheme, self.cfg).0 {
            None => {
                self.base_trace_obs(rec);
            }
            Some(mode) => {
                self.instrumented_obs(mode, rec);
            }
        }
    }

    /// The trace `scheme` replays, if the session has cached it.
    pub(crate) fn cached_trace(&self, scheme: Scheme) -> Option<&Trace> {
        match scheme_plan(scheme, self.cfg).0 {
            None => self.base.as_ref(),
            Some(mode) => self.cm[slot(mode)].as_ref().map(|out| &out.trace),
        }
    }

    /// Runs one scheme against the session's cached traces. The report's
    /// `policy` field carries the scheme label.
    #[must_use]
    pub fn run(&mut self, scheme: Scheme) -> SimReport {
        unwrap_report(self.simulate(scheme, None, None))
    }

    /// Like [`Session::run`], but keeps the pipeline's intermediate
    /// artifacts so they can be checked after the fact.
    #[must_use]
    pub fn run_with_artifacts(&mut self, scheme: Scheme) -> SchemeArtifacts {
        let report = self.run(scheme);
        let (trace, insertion) = match scheme_plan(scheme, self.cfg).0 {
            None => (self.base_trace().clone(), None),
            Some(mode) => {
                let out = self.instrumented(mode);
                (out.trace.clone(), Some(out.clone()))
            }
        };
        SchemeArtifacts {
            scheme,
            trace,
            insertion,
            report,
        }
    }

    /// Like [`Session::run`], but streams pipeline phase spans and the
    /// simulator's event sequence into `rec`. Generation and compiler
    /// phases are emitted only if this run is the first to need them.
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn run_with_recorder(&mut self, scheme: Scheme, rec: &dyn sdpm_obs::Recorder) -> SimReport {
        unwrap_report(self.simulate(scheme, None, Some(rec)))
    }

    /// Runs one scheme through the O(#runs) fast path: the session's
    /// cached run-compressed traces drive [`sdpm_sim::Engine::runs`].
    /// The report is bit-identical to [`Session::run`] on the same
    /// scheme; only [`sdpm_sim::SimReport::sim_path`] differs.
    #[must_use]
    pub fn run_compressed(&mut self, scheme: Scheme) -> SimReport {
        let (mode, policy) = scheme_plan(scheme, self.cfg);
        let engine = Engine::new(self.cfg.params.clone(), self.pool, policy);
        let _sp = crate::prof::span("session.simulate_runs");
        let runs = match mode {
            None => self.base_runs(),
            Some(mode) => self.instrumented_runs(mode),
        };
        let mut report = unwrap_report(engine.runs(runs));
        report.policy = scheme.label().to_string();
        report
    }

    /// Runs one scheme with an optional fault-injection plan, returning
    /// typed errors instead of panicking on malformed inputs. With
    /// `faults: None` the report is bit-identical to [`Session::run`];
    /// with a plan, injected faults are tallied in
    /// [`sdpm_sim::SimReport::faults`] and the run still completes
    /// (graceful degradation, never a panic).
    pub fn run_with_faults(
        &mut self,
        scheme: Scheme,
        faults: Option<&FaultPlan>,
    ) -> Result<SimReport, SimError> {
        self.simulate(scheme, faults, None)
    }

    /// The per-event run behind [`Session::run`] and its variants: the
    /// cached trace `scheme` needs, played under a `simulation` phase span
    /// with the given options. The trace was validated when the session
    /// cached it, so the engine takes it by reference without a second
    /// validation pass. An oracle scheme replays a copy of its kept
    /// schedule, built from the session's clean Base report on first use;
    /// a clean Base run fills that report if it is still empty.
    fn simulate(
        &mut self,
        scheme: Scheme,
        faults: Option<&FaultPlan>,
        rec: Obs<'_>,
    ) -> Result<SimReport, SimError> {
        let policy = scheme_plan(scheme, self.cfg).1;
        self.cache_trace(scheme, rec);
        let _sp = crate::prof::span("session.simulate");
        let policy = match oracle_slot(&policy) {
            Some((slot, build)) => Policy::Schedule(self.schedule(slot, build)?.clone()),
            None => policy,
        };
        let keep = scheme == Scheme::Base
            && faults.is_none()
            && rec.is_none()
            && self.clean_base.is_none();
        let engine = Engine::new(self.cfg.params.clone(), self.pool, policy).faults(faults);
        #[cfg(feature = "obs")]
        let engine = match rec {
            Some(r) => engine.recorder(r),
            None => engine,
        };
        let trace = self.cached_trace(scheme).expect("cached above");
        let mut report = phase(rec, "simulation", || engine.events(trace))?;
        if keep {
            self.clean_base = Some(report.clone());
        }
        report.policy = scheme.label().to_string();
        Ok(report)
    }

    /// The oracle schedule kept in `slot`, built by `build` from the
    /// session's clean Base report on first use.
    fn schedule(&mut self, slot: usize, build: BuildSchedule) -> Result<&Schedule, SimError> {
        if self.schedules[slot].is_none() {
            let cfg = self.cfg;
            let schedule = build(self.clean_base()?, &cfg.params);
            self.schedules[slot] = Some(schedule);
        }
        Ok(self.schedules[slot].as_ref().expect("just cached"))
    }

    /// The report of the session's first clean Base pass over the cached
    /// per-event trace, played now if no clean `run(Base)` made it yet.
    fn clean_base(&mut self) -> Result<&SimReport, SimError> {
        if self.clean_base.is_none() {
            let engine = Engine::new(self.cfg.params.clone(), self.pool, Policy::Base);
            let report = engine.events(self.base_trace())?;
            self.clean_base = Some(report);
        }
        Ok(self.clean_base.as_ref().expect("just cached"))
    }
}

/// An oracle's per-disk action schedule, and what builds one from a
/// clean Base report.
type Schedule = Vec<Vec<ScheduledAction>>;
type BuildSchedule = fn(&SimReport, &DiskParams) -> Schedule;

/// An oracle policy's slot in the schedule cache (`IdealTpm` = 0) and
/// the builder that fills it, or `None` for a policy the engine plays as
/// given.
fn oracle_slot(policy: &Policy) -> Option<(usize, BuildSchedule)> {
    match policy {
        Policy::IdealTpm => Some((0, oracle::ideal_tpm_schedule)),
        Policy::IdealDrpm => Some((1, oracle::ideal_drpm_schedule)),
        _ => None,
    }
}

/// The index of `mode`'s slot in the per-mode caches.
fn slot(mode: CmMode) -> usize {
    match mode {
        CmMode::Tpm => 0,
        CmMode::Drpm => 1,
    }
}

/// What `scheme` runs: the instrumentation mode whose trace it replays
/// (`None` for the base trace) and the simulator policy. The one scheme
/// mapping every run path shares.
fn scheme_plan(scheme: Scheme, cfg: &PipelineConfig) -> (Option<CmMode>, Policy) {
    let directive = Policy::Directive(DirectiveConfig {
        overhead_secs: cfg.overhead_secs,
    });
    match scheme {
        Scheme::Base => (None, Policy::Base),
        Scheme::Tpm => (None, Policy::Tpm(cfg.tpm)),
        Scheme::ITpm => (None, Policy::IdealTpm),
        Scheme::Drpm => (None, Policy::Drpm(cfg.drpm)),
        Scheme::IDrpm => (None, Policy::IdealDrpm),
        Scheme::CmTpm => (Some(CmMode::Tpm), directive),
        Scheme::CmDrpm => (Some(CmMode::Drpm), directive),
    }
}

/// The panicking shorthand's contract: a cached, validated trace only
/// fails to simulate on invalid disk parameters.
fn unwrap_report(report: Result<SimReport, SimError>) -> SimReport {
    report.unwrap_or_else(|e| panic!("{e}"))
}

/// `insert_directives`, routed through the recording variant when a
/// recorder is present (it emits the two compiler phase spans itself).
fn instrument(trace: &Trace, cfg: &PipelineConfig, mode: CmMode, rec: Obs<'_>) -> InsertOutcome {
    #[cfg(feature = "obs")]
    if let Some(r) = rec {
        return crate::insert::insert_directives_with_recorder(
            trace,
            &cfg.params,
            &cfg.noise,
            mode,
            cfg.overhead_secs,
            r,
        );
    }
    let _ = rec;
    insert_directives(trace, &cfg.params, &cfg.noise, mode, cfg.overhead_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_scheme;
    use sdpm_workloads::synth::checkpoint_loop;

    #[test]
    fn seven_schemes_share_one_generation() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        assert_eq!(session.generations(), 0);
        for scheme in Scheme::all() {
            let _ = session.run(scheme);
        }
        assert_eq!(
            session.generations(),
            1,
            "every scheme must reuse the cached trace"
        );
    }

    #[test]
    fn session_runs_match_standalone_runs_bitwise() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        for scheme in Scheme::all() {
            let shared = session.run(scheme);
            let standalone = run_scheme(&p, scheme, &cfg);
            assert_eq!(
                shared.total_energy_j().to_bits(),
                standalone.total_energy_j().to_bits(),
                "{}: energy drifted",
                scheme.label()
            );
            assert_eq!(
                shared.exec_secs.to_bits(),
                standalone.exec_secs.to_bits(),
                "{}: exec time drifted",
                scheme.label()
            );
        }
    }

    #[test]
    fn run_compressed_matches_per_event_bitwise_for_all_schemes() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        for scheme in Scheme::all() {
            let slow = session.run(scheme);
            let fast = session.run_compressed(scheme);
            assert_eq!(
                fast.sim_path,
                sdpm_sim::SimPath::RunCompressed,
                "{}: fast path must be tagged",
                scheme.label()
            );
            assert_eq!(slow, fast, "{}: reports differ", scheme.label());
            assert_eq!(
                slow.total_energy_j().to_bits(),
                fast.total_energy_j().to_bits(),
                "{}: energy drifted",
                scheme.label()
            );
        }
        assert_eq!(session.generations(), 1, "one generation");
    }

    #[test]
    fn base_runs_lower_to_the_cached_base_trace() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        let lowered = session.base_runs().lower();
        let base = session.base_trace();
        assert_eq!(base.events, lowered.events);
    }

    /// The run form, asked for before or after the per-event trace, is
    /// the compression of a fresh generation, and neither order
    /// generates twice.
    #[test]
    fn base_runs_after_base_trace_match_a_generation() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let fresh = compress(&generate(&p, DiskPool::new(cfg.disks), cfg.gen));
        let mut trace_first = Session::new(&p, &cfg);
        let _ = trace_first.base_trace();
        assert_eq!(trace_first.base_runs(), &fresh);
        let mut runs_first = Session::new(&p, &cfg);
        assert_eq!(runs_first.base_runs(), &fresh);
        let _ = runs_first.base_trace();
        assert_eq!(
            (trace_first.generations(), runs_first.generations()),
            (1, 1)
        );
    }

    #[test]
    fn run_with_faults_disabled_is_bit_exact_with_run() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        for scheme in Scheme::all() {
            let clean = session.run(scheme);
            let faultless = session
                .run_with_faults(scheme, None)
                .expect("fault-free run succeeds");
            assert_eq!(clean, faultless, "{}: reports differ", scheme.label());
            assert_eq!(
                clean.total_energy_j().to_bits(),
                faultless.total_energy_j().to_bits(),
                "{}: energy drifted",
                scheme.label()
            );
            assert_eq!(faultless.faults.total(), 0, "{}", scheme.label());
        }
    }

    #[test]
    fn run_with_faults_is_deterministic() {
        use sdpm_fault::{FaultConfig, FaultPlan};
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        let plan = FaultPlan::new(FaultConfig::uniform(7, 0.2));
        for scheme in Scheme::all() {
            let a = session
                .run_with_faults(scheme, Some(&plan))
                .expect("faulted run degrades gracefully");
            let b = session
                .run_with_faults(scheme, Some(&plan))
                .expect("faulted run degrades gracefully");
            assert_eq!(a, b, "{}: fault runs must be deterministic", scheme.label());
        }
    }

    #[test]
    fn instrumentation_is_cached_per_mode() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        let first = session.instrumented(CmMode::Drpm).clone();
        let again = session.instrumented(CmMode::Drpm);
        assert_eq!(&first, again);
        assert_eq!(session.generations(), 1);
        // The other mode reuses the same base trace.
        let _ = session.instrumented(CmMode::Tpm);
        assert_eq!(session.generations(), 1);
    }
}
