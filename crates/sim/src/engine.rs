//! The closed-loop simulation engine.
//!
//! The engine replays a trace's event stream against per-disk
//! [`PowerStateMachine`]s. Disks are advanced **lazily**: policy actions
//! that fire during an idle stretch (a TPM threshold expiry, a reactive
//! DRPM drift step, a scheduled oracle action) are applied — with their
//! correct timestamps — when the disk is next touched or at finalization,
//! so the energy integral is exact without a global event queue.
//!
//! The steady request step — the disk idle at the arrival, no transition
//! in flight, no policy action due — makes no out-of-line call: the
//! machine's `advance`, `begin_service` and `end_service`, the service
//! model and the policy's "anything due?" check are inlined into the
//! per-event handler. Policy actions, wake-ups, transitions and fault
//! retries stay out of line, and run the same machine calls and float
//! operations in the same order either way.

use crate::error::SimError;
use crate::oracle;
use crate::policy::{DrpmConfig, Policy, ScheduledAction};
use crate::prof;
use crate::report::{GapRecord, MisfireCause, MisfireCauses, PerDiskReport, SimPath, SimReport};
use sdpm_disk::{
    service_time_secs, tpm_break_even_secs, DiskParams, DiskPowerState, EnergyBreakdown,
    PowerError, PowerStateMachine, RpmLadder, RpmLevel, ServiceRequest,
};
use sdpm_fault::{FaultCounts, FaultPlan};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_trace::{AppEvent, IoRequest, PowerAction, REvent, Run, RunTrace, Trace};

#[cfg(feature = "obs")]
use sdpm_obs::{Event as ObsEvent, Recorder};

/// Recorder handle threaded through the run. With the `obs` feature off
/// this aliases to an uninhabited option, so every emission site — and
/// the event construction inside it — compiles away entirely.
#[cfg(feature = "obs")]
type Obs<'a> = Option<&'a dyn Recorder>;
#[cfg(not(feature = "obs"))]
type Obs<'a> = Option<&'a std::convert::Infallible>;

/// Emits one observability event, or nothing when the feature is off.
macro_rules! obs_emit {
    ($rec:expr, $ev:expr) => {{
        #[cfg(feature = "obs")]
        if let Some(r) = $rec {
            Recorder::record(r, &$ev);
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = &$rec;
        }
    }};
}

/// Emits the start/scheduled-completion pair for the transition the disk
/// just entered (reads the machine state, so a same-level `set_rpm`
/// no-op correctly emits nothing).
macro_rules! obs_transition {
    ($rec:expr, $rt:expr, $at:expr) => {{
        #[cfg(feature = "obs")]
        emit_transition($rec, $rt, $at);
        #[cfg(not(feature = "obs"))]
        {
            let _ = (&$rec, $at);
        }
    }};
}

#[cfg(feature = "obs")]
fn emit_transition(rec: Obs<'_>, rt: &DiskRt, at: f64) {
    let Some(r) = rec else { return };
    match rt.machine.state() {
        DiskPowerState::SpinningDown { until } => {
            r.record(&ObsEvent::SpinDownStart { t: at, disk: rt.id });
            r.record(&ObsEvent::SpinDownComplete {
                t: until,
                disk: rt.id,
                started: at,
            });
        }
        DiskPowerState::SpinningUp { until } => {
            r.record(&ObsEvent::SpinUpStart { t: at, disk: rt.id });
            r.record(&ObsEvent::SpinUpComplete {
                t: until,
                disk: rt.id,
                started: at,
            });
        }
        DiskPowerState::Shifting { from, to, until } => {
            r.record(&ObsEvent::RpmShiftStart {
                t: at,
                disk: rt.id,
                from,
                to,
            });
            r.record(&ObsEvent::RpmShiftComplete {
                t: until,
                disk: rt.id,
                started: at,
                level: to,
            });
        }
        _ => {}
    }
}

/// Tag for a [`PowerAction`] in `directive_issued` events.
#[cfg(feature = "obs")]
fn action_label(a: PowerAction) -> &'static str {
    match a {
        PowerAction::SpinDown => "spin_down",
        PowerAction::SpinUp => "spin_up",
        PowerAction::SetRpm(_) => "set_rpm",
    }
}

#[cfg(feature = "obs")]
fn action_level(a: PowerAction) -> Option<RpmLevel> {
    match a {
        PowerAction::SetRpm(l) => Some(l),
        _ => None,
    }
}

/// Per-disk runtime state beyond the power-state machine.
struct DiskRt<'a> {
    /// Only read by emission sites, which vanish without the feature.
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    id: DiskId,
    machine: PowerStateMachine,
    /// When the current idle gap opened (last service completion, or 0).
    idle_since: f64,
    /// Deepest level reached during the current gap.
    min_level: RpmLevel,
    /// Level the disk is at (or shifting toward).
    cur_level: RpmLevel,
    /// True if the disk hit standby during the current gap.
    hit_standby: bool,
    /// Reference time for the next reactive-DRPM drift step.
    drift_mark: f64,
    /// Reactive DRPM: pause drifting after a bad window until a calm one.
    drift_hold: bool,
    /// Reactive DRPM response window accumulator.
    window_sum: f64,
    window_n: usize,
    /// Oracle schedule for this disk, borrowed from the policy (empty
    /// unless `Policy::Schedule`).
    sched: &'a [ScheduledAction],
    sched_idx: usize,
    gaps: Vec<GapRecord>,
    requests: u64,
    /// Per-disk fault-decision counter: each potential injection site
    /// consumes one draw, so the fault pattern is a pure function of
    /// `(seed, disk, per-disk event order)` — deterministic across
    /// replays and independent of cross-disk interleaving.
    fault_seq: u64,
    /// Under an injected slow spin-up from a *directive*, the absolute
    /// time the platters actually reach speed (the machine itself still
    /// models the nominal transition; the surplus surfaces as stall).
    slow_ready_at: f64,
}

/// Mid-run engine state: the per-disk runtimes plus the global clock and
/// report accumulators. One instance lives for one simulated run; the
/// per-event and run-compressed loops mutate it through the same
/// handlers, which is what keeps the two paths bit-identical.
struct ExecState<'a> {
    disks: Vec<DiskRt<'a>>,
    /// Application clock, seconds.
    t: f64,
    /// Seconds stalled beyond full-speed service.
    stall: f64,
    /// Sum of per-request slowdowns (over requests with non-zero
    /// full-speed service time).
    slow_sum: f64,
    /// Count behind `slow_sum`.
    nreq: u64,
    misfires: MisfireCauses,
    /// Injected-fault counters (all zero unless a [`FaultPlan`] is
    /// attached).
    faults: FaultCounts,
}

/// Closed-loop simulator: one blocking application on a private pool.
///
/// Build with [`Engine::new`], optionally attach a fault plan
/// ([`Engine::faults`]) and, with the `obs` feature, a recorder
/// ([`Engine::recorder`]), then play a per-event [`Trace`]
/// ([`Engine::events`]), events pushed one at a time ([`Engine::stream`])
/// or a run-compressed [`RunTrace`] ([`Engine::runs`]). The inputs give
/// bit-identical reports for the same events; only
/// [`SimReport::sim_path`] differs.
///
/// An engine built with an oracle policy (`IdealTpm`/`IdealDrpm`) plays
/// the trace twice: a clean Base pass — no faults, no recorder — recovers
/// the true gap structure, from which [`oracle`] derives a
/// [`Policy::Schedule`] that the measured pass replays. A caller that
/// already holds that Base report plays the schedule in one pass:
/// `sdpm_core::Session` keeps the report and builds each oracle's
/// schedule from it once per session, and every run still plays its own
/// measured pass.
pub struct Engine<'r> {
    params: DiskParams,
    pool: DiskPool,
    policy: Policy,
    /// Disk-level fault injection. `None` keeps every code path — and
    /// therefore every float operation — bit-identical to the engine
    /// before fault support existed.
    faults: Option<&'r FaultPlan>,
    rec: Obs<'r>,
}

impl<'r> Engine<'r> {
    /// An engine for `pool.count()` identical disks of model `params`
    /// under `policy`, with no faults and no recorder.
    #[must_use]
    pub fn new(params: DiskParams, pool: DiskPool, policy: Policy) -> Self {
        Engine {
            params,
            pool,
            policy,
            faults: None,
            rec: None,
        }
    }

    /// Attaches a disk-level [`FaultPlan`] to the measured pass:
    /// transient service failures (bounded retry + exponential backoff),
    /// stochastic slow spin-ups, and stuck-at-RPM transitions, all
    /// deterministic in the plan's seed. `None` keeps the fault-free
    /// engine. Any attached plan, even one that can never fire
    /// ([`sdpm_fault::FaultConfig::is_disabled`]), expands run records per
    /// event and counts them in [`sdpm_fault::FaultCounts::degraded_expansions`].
    #[must_use]
    pub fn faults(mut self, plan: Option<&'r FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Streams the measured pass's event sequence into `rec`. Run
    /// records are expanded per event so observers see the full stream.
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn recorder(mut self, rec: &'r dyn Recorder) -> Self {
        self.rec = Some(rec);
        self
    }

    /// Plays `trace` event by event to completion: a [`Stream`] fed every
    /// event in order (after the clean Base pass, for an oracle policy).
    ///
    /// The events are not validated here: [`crate::simulate`] validates
    /// first, and `sdpm_core::Session` validates each trace once, when it
    /// caches it. Malformed events surface as errors from the loop.
    ///
    /// # Errors
    /// A [`SimError`] describing the invalid parameters, the malformed
    /// input, or the machine call that could not be applied.
    pub fn events(&self, trace: &Trace) -> Result<SimReport, SimError> {
        let _sp = prof::span("sim.simulate");
        let lowered = self.lower(|base| base.play_events(trace))?;
        self.replay(lowered.as_ref()).play_events(trace)
    }

    /// Opens the measured pass of a trace generated for a `pool_size`-disk
    /// pool, to be played one event at a time: push each event of the
    /// stream in program order with [`Stream::event`], then take the
    /// report from [`Stream::finish`]. Pushing a trace's events gives
    /// [`Engine::events`]'s report on it, bit for bit; faults and a
    /// recorder act on the pass as they do there.
    ///
    /// # Errors
    /// [`SimError::InvalidParams`] for invalid disk parameters,
    /// [`SimError::PoolMismatch`] when `pool_size` is not the engine's
    /// pool, and [`SimError::OracleStream`] for an oracle policy, whose
    /// schedule comes from a clean Base pass over the whole trace.
    pub fn stream(&self, pool_size: u32) -> Result<Stream<'_>, SimError> {
        let span = prof::span("sim.simulate");
        self.params.validate().map_err(SimError::InvalidParams)?;
        if matches!(self.policy, Policy::IdealTpm | Policy::IdealDrpm) {
            return Err(SimError::OracleStream(self.policy.label()));
        }
        self.replay(None).stream(pool_size, Some(span))
    }

    /// Plays a run-compressed trace through the O(#runs) loop. The report
    /// is bit-identical to [`Engine::events`] on the lowered per-event
    /// trace; only [`SimReport::sim_path`] differs.
    ///
    /// # Errors
    /// As [`Engine::events`], plus [`SimError::InvalidRun`] for a
    /// degenerate run record.
    pub fn runs(&self, trace: &RunTrace) -> Result<SimReport, SimError> {
        let _sp = prof::span("sim.simulate_runs");
        let lowered = self.lower(|base| base.play_runs(trace))?;
        self.replay(lowered.as_ref()).play_runs(trace)
    }

    /// Validates the parameters and, for an oracle policy, runs the clean
    /// Base pass `base` and returns the schedule derived from it. `None`
    /// means the policy plays as given.
    fn lower(
        &self,
        base: impl FnOnce(Replay<'_>) -> Result<SimReport, SimError>,
    ) -> Result<Option<Policy>, SimError> {
        self.params.validate().map_err(SimError::InvalidParams)?;
        let schedule: fn(&SimReport, &DiskParams) -> Vec<Vec<ScheduledAction>> = match self.policy {
            Policy::IdealTpm => oracle::ideal_tpm_schedule,
            Policy::IdealDrpm => oracle::ideal_drpm_schedule,
            _ => return Ok(None),
        };
        let clean = Replay::new(&self.params, self.pool, &Policy::Base, None, None);
        let report = base(clean)?;
        Ok(Some(Policy::Schedule(
            schedule(&report, &self.params).into(),
        )))
    }

    /// The measured pass: `lowered` (an oracle's schedule) if given, the
    /// engine's own policy otherwise, with the options attached. Its
    /// report carries the engine's own policy label.
    fn replay<'a>(&'a self, lowered: Option<&'a Policy>) -> Replay<'a> {
        let policy = lowered.unwrap_or(&self.policy);
        Replay {
            label: self.policy.label(),
            ..Replay::new(&self.params, self.pool, policy, self.faults, self.rec)
        }
    }
}

/// One measured pass played one event at a time; see [`Engine::stream`].
pub struct Stream<'a> {
    replay: Replay<'a>,
    st: ExecState<'a>,
    /// Events played so far: the pass's `sim.events` count.
    played: u64,
    /// The `sim.simulate` span of a pass [`Engine::stream`] opened; a
    /// pass inside [`Engine::events`] runs in that call's span.
    _span: Option<prof::SpanGuard>,
}

impl Stream<'_> {
    /// Plays the next application event of the pass.
    ///
    /// # Errors
    /// As [`Engine::events`], for this event: an out-of-pool disk or a
    /// machine call the event's timing makes illegal. The pass cannot go
    /// on after an error.
    #[inline]
    pub fn event(&mut self, event: &AppEvent) -> Result<(), SimError> {
        self.played += 1;
        self.replay.handle_event(&mut self.st, event)
    }

    /// Ends the pass: brings every disk to the end of execution and
    /// returns the report.
    ///
    /// # Errors
    /// A machine call at finalization that could not be applied.
    pub fn finish(self) -> Result<SimReport, SimError> {
        let Stream {
            replay,
            st,
            played,
            _span,
        } = self;
        prof::add("sim.events", played);
        replay.finish(st)
    }
}

/// One pass of the engine loop under a policy the loop executes directly
/// (never an oracle policy).
struct Replay<'a> {
    params: &'a DiskParams,
    ladder: RpmLadder,
    pool: DiskPool,
    policy: &'a Policy,
    /// The label the report carries: `policy`'s own, unless the engine
    /// lowered an oracle policy to this schedule.
    label: &'static str,
    tpm_threshold: f64,
    faults: Option<&'a FaultPlan>,
    rec: Obs<'a>,
}

impl<'a> Replay<'a> {
    fn new(
        params: &'a DiskParams,
        pool: DiskPool,
        policy: &'a Policy,
        faults: Option<&'a FaultPlan>,
        rec: Obs<'a>,
    ) -> Self {
        let tpm_threshold = match policy {
            Policy::Tpm(cfg) => cfg
                .threshold_secs
                .unwrap_or_else(|| tpm_break_even_secs(params)),
            _ => f64::INFINITY,
        };
        Replay {
            params,
            ladder: RpmLadder::new(params),
            pool,
            policy,
            label: policy.label(),
            tpm_threshold,
            faults,
            rec,
        }
    }

    fn check_pool(&self, trace: u32) -> Result<(), SimError> {
        if trace == self.pool.count() {
            Ok(())
        } else {
            Err(SimError::PoolMismatch {
                trace,
                pool: self.pool.count(),
            })
        }
    }

    /// The per-event engine loop: `trace`'s events pushed through a
    /// [`Stream`].
    fn play_events(self, trace: &Trace) -> Result<SimReport, SimError> {
        let mut stream = self.stream(trace.pool_size, None)?;
        for event in &trace.events {
            stream.event(event)?;
        }
        stream.finish()
    }

    /// The pass as a [`Stream`] over a `pool_size`-disk trace, closing
    /// `span` when it finishes.
    fn stream(self, pool_size: u32, span: Option<prof::SpanGuard>) -> Result<Stream<'a>, SimError> {
        self.check_pool(pool_size)?;
        let st = self.init_state();
        Ok(Stream {
            replay: self,
            st,
            played: 0,
            _span: span,
        })
    }

    /// The run-compressed engine loop: plain records go through the
    /// ordinary per-event handler; a [`Run`] record goes through
    /// [`Replay::handle_run`], which services steady repetitions without
    /// policy dispatch or state-machine branching and expands to the
    /// per-event handler exactly where a policy boundary (TPM threshold,
    /// DRPM drift window, scheduled action) lands inside the run.
    fn play_runs(&self, trace: &RunTrace) -> Result<SimReport, SimError> {
        self.check_pool(trace.pool_size)?;
        let mut st = self.init_state();
        prof::add("sim.records", trace.events.len() as u64);
        for record in &trace.events {
            match record {
                REvent::Event(event) => self.handle_event(&mut st, event)?,
                REvent::Run(run) => self.handle_run(&mut st, run)?,
            }
        }
        let mut report = self.finish(st)?;
        report.sim_path = SimPath::RunCompressed;
        Ok(report)
    }

    /// Per-disk runtimes and global accumulators, positioned at run
    /// start.
    fn init_state(&self) -> ExecState<'a> {
        let max = self.ladder.max_level();
        let disks: Vec<DiskRt> = (0..self.pool.count())
            .map(|d| DiskRt {
                id: DiskId(d),
                machine: PowerStateMachine::new(self.params.clone()),
                idle_since: 0.0,
                min_level: max,
                cur_level: max,
                hit_standby: false,
                drift_mark: 0.0,
                drift_hold: false,
                window_sum: 0.0,
                window_n: 0,
                sched: match self.policy {
                    Policy::Schedule(per_disk) => {
                        per_disk.get(d as usize).map_or(&[], Vec::as_slice)
                    }
                    _ => &[],
                },
                sched_idx: 0,
                gaps: Vec::new(),
                requests: 0,
                fault_seq: 0,
                slow_ready_at: 0.0,
            })
            .collect();

        // Every disk's first gap opens at run start.
        #[cfg(feature = "obs")]
        for rt in &disks {
            obs_emit!(
                self.rec,
                ObsEvent::GapOpen {
                    t: 0.0,
                    disk: rt.id
                }
            );
        }

        ExecState {
            disks,
            t: 0.0,
            stall: 0.0,
            slow_sum: 0.0,
            nreq: 0,
            misfires: MisfireCauses::default(),
            faults: FaultCounts::default(),
        }
    }

    /// Dispatches one application event against the running state. Both
    /// engine loops funnel through here; the run-compressed fast path in
    /// [`Replay::handle_run`] must produce bit-identical state updates.
    fn handle_event(&self, st: &mut ExecState, event: &AppEvent) -> Result<(), SimError> {
        let max = self.ladder.max_level();
        let ExecState {
            disks,
            t,
            stall,
            slow_sum,
            nreq,
            misfires,
            faults,
        } = st;
        // Pool sizes are constructed from a `u32`; saturation only on
        // impossible inputs, and the value feeds error messages only.
        let pool = u32::try_from(disks.len()).unwrap_or(u32::MAX);
        match event {
            AppEvent::Compute { secs, .. } => *t += secs,
            AppEvent::Power { disk, action } => {
                if let Policy::Directive(cfg) = self.policy {
                    let rt = disks
                        .get_mut(disk.0 as usize)
                        .ok_or(SimError::DiskOutOfRange { disk: disk.0, pool })?;
                    self.catch_up(rt, *t, misfires, faults)?;
                    obs_emit!(
                        self.rec,
                        ObsEvent::DirectiveIssued {
                            t: *t,
                            disk: rt.id,
                            action: action_label(*action),
                            level: action_level(*action),
                        }
                    );
                    if let Err(cause) = self.apply_action(rt, *t, *action, faults)? {
                        misfires.count(cause);
                        obs_emit!(
                            self.rec,
                            ObsEvent::DirectiveMisfire {
                                t: *t,
                                disk: rt.id,
                                cause: cause.label(),
                            }
                        );
                    }
                    *t += cfg.overhead_secs;
                }
            }
            AppEvent::Io(req) => {
                let rt = disks
                    .get_mut(req.disk.0 as usize)
                    .ok_or(SimError::DiskOutOfRange {
                        disk: req.disk.0,
                        pool,
                    })?;
                self.catch_up(rt, *t, misfires, faults)?;
                obs_emit!(
                    self.rec,
                    ObsEvent::RequestArrived {
                        t: *t,
                        disk: rt.id,
                        bytes: req.size_bytes,
                        write: matches!(req.kind, sdpm_trace::ReqKind::Write),
                    }
                );
                // The request's arrival closes the disk's idle gap.
                if *t > rt.idle_since {
                    obs_emit!(
                        self.rec,
                        ObsEvent::GapClose {
                            t: *t,
                            disk: rt.id,
                            opened: rt.idle_since,
                            level: rt.min_level,
                            standby: rt.hit_standby,
                        }
                    );
                    rt.gaps.push(GapRecord {
                        start: rt.idle_since,
                        end: *t,
                        level: rt.min_level,
                        standby: rt.hit_standby,
                    });
                }
                let (completion, svc) = self.service(rt, *t, req, faults)?;
                rt.requests += 1;
                // `service` leaves `cur_level` at the level that served the
                // request: at full speed its service time is the full-speed
                // time.
                let full = if rt.cur_level == max {
                    svc
                } else {
                    service_time_secs(&self.ladder, max, service_request(req))
                };
                let response = completion - *t;
                let slowdown = if full > 0.0 { response / full } else { 1.0 };
                *stall += response - full;
                obs_emit!(
                    self.rec,
                    ObsEvent::StallAccrued {
                        t: completion,
                        disk: rt.id,
                        secs: response - full,
                        slowdown,
                    }
                );
                if full > 0.0 {
                    *slow_sum += slowdown;
                    *nreq += 1;
                }
                *t = completion;
                // Open the next gap.
                rt.idle_since = *t;
                rt.min_level = rt.cur_level;
                rt.hit_standby = false;
                rt.drift_mark = *t;
                obs_emit!(self.rec, ObsEvent::GapOpen { t: *t, disk: rt.id });
                // Reactive DRPM response-window controller.
                if let Policy::Drpm(cfg) = self.policy {
                    self.drpm_window_update(rt, cfg, slowdown, *t, max, faults);
                }
            }
        }
        Ok(())
    }

    /// True when the disk can take the next request of a run on the
    /// steady fast path: it is spinning idle (no transition in flight)
    /// and [`Replay::catch_up`] at time `t` would be a no-op.
    fn steady_ok(&self, rt: &DiskRt, t: f64) -> bool {
        matches!(rt.machine.state(), DiskPowerState::Idle { .. }) && !self.due(rt, t)
    }

    /// Services one [`Run`] record. Each repetition is a compute span
    /// followed by the run's request templates; while a repetition stays
    /// inside one power-state segment (checked by [`Replay::steady_ok`])
    /// the request is serviced inline with the policy bookkeeping
    /// statically resolved — same machine calls, same float operations,
    /// in the same order as [`Replay::handle_event`], so the state after
    /// the run is bitwise identical. The moment a policy boundary (TPM
    /// threshold, DRPM drift window, scheduled action) lands inside the
    /// repetition, that position expands to the exact per-event handler.
    /// With a recorder attached every position expands, so observers see
    /// the full per-event stream.
    fn handle_run(&self, st: &mut ExecState, run: &Run) -> Result<(), SimError> {
        // `compress` builds only valid runs, but a hand-built RunTrace
        // reaches here unchecked — and a zero rotation would divide by
        // zero below.
        run.validate().map_err(SimError::InvalidRun)?;
        #[cfg(feature = "obs")]
        if self.rec.is_some() {
            return self.expand_run(st, run);
        }
        // Under fault injection the steady fast path is unsound: a
        // transient failure or slow spin-up inside the run changes
        // timing in ways `steady_ok` cannot prove away. Degrade the
        // whole record to per-event servicing and count the degradation.
        if self.faults.is_some() {
            st.faults.degraded_expansions += 1;
            return self.expand_run(st, run);
        }
        let max = self.ladder.max_level();
        // Full-speed service time is a function of the template only —
        // hoist it out of the repetition loop.
        let fulls: Vec<f64> = run
            .reqs
            .iter()
            .map(|tpl| service_time_secs(&self.ladder, max, service_request(&tpl.io)))
            .collect();
        let q = usize::try_from(run.reqs_per_rep()).unwrap_or(usize::MAX);
        let pool = u32::try_from(st.disks.len()).unwrap_or(u32::MAX);
        for rep in 0..run.count {
            // The per-event Compute arm is exactly `t += secs`, and every
            // repetition carries the same bitwise `secs_per_rep`.
            st.t += run.secs_per_rep;
            // Repetition `rep` issues template group `rep % rotation`;
            // each template's disk is fixed, so the hot path still does
            // no per-request disk arithmetic.
            // `rep % rotation` is below `MAX_ROTATION` (16), so the
            // conversion is lossless; a violation fails the slice loudly.
            let base = usize::try_from(rep % run.rotation).unwrap_or(usize::MAX) * q;
            for (j, tpl) in run.reqs[base..base + q].iter().enumerate() {
                let rt =
                    st.disks
                        .get_mut(tpl.io.disk.0 as usize)
                        .ok_or(SimError::DiskOutOfRange {
                            disk: tpl.io.disk.0,
                            pool,
                        })?;
                if !self.steady_ok(rt, st.t) {
                    self.handle_event(st, &run.event_at(rep, (1 + j) as u64))?;
                    continue;
                }
                // Steady fast path: catch_up is a proven no-op, obs is
                // off, and the request kind/blocks don't affect service —
                // only disk, size, and sequentiality do. The machine-call
                // sequence below is identical to the generic Io arm.
                if st.t > rt.idle_since {
                    rt.gaps.push(GapRecord {
                        start: rt.idle_since,
                        end: st.t,
                        level: rt.min_level,
                        standby: rt.hit_standby,
                    });
                }
                let arrive = st.t.max(rt.machine.now());
                rt.machine
                    .advance(arrive)
                    .map_err(|e| SimError::power("advance to arrival", rt.id, arrive, e))?;
                let start = st.t.max(rt.machine.now());
                let start = start.max(rt.machine.now());
                let level = rt
                    .machine
                    .begin_service(start)
                    .map_err(|e| SimError::power("begin_service", rt.id, start, e))?;
                rt.cur_level = level;
                let svc = service_time_secs(&self.ladder, level, service_request(&tpl.io));
                let completion = start + svc;
                rt.machine
                    .end_service(completion)
                    .map_err(|e| SimError::power("end_service", rt.id, completion, e))?;
                rt.requests += 1;
                let full = fulls[base + j];
                let response = completion - st.t;
                let slowdown = if full > 0.0 { response / full } else { 1.0 };
                st.stall += response - full;
                if full > 0.0 {
                    st.slow_sum += slowdown;
                    st.nreq += 1;
                }
                st.t = completion;
                rt.idle_since = st.t;
                rt.min_level = rt.cur_level;
                rt.hit_standby = false;
                rt.drift_mark = st.t;
                if let Policy::Drpm(cfg) = self.policy {
                    self.drpm_window_update(rt, cfg, slowdown, st.t, max, &mut st.faults);
                }
            }
        }
        Ok(())
    }

    /// Expands a run record through the per-event handler — the
    /// degraded path used whenever a recorder or a fault plan makes the
    /// steady fast path unsound.
    fn expand_run(&self, st: &mut ExecState, run: &Run) -> Result<(), SimError> {
        for rep in 0..run.count {
            for sub in 0..run.events_per_rep() {
                self.handle_event(st, &run.event_at(rep, sub))?;
            }
        }
        Ok(())
    }

    /// Finalize: bring every disk to the end of execution, closing its
    /// final gap, and fold the per-disk ledgers into the report.
    fn finish(&self, st: ExecState) -> Result<SimReport, SimError> {
        let ExecState {
            mut disks,
            t,
            stall,
            slow_sum,
            nreq,
            mut misfires,
            mut faults,
        } = st;
        let exec_secs = t;
        for rt in &mut disks {
            self.catch_up(rt, exec_secs, &mut misfires, &mut faults)?;
            let end = exec_secs.max(rt.machine.now());
            rt.machine
                .advance(end)
                .map_err(|e| SimError::power("finalize advance", rt.id, end, e))?;
            if end > rt.idle_since {
                obs_emit!(
                    self.rec,
                    ObsEvent::GapClose {
                        t: end,
                        disk: rt.id,
                        opened: rt.idle_since,
                        level: rt.min_level,
                        standby: rt.hit_standby,
                    }
                );
                rt.gaps.push(GapRecord {
                    start: rt.idle_since,
                    end,
                    level: rt.min_level,
                    standby: rt.hit_standby,
                });
            }
            obs_emit!(
                self.rec,
                ObsEvent::DiskEnergy {
                    t: end,
                    disk: rt.id,
                    joules: rt.machine.energy().breakdown().total_j(),
                }
            );
        }
        obs_emit!(self.rec, ObsEvent::RunEnd { t: exec_secs });

        let requests_total = disks.iter().map(|d| d.requests).sum();
        let per_disk: Vec<PerDiskReport> = disks
            .into_iter()
            .map(|rt| PerDiskReport {
                requests: rt.requests,
                energy: rt.machine.energy().breakdown(),
                spin_downs: rt.machine.spin_downs,
                spin_ups: rt.machine.spin_ups,
                rpm_shifts: rt.machine.rpm_shifts,
                gaps: rt.gaps,
            })
            .collect();
        let energy = per_disk
            .iter()
            .fold(EnergyBreakdown::default(), |acc, d| acc.merged(&d.energy));
        Ok(SimReport {
            policy: self.label.to_string(),
            exec_secs,
            energy,
            per_disk,
            requests: requests_total,
            stall_secs: stall,
            mean_slowdown: if nreq == 0 {
                1.0
            } else {
                slow_sum / nreq as f64
            },
            misfire_causes: misfires,
            faults,
            sim_path: SimPath::Streamed,
        })
    }

    /// Applies the policy's timed actions for one disk up to time `t`.
    /// The check whether any is due stays inline on every request; the
    /// actions themselves are out of line.
    #[inline]
    fn catch_up(
        &self,
        rt: &mut DiskRt,
        t: f64,
        misfires: &mut MisfireCauses,
        fc: &mut FaultCounts,
    ) -> Result<(), SimError> {
        if self.due(rt, t) {
            self.apply_due(rt, t, misfires, fc)
        } else {
            Ok(())
        }
    }

    /// True unless [`Replay::apply_due`] at time `t` would leave the disk
    /// untouched: each arm is the guard that body's first step tests.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn due(&self, rt: &DiskRt, t: f64) -> bool {
        match self.policy {
            Policy::Base | Policy::Directive(_) => false,
            Policy::Tpm(_) => {
                rt.idle_since + self.tpm_threshold <= t
                    && matches!(rt.machine.state(), DiskPowerState::Idle { .. })
            }
            Policy::Drpm(cfg) => {
                !rt.drift_hold
                    && rt.cur_level > RpmLevel::MIN
                    // `!(>)`, not `<=`: a NaN drift time fires, as in
                    // the body's loop.
                    && !(rt.drift_mark + cfg.idle_drift_secs > t)
            }
            Policy::Schedule(_) => rt.sched.get(rt.sched_idx).is_some_and(|a| a.at <= t),
            Policy::IdealTpm | Policy::IdealDrpm => {
                unreachable!("oracle policies are lowered before the replay")
            }
        }
    }

    /// The body of [`Replay::catch_up`]: fires every policy action due on
    /// this disk by time `t`.
    fn apply_due(
        &self,
        rt: &mut DiskRt,
        t: f64,
        misfires: &mut MisfireCauses,
        fc: &mut FaultCounts,
    ) -> Result<(), SimError> {
        match self.policy {
            Policy::Base | Policy::Directive(_) => {}
            Policy::Tpm(_) => {
                let fire = rt.idle_since + self.tpm_threshold;
                if fire <= t && matches!(rt.machine.state(), DiskPowerState::Idle { .. }) {
                    let at = fire.max(rt.machine.now());
                    if rt.machine.spin_down(at).is_ok() {
                        rt.hit_standby = true;
                        obs_transition!(self.rec, rt, at);
                    } else {
                        misfires.count(MisfireCause::SpinDownRejected);
                        obs_emit!(
                            self.rec,
                            ObsEvent::DirectiveMisfire {
                                t: at,
                                disk: rt.id,
                                cause: MisfireCause::SpinDownRejected.label(),
                            }
                        );
                    }
                }
            }
            Policy::Drpm(cfg) => {
                if rt.drift_hold {
                    return Ok(());
                }
                let one_step = self.params.rpm_transition_secs_per_step;
                while rt.cur_level > RpmLevel::MIN {
                    let fire = rt.drift_mark + cfg.idle_drift_secs;
                    if fire > t {
                        break;
                    }
                    // Complete any in-flight shift first.
                    if let DiskPowerState::Shifting { until, .. } = rt.machine.state() {
                        rt.machine
                            .advance(until)
                            .map_err(|e| SimError::power("finish shift", rt.id, until, e))?;
                    }
                    let at = fire.max(rt.machine.now());
                    // Injected fault: the actuator sticks at its current
                    // level. Counted both as a fault and as the misfire
                    // the policy observes; drifting stops for this gap.
                    if let Some(plan) = self.faults {
                        let n = rt.fault_seq;
                        rt.fault_seq += 1;
                        if plan.stuck_rpm(rt.id.0, n) {
                            fc.stuck_rpm += 1;
                            misfires.count(MisfireCause::RpmShiftRejected);
                            obs_emit!(
                                self.rec,
                                ObsEvent::FaultInjected {
                                    t: at,
                                    disk: rt.id,
                                    kind: sdpm_fault::kind::STUCK_RPM,
                                }
                            );
                            break;
                        }
                    }
                    let target = self.ladder.step_down(rt.cur_level);
                    if rt.machine.set_rpm(at, target).is_ok() {
                        obs_transition!(self.rec, rt, at);
                        rt.cur_level = target;
                        rt.min_level = rt.min_level.min(target);
                        rt.drift_mark = at + one_step;
                    } else {
                        misfires.count(MisfireCause::RpmShiftRejected);
                        obs_emit!(
                            self.rec,
                            ObsEvent::DirectiveMisfire {
                                t: at,
                                disk: rt.id,
                                cause: MisfireCause::RpmShiftRejected.label(),
                            }
                        );
                        break;
                    }
                }
            }
            Policy::Schedule(_) => {
                while rt.sched_idx < rt.sched.len() && rt.sched[rt.sched_idx].at <= t {
                    let a = rt.sched[rt.sched_idx];
                    rt.sched_idx += 1;
                    obs_emit!(
                        self.rec,
                        ObsEvent::DirectiveIssued {
                            t: a.at,
                            disk: rt.id,
                            action: action_label(a.action),
                            level: action_level(a.action),
                        }
                    );
                    if let Err(cause) = self.apply_action(rt, a.at, a.action, fc)? {
                        misfires.count(cause);
                        obs_emit!(
                            self.rec,
                            ObsEvent::DirectiveMisfire {
                                t: a.at,
                                disk: rt.id,
                                cause: cause.label(),
                            }
                        );
                    }
                }
            }
            Policy::IdealTpm | Policy::IdealDrpm => {
                unreachable!("oracle policies are lowered before the replay")
            }
        }
        Ok(())
    }

    /// Makes the disk serviceable at or after `t`, begins and completes
    /// service, and returns the completion time and the service time.
    /// A disk spinning idle at the arrival is served inline; fault
    /// retries and wake-ups are out of line.
    #[inline]
    fn service(
        &self,
        rt: &mut DiskRt,
        t: f64,
        req: &IoRequest,
        fc: &mut FaultCounts,
    ) -> Result<(f64, f64), SimError> {
        let t = match self.faults {
            Some(plan) => self.retry_transients(rt, t, plan, fc),
            None => t,
        };
        // Bring the machine to the arrival time first, so transitions that
        // finished before `t` are seen as completed (a spin-down that ended
        // an hour ago is a standby disk, not an in-flight transition).
        let arrive = t.max(rt.machine.now());
        rt.machine
            .advance(arrive)
            .map_err(|e| SimError::power("advance to arrival", rt.id, arrive, e))?;
        let start = match rt.machine.state() {
            DiskPowerState::Idle { .. } => t.max(rt.machine.now()),
            _ => self.wake(rt, t, fc)?,
        };
        // A directive-issued spin-up that came up slow delays readiness
        // past the machine's nominal transition end.
        let start = if self.faults.is_some() {
            start.max(rt.slow_ready_at)
        } else {
            start
        };
        let start = start.max(rt.machine.now());
        let level = rt
            .machine
            .begin_service(start)
            .map_err(|e| SimError::power("begin_service", rt.id, start, e))?;
        rt.cur_level = level;
        obs_emit!(
            self.rec,
            ObsEvent::ServiceStart {
                t: start,
                disk: rt.id,
                level,
            }
        );
        let svc = service_time_secs(&self.ladder, level, service_request(req));
        let completion = start + svc;
        rt.machine
            .end_service(completion)
            .map_err(|e| SimError::power("end_service", rt.id, completion, e))?;
        obs_emit!(
            self.rec,
            ObsEvent::ServiceEnd {
                t: completion,
                disk: rt.id,
            }
        );
        Ok((completion, svc))
    }

    /// Injected fault: transient service failures. Each failed attempt
    /// costs an exponentially growing backoff before the retry; a request
    /// whose budget runs out is serviced anyway (degraded) — the
    /// closed-loop application cannot drop it. Returns the effective
    /// arrival: the delay surfaces as stall.
    fn retry_transients(
        &self,
        rt: &mut DiskRt,
        t: f64,
        plan: &FaultPlan,
        fc: &mut FaultCounts,
    ) -> f64 {
        let n = rt.fault_seq;
        rt.fault_seq += 1;
        let (failed, exhausted) = plan.transient_failures(rt.id.0, n);
        if failed == 0 {
            return t;
        }
        fc.transient_failures += 1;
        fc.retries += u64::from(failed);
        if exhausted {
            fc.retry_exhausted += 1;
        }
        obs_emit!(
            self.rec,
            ObsEvent::FaultInjected {
                t,
                disk: rt.id,
                kind: sdpm_fault::kind::TRANSIENT,
            }
        );
        t + plan.backoff_secs(failed)
    }

    /// The time a request arriving at `t` can begin service on a disk
    /// that is not spinning idle: a wake-up from standby or from a
    /// spin-down, or the end of the transition in flight.
    fn wake(&self, rt: &mut DiskRt, t: f64, fc: &mut FaultCounts) -> Result<f64, SimError> {
        Ok(match rt.machine.state() {
            DiskPowerState::Idle { .. } => t.max(rt.machine.now()),
            DiskPowerState::Active { .. } => {
                // Unreachable through the closed-loop generator, but a
                // corrupted trace can interleave arrivals arbitrarily.
                return Err(SimError::power(
                    "begin_service (overlapping request)",
                    rt.id,
                    t,
                    PowerError::IllegalTransition {
                        state: "Active",
                        event: "begin_service",
                    },
                ));
            }
            DiskPowerState::Standby => {
                // Demand wake-up: full spin-up penalty.
                let at = t.max(rt.machine.now());
                rt.machine
                    .spin_up(at)
                    .map_err(|e| SimError::power("spin_up from standby", rt.id, at, e))?;
                obs_transition!(self.rec, rt, at);
                rt.cur_level = self.ladder.max_level();
                at + self.params.spin_up_secs + self.slow_spinup_extra(rt, at, fc)
            }
            DiskPowerState::SpinningDown { until } => {
                rt.machine
                    .advance(until)
                    .map_err(|e| SimError::power("finish spin-down", rt.id, until, e))?;
                rt.machine
                    .spin_up(until)
                    .map_err(|e| SimError::power("spin_up after spin-down", rt.id, until, e))?;
                obs_transition!(self.rec, rt, until);
                rt.cur_level = self.ladder.max_level();
                until + self.params.spin_up_secs + self.slow_spinup_extra(rt, until, fc)
            }
            DiskPowerState::SpinningUp { until } | DiskPowerState::Shifting { until, .. } => {
                until.max(t)
            }
        })
    }

    /// Injected fault: a demand spin-up that comes up slower than the
    /// nominal `Tsu`. Returns the extra seconds (0.0 when no plan is
    /// attached or this spin-up is healthy). The machine still models
    /// the nominal transition; only the application-visible readiness
    /// is delayed.
    fn slow_spinup_extra(&self, rt: &mut DiskRt, at: f64, fc: &mut FaultCounts) -> f64 {
        #[cfg(not(feature = "obs"))]
        let _ = at;
        let Some(plan) = self.faults else {
            return 0.0;
        };
        let n = rt.fault_seq;
        rt.fault_seq += 1;
        let extra = plan.slow_spinup_extra(rt.id.0, n, self.params.spin_up_secs);
        if extra > 0.0 {
            fc.slow_spinups += 1;
            obs_emit!(
                self.rec,
                ObsEvent::FaultInjected {
                    t: at,
                    disk: rt.id,
                    kind: sdpm_fault::kind::SLOW_SPINUP,
                }
            );
        }
        extra
    }

    /// Reactive DRPM window bookkeeping after a completed request. The
    /// tally stays inline on every request; a reaction is out of line.
    #[inline]
    fn drpm_window_update(
        &self,
        rt: &mut DiskRt,
        cfg: &DrpmConfig,
        slowdown: f64,
        t: f64,
        max: RpmLevel,
        fc: &mut FaultCounts,
    ) {
        rt.window_sum += slowdown;
        rt.window_n += 1;
        if (slowdown > cfg.upper_tolerance && rt.cur_level < max) || rt.window_n >= cfg.window {
            self.drpm_react(rt, cfg, slowdown, t, max, fc);
        }
    }

    /// The reaction [`Replay::drpm_window_update`] calls for: a ramp-up
    /// after a severely slow request, then the check of a full window.
    fn drpm_react(
        &self,
        rt: &mut DiskRt,
        cfg: &DrpmConfig,
        slowdown: f64,
        t: f64,
        max: RpmLevel,
        fc: &mut FaultCounts,
    ) {
        // Injected fault: a stuck-at-RPM actuator ignores the shift
        // request. The window statistics still reset, so a stuck disk
        // keeps re-attempting on later windows — mirroring a retried
        // ioctl rather than a wedged controller.
        let stuck = |rt: &mut DiskRt, fc: &mut FaultCounts| -> bool {
            let Some(plan) = self.faults else {
                return false;
            };
            let n = rt.fault_seq;
            rt.fault_seq += 1;
            if plan.stuck_rpm(rt.id.0, n) {
                fc.stuck_rpm += 1;
                obs_emit!(
                    self.rec,
                    ObsEvent::FaultInjected {
                        t,
                        disk: rt.id,
                        kind: sdpm_fault::kind::STUCK_RPM,
                    }
                );
                true
            } else {
                false
            }
        };
        // Immediate per-request reaction ([10]'s upper tolerance): a
        // severely slow service ramps the disk up one level right away;
        // moderate slowdowns wait for the window check, which is what
        // lets penalties linger after deep drifts (the paper's Fig. 6
        // large-stripe behavior).
        if slowdown > cfg.upper_tolerance && rt.cur_level < max {
            let target = RpmLevel((rt.cur_level.0 + 1).min(max.0));
            if !stuck(rt, fc) && rt.machine.set_rpm(t, target).is_ok() {
                obs_transition!(self.rec, rt, t);
                rt.cur_level = target;
            }
        }
        if rt.window_n < cfg.window {
            return;
        }
        let avg = rt.window_sum / rt.window_n as f64;
        rt.window_sum = 0.0;
        rt.window_n = 0;
        if avg > cfg.upper_tolerance {
            // Compensate: restore full speed and hold it until the
            // response recovers (the slowdown/restore oscillation the
            // paper describes for large stripe sizes).
            if !stuck(rt, fc) && rt.machine.set_rpm(t, max).is_ok() {
                obs_transition!(self.rec, rt, t);
                rt.cur_level = max;
            }
            rt.drift_hold = true;
        } else if avg <= cfg.lower_tolerance {
            rt.drift_hold = false;
        }
    }

    /// Applies one power-management call at time `t`. The inner result
    /// reports why the call could not be applied as issued (a misfire);
    /// the outer one surfaces machine failures on malformed input.
    fn apply_action(
        &self,
        rt: &mut DiskRt,
        t: f64,
        action: PowerAction,
        fc: &mut FaultCounts,
    ) -> Result<Result<(), MisfireCause>, SimError> {
        match action {
            PowerAction::SpinDown => {
                // Let an in-flight shift finish, then spin down.
                if let DiskPowerState::Shifting { until, .. } = rt.machine.state() {
                    rt.machine
                        .advance(until)
                        .map_err(|e| SimError::power("finish shift", rt.id, until, e))?;
                }
                let at = t.max(rt.machine.now());
                if rt.machine.spin_down(at).is_ok() {
                    rt.hit_standby = true;
                    obs_transition!(self.rec, rt, at);
                    Ok(Ok(()))
                } else {
                    Ok(Err(MisfireCause::SpinDownRejected))
                }
            }
            PowerAction::SpinUp => {
                if let DiskPowerState::SpinningDown { until } = rt.machine.state() {
                    rt.machine
                        .advance(until)
                        .map_err(|e| SimError::power("finish spin-down", rt.id, until, e))?;
                }
                let at = t.max(rt.machine.now());
                if rt.machine.spin_up(at).is_ok() {
                    rt.cur_level = self.ladder.max_level();
                    obs_transition!(self.rec, rt, at);
                    // Injected fault: a directive-issued spin-up that
                    // comes up slow. The pre-activation distance `d`
                    // was computed for the nominal `Tsu`, so the next
                    // request catches the disk still spinning up and
                    // stalls — exactly the interaction the harness
                    // exists to exercise.
                    if self.faults.is_some() {
                        let extra = self.slow_spinup_extra(rt, at, fc);
                        if extra > 0.0 {
                            rt.slow_ready_at = at + self.params.spin_up_secs + extra;
                        }
                    }
                    Ok(Ok(()))
                } else {
                    Ok(Err(MisfireCause::SpinUpRejected))
                }
            }
            PowerAction::SetRpm(level) => {
                if !self.ladder.contains(level) {
                    return Ok(Err(MisfireCause::OffLadderLevel));
                }
                match rt.machine.state() {
                    DiskPowerState::Shifting { until, .. }
                    | DiskPowerState::SpinningUp { until } => {
                        rt.machine
                            .advance(until)
                            .map_err(|e| SimError::power("finish transition", rt.id, until, e))?;
                    }
                    _ => {}
                }
                // Injected fault: stuck-at-RPM — the platters never
                // leave their current speed, which the policy observes
                // as a rejected shift.
                if let Some(plan) = self.faults {
                    let n = rt.fault_seq;
                    rt.fault_seq += 1;
                    if plan.stuck_rpm(rt.id.0, n) {
                        fc.stuck_rpm += 1;
                        obs_emit!(
                            self.rec,
                            ObsEvent::FaultInjected {
                                t,
                                disk: rt.id,
                                kind: sdpm_fault::kind::STUCK_RPM,
                            }
                        );
                        return Ok(Err(MisfireCause::RpmShiftRejected));
                    }
                }
                let at = t.max(rt.machine.now());
                if rt.machine.set_rpm(at, level).is_ok() {
                    obs_transition!(self.rec, rt, at);
                    rt.cur_level = level;
                    rt.min_level = rt.min_level.min(level);
                    Ok(Ok(()))
                } else {
                    Ok(Err(MisfireCause::RpmShiftRejected))
                }
            }
        }
    }
}

/// The slice of `req` the service model reads.
fn service_request(req: &IoRequest) -> ServiceRequest {
    ServiceRequest {
        size_bytes: req.size_bytes,
        sequential: req.sequential,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DirectiveConfig, TpmConfig};
    use sdpm_disk::ultrastar36z15;
    use sdpm_layout::DiskId;
    use sdpm_trace::ReqKind;

    fn pool() -> DiskPool {
        DiskPool::new(2)
    }

    fn io(disk: u32, size: u64, nest: usize, iter: u64) -> AppEvent {
        AppEvent::Io(IoRequest {
            disk: DiskId(disk),
            start_block: 0,
            size_bytes: size,
            kind: ReqKind::Read,
            sequential: false,
            nest,
            iter,
        })
    }

    fn compute(nest: usize, secs: f64) -> AppEvent {
        AppEvent::Compute {
            nest,
            first_iter: 0,
            iters: 1,
            secs,
        }
    }

    fn trace(events: Vec<AppEvent>) -> Trace {
        let t = Trace {
            name: "t".into(),
            pool_size: 2,
            events,
        };
        t.validate().unwrap();
        t
    }

    #[test]
    fn base_run_times_compute_plus_service() {
        let tr = trace(vec![compute(0, 1.0), io(0, 4096, 0, 0), compute(0, 1.0)]);
        let r = Engine::new(ultrastar36z15(), pool(), Policy::Base)
            .events(&tr)
            .unwrap();
        let svc = 0.0034 + 0.002 + 4096.0 / (55.0 * 1024.0 * 1024.0);
        assert!((r.exec_secs - (2.0 + svc)).abs() < 1e-9);
        assert_eq!(r.requests, 1);
        assert!((r.stall_secs).abs() < 1e-12);
    }

    #[test]
    fn base_energy_is_idle_dominated() {
        let tr = trace(vec![compute(0, 10.0)]);
        let r = Engine::new(ultrastar36z15(), pool(), Policy::Base)
            .events(&tr)
            .unwrap();
        // Two disks idling 10 s at 10.2 W.
        assert!((r.total_energy_j() - 2.0 * 102.0).abs() < 1e-6);
    }

    #[test]
    fn tpm_spins_down_after_threshold_and_pays_wakeup() {
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            compute(0, 100.0),
            io(0, 4096, 0, 1),
        ]);
        let r = Engine::new(ultrastar36z15(), pool(), Policy::Tpm(TpmConfig::default()))
            .events(&tr)
            .unwrap();
        let d0 = &r.per_disk[0];
        assert_eq!(d0.spin_downs, 1);
        assert_eq!(d0.spin_ups, 1);
        // The wake-up stalls the app by the full spin-up time.
        assert!(r.stall_secs > 10.0, "stall {}", r.stall_secs);
        // Gap record shows standby.
        assert!(d0.gaps.iter().any(|g| g.standby));
    }

    #[test]
    fn tpm_ignores_short_gaps() {
        let tr = trace(vec![io(0, 4096, 0, 0), compute(0, 5.0), io(0, 4096, 0, 1)]);
        let r = Engine::new(ultrastar36z15(), pool(), Policy::Tpm(TpmConfig::default()))
            .events(&tr)
            .unwrap();
        assert_eq!(r.per_disk[0].spin_downs, 0);
        assert!(r.stall_secs < 1e-9);
    }

    #[test]
    fn tpm_saves_energy_on_very_long_gaps() {
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            compute(0, 500.0),
            io(0, 4096, 0, 1),
        ]);
        let p = ultrastar36z15();
        let base = Engine::new(p.clone(), pool(), Policy::Base)
            .events(&tr)
            .unwrap();
        let tpm = Engine::new(p, pool(), Policy::Tpm(TpmConfig::default()))
            .events(&tr)
            .unwrap();
        assert!(tpm.total_energy_j() < base.total_energy_j());
    }

    #[test]
    fn drpm_drifts_down_while_idle_and_saves() {
        let tr = trace(vec![io(0, 4096, 0, 0), compute(0, 60.0), io(0, 4096, 0, 1)]);
        let p = ultrastar36z15();
        let base = Engine::new(p.clone(), pool(), Policy::Base)
            .events(&tr)
            .unwrap();
        let drpm = Engine::new(p, pool(), Policy::Drpm(DrpmConfig::default()))
            .events(&tr)
            .unwrap();
        assert!(drpm.total_energy_j() < base.total_energy_j());
        assert!(drpm.per_disk[0].rpm_shifts > 0);
        // The second request finds the disk slow: a real stall.
        assert!(drpm.stall_secs > 0.0);
        // Gap record captured a deep dwell level.
        let deep = drpm.per_disk[0].gaps.iter().map(|g| g.level).min().unwrap();
        assert_eq!(deep, RpmLevel::MIN);
    }

    #[test]
    fn drpm_untouched_disk_drifts_to_bottom() {
        let tr = trace(vec![compute(0, 30.0)]);
        let p = ultrastar36z15();
        let r = Engine::new(p, pool(), Policy::Drpm(DrpmConfig::default()))
            .events(&tr)
            .unwrap();
        // Disk 1 never used: it should have drifted all the way down.
        assert_eq!(r.per_disk[1].gaps.len(), 1);
        assert_eq!(r.per_disk[1].gaps[0].level, RpmLevel::MIN);
    }

    #[test]
    fn directive_policy_executes_power_calls() {
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let low = RpmLevel(0);
        let back = ladder.transition_secs(low, ladder.max_level());
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SetRpm(low),
            },
            compute(0, 30.0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SetRpm(ladder.max_level()),
            },
            compute(0, back + 0.1), // pre-activation distance
            io(0, 4096, 0, 1),
        ]);
        let base = Engine::new(p.clone(), pool(), Policy::Base)
            .events(&tr)
            .unwrap();
        let cm = Engine::new(p, pool(), Policy::Directive(DirectiveConfig::default()))
            .events(&tr)
            .unwrap();
        assert!(cm.total_energy_j() < base.total_energy_j());
        // Pre-activation hides the transition: negligible stall.
        assert!(cm.stall_secs < 1e-6, "stall {}", cm.stall_secs);
        assert_eq!(cm.misfire_causes.total(), 0);
    }

    #[test]
    fn directive_spin_down_and_preactivate_hides_spinup() {
        let p = ultrastar36z15();
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinDown,
            },
            compute(0, 60.0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinUp,
            },
            compute(0, 11.0), // > 10.9 s spin-up
            io(0, 4096, 0, 1),
        ]);
        let cm = Engine::new(
            p.clone(),
            pool(),
            Policy::Directive(DirectiveConfig::default()),
        )
        .events(&tr)
        .unwrap();
        assert_eq!(cm.per_disk[0].spin_downs, 1);
        assert_eq!(cm.per_disk[0].spin_ups, 1);
        assert!(cm.stall_secs < 1e-6, "stall {}", cm.stall_secs);
        let base = Engine::new(p, pool(), Policy::Base).events(&tr).unwrap();
        assert!(cm.total_energy_j() < base.total_energy_j());
    }

    #[test]
    fn late_preactivation_stalls_but_recovers() {
        let p = ultrastar36z15();
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinDown,
            },
            compute(0, 60.0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinUp,
            },
            compute(0, 2.0), // far less than the 10.9 s spin-up
            io(0, 4096, 0, 1),
        ]);
        let cm = Engine::new(p, pool(), Policy::Directive(DirectiveConfig::default()))
            .events(&tr)
            .unwrap();
        // The app waits out the remaining ~8.9 s of spin-up.
        assert!(
            cm.stall_secs > 8.0 && cm.stall_secs < 10.0,
            "{}",
            cm.stall_secs
        );
    }

    #[test]
    fn misfired_directives_are_counted_not_fatal() {
        let p = ultrastar36z15();
        let tr = trace(vec![
            // Spin up a disk that is already spinning.
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinUp,
            },
            // Set an off-ladder level.
            AppEvent::Power {
                disk: DiskId(1),
                action: PowerAction::SetRpm(RpmLevel(99)),
            },
            compute(0, 1.0),
        ]);
        let cm = Engine::new(p, pool(), Policy::Directive(DirectiveConfig::default()))
            .events(&tr)
            .unwrap();
        assert_eq!(cm.misfire_causes.total(), 2);
        assert_eq!(cm.misfire_causes.spin_up_rejected, 1);
        assert_eq!(cm.misfire_causes.off_ladder_level, 1);
    }

    #[test]
    fn schedule_policy_replays_timed_actions() {
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let low = RpmLevel(2);
        let sched = vec![
            vec![
                ScheduledAction {
                    at: 1.0,
                    action: PowerAction::SetRpm(low),
                },
                ScheduledAction {
                    at: 20.0 - ladder.transition_secs(low, ladder.max_level()),
                    action: PowerAction::SetRpm(ladder.max_level()),
                },
            ],
            vec![],
        ];
        let tr = trace(vec![compute(0, 20.0), io(0, 4096, 0, 0)]);
        let r = Engine::new(p, pool(), Policy::Schedule(sched.into()))
            .events(&tr)
            .unwrap();
        assert_eq!(r.per_disk[0].rpm_shifts, 2);
        assert!(
            r.stall_secs < 1e-6,
            "pre-activation exact: {}",
            r.stall_secs
        );
        assert_eq!(r.per_disk[0].gaps[0].level, low);
    }

    /// An oracle engine lowers its policy to a schedule, but its report
    /// carries the oracle's label, as `SimReport::policy` promises.
    #[test]
    fn standalone_oracle_reports_carry_the_scheme_label() {
        let tr = trace(vec![io(0, 4096, 0, 0), compute(0, 30.0), io(0, 4096, 0, 1)]);
        for (policy, label) in [(Policy::IdealTpm, "ITPM"), (Policy::IdealDrpm, "IDRPM")] {
            let r = crate::simulate(&tr, &ultrastar36z15(), pool(), &policy);
            assert_eq!(r.policy, label);
            let r = Engine::new(ultrastar36z15(), pool(), policy)
                .runs(&sdpm_trace::compress(&tr))
                .unwrap();
            assert_eq!(r.policy, label, "run-compressed path");
        }
        let r = Engine::new(
            ultrastar36z15(),
            pool(),
            Policy::Schedule(Vec::new().into()),
        )
        .events(&tr)
        .unwrap();
        assert_eq!(r.policy, "Schedule", "a given schedule keeps its own label");
    }

    #[test]
    fn power_events_are_inert_under_base_policy() {
        let p = ultrastar36z15();
        let tr = trace(vec![
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinDown,
            },
            compute(0, 5.0),
        ]);
        let r = Engine::new(p, pool(), Policy::Base).events(&tr).unwrap();
        assert_eq!(r.per_disk[0].spin_downs, 0);
        assert!((r.exec_secs - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gap_records_cover_execution_for_unused_disk() {
        let p = ultrastar36z15();
        let tr = trace(vec![compute(0, 7.0)]);
        let r = Engine::new(p, pool(), Policy::Base).events(&tr).unwrap();
        for d in &r.per_disk {
            assert_eq!(d.gaps.len(), 1);
            assert!((d.gaps[0].len_secs() - 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sequential_requests_are_cheaper_than_random() {
        let p = ultrastar36z15();
        let mk = |seq: bool| {
            trace(vec![
                io(0, 65536, 0, 0),
                AppEvent::Io(IoRequest {
                    disk: DiskId(0),
                    start_block: 128,
                    size_bytes: 65536,
                    kind: ReqKind::Read,
                    sequential: seq,
                    nest: 0,
                    iter: 1,
                }),
            ])
        };
        let seq = Engine::new(p.clone(), pool(), Policy::Base)
            .events(&mk(true))
            .unwrap();
        let rnd = Engine::new(p, pool(), Policy::Base)
            .events(&mk(false))
            .unwrap();
        assert!(seq.exec_secs < rnd.exec_secs);
    }
}
