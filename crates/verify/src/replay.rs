//! Independent replay of the directive-policy semantics.
//!
//! `sdpm-sim`'s engine is the *reference* executor; this module is a
//! second, from-scratch implementation of the same directive semantics
//! built directly on the [`PowerStateMachine`]. Replaying a trace here
//! and diffing the result against a [`SimReport`] catches drift between
//! what the simulator reports and what the power-state machine actually
//! integrates — the static analogue of the dynamic misfire accounting in
//! `sdpm-obs`.
//!
//! Only directive-driven runs are replayable: reactive policies (TPM
//! timers, DRPM drift) and oracle schedules act on their own clocks, not
//! from the event stream, so their behaviour is not a function of the
//! trace alone. That covers the Base scheme (no directives, no
//! transitions) and both compiler-managed schemes.

use crate::diag::{Code, Diagnostic, Span};
use sdpm_disk::{
    service_time_secs, DiskParams, DiskPowerState, EnergyBreakdown, PowerStateMachine, RpmLadder,
    ServiceRequest,
};
use sdpm_sim::{MisfireCauses, SimReport};
use sdpm_trace::{AppEvent, PowerAction, Trace};

/// What one disk did during the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayDisk {
    pub requests: u64,
    pub energy: EnergyBreakdown,
    pub spin_downs: u64,
    pub spin_ups: u64,
    pub rpm_shifts: u64,
}

/// Replay result, shaped for comparison against a [`SimReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    pub exec_secs: f64,
    pub energy: EnergyBreakdown,
    pub per_disk: Vec<ReplayDisk>,
    pub misfires: MisfireCauses,
}

impl ReplayReport {
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// Replays `trace` under directive semantics: `Power` events are applied
/// to the named disk's state machine (with `overhead_secs` charged to
/// the application per call), `Io` events wait out any commanded
/// transition, and `Compute` events advance wall-clock time.
#[must_use]
pub fn replay_directives(trace: &Trace, params: &DiskParams, overhead_secs: f64) -> ReplayReport {
    let pool_size = trace.pool_size;
    let ladder = RpmLadder::new(params);
    let mut machines: Vec<PowerStateMachine> = (0..pool_size)
        .map(|_| PowerStateMachine::new(params.clone()))
        .collect();
    let mut requests = vec![0u64; pool_size as usize];
    let mut misfires = MisfireCauses::default();
    let mut t = 0.0f64;

    for event in &trace.events {
        match event {
            AppEvent::Compute { secs, .. } => t += secs,
            AppEvent::Power { disk, action } => {
                let m = &mut machines[disk.0 as usize];
                match action {
                    PowerAction::SpinDown => {
                        if let DiskPowerState::Shifting { until, .. } = m.state() {
                            m.advance(until).expect("finish shift");
                        }
                        let at = t.max(m.now());
                        if m.spin_down(at).is_err() {
                            misfires.spin_down_rejected += 1;
                        }
                    }
                    PowerAction::SpinUp => {
                        if let DiskPowerState::SpinningDown { until } = m.state() {
                            m.advance(until).expect("finish spin-down");
                        }
                        let at = t.max(m.now());
                        if m.spin_up(at).is_err() {
                            misfires.spin_up_rejected += 1;
                        }
                    }
                    PowerAction::SetRpm(level) => {
                        if !ladder.contains(*level) {
                            misfires.off_ladder_level += 1;
                        } else {
                            match m.state() {
                                DiskPowerState::Shifting { until, .. }
                                | DiskPowerState::SpinningUp { until } => {
                                    m.advance(until).expect("finish transition");
                                }
                                _ => {}
                            }
                            let at = t.max(m.now());
                            if m.set_rpm(at, *level).is_err() {
                                misfires.rpm_shift_rejected += 1;
                            }
                        }
                    }
                }
                t += overhead_secs;
            }
            AppEvent::Io(req) => {
                let d = req.disk.0 as usize;
                let m = &mut machines[d];
                m.advance(t.max(m.now())).expect("advance to arrival");
                let start = match m.state() {
                    DiskPowerState::Idle { .. } => t.max(m.now()),
                    DiskPowerState::Active { .. } => {
                        unreachable!("closed-loop app cannot overlap requests on one disk")
                    }
                    DiskPowerState::Standby => {
                        let at = t.max(m.now());
                        m.spin_up(at).expect("spin up from standby");
                        at + params.spin_up_secs
                    }
                    DiskPowerState::SpinningDown { until } => {
                        m.advance(until).expect("finish spin-down");
                        m.spin_up(until).expect("spin up after spin-down");
                        until + params.spin_up_secs
                    }
                    DiskPowerState::SpinningUp { until }
                    | DiskPowerState::Shifting { until, .. } => until.max(t),
                };
                let start = start.max(m.now());
                let level = m.begin_service(start).expect("serviceable at start");
                let st = service_time_secs(
                    &ladder,
                    level,
                    ServiceRequest {
                        size_bytes: req.size_bytes,
                        sequential: req.sequential,
                    },
                );
                let completion = start + st;
                m.end_service(completion).expect("end service");
                requests[d] += 1;
                t = completion;
            }
        }
    }

    let exec_secs = t;
    let per_disk: Vec<ReplayDisk> = machines
        .into_iter()
        .zip(requests)
        .map(|(mut m, req)| {
            let end = exec_secs.max(m.now());
            m.advance(end).expect("finalize advance");
            ReplayDisk {
                requests: req,
                energy: m.energy().breakdown(),
                spin_downs: m.spin_downs,
                spin_ups: m.spin_ups,
                rpm_shifts: m.rpm_shifts,
            }
        })
        .collect();
    let energy = per_disk
        .iter()
        .fold(EnergyBreakdown::default(), |acc, d| acc.merged(&d.energy));
    ReplayReport {
        exec_secs,
        energy,
        per_disk,
        misfires,
    }
}

/// Relative tolerance for energy/time comparison: the replay and the
/// engine sum the same terms in (potentially) different orders.
const REL_TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= REL_TOL * scale
}

/// Replays `trace` and diffs the result against `report`.
///
/// Emits [`Code::ReplayEnergyMismatch`] when the energy integral or the
/// execution time disagree, [`Code::ReplayMisfireMismatch`] when the
/// misfire breakdown does, and a [`Code::ReplayMisfires`] warning when
/// the replay itself predicts misfires (the directives as written do not
/// all land — usually a short pre-activation lead under noise).
///
/// A report produced under fault injection ([`SimReport::faults`]
/// nonzero) cannot be cross-checked: the replay models fault-free
/// directive semantics, so any divergence would be the injected faults,
/// not simulator drift. Such reports get a single
/// [`Code::ReplayUnderFaults`] warning and no diff.
#[must_use]
pub fn crosscheck_report(
    trace: &Trace,
    params: &DiskParams,
    overhead_secs: f64,
    report: &SimReport,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if report.faults.total() > 0 {
        diags.push(
            Diagnostic::new(
                Code::ReplayUnderFaults,
                format!(
                    "report carries {} injected fault(s); fault-free replay cross-check skipped",
                    report.faults.total()
                ),
            )
            .label(Span::Run, "whole run")
            .help("re-run the scheme without a fault plan to cross-check directive semantics"),
        );
        return diags;
    }
    let replay = replay_directives(trace, params, overhead_secs);

    if !close(replay.exec_secs, report.exec_secs) {
        diags.push(
            Diagnostic::new(
                Code::ReplayEnergyMismatch,
                format!(
                    "execution time diverges: replay {:.6} s vs report {:.6} s",
                    replay.exec_secs, report.exec_secs
                ),
            )
            .label(Span::Run, "whole run")
            .help("the simulator and the replay disagree on directive timing semantics"),
        );
    }
    if !close(replay.total_energy_j(), report.total_energy_j()) {
        diags.push(
            Diagnostic::new(
                Code::ReplayEnergyMismatch,
                format!(
                    "energy integral diverges: replay {:.3} J vs report {:.3} J",
                    replay.total_energy_j(),
                    report.total_energy_j()
                ),
            )
            .label(Span::Run, "whole run")
            .help("the simulator and the replay disagree on the power-state trajectory"),
        );
    }
    for (d, (r, s)) in replay.per_disk.iter().zip(&report.per_disk).enumerate() {
        if r.spin_downs != s.spin_downs || r.spin_ups != s.spin_ups || r.rpm_shifts != s.rpm_shifts
        {
            diags.push(
                Diagnostic::new(
                    Code::ReplayEnergyMismatch,
                    format!(
                        "disk {d} transition counts diverge: replay \
                         {}↓/{}↑/{}shift vs report {}↓/{}↑/{}shift",
                        r.spin_downs,
                        r.spin_ups,
                        r.rpm_shifts,
                        s.spin_downs,
                        s.spin_ups,
                        s.rpm_shifts
                    ),
                )
                .label(Span::Run, "whole run")
                .help("a directive was applied by one executor and rejected by the other"),
            );
        }
    }
    if replay.misfires != report.misfire_causes {
        diags.push(
            Diagnostic::new(
                Code::ReplayMisfireMismatch,
                format!(
                    "misfire breakdown diverges: replay [{}] vs report [{}]",
                    fmt_misfires(&replay.misfires),
                    fmt_misfires(&report.misfire_causes)
                ),
            )
            .label(Span::Run, "whole run")
            .help("replay and simulator must reject exactly the same directives"),
        );
    } else if replay.misfires.total() > 0 {
        diags.push(
            Diagnostic::new(
                Code::ReplayMisfires,
                format!(
                    "{} directive(s) misfire under replay: [{}]",
                    replay.misfires.total(),
                    fmt_misfires(&replay.misfires)
                ),
            )
            .label(Span::Run, "whole run")
            .help("misfires burn the call overhead without the transition; tighten the leads"),
        );
    }
    diags
}

fn fmt_misfires(m: &MisfireCauses) -> String {
    m.breakdown()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(c, n)| format!("{c}={n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_core::{PipelineConfig, Scheme, Session};
    use sdpm_workloads::synth::checkpoint_loop;

    #[test]
    fn faulted_report_skips_crosscheck_with_warning() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        let art = session.run_with_artifacts(Scheme::CmTpm);

        let clean = crosscheck_report(&art.trace, &cfg.params, cfg.overhead_secs, &art.report);
        assert!(
            clean.iter().all(|d| d.code != Code::ReplayUnderFaults),
            "fault-free report must be cross-checked normally"
        );

        let mut faulted = art.report.clone();
        faulted.faults.transient_failures = 3;
        let diags = crosscheck_report(&art.trace, &cfg.params, cfg.overhead_secs, &faulted);
        assert_eq!(diags.len(), 1, "exactly the skip warning: {diags:?}");
        assert_eq!(diags[0].code, Code::ReplayUnderFaults);
        assert_eq!(diags[0].severity, crate::diag::Severity::Warning);
    }
}
