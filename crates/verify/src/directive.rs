//! Directive-safety checking: independently re-derive the commanded disk
//! power state along the compiler's estimated timeline and flag every
//! violated invariant.
//!
//! The checker walks the instrumented event stream once, tracking per
//! disk what the directives *command* the disk to be (full speed, a low
//! RPM level, or standby). From that it checks:
//!
//! * **SDPM-E001/E002** — no I/O request is serviced while its disk is
//!   commanded to standby / below full speed; every power-down must be
//!   closed by a pre-activation before the next request.
//! * **SDPM-E003** — the pre-activation's lead on the estimated timeline
//!   satisfies formula (1): at least `Tsu + Tm` (spin-up or shift-back
//!   time plus the call overhead) before the protected request.
//! * **SDPM-E004** — no power-down on a gap that does not pay: below the
//!   TPM break-even threshold, an RPM dwell that cannot fit the gap, or
//!   (with a plan) a level that is not the energy-optimal choice for the
//!   estimated gap.
//! * **SDPM-E005/E006** — RPM levels stay on the ladder; directive
//!   pairing is well-formed (no double spin-down, no spurious spin-up,
//!   no restore of a full-speed disk, no TPM/DRPM mixing per gap).
//! * **SDPM-E007** — with a plan: the trace's directives match the
//!   planner's decisions one-to-one, in order, per disk.
//! * **SDPM-E008** — the trace itself is well-formed (delegates to
//!   [`Trace::validate`]).
//!
//! When the insertion plan is supplied ([`PlanRef`]) the checker rebuilds
//! the *exact* timeline the planner used (same per-nest noise factors)
//! and judges each decision by its recorded `estimated_secs`, so a clean
//! pipeline run verifies clean under any noise model — the checker finds
//! unsound insertions, not estimation error (the simulator's misfire
//! accounting covers the latter). Without a plan, gaps are measured
//! directly on the noise-free estimated timeline.

use std::collections::VecDeque;

use crate::diag::{Code, Diagnostic, Span};
use sdpm_core::Decision;
use sdpm_disk::{
    best_rpm_for_gap, breakeven::tpm_break_even_secs, breakeven::tpm_gap_is_worthwhile,
    service_time_secs, DiskParams, RpmLadder, RpmLevel, ServiceRequest,
};
use sdpm_trace::{AppEvent, PowerAction, Trace};

/// Absolute slack when comparing times on the estimated timeline.
/// Compute-segment splits re-associate floating-point sums; a microsecond
/// absorbs that without masking any real lead violation (leads are
/// measured in seconds).
pub const EPS_SECS: f64 = 1e-6;

/// Borrowed view of the insertion plan (see
/// [`sdpm_core::InsertOutcome`]): the per-nest timeline noise factors and
/// the per-gap decisions, in the planner's disk-major order.
#[derive(Debug, Clone, Copy)]
pub struct PlanRef<'a> {
    pub nest_factors: &'a [f64],
    pub decisions: &'a [Decision],
}

impl<'a> PlanRef<'a> {
    /// View into an [`sdpm_core::InsertOutcome`].
    #[must_use]
    pub fn of(outcome: &'a sdpm_core::InsertOutcome) -> Self {
        PlanRef {
            nest_factors: &outcome.nest_factors,
            decisions: &outcome.decisions,
        }
    }
}

/// What the directives command a disk to be.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Full,
    Slow { level: RpmLevel, at: usize },
    Down { at: usize },
}

/// A pre-activation awaiting the request it protects.
struct Pending {
    idx: usize,
    t: f64,
    /// Formula (1) lead this pre-activation must give: `Tsu + Tm`.
    need: f64,
    kind: &'static str,
}

struct DiskSt {
    cmd: Cmd,
    pending: Option<Pending>,
    last_io_end: f64,
    /// Cursor into this disk's request list: next not-yet-seen request.
    next_io: usize,
}

/// Checks every directive-safety invariant of `trace`. Pass the insertion
/// plan when you have it — it makes the gap checks exact under noise.
#[must_use]
pub fn verify_directives(
    trace: &Trace,
    params: &DiskParams,
    overhead_secs: f64,
    plan: Option<PlanRef<'_>>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Err(e) = trace.validate() {
        diags.push(
            Diagnostic::new(Code::MalformedTrace, format!("trace fails validation: {e}"))
                .help("regenerate the trace; downstream checks need a well-formed stream"),
        );
        return diags;
    }

    let ladder = RpmLadder::new(params);
    let max = ladder.max_level();
    let pool = trace.pool_size as usize;

    // Estimated timeline (the planner's view of the run).
    let factor = |nest: usize| -> f64 {
        plan.and_then(|p| p.nest_factors.get(nest).copied())
            .unwrap_or(1.0)
    };
    let n = trace.events.len();
    let mut t_start = vec![0.0f64; n];
    let mut t_end = vec![0.0f64; n];
    let mut t = 0.0f64;
    for (i, e) in trace.events.iter().enumerate() {
        t_start[i] = t;
        t += match e {
            AppEvent::Compute { nest, secs, .. } => secs * factor(*nest),
            AppEvent::Io(r) => {
                factor(r.nest)
                    * service_time_secs(
                        &ladder,
                        max,
                        ServiceRequest {
                            size_bytes: r.size_bytes,
                            sequential: r.sequential,
                        },
                    )
            }
            AppEvent::Power { .. } => 0.0,
        };
        t_end[i] = t;
    }
    let t_total = t;

    // Per-disk request indices (for measured-gap ends).
    let mut per_disk_io: Vec<Vec<usize>> = vec![Vec::new(); pool];
    for (i, e) in trace.events.iter().enumerate() {
        if let AppEvent::Io(r) = e {
            per_disk_io[r.disk.0 as usize].push(i);
        }
    }

    // Acted plan decisions per disk, in gap order (the planner emits them
    // disk-major, chronological within a disk — the same order the woven
    // power-downs appear per disk).
    let mut queues: Vec<VecDeque<(usize, &Decision)>> = vec![VecDeque::new(); pool];
    if let Some(p) = plan {
        for (di, d) in p.decisions.iter().enumerate() {
            if d.spun_down || d.level.is_some() {
                if let Some(q) = queues.get_mut(d.disk.0 as usize) {
                    q.push_back((di, d));
                }
            }
        }
    }
    // The planner's DRPM profit floor, re-derived (see
    // `sdpm_core::insert`): each call stalls the whole pool for `Tm`.
    let call_cost_j = 2.0 * overhead_secs * params.idle_power_w * pool as f64;
    let min_saved_j = 4.0 * call_cost_j;

    let mut disks: Vec<DiskSt> = (0..pool)
        .map(|_| DiskSt {
            cmd: Cmd::Full,
            pending: None,
            last_io_end: 0.0,
            next_io: 0,
        })
        .collect();

    let ev_span = |i: usize| Span::TraceEvent {
        index: i,
        t_est: t_start[i],
    };

    for (i, e) in trace.events.iter().enumerate() {
        match e {
            AppEvent::Compute { .. } => {}
            AppEvent::Io(r) => {
                let d = r.disk.0 as usize;
                let st = &mut disks[d];
                match st.cmd {
                    Cmd::Down { at } => {
                        diags.push(
                            Diagnostic::new(
                                Code::IoWhileDown,
                                format!(
                                    "request on disk {d} serviced while the disk is commanded \
                                     to standby"
                                ),
                            )
                            .label(ev_span(i), "request arrives here")
                            .label(ev_span(at), "spin_down issued here, never paired")
                            .help(format!(
                                "insert a pre-activating spin_up at least {:.3} s before \
                                 this request on the estimated timeline",
                                params.spin_up_secs + overhead_secs
                            )),
                        );
                    }
                    Cmd::Slow { level, at } => {
                        diags.push(
                            Diagnostic::new(
                                Code::IoWhileSlow,
                                format!(
                                    "request on disk {d} serviced while the disk is commanded \
                                     to RPM level {} (below full speed)",
                                    level.0
                                ),
                            )
                            .label(ev_span(i), "request arrives here")
                            .label(ev_span(at), "set_RPM issued here, never restored")
                            .help(format!(
                                "insert a pre-activating set_RPM({}) at least {:.3} s before \
                                 this request on the estimated timeline",
                                max.0,
                                ladder.transition_secs(level, max) + overhead_secs
                            )),
                        );
                    }
                    Cmd::Full => {
                        if let Some(p) = disks[d].pending.take() {
                            let lead = t_start[i] - p.t;
                            if lead + EPS_SECS < p.need {
                                diags.push(
                                    Diagnostic::new(
                                        Code::ShortLead,
                                        format!(
                                            "pre-activation lead {:.3} s on disk {d} is below \
                                             the formula (1) bound Tsu + Tm = {:.3} s",
                                            lead, p.need
                                        ),
                                    )
                                    .label(ev_span(p.idx), format!("{} issued here", p.kind))
                                    .label(ev_span(i), "protected request arrives here")
                                    .help(format!(
                                        "issue the pre-activation at least {:.3} s earlier on \
                                         the estimated timeline",
                                        p.need - lead
                                    )),
                                );
                            }
                        }
                    }
                }
                let st = &mut disks[d];
                st.pending = None;
                st.last_io_end = t_end[i];
                st.next_io += 1;
            }
            AppEvent::Power { disk, action } => {
                let d = disk.0 as usize;
                // Measured gap on the estimated timeline: last service end
                // (or run start) to the next request arrival (or run end).
                let gap_end = per_disk_io[d]
                    .get(disks[d].next_io)
                    .map(|&j| t_start[j])
                    .unwrap_or(t_total);
                let has_next = disks[d].next_io < per_disk_io[d].len();
                let measured = gap_end - disks[d].last_io_end;
                match action {
                    PowerAction::SpinDown => match disks[d].cmd {
                        Cmd::Down { at } => {
                            diags.push(
                                Diagnostic::new(
                                    Code::IllFormedPairing,
                                    format!("double spin_down on disk {d}"),
                                )
                                .label(ev_span(i), "second spin_down here")
                                .label(ev_span(at), "disk already commanded down here")
                                .help("pair every spin_down with a spin_up before the next one"),
                            );
                        }
                        Cmd::Slow { level, at } => {
                            diags.push(
                                Diagnostic::new(
                                    Code::IllFormedPairing,
                                    format!(
                                        "spin_down on disk {d} while it is commanded to RPM \
                                         level {} (TPM/DRPM mode mixing)",
                                        level.0
                                    ),
                                )
                                .label(ev_span(i), "spin_down here")
                                .label(ev_span(at), "set_RPM still in force from here")
                                .help("restore full speed before switching management mode"),
                            );
                            disks[d].cmd = Cmd::Down { at: i };
                        }
                        Cmd::Full => {
                            check_down_gap(
                                &mut diags,
                                DownCheck {
                                    event: i,
                                    disk: d,
                                    action: *action,
                                    measured,
                                    has_next,
                                    queue: &mut queues[d],
                                    has_plan: plan.is_some(),
                                    params,
                                    ladder: &ladder,
                                    min_saved_j,
                                },
                                &ev_span,
                            );
                            disks[d].cmd = Cmd::Down { at: i };
                        }
                    },
                    PowerAction::SpinUp => match disks[d].cmd {
                        Cmd::Down { .. } => {
                            disks[d].cmd = Cmd::Full;
                            disks[d].pending = Some(Pending {
                                idx: i,
                                t: t_start[i],
                                need: params.spin_up_secs + overhead_secs,
                                kind: "spin_up pre-activation",
                            });
                        }
                        Cmd::Full => {
                            diags.push(
                                Diagnostic::new(
                                    Code::IllFormedPairing,
                                    format!("spin_up on disk {d} without a preceding spin_down"),
                                )
                                .label(ev_span(i), "spurious spin_up here")
                                .help("drop the call, or pair it with the spin_down it wakes"),
                            );
                        }
                        Cmd::Slow { level, at } => {
                            diags.push(
                                Diagnostic::new(
                                    Code::IllFormedPairing,
                                    format!(
                                        "spin_up on disk {d} while it is commanded to RPM \
                                         level {} (TPM/DRPM mode mixing)",
                                        level.0
                                    ),
                                )
                                .label(ev_span(i), "spin_up here")
                                .label(ev_span(at), "set_RPM still in force from here")
                                .help("restore with set_RPM(max), not spin_up"),
                            );
                            disks[d].cmd = Cmd::Full;
                        }
                    },
                    PowerAction::SetRpm(l) => {
                        if !ladder.contains(*l) {
                            diags.push(
                                Diagnostic::new(
                                    Code::OffLadderRpm,
                                    format!(
                                        "set_RPM({}) on disk {d} targets a level off the \
                                         {}-level ladder",
                                        l.0,
                                        ladder.level_count()
                                    ),
                                )
                                .label(ev_span(i), "off-ladder set_RPM here")
                                .help(format!("valid levels are 0..={}", max.0)),
                            );
                            // The simulator rejects the call without effect;
                            // model the same.
                            continue;
                        }
                        if *l == max {
                            match disks[d].cmd {
                                Cmd::Slow { level, .. } => {
                                    disks[d].cmd = Cmd::Full;
                                    disks[d].pending = Some(Pending {
                                        idx: i,
                                        t: t_start[i],
                                        need: ladder.transition_secs(level, max) + overhead_secs,
                                        kind: "set_RPM(max) pre-activation",
                                    });
                                }
                                Cmd::Full => {
                                    diags.push(
                                        Diagnostic::new(
                                            Code::IllFormedPairing,
                                            format!(
                                                "set_RPM(max) on disk {d} that is already at \
                                                 full speed"
                                            ),
                                        )
                                        .label(ev_span(i), "spurious restore here")
                                        .help(
                                            "drop the call, or pair it with the slow-down it \
                                               restores",
                                        ),
                                    );
                                }
                                Cmd::Down { at } => {
                                    diags.push(
                                        Diagnostic::new(
                                            Code::IllFormedPairing,
                                            format!(
                                                "set_RPM on disk {d} while it is commanded to \
                                                 standby (TPM/DRPM mode mixing)"
                                            ),
                                        )
                                        .label(ev_span(i), "set_RPM here")
                                        .label(ev_span(at), "spin_down still in force from here")
                                        .help("wake with spin_up, not set_RPM"),
                                    );
                                }
                            }
                        } else {
                            match disks[d].cmd {
                                Cmd::Full => {
                                    check_down_gap(
                                        &mut diags,
                                        DownCheck {
                                            event: i,
                                            disk: d,
                                            action: *action,
                                            measured,
                                            has_next,
                                            queue: &mut queues[d],
                                            has_plan: plan.is_some(),
                                            params,
                                            ladder: &ladder,
                                            min_saved_j,
                                        },
                                        &ev_span,
                                    );
                                    disks[d].cmd = Cmd::Slow { level: *l, at: i };
                                }
                                Cmd::Slow { level, at } => {
                                    diags.push(
                                        Diagnostic::new(
                                            Code::IllFormedPairing,
                                            format!(
                                                "second slow-down on disk {d} (to level {}) \
                                                 without an intervening restore",
                                                l.0
                                            ),
                                        )
                                        .label(ev_span(i), "second set_RPM here")
                                        .label(
                                            ev_span(at),
                                            format!("level {} still in force from here", level.0),
                                        )
                                        .help("restore with set_RPM(max) before re-deciding"),
                                    );
                                    disks[d].cmd = Cmd::Slow { level: *l, at: i };
                                }
                                Cmd::Down { at } => {
                                    diags.push(
                                        Diagnostic::new(
                                            Code::IllFormedPairing,
                                            format!(
                                                "set_RPM on disk {d} while it is commanded to \
                                                 standby (TPM/DRPM mode mixing)"
                                            ),
                                        )
                                        .label(ev_span(i), "set_RPM here")
                                        .label(ev_span(at), "spin_down still in force from here")
                                        .help("wake with spin_up, not set_RPM"),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // With a plan, every acted decision must have produced its directive.
    if plan.is_some() {
        for (d, q) in queues.iter().enumerate() {
            if let Some(&(di, _)) = q.front() {
                diags.push(
                    Diagnostic::new(
                        Code::PlanDivergence,
                        format!(
                            "insertion plan decided {} power-down(s) on disk {d} that the \
                             trace does not contain",
                            q.len()
                        ),
                    )
                    .label(Span::Decision { index: di }, "first unmatched decision")
                    .help("the weave dropped directives; re-run the inserter"),
                );
            }
        }
    }

    diags
}

/// Everything needed to judge one power-down directive.
struct DownCheck<'a, 'b> {
    event: usize,
    disk: usize,
    action: PowerAction,
    /// Gap measured on the estimated timeline (no-plan fallback).
    measured: f64,
    has_next: bool,
    queue: &'a mut VecDeque<(usize, &'b Decision)>,
    has_plan: bool,
    params: &'a DiskParams,
    ladder: &'a RpmLadder,
    min_saved_j: f64,
}

/// Checks one `spin_down` / slow-down `set_RPM` against the break-even
/// rules (E004) and, when a plan is present, against the planner's
/// decision stream (E007).
fn check_down_gap(
    diags: &mut Vec<Diagnostic>,
    c: DownCheck<'_, '_>,
    ev_span: &dyn Fn(usize) -> Span,
) {
    let d = c.disk;
    let max = c.ladder.max_level();
    if c.has_plan {
        let Some((di, dec)) = c.queue.pop_front() else {
            diags.push(
                Diagnostic::new(
                    Code::PlanDivergence,
                    format!(
                        "power-down on disk {d} has no corresponding decision in the \
                         insertion plan"
                    ),
                )
                .label(ev_span(c.event), "unplanned directive here")
                .help("the trace was edited after insertion, or decisions were lost"),
            );
            return;
        };
        let dec_span = Span::Decision { index: di };
        match c.action {
            PowerAction::SpinDown => {
                if !dec.spun_down || dec.level.is_some() {
                    diags.push(
                        Diagnostic::new(
                            Code::PlanDivergence,
                            format!(
                                "trace has spin_down on disk {d} but the plan decided {}",
                                match dec.level {
                                    Some(l) => format!("set_RPM({})", l.0),
                                    None => "no action".to_string(),
                                }
                            ),
                        )
                        .label(ev_span(c.event), "directive here")
                        .label(dec_span, "decision here")
                        .help("trace and plan must agree on the directive family"),
                    );
                    return;
                }
                if !tpm_gap_is_worthwhile(c.params, dec.estimated_secs) {
                    diags.push(
                        below_threshold(c.params, d, dec.estimated_secs)
                            .label(ev_span(c.event), "spin_down here")
                            .label(dec_span, "decision with the estimated gap"),
                    );
                }
            }
            PowerAction::SetRpm(l) => {
                if dec.level != Some(l) {
                    diags.push(
                        Diagnostic::new(
                            Code::PlanDivergence,
                            format!(
                                "trace has set_RPM({}) on disk {d} but the plan decided {}",
                                l.0,
                                match dec.level {
                                    Some(pl) => format!("set_RPM({})", pl.0),
                                    None if dec.spun_down => "spin_down".to_string(),
                                    None => "no action".to_string(),
                                }
                            ),
                        )
                        .label(ev_span(c.event), "directive here")
                        .label(dec_span, "decision here")
                        .help("trace and plan must agree on the target level"),
                    );
                    return;
                }
                // Re-derive the planner's choice for its estimated gap:
                // the same decision procedure must pick the same level and
                // clear the profit floor.
                let choice = best_rpm_for_gap(c.ladder, dec.estimated_secs);
                if choice.level == max || choice.saved_j() <= c.min_saved_j {
                    diags.push(
                        Diagnostic::new(
                            Code::GapBelowThreshold,
                            format!(
                                "set_RPM({}) on disk {d}: a {:.3} s estimated gap does not \
                                 pay for an RPM excursion (profit floor {:.3} J)",
                                l.0, dec.estimated_secs, c.min_saved_j
                            ),
                        )
                        .label(ev_span(c.event), "set_RPM here")
                        .label(dec_span, "decision with the estimated gap")
                        .help("leave the disk at full speed for gaps this short"),
                    );
                } else if choice.level != l {
                    diags.push(
                        Diagnostic::new(
                            Code::GapBelowThreshold,
                            format!(
                                "set_RPM({}) on disk {d} is not the energy-optimal level for \
                                 the {:.3} s estimated gap (optimal: {})",
                                l.0, dec.estimated_secs, choice.level.0
                            ),
                        )
                        .label(ev_span(c.event), "set_RPM here")
                        .label(dec_span, "decision with the estimated gap")
                        .help(format!("use level {}", choice.level.0)),
                    );
                }
            }
            PowerAction::SpinUp => unreachable!("pre-activations are not down directives"),
        }
    } else {
        // No plan: judge by the gap measured on the (noise-free) estimated
        // timeline, with EPS slack in the directive's favor.
        match c.action {
            PowerAction::SpinDown => {
                if !tpm_gap_is_worthwhile(c.params, c.measured + EPS_SECS) {
                    diags.push(
                        below_threshold(c.params, d, c.measured)
                            .label(ev_span(c.event), "spin_down here"),
                    );
                }
            }
            PowerAction::SetRpm(l) => {
                let need = c.ladder.transition_secs(max, l)
                    + if c.has_next {
                        c.ladder.transition_secs(l, max)
                    } else {
                        0.0
                    };
                if need > c.measured + EPS_SECS {
                    diags.push(
                        Diagnostic::new(
                            Code::GapBelowThreshold,
                            format!(
                                "set_RPM({}) on disk {d}: the {:.3} s transition(s) cannot \
                                 fit the {:.3} s gap",
                                l.0, need, c.measured
                            ),
                        )
                        .label(ev_span(c.event), "set_RPM here")
                        .help("leave the disk at full speed, or pick a shallower level"),
                    );
                }
            }
            PowerAction::SpinUp => unreachable!("pre-activations are not down directives"),
        }
    }
}

fn below_threshold(params: &DiskParams, disk: usize, gap: f64) -> Diagnostic {
    Diagnostic::new(
        Code::GapBelowThreshold,
        format!(
            "spin_down on disk {disk} for a {:.3} s gap, below the {:.3} s TPM break-even \
             threshold",
            gap,
            tpm_break_even_secs(params)
        ),
    )
    .help("remove the spin_down/spin_up pair; staying at idle costs less than the transitions")
}
