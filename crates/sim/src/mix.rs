//! Open-loop shared-pool simulation: the engine for fixed arrivals.
//!
//! The closed-loop engine ([`crate::engine`]) models one blocking
//! application on a private pool, so device delays lengthen the run. This
//! module is the paper's other arrival discipline: requests arrive at
//! fixed timestamps, and delays show up as response time and queue
//! growth instead. K tenants' request streams, merged on one wall clock
//! ([`sdpm_trace::mix`]), arrive at a shared pool whose power state is
//! actively managed — so one tenant's spin-down is another tenant's wake
//! penalty. A single tenant under [`MixPolicy::Base`] is the classic
//! DiskSim-style open-loop replay of one trace at full speed.
//!
//! The engine is event-driven over the merged stream and linear in it.
//! Per disk it keeps the exact [`PowerStateMachine`] energy accounting
//! of the closed-loop engine and a FIFO queue with response-time
//! accounting. Completions never decrease, so each arrival retires
//! finished work from the queue's front; p99s are taken by selection.
//! Pool-wide power management is a [`MixPolicy`]:
//!
//! * `Base` — disks idle at full speed,
//! * `Tpm` — the classic fixed-threshold reactive spin-down, evaluated
//!   per disk on the *merged* arrival stream,
//! * `Adaptive` — the epoch-based online policy
//!   ([`AdaptiveConfig`]): EWMA idle prediction with misfire/missed-idle
//!   feedback. Only meaningful under contention — on a single tenant it
//!   degenerates toward ITPM-without-preactivation,
//! * `Directive` — honor the compiler-inserted `Power` events each
//!   tenant's trace carries, **with a cross-tenant guard**: a directive
//!   that would sleep (or slow) a disk while *another* tenant has an
//!   imminent arrival on it is rejected and recorded as
//!   [`MisfireCause::CrossTenant`]. The compiler proved its own program
//!   safe, not the mix; the guard is the runtime's veto, and the
//!   per-disk arrival table it reads is built under this policy only.
//!
//! Determinism: the engine is a pure fold over the merged event order
//! with no hidden iteration state; identical inputs give bit-identical
//! [`MixReport`]s.

use crate::error::SimError;
use crate::policy::{AdaptiveConfig, DirectiveConfig, TpmConfig};
use crate::report::{GapRecord, MisfireCause, MisfireCauses};
use sdpm_disk::{
    service_time_secs, tpm_break_even_secs, DiskParams, DiskPowerState, EnergyBreakdown,
    PowerStateMachine, RpmLadder, RpmLevel, ServiceRequest,
};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_trace::mix::TenantEvent;
use sdpm_trace::{AppEvent, PowerAction};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Pool-wide power-management policy for a shared-pool mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixPolicy {
    /// No power management.
    Base,
    /// Reactive fixed-threshold spin-down on the merged arrival stream.
    Tpm(TpmConfig),
    /// Epoch-based online adaptive spin-down (idle prediction with
    /// feedback); the 8th scheme, contention-only.
    Adaptive(AdaptiveConfig),
    /// Execute the tenants' compiler-inserted directives, vetoing those
    /// that would penalize a co-tenant ([`MisfireCause::CrossTenant`]).
    Directive(DirectiveConfig),
}

impl MixPolicy {
    /// Short display name (mix-report rows).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MixPolicy::Base => "Base",
            MixPolicy::Tpm(_) => "TPM",
            MixPolicy::Adaptive(_) => "ADAPT",
            MixPolicy::Directive(_) => "CM",
        }
    }
}

/// Per-disk outcome of an open-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenDiskReport {
    /// Requests serviced by this disk.
    pub requests: u64,
    /// Seconds the disk spent servicing.
    pub busy_secs: f64,
    /// Largest queue depth observed (including the request in service).
    pub max_queue_depth: usize,
    /// Joule ledger for this disk.
    pub energy: EnergyBreakdown,
    /// Idle gaps between services (demand boundaries, like the
    /// closed-loop engine's records).
    pub gaps: Vec<GapRecord>,
}

/// One tenant's slice of a mix outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMixReport {
    /// Tenant id (index into the mix's tenant table).
    pub tenant: u32,
    /// Tenant display name.
    pub name: String,
    /// Requests this tenant issued.
    pub requests: u64,
    /// Seconds of disk service consumed by this tenant.
    pub busy_secs: f64,
    /// Active-state joules attributable to this tenant's services
    /// (idle/standby/transition joules are pool state and stay
    /// pool-wide).
    pub active_j: f64,
    /// Mean response time (completion − arrival), seconds.
    pub mean_response_secs: f64,
    /// 99th-percentile response time, seconds.
    pub p99_response_secs: f64,
    /// Worst response time, seconds.
    pub max_response_secs: f64,
    /// Directive misfires attributed to this tenant's power calls
    /// (includes its cross-tenant vetoes).
    pub misfires: MisfireCauses,
}

/// Whole-mix outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixReport {
    /// Policy label the mix ran under.
    pub policy: String,
    /// Completion time of the last request (or last directive), seconds.
    pub makespan_secs: f64,
    /// Disk-subsystem energy over the makespan, all disks merged.
    pub energy: EnergyBreakdown,
    /// Total requests across tenants.
    pub requests: u64,
    /// Mean response time across all requests, seconds.
    pub mean_response_secs: f64,
    /// 99th-percentile response time across all requests, seconds.
    pub p99_response_secs: f64,
    /// Worst response time, seconds.
    pub max_response_secs: f64,
    /// Pool-wide misfire tally (sum of the per-tenant tallies).
    pub misfires: MisfireCauses,
    /// Per-tenant breakdowns, indexed by tenant id.
    pub per_tenant: Vec<TenantMixReport>,
    /// Per-disk details.
    pub per_disk: Vec<OpenDiskReport>,
}

impl MixReport {
    /// Total joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// 99th percentile by the nearest-rank method; reorders in place.
/// Integer-only index math (no float casts): rank ⌈0.99 n⌉, 1-based.
/// `total_cmp` is a total order, so selection returns the sorted bits.
fn p99_selecting(responses: &mut [f64]) -> f64 {
    if responses.is_empty() {
        return 0.0;
    }
    let idx = (responses.len() * 99).div_ceil(100) - 1;
    *responses.select_nth_unstable_by(idx, f64::total_cmp).1
}

struct MixDisk {
    machine: PowerStateMachine,
    /// Completion time of the last admitted service (FIFO head of line).
    available_at: f64,
    busy_secs: f64,
    requests: u64,
    gaps: Vec<GapRecord>,
    /// Completions of in-flight work, for queue depth. They never
    /// decrease, so finished work retires from the front.
    inflight: VecDeque<f64>,
    max_queue_depth: usize,
    /// Absolute time a reactive spin-down fires unless a request
    /// arrives first; re-armed at every service completion.
    sched_down_at: Option<f64>,
    /// Deepest steady level dwelt at since the last completion.
    gap_deepest: RpmLevel,
    /// Whether the current gap reached standby.
    gap_standby: bool,
    /// EWMA idle-gap prediction (adaptive policy); `None` until the
    /// first gap closes.
    ewma_gap: Option<f64>,
    feedback: Feedback,
    /// Cursor into the per-disk arrival table (cross-tenant lookahead).
    next_arrival: usize,
}

/// The adaptive policy's per-disk feedback: the spin-down margin and the
/// current epoch's tallies of closed gaps.
#[derive(Clone, Copy)]
struct Feedback {
    /// Current spin-down margin.
    margin: f64,
    /// End of the current feedback epoch.
    next_epoch_end: f64,
    /// Gaps a reactive spin-down fired in that lasted the break-even.
    exploited: u64,
    /// Gaps a reactive spin-down fired in that ended sooner.
    misfired: u64,
    /// Gaps past the break-even that no spin-down caught.
    missed: u64,
}

impl Feedback {
    /// Closes the epochs that ended by `completion` (an epoch ending
    /// exactly then closes too). The first one's tallies move the
    /// margin; the later ones saw no gap close, so they leave it as is.
    /// However long the silence, this is one step: the epoch end moves
    /// straight to the first boundary past `completion`, the one that
    /// stepping one `epoch_secs` at a time reaches.
    fn close_epochs(&mut self, completion: f64, c: &AdaptiveConfig) {
        let (first, len) = (self.next_epoch_end, c.epoch_secs);
        if completion < first {
            return;
        }
        if self.misfired > self.exploited {
            self.margin = (self.margin * c.margin_grow).min(AdaptiveConfig::MARGIN_RANGE.1);
        } else if self.missed > self.exploited {
            self.margin = (self.margin * c.margin_shrink).max(AdaptiveConfig::MARGIN_RANGE.0);
        }
        self.exploited = 0;
        self.misfired = 0;
        self.missed = 0;
        // The boundaries are `first + k·len`: take the least one past
        // `completion`. The quotient is rounded, so the estimate may be
        // one boundary off either way.
        let mut k = ((completion - first) / len).floor() + 1.0;
        if first + (k - 1.0) * len > completion {
            k -= 1.0;
        } else if first + k * len <= completion {
            k += 1.0;
        }
        self.next_epoch_end = first + k * len;
    }
}

/// Simulates the merged multi-tenant stream `events` against a shared
/// `pool` under `policy`. `tenants[i]` names tenant id `i`; every event
/// must reference a known tenant. `events` must be sorted by the merge
/// order `(at_secs, tenant, seq)` — the order
/// [`sdpm_trace::merge_tenants`] produces.
///
/// # Errors
/// [`SimError::InvalidParams`] / [`SimError::InvalidTrace`] on malformed
/// input: invalid disk parameters, an [`AdaptiveConfig`] field outside
/// its documented range, or an event time so large that adding the shortest
/// transition it can start no longer advances it (the lesser of
/// `spin_up_secs` and `spin_down_secs`, and for a `SetRpm` directive
/// under [`MixPolicy::Directive`] also `rpm_transition_secs_per_step`);
/// [`SimError::DiskOutOfRange`] when an event names a disk outside the
/// pool; [`SimError::Power`] if the power-state machine rejects a call
/// the engine's sequencing says is legal (unreachable from input that
/// passes these checks).
pub fn simulate_mix(
    events: &[TenantEvent],
    tenants: &[&str],
    params: &DiskParams,
    pool: DiskPool,
    policy: &MixPolicy,
) -> Result<MixReport, SimError> {
    validate(events, tenants, params, pool, policy)?;
    let ladder = RpmLadder::new(params);
    let max_level = ladder.max_level();
    let break_even = tpm_break_even_secs(params);

    // Per-disk arrival table for the cross-tenant lookahead guard, which
    // only the Directive policy runs.
    let mut arrivals: Vec<Vec<(f64, u32)>> = vec![Vec::new(); pool.count() as usize];
    if let MixPolicy::Directive(_) = policy {
        for e in events {
            if let AppEvent::Io(req) = &e.event {
                arrivals[req.disk.0 as usize].push((e.at_secs, e.tenant));
            }
        }
    }

    let (adaptive, epoch0, margin0) = match policy {
        MixPolicy::Adaptive(c) => (Some(*c), c.epoch_secs, c.margin),
        _ => (None, f64::INFINITY, 1.0),
    };
    let mut disks: Vec<MixDisk> = (0..pool.count())
        .map(|_| {
            let mut d = MixDisk {
                machine: PowerStateMachine::new(params.clone()),
                available_at: 0.0,
                busy_secs: 0.0,
                requests: 0,
                gaps: Vec::new(),
                inflight: VecDeque::new(),
                max_queue_depth: 0,
                sched_down_at: None,
                gap_deepest: max_level,
                gap_standby: false,
                ewma_gap: None,
                feedback: Feedback {
                    margin: margin0,
                    next_epoch_end: epoch0,
                    exploited: 0,
                    misfired: 0,
                    missed: 0,
                },
                next_arrival: 0,
            };
            // The leading idle stretch is a gap like any other: TPM arms
            // its threshold from t = 0 (adaptive has no prediction yet).
            if let MixPolicy::Tpm(c) = policy {
                d.sched_down_at = Some(c.threshold_secs.unwrap_or(break_even));
            }
            d
        })
        .collect();

    let mut per_tenant_resp: Vec<Vec<f64>> = vec![Vec::new(); tenants.len()];
    let mut per_tenant_busy = vec![0.0f64; tenants.len()];
    let mut per_tenant_active_j = vec![0.0f64; tenants.len()];
    let mut per_tenant_req = vec![0u64; tenants.len()];
    let mut per_tenant_misfires = vec![MisfireCauses::default(); tenants.len()];
    let mut makespan = 0.0f64;

    for te in events {
        let tenant = te.tenant as usize;
        match &te.event {
            AppEvent::Io(req) => {
                let dk = req.disk;
                let a = te.at_secs;
                let d = &mut disks[dk.0 as usize];
                d.next_arrival += 1;
                while d.inflight.front().is_some_and(|&c| c <= a) {
                    d.inflight.pop_front();
                }

                let ready = if a >= d.available_at {
                    close_gap(d, a, break_even, adaptive.as_ref(), dk)?
                } else {
                    // Queued behind in-flight work; the disk is spinning.
                    d.available_at
                };

                let start = ready.max(d.available_at);
                // Completes any in-flight wake ending exactly at `start`.
                d.machine
                    .advance(start)
                    .map_err(|e| SimError::power("mix service advance", dk, start, e))?;
                let lvl = d
                    .machine
                    .begin_service(start)
                    .map_err(|e| SimError::power("mix begin_service", dk, start, e))?;
                let st = service_time_secs(
                    &ladder,
                    lvl,
                    ServiceRequest {
                        size_bytes: req.size_bytes,
                        sequential: req.sequential,
                    },
                );
                let completion = start + st;
                d.machine
                    .end_service(completion)
                    .map_err(|e| SimError::power("mix end_service", dk, completion, e))?;
                debug_assert!(completion >= d.available_at, "completions regressed");
                d.available_at = completion;
                d.busy_secs += st;
                d.requests += 1;
                d.inflight.push_back(completion);
                d.max_queue_depth = d.max_queue_depth.max(d.inflight.len());
                d.gap_deepest = lvl;
                d.gap_standby = false;
                arm_reactive(d, completion, break_even, policy);

                let response = completion - a;
                per_tenant_resp[tenant].push(response);
                per_tenant_busy[tenant] += st;
                per_tenant_active_j[tenant] += st * ladder.active_power_w(lvl);
                per_tenant_req[tenant] += 1;
                makespan = makespan.max(completion);
            }
            AppEvent::Power { disk, action } => {
                if let MixPolicy::Directive(_) = policy {
                    apply_directive(
                        &mut disks,
                        &arrivals,
                        *disk,
                        te.at_secs,
                        te.tenant,
                        *action,
                        &ladder,
                        break_even,
                        &mut per_tenant_misfires[tenant],
                    )?;
                    makespan = makespan.max(te.at_secs);
                }
                // Inert under every other policy, exactly like the
                // closed-loop engine ignores Power events off-Directive.
            }
            AppEvent::Compute { .. } => {
                return Err(SimError::InvalidTrace(
                    "merged mix stream carries a Compute event".into(),
                ));
            }
        }
    }

    // Trailing idleness to the makespan. No trailing reactive spin-down:
    // the gap's demand boundary is the end of the run, and sleeping a
    // disk nothing will ever wake again is free energy the comparison
    // should not award.
    let mut energy = EnergyBreakdown::default();
    let per_disk: Vec<OpenDiskReport> = disks
        .into_iter()
        .zip(0u32..)
        .map(|(mut d, i)| {
            let end = makespan.max(d.machine.now());
            d.machine
                .advance(end)
                .map_err(|e| SimError::power("mix finalize", DiskId(i), end, e))?;
            if end > d.available_at {
                d.gaps.push(GapRecord {
                    start: d.available_at,
                    end,
                    level: d.gap_deepest,
                    standby: d.gap_standby,
                });
            }
            let e = d.machine.energy().breakdown();
            energy = energy.merged(&e);
            Ok(OpenDiskReport {
                requests: d.requests,
                busy_secs: d.busy_secs,
                max_queue_depth: d.max_queue_depth,
                energy: e,
                gaps: d.gaps,
            })
        })
        .collect::<Result<_, SimError>>()?;

    let mut all_resp: Vec<f64> = per_tenant_resp.iter().flatten().copied().collect();
    let requests: u64 = per_tenant_req.iter().sum();
    let mut misfires = MisfireCauses::default();
    let per_tenant: Vec<TenantMixReport> = tenants
        .iter()
        .zip(0u32..)
        .map(|(name, t)| {
            let i = t as usize;
            let resp = &mut per_tenant_resp[i];
            let sum: f64 = resp.iter().sum();
            let max = resp.iter().copied().fold(0.0f64, f64::max);
            let n = per_tenant_req[i];
            let m = per_tenant_misfires[i];
            merge_causes(&mut misfires, &m);
            TenantMixReport {
                tenant: t,
                name: (*name).to_string(),
                requests: n,
                busy_secs: per_tenant_busy[i],
                active_j: per_tenant_active_j[i],
                mean_response_secs: sum / n.max(1) as f64,
                p99_response_secs: p99_selecting(resp),
                max_response_secs: max,
                misfires: m,
            }
        })
        .collect();

    let sum: f64 = all_resp.iter().sum();
    let max_response = all_resp.iter().copied().fold(0.0f64, f64::max);
    Ok(MixReport {
        policy: policy.label().to_string(),
        makespan_secs: makespan,
        energy,
        requests,
        mean_response_secs: sum / requests.max(1) as f64,
        p99_response_secs: p99_selecting(&mut all_resp),
        max_response_secs: max_response,
        misfires,
        per_tenant,
        per_disk,
    })
}

fn merge_causes(into: &mut MisfireCauses, from: &MisfireCauses) {
    into.spin_down_rejected += from.spin_down_rejected;
    into.spin_up_rejected += from.spin_up_rejected;
    into.rpm_shift_rejected += from.rpm_shift_rejected;
    into.off_ladder_level += from.off_ladder_level;
    into.cross_tenant += from.cross_tenant;
}

/// Closes the idle gap `[d.available_at, a]` on an arrival at `a`:
/// applies the pending reactive spin-down retroactively if it fired
/// inside the gap, updates the adaptive predictor, records the gap, and
/// initiates whatever wake the disk's state needs. Returns the earliest
/// service-ready time.
fn close_gap(
    d: &mut MixDisk,
    a: f64,
    break_even: f64,
    adaptive: Option<&AdaptiveConfig>,
    dk: DiskId,
) -> Result<f64, SimError> {
    let idle_start = d.available_at;
    let gap_len = a - idle_start;
    let fired = match d.sched_down_at {
        Some(sd) if sd < a => {
            d.machine
                .advance(sd)
                .map_err(|e| SimError::power("mix reactive advance", dk, sd, e))?;
            // The schedule only arms while the disk idles spinning, so
            // the spin-down is legal by construction.
            d.machine
                .spin_down(sd)
                .map_err(|e| SimError::power("mix reactive spin_down", dk, sd, e))?;
            d.gap_standby = true;
            true
        }
        _ => false,
    };
    d.sched_down_at = None;

    if gap_len > 0.0 {
        if fired {
            if gap_len >= break_even {
                d.feedback.exploited += 1;
            } else {
                d.feedback.misfired += 1;
            }
        } else if gap_len > break_even {
            d.feedback.missed += 1;
        }
        if let Some(c) = adaptive {
            let prev = d.ewma_gap.unwrap_or(gap_len);
            d.ewma_gap = Some(c.ewma_alpha * gap_len + (1.0 - c.ewma_alpha) * prev);
        }
        d.gaps.push(GapRecord {
            start: idle_start,
            end: a,
            level: d.gap_deepest,
            standby: d.gap_standby,
        });
    }

    d.machine
        .advance(a)
        .map_err(|e| SimError::power("mix arrival advance", dk, a, e))?;
    let ready = match d.machine.state() {
        DiskPowerState::Standby => {
            d.machine
                .spin_up(a)
                .map_err(|e| SimError::power("mix demand spin_up", dk, a, e))?;
            d.machine.ready_time()
        }
        DiskPowerState::SpinningDown { until } => {
            // Finish the descent, then turn straight around.
            d.machine
                .advance(until)
                .map_err(|e| SimError::power("mix descent advance", dk, until, e))?;
            d.machine
                .spin_up(until)
                .map_err(|e| SimError::power("mix demand spin_up", dk, until, e))?;
            d.machine.ready_time()
        }
        DiskPowerState::SpinningUp { until } | DiskPowerState::Shifting { until, .. } => until,
        DiskPowerState::Idle { .. } | DiskPowerState::Active { .. } => a,
    };
    Ok(ready)
}

/// Re-arms the reactive spin-down decision at a service completion.
fn arm_reactive(d: &mut MixDisk, completion: f64, break_even: f64, policy: &MixPolicy) {
    d.sched_down_at = match policy {
        MixPolicy::Tpm(c) => Some(completion + c.threshold_secs.unwrap_or(break_even)),
        MixPolicy::Adaptive(c) => {
            // Feedback closes on epoch boundaries of this disk's clock.
            d.feedback.close_epochs(completion, c);
            match d.ewma_gap {
                // Predicted-long idle: sleep immediately, skipping the
                // 2-competitive break-even wait TPM pays.
                Some(p) if p >= d.feedback.margin * break_even => Some(completion),
                _ => None,
            }
        }
        MixPolicy::Base | MixPolicy::Directive(_) => None,
    };
}

/// Applies one tenant directive under the cross-tenant guard.
#[allow(clippy::too_many_arguments)]
fn apply_directive(
    disks: &mut [MixDisk],
    arrivals: &[Vec<(f64, u32)>],
    disk: DiskId,
    tp: f64,
    tenant: u32,
    action: PowerAction,
    ladder: &RpmLadder,
    break_even: f64,
    misfires: &mut MisfireCauses,
) -> Result<(), SimError> {
    let di = disk.0 as usize;
    let d = &mut disks[di];
    if tp < d.available_at {
        // The disk is busy or has queued work: the tenant's timeline
        // estimate has already diverged (same taxonomy as closed-loop).
        misfires.count(match action {
            PowerAction::SpinDown => MisfireCause::SpinDownRejected,
            PowerAction::SpinUp => MisfireCause::SpinUpRejected,
            PowerAction::SetRpm(_) => MisfireCause::RpmShiftRejected,
        });
        return Ok(());
    }
    // Veto window: a co-tenant arrival inside it would pay this
    // directive's wake/restore penalty. Spin-downs guard the full
    // break-even window; slow-downs guard the shift-back time.
    let guard = match action {
        PowerAction::SpinDown => Some(break_even),
        PowerAction::SetRpm(level) if ladder.contains(level) && level < ladder.max_level() => {
            Some(ladder.transition_secs(level, ladder.max_level()))
        }
        _ => None,
    };
    if let Some(g) = guard {
        let upcoming = &arrivals[di][d.next_arrival..];
        let crossed = upcoming
            .iter()
            .take_while(|&&(at, _)| at <= tp + g)
            .any(|&(_, t)| t != tenant);
        if crossed {
            misfires.count(MisfireCause::CrossTenant);
            return Ok(());
        }
    }
    d.machine
        .advance(tp)
        .map_err(|e| SimError::power("mix directive advance", disk, tp, e))?;
    match action {
        PowerAction::SpinDown => match d.machine.state() {
            DiskPowerState::Idle { .. } => {
                d.machine
                    .spin_down(tp)
                    .map_err(|e| SimError::power("mix directive spin_down", disk, tp, e))?;
                d.gap_standby = true;
            }
            _ => misfires.count(MisfireCause::SpinDownRejected),
        },
        PowerAction::SpinUp => match d.machine.state() {
            DiskPowerState::Standby => {
                d.machine
                    .spin_up(tp)
                    .map_err(|e| SimError::power("mix directive spin_up", disk, tp, e))?;
            }
            _ => misfires.count(MisfireCause::SpinUpRejected),
        },
        PowerAction::SetRpm(level) => {
            if !ladder.contains(level) {
                misfires.count(MisfireCause::OffLadderLevel);
            } else {
                match d.machine.state() {
                    DiskPowerState::Idle { .. } => {
                        d.machine
                            .set_rpm(tp, level)
                            .map_err(|e| SimError::power("mix directive set_rpm", disk, tp, e))?;
                        d.gap_deepest = d.gap_deepest.min(level);
                    }
                    _ => misfires.count(MisfireCause::RpmShiftRejected),
                }
            }
        }
    }
    Ok(())
}

fn validate(
    events: &[TenantEvent],
    tenants: &[&str],
    params: &DiskParams,
    pool: DiskPool,
    policy: &MixPolicy,
) -> Result<(), SimError> {
    if let Err(e) = params.validate() {
        return Err(SimError::InvalidParams(e.to_string()));
    }
    if let MixPolicy::Adaptive(c) = policy {
        c.check().map_err(SimError::InvalidParams)?;
    }
    if tenants.is_empty() {
        return Err(SimError::InvalidTrace("mix has no tenants".into()));
    }
    // A transition whose length rounds away when added to its start
    // time ends when it began, and the power-state machine, which
    // completes transitions only while the clock advances, never ends
    // it. Spin-downs and spin-ups start at arrivals and directives; RPM
    // steps start only at the `SetRpm` directives the Directive policy
    // applies.
    let spin = params.spin_up_secs.min(params.spin_down_secs);
    let shifts = matches!(policy, MixPolicy::Directive(_));
    let mut prev: Option<(u64, u32, u64)> = None;
    for e in events {
        if !e.at_secs.is_finite() || e.at_secs < 0.0 {
            return Err(SimError::InvalidTrace(format!(
                "non-finite or negative event time {}",
                e.at_secs
            )));
        }
        let shortest = match e.event {
            AppEvent::Power {
                action: PowerAction::SetRpm(_),
                ..
            } if shifts => spin.min(params.rpm_transition_secs_per_step),
            _ => spin,
        };
        if e.at_secs + shortest == e.at_secs {
            return Err(SimError::InvalidTrace(format!(
                "event time {} s is too late for the shortest power transition \
                 ({shortest} s) to advance the clock",
                e.at_secs
            )));
        }
        if e.tenant as usize >= tenants.len() {
            return Err(SimError::InvalidTrace(format!(
                "event references tenant {} of {}",
                e.tenant,
                tenants.len()
            )));
        }
        let key = (e.at_secs.to_bits(), e.tenant, e.seq);
        if prev.is_some_and(|p| key < p) {
            return Err(SimError::InvalidTrace(
                "mix events are not in (time, tenant, seq) merge order".into(),
            ));
        }
        prev = Some(key);
        let disk = match &e.event {
            AppEvent::Io(req) => req.disk,
            AppEvent::Power { disk, .. } => *disk,
            AppEvent::Compute { .. } => {
                return Err(SimError::InvalidTrace(
                    "merged mix stream carries a Compute event".into(),
                ))
            }
        };
        if !pool.contains(disk) {
            return Err(SimError::DiskOutOfRange {
                disk: disk.0,
                pool: pool.count(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdpm_disk::ultrastar36z15;
    use sdpm_trace::{merge_tenants, tenant_timeline, IoRequest, ReqKind, Trace};

    fn ev(at: f64, tenant: u32, seq: u64, disk: u32) -> TenantEvent {
        TenantEvent {
            at_secs: at,
            tenant,
            seq,
            event: AppEvent::Io(IoRequest {
                disk: DiskId(disk),
                start_block: 0,
                size_bytes: 64 * 1024,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter: seq,
            }),
        }
    }

    fn pw(at: f64, tenant: u32, seq: u64, disk: u32, action: PowerAction) -> TenantEvent {
        TenantEvent {
            at_secs: at,
            tenant,
            seq,
            event: AppEvent::Power {
                disk: DiskId(disk),
                action,
            },
        }
    }

    fn run(events: &[TenantEvent], policy: &MixPolicy) -> MixReport {
        simulate_mix(
            events,
            &["a", "b"],
            &ultrastar36z15(),
            DiskPool::new(2),
            policy,
        )
        .expect("valid mix")
    }

    #[test]
    fn base_mix_reports_per_tenant_responses() {
        let events = vec![ev(1.0, 0, 0, 0), ev(1.0, 1, 0, 1), ev(2.0, 0, 1, 0)];
        let r = run(&events, &MixPolicy::Base);
        assert_eq!(r.requests, 3);
        assert_eq!(r.per_tenant.len(), 2);
        assert_eq!(r.per_tenant[0].requests, 2);
        assert_eq!(r.per_tenant[1].requests, 1);
        assert!(r.per_tenant[0].mean_response_secs > 0.0);
        assert_eq!(r.misfires.total(), 0);
        // Uncontended: every response is a bare service time.
        assert!(r.max_response_secs < 0.05);
    }

    #[test]
    fn tpm_mix_spins_down_long_gaps_and_charges_the_wake() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        let gap = 4.0 * be;
        let events = vec![ev(1.0, 0, 0, 0), ev(1.0 + gap, 1, 0, 0)];
        let base = run(&events, &MixPolicy::Base);
        let tpm = run(&events, &MixPolicy::Tpm(TpmConfig::default()));
        assert!(tpm.total_energy_j() < base.total_energy_j());
        // Tenant 1 pays tenant-agnostic reactive wake latency.
        assert!(tpm.per_tenant[1].max_response_secs > p.spin_up_secs);
        assert!(base.per_tenant[1].max_response_secs < p.spin_up_secs);
        let downs: u64 = tpm.per_disk.iter().map(|d| d.requests).sum();
        assert_eq!(downs, 2);
        assert!(tpm.per_disk[0].gaps.iter().any(|g| g.standby));
    }

    #[test]
    fn adaptive_skips_the_break_even_wait_on_predicted_long_gaps() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        let gap = 6.0 * be;
        // A long train of long gaps: after the first observation the
        // EWMA predicts long and sleeps at idle start, saving the
        // break-even wait TPM pays on every gap.
        let mut events = Vec::new();
        for i in 0..12u64 {
            events.push(ev(1.0 + i as f64 * gap, (i % 2) as u32, i, 0));
        }
        let tpm = run(&events, &MixPolicy::Tpm(TpmConfig::default()));
        let adapt = run(&events, &MixPolicy::Adaptive(AdaptiveConfig::default()));
        assert!(
            adapt.total_energy_j() < tpm.total_energy_j(),
            "adaptive {} must beat TPM {}",
            adapt.total_energy_j(),
            tpm.total_energy_j()
        );
        // Both wake on demand, so the response distribution matches.
        assert!(adapt.p99_response_secs <= tpm.p99_response_secs + 1e-9);
    }

    #[test]
    fn cross_tenant_spin_down_is_vetoed_and_counted() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        // Tenant 0 sleeps disk 0 right before tenant 1 arrives there.
        let events = vec![
            ev(1.0, 0, 0, 0),
            pw(2.0, 0, 1, 0, PowerAction::SpinDown),
            ev(2.0 + 0.25 * be, 1, 0, 0),
        ];
        let cm = run(&events, &MixPolicy::Directive(DirectiveConfig::default()));
        assert_eq!(cm.misfires.cross_tenant, 1, "the veto must be recorded");
        assert_eq!(cm.per_tenant[0].misfires.cross_tenant, 1);
        assert_eq!(cm.per_tenant[1].misfires.total(), 0);
        // The veto protected tenant 1 from the wake penalty.
        assert!(cm.per_tenant[1].max_response_secs < p.spin_up_secs);
        // Without a co-tenant nearby the same directive is honored.
        let solo = vec![
            ev(1.0, 0, 0, 0),
            pw(2.0, 0, 1, 0, PowerAction::SpinDown),
            ev(2.0 + 4.0 * be, 0, 2, 0),
        ];
        let r = run(&solo, &MixPolicy::Directive(DirectiveConfig::default()));
        assert_eq!(r.misfires.total(), 0);
        assert!(r.per_disk[0].gaps.iter().any(|g| g.standby));
    }

    #[test]
    fn contended_fifo_queues_inflate_responses() {
        // 50 back-to-back arrivals from two tenants on one disk.
        let mut events = Vec::new();
        for i in 0..50u64 {
            events.push(ev(1.0 + i as f64 * 1e-4, (i % 2) as u32, i, 0));
        }
        let r = run(&events, &MixPolicy::Base);
        assert!(r.per_disk[0].max_queue_depth > 5);
        assert!(r.max_response_secs > 10.0 * r.mean_response_secs / 50.0);
        assert!(r.p99_response_secs <= r.max_response_secs);
        assert!(r.p99_response_secs >= r.mean_response_secs);
    }

    #[test]
    fn p99_selection_matches_sort_bit_for_bit() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |k: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % k
        };
        for n in 1..=257usize {
            // Heavy ties over a few values, and mostly signed zeros with
            // one outlier, so the p99 rank often lands on a ±0.0 tie.
            let ties = [-0.0, 0.0, 1.5, 1.5, 2.0, f64::MIN_POSITIVE, 3.25];
            let spread: Vec<f64> = (0..n).map(|_| ties[draw(ties.len())]).collect();
            let mut zeros: Vec<f64> = (0..n).map(|_| [-0.0, 0.0][draw(2)]).collect();
            zeros[draw(n)] = 7.0;
            for v in [spread, zeros] {
                let mut sorted = v.clone();
                sorted.sort_by(f64::total_cmp);
                let want = sorted[(n * 99).div_ceil(100) - 1];
                let got = p99_selecting(&mut v.clone());
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}: {v:?}");
            }
        }
    }

    #[test]
    fn deterministic_double_run() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(ev(
                0.5 + i as f64 * 0.7 * be,
                (i % 2) as u32,
                i,
                (i % 2) as u32,
            ));
        }
        for policy in [
            MixPolicy::Base,
            MixPolicy::Tpm(TpmConfig::default()),
            MixPolicy::Adaptive(AdaptiveConfig::default()),
            MixPolicy::Directive(DirectiveConfig::default()),
        ] {
            let a = run(&events, &policy);
            let b = run(&events, &policy);
            assert_eq!(a, b, "{} must be deterministic", policy.label());
            assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
        }
    }

    #[test]
    fn unsorted_or_unknown_tenant_input_is_rejected() {
        let p = ultrastar36z15();
        let pool = DiskPool::new(2);
        let unsorted = vec![ev(2.0, 0, 1, 0), ev(1.0, 0, 0, 0)];
        assert!(matches!(
            simulate_mix(&unsorted, &["a"], &p, pool, &MixPolicy::Base),
            Err(SimError::InvalidTrace(_))
        ));
        let unknown = vec![ev(1.0, 7, 0, 0)];
        assert!(matches!(
            simulate_mix(&unknown, &["a"], &p, pool, &MixPolicy::Base),
            Err(SimError::InvalidTrace(_))
        ));
        let bad_disk = vec![ev(1.0, 0, 0, 9)];
        assert!(matches!(
            simulate_mix(&bad_disk, &["a"], &p, pool, &MixPolicy::Base),
            Err(SimError::DiskOutOfRange { disk: 9, pool: 2 })
        ));
    }

    /// Full-speed service time of one 64 KiB random read.
    fn service_64k(p: &DiskParams) -> f64 {
        let ladder = RpmLadder::new(p);
        service_time_secs(
            &ladder,
            ladder.max_level(),
            ServiceRequest {
                size_bytes: 64 * 1024,
                sequential: false,
            },
        )
    }

    /// `n` 64 KiB reads alternating between two disks, `gap_secs` of
    /// compute before each.
    fn spaced(n: u64, gap_secs: f64) -> Trace {
        let mut events = Vec::new();
        for i in 0..n {
            events.push(AppEvent::Compute {
                nest: 0,
                first_iter: i * 2,
                iters: 1,
                secs: gap_secs,
            });
            events.push(AppEvent::Io(IoRequest {
                disk: DiskId((i % 2) as u32),
                start_block: i * 100,
                size_bytes: 64 * 1024,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter: i * 2 + 1,
            }));
        }
        Trace {
            name: "open".into(),
            pool_size: 2,
            events,
        }
    }

    /// The classic open-loop replay of one trace: a single tenant on its
    /// nominal timeline, disks at full speed.
    fn solo(trace: &Trace) -> MixReport {
        let events = merge_tenants(&[tenant_timeline(trace, 0, 0.0, 1.0)]);
        simulate_mix(
            &events,
            &["solo"],
            &ultrastar36z15(),
            DiskPool::new(trace.pool_size),
            &MixPolicy::Base,
        )
        .expect("valid mix")
    }

    #[test]
    fn uncontended_solo_responses_are_bare_service_times() {
        let st = service_64k(&ultrastar36z15());
        let r = solo(&spaced(20, 0.1));
        assert!((r.mean_response_secs - st).abs() < 1e-9);
        assert!((r.max_response_secs - st).abs() < 1e-9);
        assert_eq!(r.per_disk.iter().map(|d| d.max_queue_depth).max(), Some(1));
    }

    #[test]
    fn solo_requests_queue_fifo_behind_in_flight_work() {
        let st = service_64k(&ultrastar36z15());
        // The second request arrives half-way through the first's service
        // and waits for it; the third finds the disk drained.
        let second = 1.0 + st / 2.0;
        let events = vec![ev(1.0, 0, 0, 0), ev(second, 0, 1, 0), ev(10.0, 0, 2, 0)];
        let r = simulate_mix(
            &events,
            &["solo"],
            &ultrastar36z15(),
            DiskPool::new(1),
            &MixPolicy::Base,
        )
        .expect("valid mix");
        let first_done = 1.0 + st;
        let second_done = first_done + st;
        // Response is completion minus arrival, queueing included.
        assert_eq!(
            r.max_response_secs.to_bits(),
            (second_done - second).to_bits()
        );
        assert_eq!(r.per_disk[0].max_queue_depth, 2);
        assert_eq!(r.makespan_secs.to_bits(), (10.0 + st).to_bits());
        assert_eq!(r.per_disk[0].requests, 3);
    }

    #[test]
    fn solo_gaps_and_service_tile_the_makespan() {
        let r = solo(&spaced(4, 1.0));
        for d in &r.per_disk {
            for w in d.gaps.windows(2) {
                assert!(w[0].end <= w[1].start + 1e-12);
            }
            // The trailing gap runs to the makespan on every disk.
            let gap_total: f64 = d.gaps.iter().map(GapRecord::len_secs).sum();
            assert!((gap_total + d.busy_secs - r.makespan_secs).abs() < 1e-6);
        }
    }

    #[test]
    fn solo_mix_and_closed_loop_agree_on_uncontended_service_totals() {
        let t = spaced(30, 0.1);
        let open = solo(&t);
        let closed = crate::simulate(
            &t,
            &ultrastar36z15(),
            DiskPool::new(2),
            &crate::Policy::Base,
        );
        let open_busy: f64 = open.per_disk.iter().map(|d| d.busy_secs).sum();
        let closed_busy: f64 = closed.per_disk.iter().map(|d| d.energy.active_secs).sum();
        assert!((open_busy - closed_busy).abs() < 1e-9);
    }

    #[test]
    fn solo_empty_trace_replays_to_zero() {
        let r = solo(&Trace {
            name: "empty".into(),
            pool_size: 2,
            events: vec![],
        });
        assert_eq!(r.requests, 0);
        assert_eq!(r.makespan_secs, 0.0);
        assert_eq!(r.total_energy_j(), 0.0);
    }

    #[test]
    fn empty_mix_is_a_zero_report() {
        let r = run(&[], &MixPolicy::Base);
        assert_eq!(r.requests, 0);
        assert_eq!(r.makespan_secs, 0.0);
        assert_eq!(r.total_energy_j(), 0.0);
        assert_eq!(r.p99_response_secs, 0.0);
    }

    /// Each event is checked against the shortest transition it can
    /// start. Near 2^54 s the clock's resolution is 4 s, so a 1.5 s
    /// spin-down rounds away; at 2^53 s it is 2 s. Near 2^45 s it is
    /// 2^-7 s, so only a 2 ms RPM step rounds away, and only a `SetRpm`
    /// directive the Directive policy applies starts one.
    #[test]
    fn events_too_late_for_a_transition_are_rejected() {
        let sim = |events: &[TenantEvent], policy: &MixPolicy| {
            simulate_mix(events, &["a"], &ultrastar36z15(), DiskPool::new(2), policy)
        };
        let late = |r: Result<MixReport, SimError>| matches!(r, Err(SimError::InvalidTrace(m)) if m.contains("shortest power transition"));
        let tpm = MixPolicy::Tpm(TpmConfig::default());
        let directive = MixPolicy::Directive(DirectiveConfig::default());
        assert!(late(sim(&[ev(2f64.powi(54), 0, 0, 0)], &MixPolicy::Base)));
        assert!(sim(&[ev(2f64.powi(53), 0, 0, 0)], &tpm).is_ok());
        let shift = |at: f64| [pw(at, 0, 0, 0, PowerAction::SetRpm(RpmLevel(3)))];
        assert!(late(sim(&shift(2f64.powi(45)), &directive)));
        assert!(sim(&shift(2f64.powi(44)), &directive).is_ok());
        assert!(sim(&shift(2f64.powi(45)), &tpm).is_ok());
    }

    /// Simulates one request under the adaptive policy `c`.
    fn adaptive(c: AdaptiveConfig) -> Result<MixReport, SimError> {
        let events = [ev(1.0, 0, 0, 0)];
        simulate_mix(
            &events,
            &["a"],
            &ultrastar36z15(),
            DiskPool::new(2),
            &MixPolicy::Adaptive(c),
        )
    }

    /// Each value must be rejected as invalid parameters naming `field`.
    fn rejects(field: &str, configs: &[AdaptiveConfig]) {
        for c in configs {
            match adaptive(*c) {
                Err(SimError::InvalidParams(m)) => {
                    assert!(m.contains(&format!("policy {field} must")), "{m}");
                }
                other => panic!("{field}: {c:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn adaptive_epoch_must_be_positive() {
        let d = AdaptiveConfig::default();
        rejects(
            "epoch_secs",
            &[0.0, -5.0, f64::NAN].map(|epoch_secs| AdaptiveConfig { epoch_secs, ..d }),
        );
        let never = AdaptiveConfig {
            epoch_secs: f64::INFINITY,
            ..d
        };
        assert!(adaptive(never).is_ok(), "an endless epoch is allowed");
    }

    #[test]
    fn adaptive_ewma_alpha_must_be_in_the_unit_interval() {
        let d = AdaptiveConfig::default();
        rejects(
            "ewma_alpha",
            &[0.0, -0.5, 7.0, f64::NAN].map(|ewma_alpha| AdaptiveConfig { ewma_alpha, ..d }),
        );
        assert!(adaptive(AdaptiveConfig {
            ewma_alpha: 1.0,
            ..d
        })
        .is_ok());
    }

    #[test]
    fn adaptive_margin_must_be_positive_and_finite() {
        let d = AdaptiveConfig::default();
        rejects(
            "margin",
            &[0.0, -1.0, f64::INFINITY, f64::NAN].map(|margin| AdaptiveConfig { margin, ..d }),
        );
    }

    #[test]
    fn adaptive_margin_grow_must_exceed_one() {
        let d = AdaptiveConfig::default();
        rejects(
            "margin_grow",
            &[0.5, 1.0, f64::NAN].map(|margin_grow| AdaptiveConfig { margin_grow, ..d }),
        );
    }

    #[test]
    fn adaptive_margin_shrink_must_be_in_the_open_unit_interval() {
        let d = AdaptiveConfig::default();
        rejects(
            "margin_shrink",
            &[3.0, 1.0, 0.0, f64::NAN].map(|margin_shrink| AdaptiveConfig { margin_shrink, ..d }),
        );
    }

    /// The epoch closing [`Feedback::close_epochs`] replaces: one
    /// `epoch_secs` step per iteration.
    fn close_epochs_stepwise(f: &mut Feedback, completion: f64, c: &AdaptiveConfig) {
        while completion >= f.next_epoch_end {
            if f.misfired > f.exploited {
                f.margin = (f.margin * c.margin_grow).min(AdaptiveConfig::MARGIN_RANGE.1);
            } else if f.missed > f.exploited {
                f.margin = (f.margin * c.margin_shrink).max(AdaptiveConfig::MARGIN_RANGE.0);
            }
            f.exploited = 0;
            f.misfired = 0;
            f.missed = 0;
            f.next_epoch_end += c.epoch_secs;
        }
    }

    proptest! {
        /// Closing epochs in one step lands where the stepwise loop
        /// does, margin and boundary bit for bit, on epochs whose
        /// boundaries are exact (whole seconds and binary fractions of
        /// them, as the default 30 s is). Some completions land exactly
        /// on a boundary, which closes the epoch ending there.
        #[test]
        fn one_step_epoch_closing_matches_the_loop(
            units in 1u32..600,
            halvings in 0i32..4,
            steps in proptest::collection::vec(
                (0.0f64..3000.0, 0u8..4, 0u64..3, 0u64..3, 0u64..3),
                1..40,
            ),
        ) {
            let c = AdaptiveConfig {
                epoch_secs: f64::from(units) * 2f64.powi(-halvings),
                ..AdaptiveConfig::default()
            };
            let start = Feedback {
                margin: c.margin,
                next_epoch_end: c.epoch_secs,
                exploited: 0,
                misfired: 0,
                missed: 0,
            };
            let (mut fast, mut spec) = (start, start);
            let mut t = 0.0;
            for (dt, snap, exploited, misfired, missed) in steps {
                t = if snap == 0 { spec.next_epoch_end } else { t + dt };
                for f in [&mut fast, &mut spec] {
                    f.exploited += exploited;
                    f.misfired += misfired;
                    f.missed += missed;
                }
                fast.close_epochs(t, &c);
                close_epochs_stepwise(&mut spec, t, &c);
                prop_assert_eq!(fast.margin.to_bits(), spec.margin.to_bits());
                prop_assert_eq!(
                    fast.next_epoch_end.to_bits(),
                    spec.next_epoch_end.to_bits()
                );
                prop_assert_eq!(
                    (fast.exploited, fast.misfired, fast.missed),
                    (spec.exploited, spec.misfired, spec.missed)
                );
            }
        }
    }
}
