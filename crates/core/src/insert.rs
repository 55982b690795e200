//! Explicit power-management call insertion (Section 3).
//!
//! For every disk idle gap the DAP exposes, the compiler estimates its
//! wall-clock length and, if the break-even analysis says the gap pays:
//!
//! * **CMTPM** — inserts `spin_down(disk)` at the gap start and a
//!   pre-activating `spin_up(disk)` before the next access;
//! * **CMDRPM** — inserts `set_RPM(level, disk)` with the energy-optimal
//!   level at the gap start and a pre-activating `set_RPM(max, disk)`
//!   before the next access.
//!
//! The compiler positions calls on its **estimated timeline** of the run:
//! per-nest compute time plus the predicted service time of each I/O
//! request, each scaled by the per-nest measurement-noise factor (the
//! paper's estimates come from a timed real execution, which sees I/O
//! stalls). The pre-activation call lands the paper's formula (1) lead
//! `Tsu + Tm` before the next access *on that timeline*; in code terms the
//! insertion point is a strip-mine split of the enclosing compute segment
//! (the paper: "we also stripe-mine the loop... to make explicit the point
//! at which the spin-up call is to be inserted").
//!
//! At chunk granularity the DAP's active/idle transitions coincide with
//! the generated trace's requests, so the gap walk below *is* the DAP
//! walk of [`crate::dap`], merely carried out on the event stream where
//! the insertion must happen anyway.
//!
//! The pass has two stages. Planning ([`plan_directives`]) makes the gap
//! decisions and pins each call to a base-trace position, in weave order:
//! a [`DirectivePlan`]. Weaving ([`DirectivePlan::weave`]) is one loop
//! that hands the base events and the synthesized calls and split
//! compute halves to a sink in program order. [`insert_directives`] weaves
//! into a `Vec`; `Session` weaves straight into the simulator, so a
//! compiler-managed run builds no woven copy.

use crate::estimate::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdpm_disk::{
    best_rpm_for_gap, breakeven::tpm_gap_is_worthwhile, service_time_secs, DiskParams, RpmLadder,
    RpmLevel, ServiceRequest,
};
use sdpm_layout::DiskId;
use sdpm_trace::{AppEvent, PowerAction, Trace};
use serde::{Deserialize, Serialize};

/// Which family of power-management calls to insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmMode {
    /// `spin_down` / `spin_up` (CMTPM).
    Tpm,
    /// `set_RPM` (CMDRPM).
    Drpm,
}

/// One gap-level decision the compiler made, for diagnostics and the
/// Table 3 accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    pub disk: DiskId,
    /// The compiler's estimated gap length, seconds.
    pub estimated_secs: f64,
    /// Level chosen (CMDRPM) — `None` means "leave at full speed".
    pub level: Option<RpmLevel>,
    /// True if a spin-down was inserted (CMTPM).
    pub spun_down: bool,
}

/// Result of instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertOutcome {
    /// The instrumented trace (input trace plus `Power` events).
    pub trace: Trace,
    /// Number of power-management calls inserted.
    pub inserted: usize,
    /// Per-gap decisions for gaps that were considered.
    pub decisions: Vec<Decision>,
    /// Per-nest multiplicative noise factors (indexed by nest id) the
    /// planner used to build its estimated timeline. Exposed so an
    /// independent checker can re-derive the exact timeline the decisions
    /// were made against (see `sdpm-verify`).
    pub nest_factors: Vec<f64>,
}

/// Where one power call goes in the woven stream: before base event
/// `event_idx`, or inside it, a `Compute` split at an absolute iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    event_idx: usize,
    /// The split iteration, or 0 for "before the event": a split lands
    /// strictly inside its span, never at iteration 0.
    split_iter: u64,
    disk: DiskId,
    action: PowerAction,
}

impl Pin {
    fn new(event_idx: usize, split_iter: Option<u64>, disk: DiskId, action: PowerAction) -> Self {
        debug_assert_ne!(split_iter, Some(0), "a split lands inside its span");
        Pin {
            event_idx,
            split_iter: split_iter.unwrap_or(0),
            disk,
            action,
        }
    }

    /// The base-trace event the call is pinned to.
    #[must_use]
    pub fn event_idx(&self) -> usize {
        self.event_idx
    }

    /// `None`: the call goes before the event. `Some(iter)`: the compute
    /// event is split at this absolute iteration and the call goes
    /// between the halves.
    #[must_use]
    pub fn split_iter(&self) -> Option<u64> {
        (self.split_iter != 0).then_some(self.split_iter)
    }

    /// The disk the call manages.
    #[must_use]
    pub fn disk(&self) -> DiskId {
        self.disk
    }

    /// The call.
    #[must_use]
    pub fn action(&self) -> PowerAction {
        self.action
    }

    fn event(&self) -> AppEvent {
        AppEvent::Power {
            disk: self.disk,
            action: self.action,
        }
    }
}

/// The compiler's directive plan for one trace and mode: the gap
/// decisions, the per-nest noise factors, and the power calls pinned to
/// base-trace positions in weave order. [`DirectivePlan::weave`] turns it
/// and its base trace into the instrumented event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectivePlan {
    pins: Vec<Pin>,
    decisions: Vec<Decision>,
    nest_factors: Vec<f64>,
}

/// Instruments `trace` with power-management calls for `mode`: the
/// [`plan_directives`] plan woven into the trace.
///
/// `noise` models the compiler's measurement error: one multiplicative
/// factor per nest, applied to the estimated timeline (both compute and
/// service portions, as a real timed run would be).
///
/// # Panics
/// As [`DirectivePlan::weave`].
#[must_use]
pub fn insert_directives(
    trace: &Trace,
    params: &DiskParams,
    noise: &NoiseModel,
    mode: CmMode,
    overhead_secs: f64,
) -> InsertOutcome {
    plan_directives(trace, params, noise, mode, overhead_secs).weave_outcome(trace)
}

/// The plan [`insert_directives`] weaves: break-even thresholding (the
/// gap decisions and where each call is pinned) followed by the weave
/// order.
#[must_use]
pub fn plan_directives(
    trace: &Trace,
    params: &DiskParams,
    noise: &NoiseModel,
    mode: CmMode,
    overhead_secs: f64,
) -> DirectivePlan {
    decide(trace, params, noise, mode, overhead_secs).ordered()
}

impl DirectivePlan {
    /// The pinned calls, in weave order.
    #[must_use]
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// Weaves the plan into `base`, the trace it was planned on, handing
    /// each event of the instrumented stream to `sink` in order and
    /// stopping at the first error `sink` returns. A pinned call goes
    /// before its event or between the halves of its split compute span;
    /// calls pinned past the last event go at the end.
    ///
    /// Base events pass through unchecked. Each synthesized event (a
    /// `Power` call or a split half) is checked as it is produced, which
    /// covers everything [`Trace::validate`] checks of the woven trace
    /// when `base` is valid: split halves keep their nest, and `Power`
    /// events carry none.
    ///
    /// # Panics
    /// With "instrumented trace must be valid" if a synthesized event
    /// names a disk outside the pool or a non-finite or negative compute
    /// time.
    ///
    /// # Errors
    /// The first error `sink` returns.
    pub fn weave<E>(
        &self,
        base: &Trace,
        mut sink: impl FnMut(&AppEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        // Each event goes to `sink`; a synthesized one is checked first.
        let mut emit = |e: &AppEvent, synthesized: bool| {
            if synthesized {
                check_synthesized(e, base.pool_size);
            }
            sink(e)
        };
        let (events, pins) = (&base.events, &self.pins);
        // `events[..next]` and `pins[..di]` are woven.
        let (mut next, mut di) = (0, 0);
        while let Some(&Pin { event_idx: at, .. }) = pins.get(di) {
            let Some(e) = events.get(at) else {
                break;
            };
            // Events up to the pinned one pass through.
            for e in &events[next..at] {
                emit(e, false)?;
            }
            next = at + 1;
            // "Before" pins come first and go before the event. A split
            // pin cuts a compute event at its iteration and goes between
            // the halves; a split point outside what is left of the span,
            // or on any other event, falls back to "before" semantics.
            let (mut seg, mut split) = (*e, false);
            while let Some(p) = pins.get(di).filter(|p| p.event_idx == at) {
                if let AppEvent::Compute {
                    first_iter, iters, ..
                } = seg
                {
                    if p.split_iter > first_iter && p.split_iter < first_iter + iters {
                        let (l, r) = seg.split_compute(p.split_iter);
                        emit(&l, true)?;
                        (seg, split) = (r, true);
                    }
                }
                emit(&p.event(), true)?;
                di += 1;
            }
            emit(&seg, split)?;
        }
        // Then the rest of the events, and the pins past the last one.
        for e in &events[next..] {
            emit(e, false)?;
        }
        for p in &pins[di..] {
            emit(&p.event(), true)?;
        }
        Ok(())
    }

    /// The instrumentation outcome: the plan woven into `base` as a
    /// trace. The plan's decisions and nest factors move into the
    /// outcome; the plan keeps its pins, all a replay reads.
    ///
    /// # Panics
    /// As [`DirectivePlan::weave`].
    pub(crate) fn weave_outcome(&mut self, base: &Trace) -> InsertOutcome {
        let mut events = Vec::with_capacity(base.events.len() + self.pins.len());
        let Ok(()) = self.weave(base, |e| {
            events.push(*e);
            Ok::<(), std::convert::Infallible>(())
        });
        InsertOutcome {
            trace: Trace {
                name: base.name.clone(),
                pool_size: base.pool_size,
                events,
            },
            inserted: self.pins.len(),
            decisions: std::mem::take(&mut self.decisions),
            nest_factors: std::mem::take(&mut self.nest_factors),
        }
    }
}

/// Panics unless the synthesized event `e` passes the checks
/// [`Trace::validate`] makes of it in a trace of `pool_size` disks.
#[inline]
fn check_synthesized(e: &AppEvent, pool_size: u32) {
    let ok = match e {
        AppEvent::Power { disk, .. } => disk.0 < pool_size,
        AppEvent::Compute { secs, .. } => *secs >= 0.0 && secs.is_finite(),
        AppEvent::Io(_) => true,
    };
    if !ok {
        invalid_synthesized(e);
    }
}

#[cold]
#[inline(never)]
fn invalid_synthesized(e: &AppEvent) -> ! {
    let why = match e {
        AppEvent::Power { disk, .. } => format!("power call on out-of-pool {disk}"),
        AppEvent::Compute { secs, .. } => format!("bad compute duration {secs}"),
        AppEvent::Io(_) => unreachable!("the weave synthesizes no request"),
    };
    panic!("instrumented trace must be valid: {why}");
}

/// Output of break-even thresholding, before the weave order.
pub(crate) struct Decided {
    pinned: Vec<Pin>,
    decisions: Vec<Decision>,
    max: RpmLevel,
    nest_factors: Vec<f64>,
}
/// The per-nest multiplicative noise factors the compiler's estimated
/// timeline applies, seeded like `CycleEstimator::with_noise`: one draw
/// per nest from `noise.seed`, clamped below at 0.05.
#[must_use]
pub fn nest_noise_factors(trace: &Trace, noise: &NoiseModel) -> Vec<f64> {
    let nest_count = trace
        .events
        .iter()
        .filter_map(AppEvent::nest)
        .max()
        .map_or(0, |n| n + 1);
    let mut rng = StdRng::seed_from_u64(noise.seed);
    (0..nest_count)
        .map(|_| {
            let eps: f64 = if noise.spread > 0.0 {
                rng.random_range(-noise.spread..noise.spread)
            } else {
                0.0
            };
            (1.0 + eps).max(0.05)
        })
        .collect()
}

/// Break-even thresholding: builds the estimated timeline, walks every
/// disk's gaps, and decides which power calls to pin where.
pub(crate) fn decide(
    trace: &Trace,
    params: &DiskParams,
    noise: &NoiseModel,
    mode: CmMode,
    overhead_secs: f64,
) -> Decided {
    let ladder = RpmLadder::new(params);
    let max = ladder.max_level();

    // Per-nest noise factors, seeded like CycleEstimator::with_noise.
    let factors = nest_noise_factors(trace, noise);

    // Estimated timeline: event `i` runs from `at[i]` to `at[i + 1]`, and
    // `at[n]` is the end of the run.
    let mut at = Vec::with_capacity(trace.events.len() + 1);
    let mut t = 0.0f64;
    for e in &trace.events {
        at.push(t);
        let dur = match e {
            AppEvent::Compute { nest, secs, .. } => secs * factors[*nest],
            AppEvent::Io(r) => {
                factors[r.nest]
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
        t += dur;
    }
    at.push(t);
    let t_total = t;

    // Per-disk request event indices.
    let pool = trace.pool_size as usize;
    let mut per_disk: Vec<Vec<usize>> = vec![Vec::new(); pool];
    for (i, e) in trace.events.iter().enumerate() {
        if let AppEvent::Io(r) = e {
            per_disk[r.disk.0 as usize].push(i);
        }
    }

    // Energy floor per inserted pair: each call costs the whole subsystem
    // `Tm` of wall time; require a clear predicted profit.
    let call_cost_j = 2.0 * overhead_secs * params.idle_power_w * pool as f64;
    let min_saved_j = 4.0 * call_cost_j;

    let mut pinned: Vec<Pin> = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();

    // Per-gap jitter stream (drawn in deterministic disk/gap order).
    let mut gap_rng = StdRng::seed_from_u64(noise.seed.wrapping_add(0x9E37_79B9));

    for (d, reqs) in per_disk.iter().enumerate() {
        let disk = DiskId(d as u32);
        // Gap k runs from the end of request k-1 (or stream start) to the
        // start of request k (or stream end for the trailing gap).
        for k in 0..=reqs.len() {
            let (gap_start_t, start_pin) = if k == 0 {
                (0.0, 0usize)
            } else {
                (at[reqs[k - 1] + 1], reqs[k - 1] + 1)
            };
            let (gap_end_t, end_event) = if k < reqs.len() {
                (at[reqs[k]], Some(reqs[k]))
            } else {
                (t_total, None)
            };
            let true_est = gap_end_t - gap_start_t;
            if true_est <= 0.0 {
                continue;
            }
            let est = if noise.gap_jitter > 0.0 {
                let eta: f64 = gap_rng.random_range(-noise.gap_jitter..noise.gap_jitter);
                (true_est * (1.0 + eta)).max(0.0)
            } else {
                true_est
            };
            let mut decision = Decision {
                disk,
                estimated_secs: est,
                level: None,
                spun_down: false,
            };
            let plan: Option<(PowerAction, PowerAction, f64)> = match mode {
                CmMode::Tpm => {
                    if tpm_gap_is_worthwhile(params, est) {
                        Some((
                            PowerAction::SpinDown,
                            PowerAction::SpinUp,
                            params.spin_up_secs,
                        ))
                    } else {
                        None
                    }
                }
                CmMode::Drpm => {
                    let choice = best_rpm_for_gap(&ladder, est);
                    if choice.level < max && choice.saved_j() > min_saved_j {
                        Some((
                            PowerAction::SetRpm(choice.level),
                            PowerAction::SetRpm(max),
                            ladder.transition_secs(choice.level, max),
                        ))
                    } else {
                        None
                    }
                }
            };
            let Some((down, up, tsu)) = plan else {
                decisions.push(decision);
                continue;
            };
            match end_event {
                None => {
                    // Trailing gap: no pre-activation needed.
                    pinned.push(Pin::new(start_pin, None, disk, down));
                }
                Some(end_idx) => {
                    let target_t = gap_end_t - (tsu + overhead_secs);
                    if target_t <= gap_start_t {
                        // Gap cannot fit the pre-activation lead: leave
                        // the disk alone.
                        decisions.push(decision);
                        continue;
                    }
                    let (event_idx, split_iter) =
                        position_at(trace, &at, start_pin, end_idx, target_t);
                    if (event_idx, split_iter) == (start_pin, None) {
                        // The restore's only position is the slow-down's
                        // own, where it would be woven first: as above.
                        decisions.push(decision);
                        continue;
                    }
                    pinned.push(Pin::new(start_pin, None, disk, down));
                    pinned.push(Pin::new(event_idx, split_iter, disk, up));
                }
            }
            match mode {
                CmMode::Tpm => decision.spun_down = true,
                CmMode::Drpm => {
                    if let PowerAction::SetRpm(l) = down {
                        decision.level = Some(l);
                    }
                }
            }
            decisions.push(decision);
        }
    }

    Decided {
        pinned,
        decisions,
        max,
        nest_factors: factors,
    }
}

impl Decided {
    /// Directive insertion: orders the pinned calls for the weave. By
    /// event position, "before event" pins first, then intra-compute
    /// splits by iteration; pre-activations ahead of slow-downs at the
    /// same point; then by disk.
    pub(crate) fn ordered(self) -> DirectivePlan {
        let Decided {
            mut pinned,
            decisions,
            max,
            nest_factors,
        } = self;
        let rank = |a: &PowerAction| match a {
            PowerAction::SpinUp => 0,
            PowerAction::SetRpm(l) if *l == max => 0,
            _ => 1,
        };
        pinned.sort_by(|a, b| {
            a.event_idx
                .cmp(&b.event_idx)
                .then_with(|| a.split_iter.cmp(&b.split_iter))
                .then_with(|| rank(&a.action).cmp(&rank(&b.action)))
                .then_with(|| a.disk.cmp(&b.disk))
        });
        pinned.shrink_to_fit();
        DirectivePlan {
            pins: pinned,
            decisions,
            nest_factors,
        }
    }
}

/// Finds the stream position whose estimated time is `target_t` inside
/// the gap that opens before event `start_pin` and ends at `end_idx` (the
/// request the pre-activation protects): before an event, or split
/// inside a compute span at an absolute iteration. The gap's start
/// precedes `target_t`, so the search stays within `[start_pin,
/// end_idx]`.
fn position_at(
    trace: &Trace,
    at: &[f64],
    start_pin: usize,
    end_idx: usize,
    target_t: f64,
) -> (usize, Option<u64>) {
    let gap = &at[start_pin..=end_idx];
    let i = start_pin + gap.partition_point(|&s| s <= target_t).saturating_sub(1);
    match &trace.events[i] {
        AppEvent::Compute {
            first_iter, iters, ..
        } if *iters > 1 && at[i + 1] > at[i] => {
            let frac = ((target_t - at[i]) / (at[i + 1] - at[i])).clamp(0.0, 1.0);
            let off = (frac * *iters as f64) as u64;
            if off == 0 {
                (i, None)
            } else if off >= *iters {
                (i + 1, None)
            } else {
                (i, Some(first_iter + off))
            }
        }
        // Io/Power/degenerate-compute: insert before this event (slightly
        // early — conservative).
        _ => (i, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_disk::ultrastar36z15;
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Program, Statement};
    use sdpm_layout::{ArrayFile, DiskPool, StorageOrder, Striping};
    use sdpm_trace::{generate, TraceGenConfig};

    /// A program with an I/O phase (nest 0 scans A on disk 0), a long
    /// compute phase (nest 1, no I/O), and a second I/O phase (nest 2
    /// scans A again). Disk 0's mid gap spans the compute nest; disk 1 is
    /// never used.
    fn phased_program(compute_secs: f64) -> (Program, DiskPool) {
        let a = ArrayFile {
            name: "A".into(),
            dims: vec![4096],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 1,
                stripe_bytes: 64 * 1024,
            },
            base_block: 0,
        };
        let scan = |label: &str| LoopNest {
            label: label.into(),
            loops: vec![LoopDim::simple(4096)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
            }],
            cycles_per_iter: 750.0, // 1 us per iteration
        };
        let compute_iters = 10_000u64;
        let compute = LoopNest {
            label: "compute".into(),
            loops: vec![LoopDim::simple(compute_iters)],
            stmts: vec![],
            cycles_per_iter: compute_secs / compute_iters as f64 * 750.0e6,
        };
        let p = Program {
            name: "phased".into(),
            arrays: vec![a],
            nests: vec![scan("read"), compute, scan("reread")],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let pool = DiskPool::new(2);
        p.validate(pool).unwrap();
        (p, pool)
    }

    /// Generator config with chunks smaller than the 32 KiB array, so the
    /// reread misses the one-chunk cache and produces mid-gap requests.
    fn small_chunks() -> TraceGenConfig {
        TraceGenConfig {
            io_chunk_bytes: 8 * 1024,
            detect_sequential: false,
        }
    }

    fn setup(compute_secs: f64) -> Trace {
        let (p, pool) = phased_program(compute_secs);
        generate(&p, pool, small_chunks())
    }

    const TM: f64 = 50e-6;

    #[test]
    fn cmdrpm_inserts_slowdown_and_preactivation() {
        let t = setup(10.0);
        let params = ultrastar36z15();
        let out = insert_directives(&t, &params, &NoiseModel::exact(), CmMode::Drpm, TM);
        assert!(out.inserted >= 2, "inserted {}", out.inserted);
        let max = RpmLadder::new(&params).max_level();
        let powers: Vec<_> = out
            .trace
            .events
            .iter()
            .filter_map(|e| match e {
                AppEvent::Power { disk, action } => Some((*disk, *action)),
                _ => None,
            })
            .collect();
        let down = powers
            .iter()
            .position(|(d, a)| *d == DiskId(0) && matches!(a, PowerAction::SetRpm(l) if *l < max));
        let up = powers.iter().rposition(|(d, a)| {
            *d == DiskId(0) && matches!(a, PowerAction::SetRpm(l) if *l == max)
        });
        assert!(down.is_some() && up.is_some() && down < up);
    }

    #[test]
    fn cmtpm_ignores_sub_break_even_gaps() {
        let t = setup(10.0); // all gaps < 15.2 s on the estimated timeline
        let params = ultrastar36z15();
        let out = insert_directives(&t, &params, &NoiseModel::exact(), CmMode::Tpm, TM);
        // Disk 0's mid gap (~10 s) is below break-even; disk 1 never
        // appears in the trace at all (no requests -> no gap walk), so
        // nothing is inserted.
        assert_eq!(out.inserted, 0);
        assert!(out.decisions.iter().all(|d| !d.spun_down));
    }

    #[test]
    fn cmtpm_exploits_long_gaps() {
        let t = setup(60.0);
        let params = ultrastar36z15();
        let out = insert_directives(&t, &params, &NoiseModel::exact(), CmMode::Tpm, TM);
        let d0_down = out
            .decisions
            .iter()
            .any(|d| d.disk == DiskId(0) && d.spun_down);
        assert!(d0_down);
        let spin_ups = out
            .trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    AppEvent::Power {
                        action: PowerAction::SpinUp,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(spin_ups, 1, "one pre-activation for the mid gap");
    }

    #[test]
    fn preactivation_lead_is_respected_on_the_estimated_timeline() {
        let t = setup(30.0);
        let params = ultrastar36z15();
        let ladder = RpmLadder::new(&params);
        let max = ladder.max_level();
        let out = insert_directives(&t, &params, &NoiseModel::exact(), CmMode::Drpm, TM);
        // Find the restore-to-max on disk 0 and the first nest-2 request;
        // between them there must be at least the shift-back lead of
        // compute time.
        let mut acc = 0.0;
        let mut lead: Option<f64> = None;
        for e in &out.trace.events {
            match e {
                AppEvent::Compute { secs, .. } if lead.is_some() => {
                    acc += secs;
                }
                AppEvent::Power {
                    disk: DiskId(0),
                    action: PowerAction::SetRpm(l),
                } if *l == max => lead = Some(0.0),
                AppEvent::Io(r) if r.nest == 2 => break,
                _ => {}
            }
        }
        assert!(lead.is_some(), "pre-activation present");
        let full_swing = 10.0 * params.rpm_transition_secs_per_step;
        assert!(
            acc >= full_swing * 0.9,
            "accumulated lead {acc} below shift time {full_swing}"
        );
    }

    #[test]
    fn instrumented_trace_validates_and_preserves_io() {
        let t = setup(20.0);
        let params = ultrastar36z15();
        let out = insert_directives(&t, &params, &NoiseModel::default(), CmMode::Drpm, TM);
        assert_eq!(out.trace.validate(), Ok(()));
        assert_eq!(out.trace.stats().requests, t.stats().requests);
        assert!(
            (out.trace.stats().compute_secs - t.stats().compute_secs).abs() < 1e-9,
            "compute splitting must conserve time"
        );
    }

    #[test]
    fn exact_estimates_choose_the_per_gap_optimum() {
        let t = setup(8.0);
        let params = ultrastar36z15();
        let ladder = RpmLadder::new(&params);
        let out = insert_directives(&t, &params, &NoiseModel::exact(), CmMode::Drpm, TM);
        for d in &out.decisions {
            if let Some(level) = d.level {
                let ideal = best_rpm_for_gap(&ladder, d.estimated_secs);
                assert_eq!(level, ideal.level);
            }
        }
    }

    #[test]
    fn noisy_estimates_can_differ_from_ideal() {
        // Sub-second gaps are the noise-sensitive regime.
        let t = setup(0.12);
        let params = ultrastar36z15();
        let exact = insert_directives(&t, &params, &NoiseModel::exact(), CmMode::Drpm, TM);
        let exact_levels: Vec<_> = exact.decisions.iter().map(|d| d.level).collect();
        let mut any_diff = false;
        for seed in 0..20 {
            let noisy = insert_directives(
                &t,
                &params,
                &NoiseModel {
                    spread: 0.5,
                    gap_jitter: 0.5,
                    seed,
                },
                CmMode::Drpm,
                TM,
            );
            if noisy.decisions.iter().map(|d| d.level).collect::<Vec<_>>() != exact_levels {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "50% noise must flip at least one level choice");
    }

    /// Disk 0's gap is exactly one long disk-1 request. The restore's
    /// target falls inside that request, so its only position is the
    /// slow-down's own; woven there it would precede the slow-down and
    /// leave disk 0 at 3,000 RPM for its next request. The gap gets no
    /// calls, and CMDRPM runs as Base does.
    #[test]
    fn restore_landing_on_its_slowdown_leaves_the_gap_alone() {
        use sdpm_layout::DiskPool;
        use sdpm_sim::{simulate, DirectiveConfig, Policy};
        use sdpm_trace::{IoRequest, ReqKind};
        let io = |disk: u32, size_bytes: u64, iter: u64| {
            AppEvent::Io(IoRequest {
                disk: DiskId(disk),
                start_block: iter * 1024,
                size_bytes,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter,
            })
        };
        let t = Trace {
            name: "restore-on-slowdown".into(),
            pool_size: 2,
            events: vec![io(0, 4096, 0), io(1, 64 << 20, 1), io(0, 4096, 2)],
        };
        let params = ultrastar36z15();
        let out = insert_directives(&t, &params, &NoiseModel::exact(), CmMode::Drpm, TM);
        assert_eq!(out.inserted, 0, "{:?}", out.trace.events);
        assert!(out.decisions.iter().all(|d| d.level.is_none()));
        let pool = DiskPool::new(2);
        let base = simulate(&t, &params, pool, &Policy::Base);
        let cm = simulate(
            &out.trace,
            &params,
            pool,
            &Policy::Directive(DirectiveConfig { overhead_secs: TM }),
        );
        assert_eq!(cm.exec_secs.to_bits(), base.exec_secs.to_bits());
        assert_eq!(cm.stall_secs.to_bits(), base.stall_secs.to_bits());
        assert_eq!(cm.energy, base.energy);
    }

    #[test]
    fn trailing_gap_gets_slowdown_without_preactivation() {
        // One request then a long compute tail.
        let (p, pool) = phased_program(1.0);
        let mut p = p;
        p.nests.truncate(2); // read + compute; no reread
        let t = generate(&p, pool, small_chunks());
        let params = ultrastar36z15();
        let out = insert_directives(&t, &params, &NoiseModel::exact(), CmMode::Drpm, TM);
        let max = RpmLadder::new(&params).max_level();
        let ups = out
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, AppEvent::Power { action: PowerAction::SetRpm(l), .. } if *l == max))
            .count();
        assert_eq!(ups, 0, "no request follows: no restore needed");
        let downs = out
            .trace
            .events
            .iter()
            .filter(
                |e| matches!(e, AppEvent::Power { action: PowerAction::SetRpm(l), .. } if *l < max),
            )
            .count();
        assert!(downs >= 1);
    }
}
