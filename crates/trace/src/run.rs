//! Run-length-compressed traces.
//!
//! Scientific I/O is regular: a striped scan produces long sequences of
//! `(compute, fetch)` periods whose parameters repeat exactly, with only
//! the block address and iteration numbers advancing by a constant
//! stride. This module captures that regularity losslessly: a [`Run`]
//! stores one period template plus a repetition count, and lowers back to
//! the *identical* per-event sequence it was compressed from — same
//! fields, same float bits, same order. Compression is therefore a pure
//! representation change: every consumer that accepts the per-event
//! trace accepts a lowered run trace with bitwise-equal results.
//!
//! Three pieces:
//!
//! * [`Run`] / [`REvent`] / [`RunTrace`] — the compressed event kinds and
//!   the materialized compressed trace,
//! * [`compress`] — the one way to build a [`RunTrace`]: a one-pass fuser
//!   over a whole [`Trace`]. Consecutive periods with bitwise-identical
//!   parameters and uniform strides fuse into a run; anything else —
//!   `Power` events in particular — passes through untouched and breaks
//!   the run,
//! * [`RunTrace::lower`] — the inverse, expanding a run trace back into
//!   the per-event trace it was compressed from.

use crate::event::{AppEvent, IoRequest};
use crate::trace::Trace;
use sdpm_ir::NestId;

/// One request of a run's period: the rep-0 instance plus the per-rep
/// block advance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoTemplate {
    /// The request as issued by the run's first repetition.
    pub io: IoRequest,
    /// `start_block` advance per repetition (`iter` advances by the run's
    /// `iters_per_rep`).
    pub block_stride: u64,
}

/// A run: `count` repetitions of a `(compute, requests…)` period, with
/// the request templates rotating over `rotation` groups.
///
/// Striped files round-robin consecutive stripe units across disks, so a
/// steady scan's periods repeat with rotation `m` = the stripe factor:
/// period `p` issues the same requests as period `p − m`, one stripe
/// deeper on each disk. The run therefore stores `rotation · q`
/// templates (`q` requests per period); repetition `p` lowers to the
/// compute span covering iterations
/// `[first_iter + p·iters_per_rep, first_iter + (p+1)·iters_per_rep)`
/// followed by group `p % rotation`'s templates, each with
/// `start_block + (p/rotation)·stride` and
/// `iter + (p/rotation)·rotation·iters_per_rep`. With `rotation == 1`
/// this degenerates to the plain uniform-period run.
///
/// `secs_per_rep` is bitwise identical across repetitions — the
/// generator derives each flush as `iters as f64 * iter_secs`, which
/// depends only on the (repeating) iteration count, so equal periods
/// really do carry equal float bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Repetition count, ≥ 1.
    pub count: u64,
    /// Nest of the period's compute span.
    pub nest: NestId,
    /// First iteration of repetition 0's compute span.
    pub first_iter: u64,
    /// Iterations per compute span, ≥ 1.
    pub iters_per_rep: u64,
    /// Seconds per compute span (bitwise identical every repetition).
    pub secs_per_rep: f64,
    /// Template groups cycled by `rep % rotation`, ≥ 1.
    pub rotation: u64,
    /// All template groups' requests, concatenated in group order:
    /// `reqs[g·q .. (g+1)·q]` is group `g`. Non-empty, length a multiple
    /// of `rotation`.
    pub reqs: Vec<IoTemplate>,
}

impl Run {
    /// Requests one repetition issues (templates per group).
    #[must_use]
    pub fn reqs_per_rep(&self) -> u64 {
        self.reqs.len() as u64 / self.rotation
    }

    /// Events one repetition lowers to: the compute span plus each
    /// request of its group.
    #[must_use]
    pub fn events_per_rep(&self) -> u64 {
        1 + self.reqs_per_rep()
    }

    /// Total events this run lowers to.
    #[must_use]
    pub fn event_len(&self) -> u64 {
        self.count * self.events_per_rep()
    }

    /// The `sub`-th event of repetition `rep`: `0` is the compute span,
    /// `1 + j` is request `j` of group `rep % rotation`.
    ///
    /// # Panics
    /// If `rep >= count` or `sub >= events_per_rep()`.
    #[must_use]
    pub fn event_at(&self, rep: u64, sub: u64) -> AppEvent {
        debug_assert!(rep < self.count && sub < self.events_per_rep());
        if sub == 0 {
            AppEvent::Compute {
                nest: self.nest,
                first_iter: self.first_iter + rep * self.iters_per_rep,
                iters: self.iters_per_rep,
                secs: self.secs_per_rep,
            }
        } else {
            let group = rep % self.rotation;
            let cycle = rep / self.rotation;
            // Checked narrowing: on a 32-bit target a hostile run could
            // otherwise silently truncate the index; saturating to
            // usize::MAX turns that into a clean bounds panic instead.
            let idx = group * self.reqs_per_rep() + sub - 1;
            let t = &self.reqs[usize::try_from(idx).unwrap_or(usize::MAX)];
            AppEvent::Io(IoRequest {
                start_block: t.io.start_block + cycle * t.block_stride,
                iter: t.io.iter + cycle * self.rotation * self.iters_per_rep,
                ..t.io
            })
        }
    }

    /// Appends the full per-event expansion to `out`.
    pub fn lower_into(&self, out: &mut Vec<AppEvent>) {
        for rep in 0..self.count {
            for sub in 0..self.events_per_rep() {
                out.push(self.event_at(rep, sub));
            }
        }
    }

    /// Structural validation: the invariants lowering relies on, plus
    /// overflow-freedom of the last repetition's address arithmetic (so a
    /// hand-built run cannot wrap in [`Run::event_at`]).
    ///
    /// # Errors
    /// A human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("run with zero repetitions".into());
        }
        if self.iters_per_rep == 0 {
            return Err("run with zero iterations per repetition".into());
        }
        if self.rotation == 0 {
            return Err("run with zero rotation".into());
        }
        if self.reqs.is_empty() {
            return Err("run with no requests".into());
        }
        if !(self.reqs.len() as u64).is_multiple_of(self.rotation) {
            return Err(format!(
                "run template count {} is not a multiple of rotation {}",
                self.reqs.len(),
                self.rotation
            ));
        }
        let last = self.count - 1;
        let span = last
            .checked_mul(self.iters_per_rep)
            .and_then(|s| s.checked_add(self.first_iter))
            .and_then(|s| s.checked_add(self.iters_per_rep));
        if span.is_none() {
            return Err("run iteration range overflows u64".into());
        }
        let last_cycle = last / self.rotation;
        let iter_adv = self
            .rotation
            .checked_mul(self.iters_per_rep)
            .and_then(|per| per.checked_mul(last_cycle));
        let Some(iter_adv) = iter_adv else {
            return Err("run iteration advance overflows u64".into());
        };
        for (j, t) in self.reqs.iter().enumerate() {
            let block = last_cycle
                .checked_mul(t.block_stride)
                .and_then(|b| b.checked_add(t.io.start_block));
            let iter = t.io.iter.checked_add(iter_adv);
            if block.is_none() || iter.is_none() {
                return Err(format!("run request {j} address arithmetic overflows u64"));
            }
        }
        Ok(())
    }
}

/// One record of a run-compressed trace: a plain event or a run.
#[derive(Debug, Clone, PartialEq)]
pub enum REvent {
    /// An event that is not part of any run.
    Event(AppEvent),
    /// A compressed repetition of `(compute, requests…)` periods.
    Run(Run),
}

impl REvent {
    /// Events this record lowers to.
    #[must_use]
    pub fn event_len(&self) -> u64 {
        match self {
            REvent::Event(_) => 1,
            REvent::Run(r) => r.event_len(),
        }
    }
}

/// A materialized run-compressed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    pub name: String,
    pub pool_size: u32,
    pub events: Vec<REvent>,
}

impl RunTrace {
    /// Events the trace lowers to.
    #[must_use]
    pub fn event_len(&self) -> u64 {
        self.events.iter().map(REvent::event_len).sum()
    }

    /// The per-event trace this compresses; lowering is exact, so this is
    /// the trace the compressor consumed, field for field and bit for
    /// bit.
    #[must_use]
    pub fn lower(&self) -> Trace {
        let mut events = Vec::with_capacity(usize::try_from(self.event_len()).unwrap_or(0));
        for re in &self.events {
            match re {
                REvent::Event(e) => events.push(*e),
                REvent::Run(r) => r.lower_into(&mut events),
            }
        }
        Trace {
            name: self.name.clone(),
            pool_size: self.pool_size,
            events,
        }
    }
}

/// An open period: a compute span, then the requests issued before the
/// next compute.
struct Period {
    nest: NestId,
    first_iter: u64,
    iters: u64,
    secs: f64,
    ios: Vec<IoRequest>,
}

/// Largest template rotation the fuser searches for. Striped layouts
/// rotate a scan's requests across the stripe factor's worth of disks,
/// so this bounds the stripe factors that still compress (the paper's
/// configurations stripe over at most 16 disks).
pub const MAX_ROTATION: u64 = 16;

/// [`MAX_ROTATION`] as an in-memory index bound (kept in lockstep by
/// the assertion below, without a narrowing cast).
const MAX_ROTATION_IDX: usize = 16;
const _: () = assert!(MAX_ROTATION_IDX as u64 == MAX_ROTATION);

/// One-pass run fuser.
///
/// Push events in order; compressed records come out in order. A period
/// is a `Compute` span followed by the requests before the next span.
/// Completed periods accumulate in a bounded lookback buffer until some
/// rotation `m ≤ MAX_ROTATION` explains the tail: the last `2m` periods
/// share one compute shape (same nest, same iteration count,
/// bitwise-equal seconds, iterations chaining contiguously) and period
/// `i + m` repeats period `i`'s requests exactly — same
/// disk/size/kind/sequential, iteration advancing by `m` periods, block
/// advancing by a constant per-template stride. The smallest such `m`
/// wins (a uniform trace detects as `m = 1`; a stripe-8 scan as
/// `m = 8`), those `2m` periods become an open [`Run`], and later
/// periods extend it one repetition at a time. The comparisons are exact
/// (bit equality on floats), so fusing loses nothing: lowering the
/// output reproduces the input sequence identically. Anything that does
/// not fit — a parameter change, a `Power` event, a bare request —
/// flushes the open run and drains unmatched periods as plain events.
#[derive(Default)]
struct Compressor {
    cur: Option<Period>,
    open: Option<Run>,
    /// Completed periods not yet explained by a run, oldest first; empty
    /// whenever `open` is `Some`, and never longer than `2·MAX_ROTATION`.
    pending: std::collections::VecDeque<Period>,
}

impl Compressor {
    /// Consumes one event, appending any completed records to `out`.
    fn push(&mut self, e: &AppEvent, out: &mut Vec<REvent>) {
        match e {
            AppEvent::Compute {
                nest,
                first_iter,
                iters,
                secs,
            } => {
                self.close_period(out);
                if *iters >= 1 {
                    self.cur = Some(Period {
                        nest: *nest,
                        first_iter: *first_iter,
                        iters: *iters,
                        secs: *secs,
                        ios: Vec::new(),
                    });
                } else {
                    // A zero-iteration span cannot head a period (runs
                    // advance iterations per repetition).
                    self.break_runs(out);
                    out.push(REvent::Event(*e));
                }
            }
            AppEvent::Io(r) => {
                if let Some(p) = &mut self.cur {
                    p.ios.push(*r);
                } else {
                    // A request with no preceding compute span (the
                    // trace-initial burst) passes through raw.
                    self.break_runs(out);
                    out.push(REvent::Event(*e));
                }
            }
            AppEvent::Power { .. } => {
                self.close_period(out);
                self.break_runs(out);
                out.push(REvent::Event(*e));
            }
        }
    }

    /// Flushes all pending state; call once after the last event.
    fn finish(&mut self, out: &mut Vec<REvent>) {
        self.close_period(out);
        self.break_runs(out);
    }

    /// Closes the in-flight period: attach it to the open run, or buffer
    /// it for rotation detection (if it cannot head a run, emit it raw).
    fn close_period(&mut self, out: &mut Vec<REvent>) {
        let Some(p) = self.cur.take() else {
            return;
        };
        if p.ios.is_empty() {
            // A bare compute span (nest tail) breaks and bypasses runs.
            self.break_runs(out);
            out.push(REvent::Event(AppEvent::Compute {
                nest: p.nest,
                first_iter: p.first_iter,
                iters: p.iters,
                secs: p.secs,
            }));
            return;
        }
        if let Some(run) = &mut self.open {
            if Self::attach(run, &p) {
                return;
            }
            // `pending` is empty while a run is open, so the flush keeps
            // output in order before `p` enters the buffer.
            self.flush_open(out);
        }
        self.pending.push_back(p);
        self.detect(out);
        while self.pending.len() > 2 * MAX_ROTATION_IDX {
            let Some(old) = self.pending.pop_front() else {
                break; // unreachable: len check above guarantees an element
            };
            Self::emit_period(&old, out);
        }
    }

    /// Tries to append `p` as repetition `run.count` of `run`.
    fn attach(run: &mut Run, p: &Period) -> bool {
        let q = run.reqs_per_rep();
        if p.nest != run.nest
            || p.iters != run.iters_per_rep
            || p.secs.to_bits() != run.secs_per_rep.to_bits()
            || p.ios.len() as u64 != q
        {
            return false;
        }
        let k = run.count;
        let Some(iter_adv) = k.checked_mul(run.iters_per_rep) else {
            return false;
        };
        if run.first_iter.checked_add(iter_adv) != Some(p.first_iter) {
            return false;
        }
        let group = k % run.rotation;
        let cycle = k / run.rotation;
        let tpl_iter_adv = run
            .rotation
            .checked_mul(run.iters_per_rep)
            .and_then(|per| per.checked_mul(cycle));
        let Some(tpl_iter_adv) = tpl_iter_adv else {
            return false;
        };
        // `group * q` indexes into `run.reqs`, whose in-memory length
        // bounds it; if saturation could ever fire (32-bit target, value
        // past `usize::MAX`) the slice below fails loudly instead of
        // aliasing a wrong group.
        let start = usize::try_from(group * q).unwrap_or(usize::MAX);
        let per = usize::try_from(q).unwrap_or(usize::MAX);
        for (t, r) in run.reqs[start..start + per].iter().zip(&p.ios) {
            if r.disk != t.io.disk
                || r.size_bytes != t.io.size_bytes
                || r.kind != t.io.kind
                || r.sequential != t.io.sequential
                || r.nest != t.io.nest
            {
                return false;
            }
            if t.io.iter.checked_add(tpl_iter_adv) != Some(r.iter) {
                return false;
            }
            let expect = cycle
                .checked_mul(t.block_stride)
                .and_then(|adv| t.io.start_block.checked_add(adv));
            if expect != Some(r.start_block) {
                return false;
            }
        }
        run.count += 1;
        true
    }

    /// Looks for the smallest rotation whose `2m`-period window ends the
    /// pending buffer; on a match, drains the periods before the window
    /// raw and opens a run covering the window.
    fn detect(&mut self, out: &mut Vec<REvent>) {
        let n = self.pending.len();
        for m in 1..=MAX_ROTATION_IDX {
            if n < 2 * m {
                break;
            }
            if let Some(run) = Self::try_window(&self.pending, n - 2 * m, m) {
                for p in self.pending.drain(..n - 2 * m) {
                    Self::emit_period(&p, out);
                }
                self.pending.clear();
                self.open = Some(run);
                return;
            }
        }
    }

    /// Checks whether `pending[start..start + 2m]` is a rotation-`m`
    /// window and builds the covering run if so.
    fn try_window(
        pending: &std::collections::VecDeque<Period>,
        start: usize,
        m: usize,
    ) -> Option<Run> {
        let w: Vec<&Period> = pending.iter().skip(start).collect();
        let head = w[0];
        let q = head.ios.len();
        for (i, p) in w.iter().enumerate() {
            if p.nest != head.nest
                || p.iters != head.iters
                || p.secs.to_bits() != head.secs.to_bits()
                || p.ios.len() != q
            {
                return None;
            }
            let adv = (i as u64).checked_mul(head.iters)?;
            if head.first_iter.checked_add(adv) != Some(p.first_iter) {
                return None;
            }
        }
        let iter_adv = (m as u64).checked_mul(head.iters)?;
        let mut reqs = Vec::with_capacity(m * q);
        for g in 0..m {
            let (a, b) = (w[g], w[g + m]);
            for j in 0..q {
                let (ra, rb) = (&a.ios[j], &b.ios[j]);
                if ra.disk != rb.disk
                    || ra.size_bytes != rb.size_bytes
                    || ra.kind != rb.kind
                    || ra.sequential != rb.sequential
                    || ra.nest != rb.nest
                {
                    return None;
                }
                if ra.iter.checked_add(iter_adv) != Some(rb.iter) {
                    return None;
                }
                let stride = rb.start_block.checked_sub(ra.start_block)?;
                reqs.push(IoTemplate {
                    io: *ra,
                    block_stride: stride,
                });
            }
        }
        Some(Run {
            count: 2 * m as u64,
            nest: head.nest,
            first_iter: head.first_iter,
            iters_per_rep: head.iters,
            secs_per_rep: head.secs,
            rotation: m as u64,
            reqs,
        })
    }

    /// Lowers one unmatched period back to plain events.
    fn emit_period(p: &Period, out: &mut Vec<REvent>) {
        out.push(REvent::Event(AppEvent::Compute {
            nest: p.nest,
            first_iter: p.first_iter,
            iters: p.iters,
            secs: p.secs,
        }));
        out.extend(p.ios.iter().map(|io| REvent::Event(AppEvent::Io(*io))));
    }

    /// Flushes the open run and drains every buffered period raw.
    fn break_runs(&mut self, out: &mut Vec<REvent>) {
        self.flush_open(out);
        for p in std::mem::take(&mut self.pending) {
            Self::emit_period(&p, out);
        }
    }

    /// Emits the open run. [`Compressor::detect`] only opens runs that
    /// already cover two full rotations, so the record always pays.
    fn flush_open(&mut self, out: &mut Vec<REvent>) {
        if let Some(run) = self.open.take() {
            debug_assert!(run.count >= 2);
            out.push(REvent::Run(run));
        }
    }
}

/// Compresses a materialized trace. `compress(t).lower() == *t` exactly.
#[must_use]
pub fn compress(trace: &Trace) -> RunTrace {
    let _sp = crate::prof::span("trace.compress");
    let mut comp = Compressor::default();
    let mut events = Vec::new();
    for e in &trace.events {
        comp.push(e, &mut events);
    }
    comp.finish(&mut events);
    crate::prof::add("compress.events_in", trace.events.len() as u64);
    crate::prof::add("compress.records_out", events.len() as u64);
    RunTrace {
        name: trace.name.clone(),
        pool_size: trace.pool_size,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PowerAction, ReqKind};
    use sdpm_layout::DiskId;

    fn compute(nest: NestId, first_iter: u64, iters: u64, secs: f64) -> AppEvent {
        AppEvent::Compute {
            nest,
            first_iter,
            iters,
            secs,
        }
    }

    fn io(disk: u32, block: u64, iter: u64) -> AppEvent {
        AppEvent::Io(IoRequest {
            disk: DiskId(disk),
            start_block: block,
            size_bytes: 4096,
            kind: ReqKind::Read,
            sequential: false,
            nest: 0,
            iter,
        })
    }

    /// `n` periods of [compute(8 iters), io(+128 blocks)] plus a leading
    /// burst and a trailing tail.
    fn periodic_trace(n: u64) -> Trace {
        let mut events = vec![io(0, 0, 0)];
        for k in 0..n {
            events.push(compute(0, k * 8, 8, 8.0 * 1e-6));
            events.push(io(0, 128 + k * 128, (k + 1) * 8));
        }
        events.push(compute(0, n * 8, 3, 3.0 * 1e-6));
        Trace {
            name: "periodic".into(),
            pool_size: 1,
            events,
        }
    }

    #[test]
    fn periodic_trace_fuses_into_one_run() {
        let t = periodic_trace(100);
        let rt = compress(&t);
        // Leading burst + one run + tail compute.
        assert_eq!(rt.events.len(), 3);
        let REvent::Run(run) = &rt.events[1] else {
            panic!("middle record must be a run, got {:?}", rt.events[1]);
        };
        assert_eq!(run.count, 100);
        assert_eq!(run.iters_per_rep, 8);
        assert_eq!(run.rotation, 1);
        assert_eq!(run.reqs.len(), 1);
        assert_eq!(run.reqs[0].block_stride, 128);
        assert_eq!(run.validate(), Ok(()));
    }

    /// `n` periods whose single request rotates over `m` disks (the
    /// striped-layout shape): period `k` reads disk `k % m`, one stripe
    /// deeper every full rotation.
    fn rotating_trace(n: u64, m: u64) -> Trace {
        let mut events = Vec::new();
        for k in 0..n {
            events.push(compute(0, k * 8, 8, 8.0 * 1e-6));
            events.push(io((k % m) as u32, (k / m) * 128, (k + 1) * 8));
        }
        Trace {
            name: "rotating".into(),
            pool_size: m as u32,
            events,
        }
    }

    #[test]
    fn striped_rotation_fuses_into_one_run() {
        let t = rotating_trace(40, 4);
        let rt = compress(&t);
        assert_eq!(rt.events.len(), 1, "whole trace must fuse: {:?}", rt.events);
        let REvent::Run(run) = &rt.events[0] else {
            panic!("expected one run");
        };
        assert_eq!(run.count, 40);
        assert_eq!(run.rotation, 4);
        assert_eq!(run.reqs.len(), 4);
        assert!(run.reqs.iter().all(|t| t.block_stride == 128));
        assert_eq!(run.validate(), Ok(()));
        assert_eq!(rt.lower(), t);
    }

    #[test]
    fn rotation_detection_picks_the_smallest_cycle() {
        // Disks rotate with period 2; m = 1 can never match, m = 2 must.
        let t = rotating_trace(12, 2);
        let rt = compress(&t);
        let REvent::Run(run) = &rt.events[0] else {
            panic!("expected a run, got {:?}", rt.events[0]);
        };
        assert_eq!(run.rotation, 2);
        assert_eq!(rt.lower(), t);
    }

    #[test]
    fn rotation_beyond_the_search_bound_stays_raw() {
        let m = MAX_ROTATION + 1;
        let t = rotating_trace(4 * m, m);
        let rt = compress(&t);
        assert!(rt.events.iter().all(|e| matches!(e, REvent::Event(_))));
        assert_eq!(rt.lower(), t);
    }

    #[test]
    fn compress_then_lower_is_identity() {
        let t = periodic_trace(17);
        assert_eq!(compress(&t).lower(), t);
    }

    #[test]
    fn multi_request_periods_fuse_with_per_template_strides() {
        let mut events = Vec::new();
        for k in 0..10u64 {
            events.push(compute(2, k * 4, 4, 4.0e-6));
            events.push(io(0, k * 64, (k + 1) * 4));
            events.push(io(3, 1000 + k * 32, (k + 1) * 4));
        }
        let t = Trace {
            name: "multi".into(),
            pool_size: 4,
            events,
        };
        let rt = compress(&t);
        assert_eq!(rt.events.len(), 1);
        let REvent::Run(run) = &rt.events[0] else {
            panic!("expected one run");
        };
        assert_eq!(run.count, 10);
        assert_eq!(run.reqs.len(), 2);
        assert_eq!(run.reqs[0].block_stride, 64);
        assert_eq!(run.reqs[1].block_stride, 32);
        assert_eq!(rt.lower(), t);
    }

    #[test]
    fn power_events_break_runs() {
        let mut t = periodic_trace(20);
        t.events.insert(
            11,
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinDown,
            },
        );
        let rt = compress(&t);
        assert!(
            rt.events
                .iter()
                .any(|e| matches!(e, REvent::Event(AppEvent::Power { .. }))),
            "power event must pass through raw"
        );
        // Two runs on either side of the power event.
        let runs = rt
            .events
            .iter()
            .filter(|e| matches!(e, REvent::Run(_)))
            .count();
        assert_eq!(runs, 2);
        assert_eq!(rt.lower(), t);
    }

    #[test]
    fn parameter_change_splits_runs() {
        // Same shape but different compute seconds: new run, even when
        // the seconds differ in the last bit only.
        let one_ulp = f64::from_bits(1.0e-6f64.to_bits() + 1);
        for changed in [2.0e-6, one_ulp] {
            let mut events = Vec::new();
            for k in 0..10u64 {
                let secs = if k < 5 { 1.0e-6 } else { changed };
                events.push(compute(0, k * 8, 8, secs));
                events.push(io(0, k * 128, (k + 1) * 8));
            }
            let t = Trace {
                name: "split".into(),
                pool_size: 1,
                events,
            };
            let rt = compress(&t);
            let runs = rt
                .events
                .iter()
                .filter(|e| matches!(e, REvent::Run(_)))
                .count();
            assert_eq!(runs, 2, "{changed:e}");
            assert_eq!(rt.lower(), t);
        }
    }

    #[test]
    fn single_periods_stay_uncompressed() {
        let t = Trace {
            name: "single".into(),
            pool_size: 1,
            events: vec![
                compute(0, 0, 8, 1.0e-6),
                io(0, 0, 8),
                compute(0, 8, 2, 2.5e-7),
            ],
        };
        let rt = compress(&t);
        assert!(rt.events.iter().all(|e| matches!(e, REvent::Event(_))));
        assert_eq!(rt.lower(), t);
    }

    #[test]
    fn validate_rejects_degenerate_runs() {
        let run = Run {
            count: 0,
            nest: 0,
            first_iter: 0,
            iters_per_rep: 1,
            secs_per_rep: 0.0,
            rotation: 1,
            reqs: vec![],
        };
        assert!(run.validate().is_err());
        let run = Run {
            count: 2,
            nest: 0,
            first_iter: 0,
            iters_per_rep: u64::MAX,
            secs_per_rep: 0.0,
            rotation: 1,
            reqs: vec![IoTemplate {
                io: IoRequest {
                    disk: DiskId(0),
                    start_block: 0,
                    size_bytes: 1,
                    kind: ReqKind::Read,
                    sequential: false,
                    nest: 0,
                    iter: 0,
                },
                block_stride: 0,
            }],
        };
        assert!(run.validate().is_err(), "overflowing iteration range");
        let run = Run {
            count: 2,
            nest: 0,
            first_iter: 0,
            iters_per_rep: 1,
            secs_per_rep: 0.0,
            rotation: 2,
            reqs: vec![IoTemplate {
                io: IoRequest {
                    disk: DiskId(0),
                    start_block: 0,
                    size_bytes: 1,
                    kind: ReqKind::Read,
                    sequential: false,
                    nest: 0,
                    iter: 0,
                },
                block_stride: 0,
            }],
        };
        assert!(
            run.validate().is_err(),
            "template count not a multiple of rotation"
        );
    }
}
