//! Analytic trace generation: closed-form chunk-boundary crossings.
//!
//! The per-iteration walk in [`crate::gen`] tests every reference at
//! every iteration — O(iterations) work, strength-reduced to one
//! addition and one comparison per reference, to discover a request
//! count that is orders of magnitude smaller (one fetch per chunk).
//! This generator splits each nest's loops in two. Inside the inner
//! loops every reference's linearized element index is affine in
//! their flat iteration (the odometer-carry test,
//! [`sdpm_ir::LoopNest::affine_in_flat`]), so the next cache miss is the
//! solution of a one-variable linear inequality and the generator jumps
//! from miss to miss. The outer loops step one *segment* (one full run of
//! the inner loops) at a time, re-anchoring each reference with one
//! addition. The split takes the fewest outer loops that pass the test;
//! the innermost loop alone always does, so every nest is covered, at
//! O(#misses + #segments) (DESIGN.md §11). A row-major scan is a single
//! segment; a column walk of a row-major array, where `elem = cols·(flat
//! mod rows) + flat div rows`, is one segment per column.
//!
//! Exactness: between two misses the buffer cache is static by
//! construction (no ref misses, so no fetch, so no cache change), and at
//! a miss iteration the analytic path replays the walk's per-iteration
//! body verbatim — same ref order, same cache checks, and the shared
//! [`crate::gen::flush_compute`] / [`crate::gen::emit_chunk_fetch`]
//! helpers — so the emitted event sequence is byte-identical to
//! [`crate::gen::generate`]'s. Segment boundaries emit nothing, exactly
//! as iteration boundaries emit nothing in the walk.

use crate::event::{AppEvent, ReqKind};
use crate::gen::{emit_chunk_fetch, flush_compute, linrefs_of, LinRef, TraceGenConfig};
use crate::run::{Compressor, RunTrace};
use sdpm_ir::{LoopNest, Program};
use sdpm_layout::DiskPool;

/// A reference whose linearized element index is `base + slope·f` for
/// every flat iteration `f` of the current segment.
struct AffRef {
    array: usize,
    kind: ReqKind,
    base: i128,
    slope: i128,
    /// `carry[d]`: the change of `base` when outer loop `d` advances one
    /// trip and the outer loops inside it wrap to their first trip.
    carry: Vec<i128>,
}

/// How one nest is generated: the outer loops `loops[..trips.len()]`
/// step one segment of `seg_len` iterations at a time, and inside a
/// segment every reference is affine in the flat iteration.
#[derive(Default)]
struct NestPlan {
    refs: Vec<AffRef>,
    /// The outer loops' trip indices in the current segment.
    trips: Vec<u64>,
    seg_len: u64,
    /// First flat iteration past the current segment.
    seg_end: u64,
}

/// `ceil(a / b)` for `b > 0` over `i128`.
fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i128::from(a.rem_euclid(b) != 0)
}

/// `lr` as an [`AffRef`] when the loops `nest.loops[..split]` are stepped
/// as segments, or `None` when it is not affine inside them.
fn aff_ref(nest: &LoopNest, lr: &LinRef, split: usize, seg_len: u64) -> Option<AffRef> {
    let (base, slope) = nest.affine_in_flat(&lr.lin, split)?;
    // Re-anchoring to flat iterations moves `base` back by one segment's
    // worth of slope per segment, on top of the outer loops' own steps.
    let mut wrap = slope.checked_mul(i128::from(seg_len))?;
    let mut carry = vec![0; split];
    for d in (0..split).rev() {
        let l = nest.loops[d];
        let per_trip = i128::from(lr.lin.coeff(d)) * i128::from(l.step);
        carry[d] = per_trip.checked_sub(wrap)?;
        wrap = wrap.checked_add(per_trip.checked_mul(i128::from(l.count.saturating_sub(1)))?)?;
    }
    Some(AffRef {
        array: lr.array,
        kind: lr.kind,
        base,
        slope,
        carry,
    })
}

/// Plans nest `ni` of `program` (an empty plan past the last nest) with
/// the fewest outer loops under which every reference is affine.
fn plan_nest(program: &Program, ni: usize) -> NestPlan {
    let Some(nest) = program.nests.get(ni) else {
        return NestPlan::default();
    };
    let linrefs = linrefs_of(program, ni);
    (0..nest.depth().max(1))
        .find_map(|split| {
            let seg_len = nest.loops[split..].iter().map(|l| l.count).product();
            let refs = linrefs
                .iter()
                .map(|lr| aff_ref(nest, lr, split, seg_len))
                .collect::<Option<_>>()?;
            Some(NestPlan {
                refs,
                trips: vec![0; split],
                seg_len,
                seg_end: seg_len,
            })
        })
        // The innermost loop alone always passes unless `i128`
        // arithmetic overflows, which takes coefficients and bounds near
        // the `i64` limits.
        .unwrap_or_else(|| panic!("nest {ni}: element index arithmetic overflows i128"))
}

/// The analytic walk: each [`AnalyticWalker::step`] jumps to the next
/// miss (or segment, or nest) and appends the events it produces to
/// `buf`, exactly the events the per-iteration walk in [`crate::gen`]
/// produces over the same iterations.
struct AnalyticWalker<'a> {
    program: &'a Program,
    pool: DiskPool,
    config: TraceGenConfig,
    cached_chunk: Vec<Option<u64>>,
    next_block: Vec<Option<u64>>,
    ni: usize,
    pos: u64,
    pending_start: u64,
    plan: NestPlan,
    buf: Vec<AppEvent>,
}

impl<'a> AnalyticWalker<'a> {
    /// A walker positioned at the first iteration of `program`.
    ///
    /// # Panics
    /// If the program fails [`Program::validate`] or the I/O chunk size
    /// is zero.
    fn new(program: &'a Program, pool: DiskPool, config: TraceGenConfig) -> Self {
        assert!(config.io_chunk_bytes > 0, "chunk size must be positive");
        if let Err(e) = program.validate(pool) {
            panic!("trace generation requires a valid program: {e}");
        }
        AnalyticWalker {
            program,
            pool,
            config,
            cached_chunk: vec![None; program.arrays.len()],
            next_block: vec![None; pool.count() as usize],
            ni: 0,
            pos: 0,
            pending_start: 0,
            plan: plan_nest(program, 0),
            buf: Vec::new(),
        }
    }

    /// First iteration in `[pos, end)` at which `r` misses the cache,
    /// assuming the cache does not change before then (guaranteed: no ref
    /// misses earlier, so nothing fetches). `end` means "never within this
    /// segment".
    fn next_miss(&self, r: &AffRef, pos: u64, end: u64) -> u64 {
        let eb = i128::from(self.program.arrays[r.array].element_bytes);
        let cb = i128::from(self.config.io_chunk_bytes);
        let Some(c) = self.cached_chunk[r.array] else {
            return pos;
        };
        let c = i128::from(c);
        let elem_at = |f: u64| r.base + r.slope * i128::from(f);
        let chunk_of = |f: u64| (elem_at(f) * eb).div_euclid(cb);
        if chunk_of(pos) != c {
            return pos;
        }
        if r.slope == 0 {
            return end;
        }
        let f = if r.slope > 0 {
            // First f with elem·eb ≥ (c+1)·cb.
            let lo_elem = ceil_div((c + 1) * cb, eb);
            ceil_div(lo_elem - r.base, r.slope)
        } else {
            // First f with elem·eb ≤ c·cb − 1; impossible when c == 0.
            if c == 0 {
                return end;
            }
            let hi_elem = (c * cb - 1).div_euclid(eb);
            ceil_div(r.base - hi_elem, -r.slope)
        };
        debug_assert!(f > i128::from(pos));
        u64::try_from(f).map_or(end, |f| f.min(end))
    }

    /// Processes the next miss iteration of the current segment; when no
    /// reference misses again in it, moves to the next segment or, after
    /// the last, finishes the nest. Replays the walk's body at the miss,
    /// so cache effects between references sharing an array are exact.
    fn step(&mut self) {
        let ni = self.ni;
        let iter_secs = self.program.iter_secs(ni);
        let total = self.program.nests[ni].iter_count();
        let end = self.plan.seg_end.min(total);
        let m = if self.pos >= end {
            end
        } else {
            let pos = self.pos;
            let misses = self.plan.refs.iter().map(|r| self.next_miss(r, pos, end));
            misses.min().unwrap_or(end)
        };
        if m >= end {
            if end >= total {
                self.finish_nest(total, iter_secs);
            } else {
                self.pos = end;
                self.next_segment();
            }
            return;
        }
        // Replay the walk's body at iteration m, ref by ref.
        let AnalyticWalker {
            program,
            pool,
            config,
            cached_chunk,
            next_block,
            pending_start,
            plan,
            buf,
            ..
        } = self;
        for r in &plan.refs {
            let file = &program.arrays[r.array];
            let elem = r.base + r.slope * i128::from(m);
            // Non-negative and in `u64` range by `Program::validate`; a
            // violation is a caller contract breach, reported loudly.
            let byte = u64::try_from(elem)
                .unwrap_or_else(|_| panic!("out-of-range element index {elem}"))
                * file.element_bytes;
            let chunk = byte / config.io_chunk_bytes;
            if cached_chunk[r.array] == Some(chunk) {
                continue;
            }
            cached_chunk[r.array] = Some(chunk);
            flush_compute(buf, ni, pending_start, m, iter_secs);
            emit_chunk_fetch(file, *pool, config, next_block, buf, ni, m, r.kind, chunk);
        }
        self.pos = m + 1;
    }

    /// Advances the outer-loop odometer one segment and re-anchors every
    /// reference: O(#refs), amortized, and no allocation.
    fn next_segment(&mut self) {
        let loops = &self.program.nests[self.ni].loops;
        let plan = &mut self.plan;
        let mut d = plan.trips.len();
        loop {
            d -= 1;
            plan.trips[d] += 1;
            if plan.trips[d] < loops[d].count {
                break;
            }
            plan.trips[d] = 0;
        }
        for r in &mut plan.refs {
            r.base += r.carry[d];
        }
        plan.seg_end += plan.seg_len;
    }

    /// Flushes the nest's tail compute and advances to the next nest.
    fn finish_nest(&mut self, total: u64, iter_secs: f64) {
        let ni = self.ni;
        flush_compute(&mut self.buf, ni, &mut self.pending_start, total, iter_secs);
        self.ni += 1;
        self.pos = 0;
        self.pending_start = 0;
        self.plan = plan_nest(self.program, self.ni);
    }
}

/// Generates the run-compressed trace of `program` against `pool`
/// analytically; lowering it reproduces [`crate::gen::generate`]'s trace
/// byte for byte. Each step's events go straight into one [`Compressor`],
/// so the per-event trace is never held whole.
///
/// # Panics
/// If the program fails [`Program::validate`] or the chunk size is zero.
#[must_use]
pub fn generate_runs(program: &Program, pool: DiskPool, config: TraceGenConfig) -> RunTrace {
    let _sp = crate::prof::span("trace.gen.analytic");
    let mut walker = AnalyticWalker::new(program, pool, config);
    let mut comp = Compressor::new();
    let mut records = Vec::new();
    let mut events = 0u64;
    while walker.ni < program.nests.len() {
        walker.step();
        events += walker.buf.len() as u64;
        for e in walker.buf.drain(..) {
            comp.push(&e, &mut records);
        }
    }
    comp.finish(&mut records);
    crate::prof::add("gen.events", events);
    crate::prof::add("compress.records_out", records.len() as u64);
    crate::prof::add("run.records", records.len() as u64);
    RunTrace {
        name: program.name.clone(),
        pool_size: pool.count(),
        events: records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, DiskId, StorageOrder, Striping};

    fn file(name: &str, dims: Vec<u64>, base_block: u64) -> ArrayFile {
        ArrayFile {
            name: name.into(),
            dims,
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 16 * 1024,
            },
            base_block,
        }
    }

    fn cfg(chunk: u64, seq: bool) -> TraceGenConfig {
        TraceGenConfig {
            io_chunk_bytes: chunk,
            detect_sequential: seq,
        }
    }

    fn assert_analytic_matches_walk(p: &Program, pool: DiskPool, config: TraceGenConfig) {
        assert_eq!(
            generate_runs(p, pool, config).lower(),
            generate(p, pool, config)
        );
    }

    #[test]
    fn forward_scan_matches_walk() {
        let p = Program {
            name: "scan".into(),
            arrays: vec![file("A", vec![8192], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(8192)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let pool = DiskPool::new(4);
        assert_analytic_matches_walk(&p, pool, cfg(8 * 1024, false));
        assert_analytic_matches_walk(&p, pool, cfg(8 * 1024, true));
        assert_analytic_matches_walk(&p, pool, cfg(32 * 1024, false));
    }

    #[test]
    fn two_d_row_major_scan_matches_walk() {
        // elem = 128·i + j over a 64×128 array: affine in flat with slope 1.
        let p = Program {
            name: "scan2d".into(),
            arrays: vec![file("A", vec![64, 128], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(64), LoopDim::simple(128)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(
                        0,
                        vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)],
                    )],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(4 * 1024, false));
    }

    #[test]
    fn strided_and_offset_refs_match_walk() {
        // A[2i + 5]: slope 2 with a base offset.
        let p = Program {
            name: "stride2".into(),
            arrays: vec![file("A", vec![8192], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(4000)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::scaled_var(1, 0, 2, 5)])],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(4 * 1024, false));
    }

    #[test]
    fn negative_step_scan_matches_walk() {
        // for i = 8191 downto 0: A[i] — negative slope in flat.
        let p = Program {
            name: "revscan".into(),
            arrays: vec![file("A", vec![8192], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim {
                    lower: 8191,
                    count: 8192,
                    step: -1,
                }],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(8 * 1024, false));
    }

    #[test]
    fn multiple_arrays_and_shared_arrays_match_walk() {
        // Two arrays plus a second ref to the first (cache interaction
        // between refs sharing an array).
        let p = Program {
            name: "multi".into(),
            arrays: vec![file("A", vec![8192], 0), file("B", vec![8192], 1 << 20)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(8192)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![
                        ArrayRef::read(0, vec![AffineExpr::var(1, 0)]),
                        ArrayRef::read(1, vec![AffineExpr::var(1, 0)]),
                        ArrayRef::write(0, vec![AffineExpr::var(1, 0)]),
                    ],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(8 * 1024, true));
    }

    #[test]
    fn column_scan_steps_the_outer_loop_and_matches() {
        // A[j][i] with i outer, j inner over a row-major array: elem =
        // 128·j + i is not affine in flat, only inside the inner loop.
        let p = Program {
            name: "colscan".into(),
            arrays: vec![file("A", vec![128, 64], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(64), LoopDim::simple(128)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(
                        0,
                        vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)],
                    )],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_eq!(plan_nest(&p, 0).trips.len(), 1);
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(4 * 1024, false));
    }

    #[test]
    fn multi_nest_programs_match_walk_across_boundaries() {
        let scan_nest = LoopNest {
            label: "n".into(),
            loops: vec![LoopDim::simple(8192)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
            }],
            cycles_per_iter: 750.0,
        };
        let col_nest = LoopNest {
            label: "c".into(),
            loops: vec![LoopDim::simple(64), LoopDim::simple(128)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(
                    1,
                    vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)],
                )],
            }],
            cycles_per_iter: 500.0,
        };
        let p = Program {
            name: "mixed".into(),
            arrays: vec![file("A", vec![8192], 0), file("B", vec![128, 64], 1 << 20)],
            nests: vec![scan_nest.clone(), col_nest, scan_nest],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(8 * 1024, true));
    }
}
