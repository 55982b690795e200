//! Analytic trace generation: closed-form chunk-boundary crossings.
//!
//! The per-iteration walk in [`crate::gen`] evaluates every affine
//! reference at every iteration — O(iterations) work to discover a
//! request count that is orders of magnitude smaller (one fetch per
//! chunk). For the common case the paper's compiler handles — affine
//! subscripts whose linearized element index is itself affine in the
//! *flat* iteration number — the next cache miss is the solution of a
//! one-variable linear inequality, so the generator can jump from miss
//! to miss in O(1) per miss (DESIGN.md §11).
//!
//! Exactness: between two misses the buffer cache is static by
//! construction (no ref misses, so no fetch, so no cache change), and at
//! a miss iteration the analytic path replays the walk's per-iteration
//! body verbatim — same ref order, same cache checks, and the shared
//! [`crate::gen::flush_compute`] / [`crate::gen::emit_chunk_fetch`]
//! helpers — so the emitted event sequence is byte-identical to
//! [`crate::gen::generate`]'s. A nest whose references are not affine in
//! the flat iteration (e.g. a column-major scan of a row-major array,
//! where `elem = cols·(flat mod rows) + flat div rows`) falls back to the
//! per-iteration walk for that nest only.

use crate::event::AppEvent;
use crate::gen::{
    emit_chunk_fetch, flush_compute, linrefs_of, LinRef, TraceGenConfig, ITERS_PER_STEP,
};
use crate::run::{collect_runs, CompressStream, RunSource, RunStream, RunTrace};
use crate::stream::{EventSource, EventStream, DEFAULT_CHUNK_EVENTS};
use sdpm_ir::walk::walk_nest_range;
use sdpm_ir::{LoopNest, Program};
use sdpm_layout::DiskPool;

/// A reference whose linearized element index is affine in the flat
/// iteration number: `elem(flat) = base + slope·flat`.
struct AffRef {
    array: usize,
    kind: crate::event::ReqKind,
    base: i128,
    slope: i128,
}

/// Per-nest generation strategy.
enum NestPlan {
    /// Every reference is affine in flat: jump from miss to miss.
    Affine(Vec<AffRef>),
    /// At least one reference is not: per-iteration walk for this nest.
    Walk,
}

/// `ceil(a / b)` for `b > 0` over `i128`.
fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i128::from(a.rem_euclid(b) != 0)
}

/// Expresses `lin` as `base + slope·flat` when the nest's odometer makes
/// that exact, i.e. when `coeff_d·step_d == slope·weight_d` for every
/// loop with more than one iteration (`weight_d` = product of the trip
/// counts of the loops nested inside `d`).
fn affine_in_flat(nest: &LoopNest, lin: &sdpm_ir::AffineExpr) -> Option<(i128, i128)> {
    let depth = nest.loops.len();
    // weight_d = product of inner trip counts, outermost first.
    let mut weights = vec![1i128; depth];
    let mut acc = 1i128;
    for d in (0..depth).rev() {
        weights[d] = acc;
        acc = acc.checked_mul(i128::from(nest.loops[d].count))?;
    }
    let coeff = |d: usize| i128::from(*lin.coeffs.get(d).unwrap_or(&0));
    // Slope fixed by the innermost loop that actually varies.
    let mut slope = 0i128;
    for d in (0..depth).rev() {
        if nest.loops[d].count > 1 {
            let contrib = coeff(d).checked_mul(i128::from(nest.loops[d].step))?;
            if contrib % weights[d] != 0 {
                return None;
            }
            slope = contrib / weights[d];
            break;
        }
    }
    for (d, &w) in weights.iter().enumerate().take(depth) {
        if nest.loops[d].count <= 1 {
            continue;
        }
        let contrib = coeff(d).checked_mul(i128::from(nest.loops[d].step))?;
        if slope.checked_mul(w)? != contrib {
            return None;
        }
    }
    let mut base = i128::from(lin.constant);
    for d in 0..depth {
        base = base.checked_add(coeff(d).checked_mul(i128::from(nest.loops[d].lower))?)?;
    }
    Some((base, slope))
}

/// Builds the per-nest plan: affine descriptors for every reference, or
/// the walk fallback if any reference resists.
fn plan_nest(nest: &LoopNest, linrefs: &[LinRef]) -> NestPlan {
    let mut refs = Vec::with_capacity(linrefs.len());
    for lr in linrefs {
        match affine_in_flat(nest, &lr.lin) {
            Some((base, slope)) => refs.push(AffRef {
                array: lr.array,
                kind: lr.kind,
                base,
                slope,
            }),
            None => return NestPlan::Walk,
        }
    }
    NestPlan::Affine(refs)
}

/// The analytic generator as a lazy [`EventStream`]: byte-identical
/// output to [`crate::gen::GenStream`], produced in O(1) per cache miss
/// on affine nests.
pub struct RunGenStream<'a> {
    program: &'a Program,
    pool: DiskPool,
    config: TraceGenConfig,
    cached_chunk: Vec<Option<u64>>,
    next_block: Vec<Option<u64>>,
    ni: usize,
    pos: u64,
    pending_start: u64,
    linrefs: Vec<LinRef>,
    plan: NestPlan,
    buf: Vec<AppEvent>,
    target: usize,
}

impl<'a> RunGenStream<'a> {
    /// Opens an analytic generator stream over `program`.
    ///
    /// # Panics
    /// If the program fails [`Program::validate`] or the I/O chunk size
    /// is zero.
    #[must_use]
    pub fn new(program: &'a Program, pool: DiskPool, config: TraceGenConfig) -> Self {
        assert!(config.io_chunk_bytes > 0, "chunk size must be positive");
        if let Err(e) = program.validate(pool) {
            panic!("trace generation requires a valid program: {e}");
        }
        let (linrefs, plan) = if program.nests.is_empty() {
            (Vec::new(), NestPlan::Affine(Vec::new()))
        } else {
            let linrefs = linrefs_of(program, 0);
            let plan = plan_nest(&program.nests[0], &linrefs);
            (linrefs, plan)
        };
        RunGenStream {
            program,
            pool,
            config,
            cached_chunk: vec![None; program.arrays.len()],
            next_block: vec![None; pool.count() as usize],
            ni: 0,
            pos: 0,
            pending_start: 0,
            linrefs,
            plan,
            buf: Vec::new(),
            target: DEFAULT_CHUNK_EVENTS,
        }
    }

    /// First iteration `>= pos` at which `r` misses the cache, assuming
    /// the cache does not change before then (guaranteed: no ref misses
    /// earlier, so nothing fetches). `total` means "never within this
    /// nest".
    fn next_miss(&self, r: &AffRef, pos: u64, total: u64) -> u64 {
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
            return total;
        }
        let f = if r.slope > 0 {
            // First f with elem·eb ≥ (c+1)·cb.
            let lo_elem = ceil_div((c + 1) * cb, eb);
            ceil_div(lo_elem - r.base, r.slope)
        } else {
            // First f with elem·eb ≤ c·cb − 1; impossible when c == 0.
            if c == 0 {
                return total;
            }
            let hi_elem = (c * cb - 1).div_euclid(eb);
            ceil_div(r.base - hi_elem, -r.slope)
        };
        debug_assert!(f > i128::from(pos));
        u64::try_from(f).map_or(total, |f| f.min(total))
    }

    /// Processes the next miss iteration of the current (affine) nest, or
    /// finishes the nest when no reference misses again. Replays the
    /// walk's per-iteration body at the miss, so cache effects between
    /// references sharing an array are exact.
    fn step_affine(&mut self) {
        let ni = self.ni;
        let iter_secs = self.program.iter_secs(ni);
        let total = self.program.nests[ni].iter_count();
        let NestPlan::Affine(refs) = &self.plan else {
            unreachable!("step_affine on a walk-planned nest");
        };
        let mut m = total;
        for r in refs {
            if self.pos >= total {
                break;
            }
            m = m.min(self.next_miss(r, self.pos, total));
        }
        if m >= total {
            self.finish_nest(total, iter_secs);
            return;
        }
        // Replay the walk's body at iteration m, ref by ref.
        let RunGenStream {
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
        let NestPlan::Affine(refs) = plan else {
            unreachable!();
        };
        for r in refs.iter() {
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

    /// Walk fallback: identical to [`crate::gen::GenStream::step`].
    fn step_walk(&mut self) {
        let ni = self.ni;
        let pos = self.pos;
        let iter_secs = self.program.iter_secs(ni);
        let RunGenStream {
            program,
            pool,
            config,
            cached_chunk,
            next_block,
            pending_start,
            linrefs,
            buf,
            ..
        } = self;
        let nest = &program.nests[ni];
        let total = nest.iter_count();
        let step_to = pos.saturating_add(ITERS_PER_STEP).min(total);
        walk_nest_range(nest, pos, step_to, |flat, ivars| {
            for lr in linrefs.iter() {
                let file = &program.arrays[lr.array];
                let elem = lr.lin.eval(ivars);
                // Non-negative by `Program::validate`; a violation is a
                // caller contract breach, reported loudly.
                let byte = u64::try_from(elem)
                    .unwrap_or_else(|_| panic!("negative element index {elem}"))
                    * file.element_bytes;
                let chunk = byte / config.io_chunk_bytes;
                if cached_chunk[lr.array] == Some(chunk) {
                    continue;
                }
                cached_chunk[lr.array] = Some(chunk);
                flush_compute(buf, ni, pending_start, flat, iter_secs);
                emit_chunk_fetch(
                    file, *pool, config, next_block, buf, ni, flat, lr.kind, chunk,
                );
            }
        });
        self.pos = step_to;
        if step_to >= total {
            self.finish_nest(total, iter_secs);
        }
    }

    /// Flushes the nest's tail compute and advances to the next nest.
    fn finish_nest(&mut self, total: u64, iter_secs: f64) {
        let ni = self.ni;
        flush_compute(&mut self.buf, ni, &mut self.pending_start, total, iter_secs);
        self.ni += 1;
        self.pos = 0;
        self.pending_start = 0;
        if self.ni < self.program.nests.len() {
            self.linrefs = linrefs_of(self.program, self.ni);
            self.plan = plan_nest(&self.program.nests[self.ni], &self.linrefs);
        }
    }

    fn step(&mut self) {
        match self.plan {
            NestPlan::Affine(_) => self.step_affine(),
            NestPlan::Walk => self.step_walk(),
        }
    }
}

impl EventStream for RunGenStream<'_> {
    fn name(&self) -> &str {
        &self.program.name
    }

    fn pool_size(&self) -> u32 {
        self.pool.count()
    }

    fn next_chunk(&mut self) -> Option<&[AppEvent]> {
        self.buf.clear();
        while self.buf.len() < self.target && self.ni < self.program.nests.len() {
            self.step();
        }
        if self.buf.is_empty() {
            None
        } else {
            crate::prof::add("gen.events", self.buf.len() as u64);
            crate::prof::add("gen.chunks", 1);
            Some(&self.buf)
        }
    }
}

/// A re-openable analytic generator source. Serves both interfaces: as an
/// [`EventSource`] it streams per-event output (byte-identical to
/// [`crate::gen::GenSource`]); as a [`RunSource`] it run-compresses that
/// output on the fly, which is what the O(#runs) simulator consumes.
pub struct RunGenSource<'a> {
    program: &'a Program,
    pool: DiskPool,
    config: TraceGenConfig,
}

impl<'a> RunGenSource<'a> {
    /// # Panics
    /// If the program fails [`Program::validate`] or the I/O chunk size
    /// is zero.
    #[must_use]
    pub fn new(program: &'a Program, pool: DiskPool, config: TraceGenConfig) -> Self {
        assert!(config.io_chunk_bytes > 0, "chunk size must be positive");
        if let Err(e) = program.validate(pool) {
            panic!("trace generation requires a valid program: {e}");
        }
        RunGenSource {
            program,
            pool,
            config,
        }
    }
}

impl EventSource for RunGenSource<'_> {
    fn open(&self) -> Box<dyn EventStream + '_> {
        Box::new(RunGenStream::new(self.program, self.pool, self.config))
    }
}

impl RunSource for RunGenSource<'_> {
    fn open_runs(&self) -> Box<dyn RunStream + '_> {
        Box::new(CompressStream::new(RunGenStream::new(
            self.program,
            self.pool,
            self.config,
        )))
    }
}

/// Generates the run-compressed trace of `program` against `pool`
/// analytically; lowering it reproduces [`crate::gen::generate`]'s trace
/// byte for byte.
///
/// # Panics
/// If the program fails [`Program::validate`] or the chunk size is zero.
#[must_use]
pub fn generate_runs(program: &Program, pool: DiskPool, config: TraceGenConfig) -> RunTrace {
    let _sp = crate::prof::span("trace.gen.analytic");
    collect_runs(&mut CompressStream::new(RunGenStream::new(
        program, pool, config,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::stream::collect;
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
        let walked = generate(p, pool, config);
        let analytic = collect(&mut RunGenStream::new(p, pool, config));
        assert_eq!(analytic, walked);
        assert_eq!(generate_runs(p, pool, config).lower(), walked);
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
    fn column_scan_falls_back_to_walk_and_matches() {
        // A[j][i] with i outer, j inner over a row-major array: elem =
        // 128·j + i is NOT affine in flat — the plan must fall back.
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
        let linrefs = linrefs_of(&p, 0);
        assert!(matches!(plan_nest(&p.nests[0], &linrefs), NestPlan::Walk));
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

    #[test]
    fn rungen_source_reopens_and_serves_both_interfaces() {
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
        let config = cfg(8 * 1024, false);
        let src = RunGenSource::new(&p, pool, config);
        let a = collect(&mut *EventSource::open(&src));
        let b = collect_runs(&mut *src.open_runs());
        assert_eq!(b.lower(), a);
        assert_eq!(a, generate(&p, pool, config));
    }
}
