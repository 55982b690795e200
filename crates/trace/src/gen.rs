//! Trace generation from IR programs.
//!
//! The generator "executes" the program's loop nests and records the disk
//! I/O the run would perform. Element accesses are filtered through a
//! minimal buffer cache — one cached chunk per array — so a sequential
//! scan of an array produces one block-level request per chunk, matching
//! the paper's setup where "each array reference causes a disk access
//! unless the data is captured in the buffer cache" and no prefetching is
//! employed. Chunk-granular requests are split along stripe boundaries
//! into per-disk requests.
//!
//! Generation is analytic: it finds chunk-boundary crossings in closed
//! form instead of testing every reference at every iteration. Each
//! nest's loops split in two. Inside the inner loops every reference's
//! linearized element index is affine in their flat iteration (the
//! odometer-carry test, [`sdpm_ir::LoopNest::affine_in_flat`]), so the
//! next cache miss is the solution of a one-variable linear inequality
//! and the generator jumps from miss to miss. The outer loops step one
//! *segment* (one full run of the inner loops) at a time, re-anchoring
//! each reference with one addition. The split takes the fewest outer
//! loops that pass the test; the innermost loop alone always does, so
//! every nest is covered, at O(#misses + #segments) (DESIGN.md §11). A
//! row-major scan is a single segment; a column walk of a row-major
//! array, where `elem = cols·(flat mod rows) + flat div rows`, is one
//! segment per column.
//!
//! Exactness: between two misses the buffer cache is static by
//! construction (no reference misses, so nothing is fetched), and at a
//! miss iteration the generator runs the whole per-iteration body — every
//! reference in statement order against its array's cached chunk — so
//! the events are those of a walk over every iteration. The tests hold
//! it to such a walk, written apart from this module (the spec walk in
//! `tests/support`).

use crate::event::{AppEvent, IoRequest, ReqKind};
use crate::trace::Trace;
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::{AffineExpr, ArrayRef, LoopNest, Program, RefKind};
use sdpm_layout::{DiskPool, BLOCK_BYTES};
use serde::{Deserialize, Serialize};

/// Trace-generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceGenConfig {
    /// Buffer-cache chunk size in bytes: an access that falls outside the
    /// array's currently-cached chunk fetches the whole enclosing chunk.
    /// This is the knob that calibrates a workload's request count (the
    /// paper's per-benchmark counts in Table 2 reflect each code's I/O
    /// granularity).
    pub io_chunk_bytes: u64,
    /// When true, a request that directly continues the previous request's
    /// block range on the same disk is marked sequential (skipping
    /// positioning in the service model). Table 2's base numbers imply
    /// every request pays positioning (~6.5 ms each), so the default is
    /// false — each block-level request is serviced as an independent
    /// file-system operation.
    pub detect_sequential: bool,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            io_chunk_bytes: 32 * 1024,
            detect_sequential: false,
        }
    }
}

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

/// Reference `r`, whose element index is `lin`, as an [`AffRef`] when
/// the loops `nest.loops[..split]` are stepped as segments, or `None`
/// when it is not affine inside them.
fn aff_ref(
    nest: &LoopNest,
    r: &ArrayRef,
    lin: &AffineExpr,
    split: usize,
    seg_len: u64,
) -> Option<AffRef> {
    let (base, slope) = nest.affine_in_flat(lin, split)?;
    // Re-anchoring to flat iterations moves `base` back by one segment's
    // worth of slope per segment, on top of the outer loops' own steps.
    let mut wrap = slope.checked_mul(i128::from(seg_len))?;
    let mut carry = vec![0; split];
    for d in (0..split).rev() {
        let l = nest.loops[d];
        let per_trip = i128::from(lin.coeff(d)) * i128::from(l.step);
        carry[d] = per_trip.checked_sub(wrap)?;
        wrap = wrap.checked_add(per_trip.checked_mul(i128::from(l.count.saturating_sub(1)))?)?;
    }
    Some(AffRef {
        array: r.array,
        kind: match r.kind {
            RefKind::Read => ReqKind::Read,
            RefKind::Write => ReqKind::Write,
        },
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
    // Each reference's element index, linearized against its array's
    // storage order, in statement order.
    let refs: Vec<(&ArrayRef, AffineExpr)> = nest
        .stmts
        .iter()
        .flat_map(|s| &s.refs)
        .map(|r| {
            let file = &program.arrays[r.array];
            (r, linearized_ref(r, file, file.order))
        })
        .collect();
    (0..nest.depth().max(1))
        .find_map(|split| {
            let seg_len = nest.loops[split..].iter().map(|l| l.count).product();
            let refs = refs
                .iter()
                .map(|(r, lin)| aff_ref(nest, r, lin, split, seg_len))
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

/// The generator's state: each [`Walker::step`] jumps to the next miss
/// (or segment, or nest) and appends the events it produces to `events`.
struct Walker<'a> {
    program: &'a Program,
    pool: DiskPool,
    config: TraceGenConfig,
    /// One cached chunk per array, persisting across nests (a hot array
    /// carried between nests does not refetch its resident chunk).
    cached_chunk: Vec<Option<u64>>,
    /// Per-disk next expected block for sequential detection.
    next_block: Vec<Option<u64>>,
    /// Current nest, next flat iteration within it, and the first
    /// iteration of the compute run accumulating toward the next flush.
    ni: usize,
    pos: u64,
    pending_start: u64,
    plan: NestPlan,
    events: Vec<AppEvent>,
}

impl<'a> Walker<'a> {
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
        Walker {
            program,
            pool,
            config,
            cached_chunk: vec![None; program.arrays.len()],
            next_block: vec![None; pool.count() as usize],
            ni: 0,
            pos: 0,
            pending_start: 0,
            plan: plan_nest(program, 0),
            events: Vec::new(),
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
    /// the last, finishes the nest. At the miss every reference is tested
    /// in statement order, so cache effects between references sharing an
    /// array are exact.
    fn step(&mut self) {
        let total = self.program.nests[self.ni].iter_count();
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
                self.finish_nest(total);
            } else {
                self.pos = end;
                self.next_segment();
            }
            return;
        }
        for k in 0..self.plan.refs.len() {
            let r = &self.plan.refs[k];
            let (array, kind) = (r.array, r.kind);
            let elem = r.base + r.slope * i128::from(m);
            // Non-negative and in `u64` range by `Program::validate`; a
            // violation is a caller contract breach, reported loudly.
            let byte = u64::try_from(elem)
                .unwrap_or_else(|_| panic!("out-of-range element index {elem}"))
                * self.program.arrays[array].element_bytes;
            let chunk = byte / self.config.io_chunk_bytes;
            if self.cached_chunk[array] == Some(chunk) {
                continue;
            }
            self.cached_chunk[array] = Some(chunk);
            self.flush_compute(m);
            self.fetch(array, kind, chunk, m);
        }
        self.pos = m + 1;
    }

    /// Flushes the compute span accumulated in `[pending_start, flat)`
    /// and restarts accumulation at `flat`.
    fn flush_compute(&mut self, flat: u64) {
        if flat > self.pending_start {
            let iters = flat - self.pending_start;
            self.events.push(AppEvent::Compute {
                nest: self.ni,
                first_iter: self.pending_start,
                iters,
                secs: iters as f64 * self.program.iter_secs(self.ni),
            });
            self.pending_start = flat;
        }
    }

    /// Emits the block-level requests of fetching `chunk` of `array` at
    /// iteration `flat`: clipped to the file end, split along stripe
    /// boundaries into per-disk extents.
    fn fetch(&mut self, array: usize, kind: ReqKind, chunk: u64, flat: u64) {
        let file = &self.program.arrays[array];
        let cb = self.config.io_chunk_bytes;
        let chunk_start = chunk * cb;
        let chunk_len = cb.min(file.total_bytes() - chunk_start);
        for ext in file.map_bytes(self.pool, chunk_start, chunk_len) {
            let d = ext.disk.0 as usize;
            let sequential =
                self.config.detect_sequential && self.next_block[d] == Some(ext.start_block);
            let end_block = ext.start_block + (ext.block_offset + ext.len).div_ceil(BLOCK_BYTES);
            self.next_block[d] = Some(end_block);
            self.events.push(AppEvent::Io(IoRequest {
                disk: ext.disk,
                start_block: ext.start_block,
                size_bytes: ext.len,
                kind,
                sequential,
                nest: self.ni,
                iter: flat,
            }));
        }
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
    fn finish_nest(&mut self, total: u64) {
        self.flush_compute(total);
        self.ni += 1;
        self.pos = 0;
        self.pending_start = 0;
        self.plan = plan_nest(self.program, self.ni);
    }
}

/// Generates the per-event I/O trace of `program` against `pool`: the
/// walker's steps append straight into the trace's events.
///
/// # Panics
/// If the program fails [`Program::validate`] or the chunk size is zero.
#[must_use]
pub fn generate(program: &Program, pool: DiskPool, config: TraceGenConfig) -> Trace {
    let _sp = crate::prof::span("trace.gen.analytic");
    let mut walker = Walker::new(program, pool, config);
    while walker.ni < program.nests.len() {
        walker.step();
    }
    crate::prof::add("gen.events", walker.events.len() as u64);
    Trace {
        name: program.name.clone(),
        pool_size: pool.count(),
        events: walker.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_ir::{LoopDim, Statement};
    use sdpm_layout::{ArrayFile, DiskId, StorageOrder, Striping};

    /// 1-D scan of a 64 KiB array striped 16 KiB over 4 disks.
    fn scan_program() -> (Program, DiskPool) {
        let a = ArrayFile {
            name: "A".into(),
            dims: vec![8192],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 16 * 1024,
            },
            base_block: 0,
        };
        let p = Program {
            name: "scan".into(),
            arrays: vec![a],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(8192)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 750.0, // 1 us per iteration at paper clock
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        (p, DiskPool::new(4))
    }

    #[test]
    fn sequential_scan_fetches_each_chunk_once() {
        let (p, pool) = scan_program();
        let t = generate(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 8 * 1024,
                detect_sequential: false,
            },
        );
        let s = t.stats();
        // 64 KiB / 8 KiB chunks = 8 requests; each chunk inside one stripe.
        assert_eq!(s.requests, 8);
        assert_eq!(s.bytes, 64 * 1024);
        assert_eq!(s.per_disk_requests, vec![2, 2, 2, 2]);
    }

    #[test]
    fn chunk_spanning_stripes_splits_per_disk() {
        let (p, pool) = scan_program();
        let t = generate(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 32 * 1024, // two 16 KiB stripes per chunk
                detect_sequential: false,
            },
        );
        let s = t.stats();
        // 2 chunks, each split across 2 disks -> 4 requests.
        assert_eq!(s.requests, 4);
        assert_eq!(s.bytes, 64 * 1024);
    }

    #[test]
    fn second_chunk_on_same_disk_is_sequential() {
        let (p, pool) = scan_program();
        let t = generate(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 8 * 1024, // two chunks per 16 KiB stripe
                detect_sequential: true,
            },
        );
        let reqs: Vec<_> = t.requests().collect();
        // Chunks alternate: chunk 0 and 1 on disk 0 (blocks 0..16, 16..32),
        // chunk 1 is sequential after chunk 0.
        assert_eq!(reqs[0].disk, DiskId(0));
        assert!(!reqs[0].sequential);
        assert_eq!(reqs[1].disk, DiskId(0));
        assert!(reqs[1].sequential);
        assert_eq!(reqs[2].disk, DiskId(1));
        assert!(!reqs[2].sequential);
    }

    #[test]
    fn compute_time_totals_match_nest_cycles() {
        let (p, pool) = scan_program();
        let t = generate(&p, pool, TraceGenConfig::default());
        let s = t.stats();
        let expected = 8192.0 * 750.0 / Program::PAPER_CLOCK_HZ;
        assert!(
            (s.compute_secs - expected).abs() < 1e-9,
            "compute must be fully accounted: {} vs {expected}",
            s.compute_secs
        );
    }

    #[test]
    fn io_interleaves_with_compute_in_iteration_order() {
        let (p, pool) = scan_program();
        let t = generate(&p, pool, TraceGenConfig::default());
        // First event must be the I/O at iteration 0 (no compute before the
        // first miss), and iterations must be monotone across the stream.
        assert!(matches!(t.events[0], AppEvent::Io(_)));
        let mut last_iter = 0;
        for e in &t.events {
            let it = match e {
                AppEvent::Compute { first_iter, .. } => *first_iter,
                AppEvent::Io(r) => r.iter,
                AppEvent::Power { .. } => continue,
            };
            assert!(it >= last_iter);
            last_iter = it;
        }
    }

    #[test]
    fn repeated_access_within_chunk_hits_cache() {
        // A[i/8] style repeated access: 8 consecutive iterations share an
        // element -> one fetch per chunk regardless.
        let (mut p, pool) = scan_program();
        // Rewrite the subscript to i (already unit): add a second read of
        // the same element; should add no requests.
        let extra = ArrayRef::read(0, vec![AffineExpr::var(1, 0)]);
        p.nests[0].stmts[0].refs.push(extra);
        let t = generate(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 8 * 1024,
                detect_sequential: false,
            },
        );
        assert_eq!(t.stats().requests, 8, "duplicate refs hit the cache");
    }

    #[test]
    fn write_refs_produce_write_requests() {
        let (mut p, pool) = scan_program();
        p.nests[0].stmts[0].refs[0].kind = RefKind::Write;
        let t = generate(&p, pool, TraceGenConfig::default());
        assert!(t.requests().all(|r| r.kind == ReqKind::Write));
    }

    #[test]
    fn multi_nest_programs_keep_cache_across_nests() {
        let (mut p, pool) = scan_program();
        let nest2 = p.nests[0].clone();
        p.nests.push(nest2);
        let t = generate(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 8 * 1024,
                detect_sequential: false,
            },
        );
        // Second nest re-scans from chunk 0 while the cache holds chunk 7,
        // so every chunk is refetched -> 8 + 8 requests.
        assert_eq!(t.stats().requests, 16);
    }

    #[test]
    fn trace_validates() {
        let (p, pool) = scan_program();
        let t = generate(&p, pool, TraceGenConfig::default());
        assert_eq!(t.validate(), Ok(()));
    }
}
