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
//! The walk visits every iteration and tests every reference, in
//! statement order, against its array's cached chunk. It is
//! strength-reduced: each reference's byte offset is seeded once per
//! segment and then stepped with the loop odometer (one precomputed
//! `coeff·step·element_bytes` per trip, one rewind per wrap), so a cache
//! hit is one range check against the cached chunk's bytes. The
//! division, the chunk fetch and the compute flush run only on a miss.
//! It solves no closed forms and shares only the event-emitting helpers
//! with the analytic generator ([`crate::rungen`]), so it stays the
//! independent per-iteration reference that generator is tested against.

use crate::event::{AppEvent, IoRequest, ReqKind};
use crate::trace::Trace;
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::{Program, RefKind};
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

/// A reference pre-linearized against its array's storage order: its
/// element index is one affine form of the induction variables.
pub(crate) struct LinRef {
    pub(crate) array: usize,
    pub(crate) lin: sdpm_ir::AffineExpr,
    pub(crate) kind: ReqKind,
}

pub(crate) fn linrefs_of(program: &Program, ni: usize) -> Vec<LinRef> {
    program.nests[ni]
        .stmts
        .iter()
        .flat_map(|s| s.refs.iter())
        .map(|r| {
            let file = &program.arrays[r.array];
            LinRef {
                array: r.array,
                lin: linearized_ref(r, file, file.order),
                kind: match r.kind {
                    RefKind::Read => ReqKind::Read,
                    RefKind::Write => ReqKind::Write,
                },
            }
        })
        .collect()
}

/// Iterations walked per internal step: one segment, whose references'
/// byte offsets are seeded from [`sdpm_ir::LoopNest::ivars_of`] at its
/// first iteration. The walk is O(1) per iteration; this only bounds the
/// stretch one call of the hot loop covers.
const ITERS_PER_STEP: u64 = 65_536;

/// Flushes the compute span accumulated in `[pending_start, flat)` and
/// restarts accumulation at `flat`. Shared by the per-iteration walk and
/// the analytic generator ([`crate::rungen`]) so both emit the identical
/// event — same fields, same float expression.
pub(crate) fn flush_compute(
    buf: &mut Vec<AppEvent>,
    ni: usize,
    pending_start: &mut u64,
    flat: u64,
    iter_secs: f64,
) {
    if flat > *pending_start {
        buf.push(AppEvent::Compute {
            nest: ni,
            first_iter: *pending_start,
            iters: flat - *pending_start,
            secs: (flat - *pending_start) as f64 * iter_secs,
        });
        *pending_start = flat;
    }
}

/// Emits the block-level requests of one chunk fetch (clipped to the file
/// end, split along stripe boundaries into per-disk extents). Shared by
/// both generators; the caller has already updated the buffer cache and
/// flushed the pending compute span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_chunk_fetch(
    file: &sdpm_layout::ArrayFile,
    pool: DiskPool,
    config: &TraceGenConfig,
    next_block: &mut [Option<u64>],
    buf: &mut Vec<AppEvent>,
    ni: usize,
    flat: u64,
    kind: ReqKind,
    chunk: u64,
) {
    let chunk_start = chunk * config.io_chunk_bytes;
    let chunk_len = config.io_chunk_bytes.min(file.total_bytes() - chunk_start);
    for ext in file.map_bytes(pool, chunk_start, chunk_len) {
        let d = ext.disk.0 as usize;
        let sequential = config.detect_sequential && next_block[d] == Some(ext.start_block);
        let end_block = ext.start_block + (ext.block_offset + ext.len).div_ceil(BLOCK_BYTES);
        next_block[d] = Some(end_block);
        buf.push(AppEvent::Io(IoRequest {
            disk: ext.disk,
            start_block: ext.start_block,
            size_bytes: ext.len,
            kind,
            sequential,
            nest: ni,
            iter: flat,
        }));
    }
}

/// The per-iteration walk: resumes the iteration space one step at a
/// time, appending the events it produces to `events`. Compute runs are
/// flushed on cache misses and nest boundaries, never on step boundaries,
/// so stepping is invisible in the output.
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
    linrefs: Vec<LinRef>,
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
        let linrefs = if program.nests.is_empty() {
            Vec::new()
        } else {
            linrefs_of(program, 0)
        };
        Walker {
            program,
            pool,
            config,
            cached_chunk: vec![None; program.arrays.len()],
            next_block: vec![None; pool.count() as usize],
            ni: 0,
            pos: 0,
            pending_start: 0,
            linrefs,
            events: Vec::new(),
        }
    }

    /// Walks up to [`ITERS_PER_STEP`] iterations of the current nest,
    /// appending whatever events they produce, and advances to the next
    /// nest when the current one completes.
    fn step(&mut self) {
        let ni = self.ni;
        let from = self.pos;
        let total = self.program.nests[ni].iter_count();
        let to = from.saturating_add(ITERS_PER_STEP).min(total);
        if from < to {
            // One loop body, monomorphised on the nest's exact reference
            // count so its lanes live in registers.
            match self.linrefs.len() {
                0 => self.walk::<[u64; 0]>(from, to),
                1 => self.walk::<[u64; 1]>(from, to),
                2 => self.walk::<[u64; 2]>(from, to),
                3 => self.walk::<[u64; 3]>(from, to),
                4 => self.walk::<[u64; 4]>(from, to),
                5 => self.walk::<[u64; 5]>(from, to),
                6 => self.walk::<[u64; 6]>(from, to),
                7 => self.walk::<[u64; 7]>(from, to),
                8 => self.walk::<[u64; 8]>(from, to),
                _ => self.walk::<Vec<u64>>(from, to),
            }
        }
        self.pos = to;
        if to >= total {
            // Flush the tail compute of the nest.
            let iter_secs = self.program.iter_secs(ni);
            flush_compute(
                &mut self.events,
                ni,
                &mut self.pending_start,
                total,
                iter_secs,
            );
            self.ni += 1;
            self.pos = 0;
            self.pending_start = 0;
            if self.ni < self.program.nests.len() {
                self.linrefs = linrefs_of(self.program, self.ni);
            }
        }
    }

    /// Walks iterations `[from, to)` of the current nest with one lane per
    /// reference (see [`LaneState`]): a hit is one comparison per
    /// reference, and a step one addition per reference.
    ///
    /// Offsets are stepped modulo 2^64. The products and sums that form a
    /// step may wrap — `Program::validate` accepts a one-trip loop with a
    /// huge coefficient, whose step is never taken — yet every offset the
    /// walk tests is exact: `validate` confines each visited offset to
    /// `[0, total_bytes)`, and `total_bytes ≤ i64::MAX`, so an offset
    /// known modulo 2^64 is known exactly.
    fn walk<L: Lanes>(&mut self, from: u64, to: u64) {
        let program = self.program;
        let nest = &program.nests[self.ni];
        let cb = self.config.io_chunk_bytes;
        let refs = &self.linrefs;
        let n = refs.len();
        let elem_bytes = |k: usize| program.arrays[refs[k].array].element_bytes;
        let arrays = L::collect(n, |k| refs[k].array as u64);
        let cached = |k: usize| chunk_range(self.cached_chunk[refs[k].array], cb);
        let ivars = nest.ivars_of(from);
        let mut lo = L::collect(n, |k| cached(k).0);
        let mut lanes = LaneState {
            rel: L::collect(n, |k| {
                let lin = &refs[k].lin;
                let elem = lin
                    .coeffs
                    .iter()
                    .zip(&ivars)
                    .fold(wrap(lin.constant), |acc, (&c, &i)| {
                        acc.wrapping_add(wrap(c.wrapping_mul(i)))
                    });
                elem.wrapping_mul(elem_bytes(k))
                    .wrapping_sub(lo.as_ref()[k])
            }),
            len: L::collect(n, |k| cached(k).1),
        };
        // Per loop, each lane's offset change on a trip, and on the wrap
        // from its last trip back to its first.
        let steps: Vec<L> = nest
            .loops
            .iter()
            .enumerate()
            .map(|(d, l)| {
                L::collect(n, |k| {
                    wrap(refs[k].lin.coeff(d))
                        .wrapping_mul(wrap(l.step))
                        .wrapping_mul(elem_bytes(k))
                })
            })
            .collect();
        let rewinds: Vec<L> = nest
            .loops
            .iter()
            .zip(&steps)
            .map(|(l, s)| {
                L::collect(n, |k| {
                    s.as_ref()[k].wrapping_mul(l.count - 1).wrapping_neg()
                })
            })
            .collect();
        // Trip counters of `from`, the innermost kept apart. A depth-0
        // nest is one trip of a loop that moves nothing.
        let mut trips = vec![0u64; nest.depth()];
        let mut rem = from;
        for (t, l) in trips.iter_mut().zip(&nest.loops).rev() {
            *t = rem % l.count;
            rem /= l.count;
        }
        let (mut inner_trip, inner_count, inner_step, inner_rewind) = match trips.pop() {
            Some(t) => {
                let d = trips.len();
                let lane = |v: &L| L::collect(n, |k| v.as_ref()[k]);
                (t, nest.loops[d].count, lane(&steps[d]), lane(&rewinds[d]))
            }
            None => (0, 1, L::collect(n, |_| 0), L::collect(n, |_| 0)),
        };
        let mut flat = from;
        loop {
            let sweep_end = flat + (inner_count - inner_trip).min(to - flat);
            loop {
                let (rel, len) = (lanes.rel.as_ref(), lanes.len.as_ref());
                if let Some(k) = (0..rel.len()).find(|&k| rel[k] >= len[k]) {
                    lanes = self.misses(k, flat, &arrays, &mut lo, lanes);
                }
                flat += 1;
                if flat == sweep_end {
                    break;
                }
                add(lanes.rel.as_mut(), inner_step.as_ref());
            }
            if flat == to {
                return;
            }
            // The innermost loop wrapped: rewind it and carry outward.
            inner_trip = 0;
            add(lanes.rel.as_mut(), inner_rewind.as_ref());
            for d in (0..trips.len()).rev() {
                trips[d] += 1;
                if trips[d] < nest.loops[d].count {
                    add(lanes.rel.as_mut(), steps[d].as_ref());
                    break;
                }
                trips[d] = 0;
                add(lanes.rel.as_mut(), rewinds[d].as_ref());
            }
        }
    }

    /// Finishes iteration `flat` from reference `first`, the first to miss
    /// its array's cached chunk: tests the references from `first` on in
    /// statement order, and fetches for each that misses. A fetch moves
    /// every lane on its array (`arrays` names each lane's array) to the
    /// new chunk, so a later reference of the iteration sees it.
    #[cold]
    #[inline(never)]
    fn misses<L: Lanes>(
        &mut self,
        first: usize,
        flat: u64,
        arrays: &L,
        lo: &mut L,
        mut lanes: LaneState<L>,
    ) -> LaneState<L> {
        let (arrays, lo) = (arrays.as_ref(), lo.as_mut());
        let (rel, len) = (lanes.rel.as_mut(), lanes.len.as_mut());
        for k in first..rel.len() {
            if rel[k] < len[k] {
                continue;
            }
            let (new_lo, new_len) = self.fetch(k, rel[k].wrapping_add(lo[k]), flat);
            for j in 0..rel.len() {
                if arrays[j] == arrays[k] {
                    rel[j] = rel[j].wrapping_add(lo[j]).wrapping_sub(new_lo);
                    (lo[j], len[j]) = (new_lo, new_len);
                }
            }
        }
        lanes
    }

    /// Reference `k` missed at byte offset `offset` in iteration `flat`:
    /// caches the enclosing chunk, flushes the compute span before the
    /// miss and fetches the chunk. Returns the chunk's [`chunk_range`].
    fn fetch(&mut self, k: usize, offset: u64, flat: u64) -> (u64, u64) {
        let lr = &self.linrefs[k];
        let file = &self.program.arrays[lr.array];
        // Non-negative by `Program::validate`; a violation is a caller
        // contract breach, reported loudly.
        let signed = offset as i64;
        if signed < 0 {
            let elem_bytes = i64::try_from(file.element_bytes).unwrap_or(i64::MAX);
            panic!("negative element index {}", signed / elem_bytes);
        }
        let chunk = offset / self.config.io_chunk_bytes;
        self.cached_chunk[lr.array] = Some(chunk);
        let iter_secs = self.program.iter_secs(self.ni);
        flush_compute(
            &mut self.events,
            self.ni,
            &mut self.pending_start,
            flat,
            iter_secs,
        );
        emit_chunk_fetch(
            file,
            self.pool,
            &self.config,
            &mut self.next_block,
            &mut self.events,
            self.ni,
            flat,
            lr.kind,
            chunk,
        );
        chunk_range(Some(chunk), self.config.io_chunk_bytes)
    }
}

/// The walk's hot state, one lane per reference of the nest. With the
/// lane's array's cached chunk as the byte range `[lo, lo + len)` (see
/// [`chunk_range`]), a lane holds `len` and its byte offset relative to
/// the chunk, `rel = offset − lo`, so a hit is `rel < len` and a step
/// adds to `rel`. Only a miss reads `lo`, so it stays out of this state.
struct LaneState<L> {
    rel: L,
    len: L,
}

/// One `u64` per reference of a nest: the walk's lane set. An array of
/// the exact width keeps the lanes in registers; a `Vec` carries nests
/// wider than the widest array instantiation through the same loop body.
trait Lanes: AsRef<[u64]> + AsMut<[u64]> {
    fn collect(n: usize, lane: impl FnMut(usize) -> u64) -> Self;
}

impl<const N: usize> Lanes for [u64; N] {
    fn collect(n: usize, lane: impl FnMut(usize) -> u64) -> Self {
        debug_assert_eq!(n, N, "lane width");
        std::array::from_fn(lane)
    }
}

impl Lanes for Vec<u64> {
    fn collect(n: usize, lane: impl FnMut(usize) -> u64) -> Self {
        (0..n).map(lane).collect()
    }
}

/// `v` modulo 2^64, the walk's offset arithmetic (two's complement).
#[allow(clippy::cast_sign_loss)]
fn wrap(v: i64) -> u64 {
    v as u64
}

/// Adds `by` to `off` lane by lane, modulo 2^64.
fn add(off: &mut [u64], by: &[u64]) {
    for (o, b) in off.iter_mut().zip(by) {
        *o = o.wrapping_add(*b);
    }
}

/// Cached chunk `c`'s bytes `[c·cb, (c+1)·cb)` as `(lo, len)`, so that an
/// offset hits iff `offset − lo < len` in wrapping `u64` arithmetic. The
/// range is cut at 2^63, so no offset that is negative as an `i64` hits.
/// With nothing cached it is `(0, 0)`, which no offset hits.
fn chunk_range(chunk: Option<u64>, cb: u64) -> (u64, u64) {
    chunk.map_or((0, 0), |c| {
        let lo = c * cb;
        (lo, lo.saturating_add(cb).min(1 << 63) - lo)
    })
}

/// Generates the I/O trace of `program` against `pool` by walking every
/// iteration of every nest.
///
/// # Panics
/// If the program fails [`Program::validate`] or the chunk size is zero.
#[must_use]
pub fn generate(program: &Program, pool: DiskPool, config: TraceGenConfig) -> Trace {
    let _sp = crate::prof::span("trace.gen.walk");
    let mut walker = Walker::new(program, pool, config);
    while walker.ni < program.nests.len() {
        walker.step();
    }
    crate::prof::add("gen.events", walker.events.len() as u64);
    let trace = Trace {
        name: program.name.clone(),
        pool_size: pool.count(),
        events: walker.events,
    };
    debug_assert_eq!(trace.validate(), Ok(()));
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
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
