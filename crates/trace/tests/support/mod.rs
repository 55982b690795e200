//! The trace generator's test reference, shared by `sdpm-trace`'s
//! property tests and `sdpm-bench`'s all-kernel gate (which includes
//! this file by path): a spec walk that visits every iteration, and a
//! random valid program to feed it.

// Each including test crate uses only part of this module.
#![allow(dead_code)]

use sdpm_ir::{walk_nest, AffineExpr, ArrayRef, LoopDim, LoopNest, Program, RefKind, Statement};
use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping, BLOCK_BYTES};
use sdpm_trace::{AppEvent, IoRequest, ReqKind, TraceGenConfig};

/// The generator as specified, written apart from `sdpm_trace::gen`:
/// every iteration in odometer order ([`walk_nest`]), each reference's
/// element from its subscripts evaluated at the induction variables, its
/// chunk by division of the byte offset, and one `Option` cached chunk
/// per array, tested in statement order. No linearization, no closed
/// forms.
pub fn spec_walk(p: &Program, pool: DiskPool, config: TraceGenConfig) -> Vec<AppEvent> {
    let cb = config.io_chunk_bytes;
    let mut events = Vec::new();
    let mut cached: Vec<Option<u64>> = vec![None; p.arrays.len()];
    let mut next_block: Vec<Option<u64>> = vec![None; pool.count() as usize];
    for (ni, nest) in p.nests.iter().enumerate() {
        let iter_secs = p.iter_secs(ni);
        let mut pending = 0u64;
        let flush = |events: &mut Vec<AppEvent>, pending: &mut u64, flat: u64| {
            if flat > *pending {
                events.push(AppEvent::Compute {
                    nest: ni,
                    first_iter: *pending,
                    iters: flat - *pending,
                    secs: (flat - *pending) as f64 * iter_secs,
                });
                *pending = flat;
            }
        };
        // One subscript buffer for the whole nest.
        let mut idx: Vec<u64> = Vec::new();
        walk_nest(nest, |flat, ivars| {
            for r in nest.stmts.iter().flat_map(|s| &s.refs) {
                let file = &p.arrays[r.array];
                idx.clear();
                idx.extend(
                    r.subscripts
                        .iter()
                        .map(|e| u64::try_from(e.eval(ivars)).expect("validated subscript")),
                );
                let chunk = file.byte_offset_of(&idx) / cb;
                if cached[r.array] == Some(chunk) {
                    continue;
                }
                cached[r.array] = Some(chunk);
                flush(&mut events, &mut pending, flat);
                let start = chunk * cb;
                for ext in file.map_bytes(pool, start, cb.min(file.total_bytes() - start)) {
                    let d = ext.disk.0 as usize;
                    let sequential =
                        config.detect_sequential && next_block[d] == Some(ext.start_block);
                    next_block[d] =
                        Some(ext.start_block + (ext.block_offset + ext.len).div_ceil(BLOCK_BYTES));
                    events.push(AppEvent::Io(IoRequest {
                        disk: ext.disk,
                        start_block: ext.start_block,
                        size_bytes: ext.len,
                        kind: match r.kind {
                            RefKind::Read => ReqKind::Read,
                            RefKind::Write => ReqKind::Write,
                        },
                        sequential,
                        nest: ni,
                        iter: flat,
                    }));
                }
            }
        });
        flush(&mut events, &mut pending, nest.iter_count());
    }
    events
}

/// A splitmix64 stream over one drawn seed. Random programs are built
/// procedurally: their subscripts and extents depend on the loops drawn
/// before them.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A random valid program with its generator configuration: 1–3 nests
/// of depth 0–3 (trip counts include 0 and 1, lower bounds are nonzero,
/// steps negative) with 1–4 references over 1–2 arrays of rank 1–2 in
/// either storage order. Subscript coefficients are drawn first, on
/// inner and outer loops alike, so transposed walks and outer-loop terms
/// occur. Then each subscript's constant is set to −min over the
/// iteration box, plus an offset that keeps it inside the extent, and
/// each extent to the widest max − min + 1 among the array's references.
pub fn random_program(seed: u64) -> (Program, TraceGenConfig) {
    let mut g = Draw(seed);
    let ranks: Vec<usize> = (0..1 + g.below(2))
        .map(|_| 1 + g.below(2) as usize)
        .collect();
    let mut nests = Vec::new();
    for _ in 0..1 + g.below(3) {
        let loops: Vec<LoopDim> = (0..g.below(4))
            .map(|_| LoopDim {
                lower: g.pick(&[0, 0, -3, 2, 5]),
                count: g.pick(&[0, 1, 2, 3, 5, 8, 13, 24]),
                step: g.pick(&[1, 1, 2, 3, -1, -2]),
            })
            .collect();
        let refs: Vec<ArrayRef> = (0..1 + g.below(4))
            .map(|_| {
                let array = g.below(ranks.len() as u64) as usize;
                let subscripts = (0..ranks[array])
                    .map(|_| AffineExpr {
                        coeffs: loops
                            .iter()
                            .map(|_| g.pick(&[0, 0, 1, 1, 2, 3, -1]))
                            .collect(),
                        constant: 0,
                    })
                    .collect();
                let read = g.below(2) == 0;
                if read {
                    ArrayRef::read(array, subscripts)
                } else {
                    ArrayRef::write(array, subscripts)
                }
            })
            .collect();
        nests.push((loops, refs));
    }
    // Each subscript's range over the box; zero-trip loops sit at `lower`,
    // as `Program::validate` checks them.
    let range = |e: &AffineExpr, loops: &[LoopDim]| {
        e.coeffs
            .iter()
            .zip(loops)
            .fold((0i64, 0i64), |(lo, hi), (&c, l)| {
                let first = c * l.lower;
                let last = c * l.value(l.count.saturating_sub(1));
                (lo + first.min(last), hi + first.max(last))
            })
    };
    let mut dims: Vec<Vec<u64>> = ranks.iter().map(|&r| vec![1; r]).collect();
    for (loops, refs) in &nests {
        for r in refs {
            for (k, e) in r.subscripts.iter().enumerate() {
                let (lo, hi) = range(e, loops);
                dims[r.array][k] = dims[r.array][k].max((hi - lo + 1) as u64);
            }
        }
    }
    for (loops, refs) in &mut nests {
        for r in refs.iter_mut() {
            for (k, e) in r.subscripts.iter_mut().enumerate() {
                let (lo, hi) = range(e, loops);
                let spare = dims[r.array][k] - (hi - lo + 1) as u64;
                e.constant = -lo + g.below(spare + 1) as i64;
            }
        }
    }
    let arrays = dims
        .into_iter()
        .enumerate()
        .map(|(i, dims)| ArrayFile {
            name: format!("A{i}"),
            dims,
            element_bytes: g.pick(&[4, 8]),
            order: g.pick(&[StorageOrder::RowMajor, StorageOrder::ColMajor]),
            striping: Striping {
                start_disk: DiskId(g.below(4) as u32),
                stripe_factor: 1 + g.below(4) as u32,
                stripe_bytes: g.pick(&[128, 512]),
            },
            base_block: 1_000_000 * i as u64,
        })
        .collect();
    let nests = nests
        .into_iter()
        .enumerate()
        .map(|(i, (loops, refs))| LoopNest {
            label: format!("n{i}"),
            loops,
            stmts: vec![Statement {
                label: "S".into(),
                refs,
            }],
            cycles_per_iter: g.pick(&[1.0, 750.0, 1234.5]),
        })
        .collect();
    let program = Program {
        name: format!("random{seed}"),
        arrays,
        nests,
        clock_hz: Program::PAPER_CLOCK_HZ,
    };
    let config = TraceGenConfig {
        io_chunk_bytes: g.pick(&[32, 64, 256, 1024, 4096]),
        detect_sequential: g.below(2) == 0,
    };
    (program, config)
}
