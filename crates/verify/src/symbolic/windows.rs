//! Symbolic per-nest, per-disk access windows.
//!
//! For every nest and every disk this module computes a *may-access
//! window*: a flat-iteration interval guaranteed to contain every
//! iteration at which the nest can touch the disk. The windows are the
//! symbolic counterpart of [`sdpm_ir::disk_activity`] — derived from the
//! same linearized affine references and the same striping arithmetic,
//! but in closed form over the iteration box instead of by walking it,
//! so whole-program analysis is independent of trip counts.
//!
//! Soundness direction: windows **over-approximate** access, so the
//! inter-window gaps **under-approximate** idleness. Every bound derived
//! from the gaps (idle length, directive legality) therefore holds for
//! the concrete execution. Two precision tiers:
//!
//! * References whose storage index is affine *in the flat iteration*
//!   (the odometer-carry condition, [`sdpm_ir::LoopNest::affine_in_flat`])
//!   get exact first/last iterations per disk, found by scanning stripes
//!   from both range ends — the stripe -> disk map is periodic in the
//!   stripe factor, so the scan is bounded, never a walk of the
//!   iteration space.
//! * Everything else falls back to the whole nest span for each disk the
//!   reference's element range can reach — sound, marked inexact.
//!
//! The optional `slack_bytes` widening accounts for the trace
//! generator's chunked I/O: a buffer-cache fetch can touch bytes up to
//! one chunk away from the accessed element, so windows widened by the
//! chunk size also contain every *request* iteration of the trace.

use super::interval::{affine_range, div_ceil, div_floor, Itv};
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::Program;

/// May-access window of one disk in one nest: flat iterations
/// `[first, last]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicWindow {
    pub first: u64,
    pub last: u64,
    /// True when every contributing reference was resolved in closed
    /// form (flat-affine); false when any fell back to the nest span.
    pub exact: bool,
}

/// Whole-program symbolic activity: `nests[n][d]` is disk `d`'s window
/// during nest `n`, `None` when the nest provably never touches it.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicActivity {
    pub pool_size: u32,
    pub nests: Vec<Vec<Option<SymbolicWindow>>>,
}

/// One reference, pre-resolved for window computation.
struct RefShape {
    /// Storage-index range over the iteration box.
    elems: Itv,
    /// `Some((base, slope))` when the storage index is `base + slope *
    /// flat` for the flat iteration — the odometer-carry condition
    /// ([`sdpm_ir::LoopNest::affine_in_flat`]).
    flat_affine: Option<(i128, i128)>,
    element_bytes: i128,
    stripe_bytes: i128,
    stripe_factor: u32,
    start_disk: u32,
}

/// Stripe scans give up after this many empty stripes per direction; the
/// reference then falls back to the inexact nest-span window. Dense
/// (unit-stride) scans need at most one stripe factor's worth.
const SCAN_BUDGET: usize = 4096;

/// Computes symbolic windows for every nest of `program` against a pool
/// of `pool_size` disks, widening each reference's byte reach by
/// `slack_bytes` (pass the trace generator's chunk size to cover request
/// granularity, or 0 for element-exact windows).
#[must_use]
pub fn symbolic_windows(program: &Program, pool_size: u32, slack_bytes: u64) -> SymbolicActivity {
    let nests = program
        .nests
        .iter()
        .map(|nest| {
            let iters = nest.iter_count();
            let mut per_disk: Vec<Option<SymbolicWindow>> = vec![None; pool_size as usize];
            if iters == 0 {
                // Zero-trip nest: provably no accesses at all.
                return per_disk;
            }
            for r in nest.stmts.iter().flat_map(|s| s.refs.iter()) {
                let file = &program.arrays[r.array];
                let lin = linearized_ref(r, file, file.order);
                let Some(elems) = affine_range(&lin, &nest.loops) else {
                    continue; // empty box (unreachable: iters > 0)
                };
                let shape = RefShape {
                    elems,
                    flat_affine: nest.affine_in_flat(&lin, 0),
                    element_bytes: i128::from(file.element_bytes),
                    stripe_bytes: i128::from(file.striping.stripe_bytes),
                    stripe_factor: file.striping.stripe_factor,
                    start_disk: file.striping.start_disk.0,
                };
                merge_ref_windows(&mut per_disk, &shape, iters, pool_size, slack_bytes);
            }
            per_disk
        })
        .collect();
    SymbolicActivity { pool_size, nests }
}

/// Folds one reference's windows into the per-disk accumulator.
fn merge_ref_windows(
    per_disk: &mut [Option<SymbolicWindow>],
    shape: &RefShape,
    iters: u64,
    pool_size: u32,
    slack_bytes: u64,
) {
    match shape.flat_affine {
        Some((base, slope)) => {
            let exact = exact_windows(shape, slope, base, iters, pool_size, slack_bytes);
            match exact {
                Some(windows) => {
                    for (d, w) in windows.into_iter().enumerate() {
                        if let Some(w) = w {
                            merge(&mut per_disk[d], w);
                        }
                    }
                }
                None => fallback_windows(per_disk, shape, iters, pool_size, slack_bytes),
            }
        }
        None => fallback_windows(per_disk, shape, iters, pool_size, slack_bytes),
    }
}

fn merge(slot: &mut Option<SymbolicWindow>, w: SymbolicWindow) {
    *slot = Some(match *slot {
        None => w,
        Some(prev) => SymbolicWindow {
            first: prev.first.min(w.first),
            last: prev.last.max(w.last),
            exact: prev.exact && w.exact,
        },
    });
}

/// Disk serving stripe `k` under the reference's striping.
fn disk_of_stripe(shape: &RefShape, k: i128, pool_size: u32) -> u32 {
    debug_assert!(k >= 0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rot = (k % i128::from(shape.stripe_factor)) as u32;
    (shape.start_disk + rot) % pool_size
}

/// Exact per-disk windows for a flat-affine reference: scan stripes from
/// both ends of the stripe range, mapping each touched stripe back to
/// its flat-iteration span. Returns `None` when the scan budget runs out
/// (sparse stride over a huge range — fall back to inexact).
fn exact_windows(
    shape: &RefShape,
    slope: i128,
    base: i128,
    iters: u64,
    pool_size: u32,
    slack_bytes: u64,
) -> Option<Vec<Option<SymbolicWindow>>> {
    let n = i128::from(iters);
    let slack = i128::from(slack_bytes);
    // Normalize to non-negative slope by reversing the iteration axis:
    // elem(t) = base + slope*t  becomes  elem'(t') = base' + |slope|*t'
    // with t' = n-1-t; windows flip back at the end.
    let (slope, base, reversed) = if slope < 0 {
        (-slope, base + slope * (n - 1), true)
    } else {
        (slope, base, false)
    };

    // Widened stripe range reachable by the reference.
    let byte_lo = shape.elems.lo * shape.element_bytes - slack;
    let byte_hi = shape.elems.hi * shape.element_bytes + shape.element_bytes - 1 + slack;
    let k_lo = div_floor(byte_lo, shape.stripe_bytes).max(0);
    let k_hi = div_floor(byte_hi, shape.stripe_bytes).max(0);

    // Flat iterations whose (widened) byte reach touches stripe k:
    // elem in [ceil((k*SB - slack)/eb), floor(((k+1)*SB - 1 + slack)/eb)]
    // and t = (elem - base)/slope must land on the integer grid.
    let t_span_of_stripe = |k: i128| -> Option<(i128, i128)> {
        let e_lo =
            div_ceil(k * shape.stripe_bytes - slack, shape.element_bytes).max(shape.elems.lo);
        let e_hi = div_floor(
            (k + 1) * shape.stripe_bytes - 1 + slack,
            shape.element_bytes,
        )
        .min(shape.elems.hi);
        if e_lo > e_hi {
            return None;
        }
        if slope == 0 {
            // Every iteration touches the same element; the stripe is
            // touched iff the base element falls in range.
            return if e_lo <= base && base <= e_hi {
                Some((0, n - 1))
            } else {
                None
            };
        }
        let t_lo = div_ceil(e_lo - base, slope).max(0);
        let t_hi = div_floor(e_hi - base, slope).min(n - 1);
        (t_lo <= t_hi).then_some((t_lo, t_hi))
    };

    let mut first: Vec<Option<i128>> = vec![None; pool_size as usize];
    let mut last: Vec<Option<i128>> = vec![None; pool_size as usize];
    let period = i128::from(shape.stripe_factor);

    // Upward scan: the first touched stripe of each rotation slot fixes
    // that disk's first iteration (slope >= 0 makes spans monotone in k).
    let mut found = 0u32;
    let distinct = u32::try_from(period.min(i128::from(pool_size))).unwrap_or(pool_size);
    let mut budget = SCAN_BUDGET;
    let mut k = k_lo;
    while k <= k_hi && found < distinct && budget > 0 {
        if let Some((t_lo, _)) = t_span_of_stripe(k) {
            let d = disk_of_stripe(shape, k, pool_size) as usize;
            if first[d].is_none() {
                first[d] = Some(t_lo);
                found += 1;
            }
        } else {
            budget -= 1;
        }
        k += 1;
    }
    if budget == 0 {
        return None;
    }
    // Downward scan for last iterations.
    let mut found = 0u32;
    let mut budget = SCAN_BUDGET;
    let mut k = k_hi;
    while k >= k_lo && found < distinct && budget > 0 {
        if let Some((_, t_hi)) = t_span_of_stripe(k) {
            let d = disk_of_stripe(shape, k, pool_size) as usize;
            if last[d].is_none() {
                last[d] = Some(t_hi);
                found += 1;
            }
        } else {
            budget -= 1;
        }
        k -= 1;
    }
    if budget == 0 {
        return None;
    }

    let windows = first
        .into_iter()
        .zip(last)
        .map(|(f, l)| {
            let (f, l) = (f?, l?);
            let (f, l) = if reversed {
                (n - 1 - l, n - 1 - f)
            } else {
                (f, l)
            };
            Some(SymbolicWindow {
                first: u64::try_from(f).unwrap_or(0),
                last: u64::try_from(l).unwrap_or(iters - 1),
                exact: true,
            })
        })
        .collect();
    Some(windows)
}

/// Sound fallback: the reference may touch each disk reachable from its
/// element range at any iteration of the nest.
fn fallback_windows(
    per_disk: &mut [Option<SymbolicWindow>],
    shape: &RefShape,
    iters: u64,
    pool_size: u32,
    slack_bytes: u64,
) {
    let slack = i128::from(slack_bytes);
    let byte_lo = shape.elems.lo * shape.element_bytes - slack;
    let byte_hi = shape.elems.hi * shape.element_bytes + shape.element_bytes - 1 + slack;
    let k_lo = div_floor(byte_lo, shape.stripe_bytes).max(0);
    let k_hi = div_floor(byte_hi, shape.stripe_bytes).max(0);
    let span = SymbolicWindow {
        first: 0,
        last: iters - 1,
        exact: false,
    };
    let stripes = k_hi - k_lo + 1;
    if stripes >= i128::from(shape.stripe_factor) {
        // The range wraps the whole rotation: every disk of the stripe
        // rotation set is reachable.
        for r in 0..shape.stripe_factor {
            let d = (shape.start_disk + r) % pool_size;
            merge(&mut per_disk[d as usize], span);
        }
    } else {
        let mut k = k_lo;
        while k <= k_hi {
            let d = disk_of_stripe(shape, k, pool_size);
            merge(&mut per_disk[d as usize], span);
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};

    fn striped_array(elems: u64, factor: u32, stripe_bytes: u64) -> ArrayFile {
        ArrayFile {
            name: "A".into(),
            dims: vec![elems],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: factor,
                stripe_bytes,
            },
            base_block: 0,
        }
    }

    fn scan_program(elems: u64, factor: u32) -> Program {
        Program {
            name: "scan".into(),
            arrays: vec![striped_array(elems, factor, 1024)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(elems)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 10.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        }
    }

    #[test]
    fn unit_scan_windows_match_concrete_activity() {
        let p = scan_program(4 * 128, 4);
        let pool = DiskPool::new(4);
        p.validate(pool).unwrap();
        let sym = symbolic_windows(&p, 4, 0);
        let conc = sdpm_ir::disk_activity(&p, pool);
        for d in 0..4usize {
            let w = sym.nests[0][d].expect("scan touches every disk");
            assert!(w.exact);
            let ivs = &conc.nests[0].per_disk[d];
            assert_eq!(w.first, ivs.first().unwrap().start);
            assert_eq!(w.last, ivs.last().unwrap().end - 1);
        }
    }

    #[test]
    fn untouched_disk_has_no_window() {
        // 4-disk pool, array striped over 2 disks only.
        let p = scan_program(2 * 128, 2);
        p.validate(DiskPool::new(4)).unwrap();
        let sym = symbolic_windows(&p, 4, 0);
        assert!(sym.nests[0][0].is_some());
        assert!(sym.nests[0][1].is_some());
        assert!(sym.nests[0][2].is_none());
        assert!(sym.nests[0][3].is_none());
    }

    #[test]
    fn zero_trip_nest_is_access_free() {
        let mut p = scan_program(256, 2);
        p.nests[0].loops[0].count = 0;
        let sym = symbolic_windows(&p, 2, 0);
        assert!(sym.nests[0].iter().all(Option::is_none));
    }

    #[test]
    fn negative_stride_scan_still_covers_activity() {
        // Walk the array backward: i from elems-1 down by -1.
        let elems = 4 * 128u64;
        let mut p = scan_program(elems, 4);
        p.nests[0].loops[0] = LoopDim {
            lower: i64::try_from(elems).unwrap() - 1,
            count: elems,
            step: -1,
        };
        let pool = DiskPool::new(4);
        p.validate(pool).unwrap();
        let sym = symbolic_windows(&p, 4, 0);
        let conc = sdpm_ir::disk_activity(&p, pool);
        for d in 0..4usize {
            let w = sym.nests[0][d].expect("backward scan touches every disk");
            let ivs = &conc.nests[0].per_disk[d];
            assert!(w.first <= ivs.first().unwrap().start);
            assert!(w.last >= ivs.last().unwrap().end - 1);
        }
    }

    #[test]
    fn column_scan_falls_back_to_inexact_span() {
        // m[j][i] traversed with i outer, j inner: storage index
        // j*cols + i is not affine in the flat iteration.
        let cols = 64u64;
        let rows = 32u64;
        let a = ArrayFile {
            name: "M".into(),
            dims: vec![rows, cols],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 2,
                stripe_bytes: 1024,
            },
            base_block: 0,
        };
        let nest = LoopNest {
            label: "col".into(),
            loops: vec![LoopDim::simple(cols), LoopDim::simple(rows)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(
                    0,
                    vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)],
                )],
            }],
            cycles_per_iter: 10.0,
        };
        let p = Program {
            name: "colscan".into(),
            arrays: vec![a],
            nests: vec![nest],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let pool = DiskPool::new(2);
        p.validate(pool).unwrap();
        let sym = symbolic_windows(&p, 2, 0);
        let conc = sdpm_ir::disk_activity(&p, pool);
        for d in 0..2usize {
            let w = sym.nests[0][d].expect("both disks touched");
            assert!(!w.exact, "column scan cannot be flat-affine");
            // Sound: still contains all concrete activity.
            let ivs = &conc.nests[0].per_disk[d];
            assert!(w.first <= ivs.first().unwrap().start);
            assert!(w.last >= ivs.last().unwrap().end - 1);
        }
    }

    #[test]
    fn slack_widens_windows_monotonically() {
        let p = scan_program(4 * 128, 4);
        p.validate(DiskPool::new(4)).unwrap();
        let tight = symbolic_windows(&p, 4, 0);
        let wide = symbolic_windows(&p, 4, 32 * 1024);
        for d in 0..4usize {
            let t = tight.nests[0][d].unwrap();
            let w = wide.nests[0][d].unwrap();
            assert!(w.first <= t.first);
            assert!(w.last >= t.last);
        }
    }
}
