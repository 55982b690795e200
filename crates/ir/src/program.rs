//! Whole programs: symbol table + nests + clock.

use crate::conform::checked_linearized_ref;
use crate::expr::AffineExpr;
use crate::nest::LoopNest;
use sdpm_layout::{ArrayFile, DiskPool, StorageOrder};
use serde::{Deserialize, Serialize};

/// Index of an array in a program's symbol table.
pub type ArrayId = usize;
/// Index of a nest in a program's nest list.
pub type NestId = usize;

/// An analyzable application: disk-resident arrays, the loop nests that
/// access them (in execution order), and the machine clock used to convert
/// per-iteration cycle counts to wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Application name (e.g. `"171.swim"`).
    pub name: String,
    /// Disk-resident arrays with their file layouts.
    pub arrays: Vec<ArrayFile>,
    /// Loop nests in execution order.
    pub nests: Vec<LoopNest>,
    /// CPU clock in Hz (the paper measures on a 750 MHz UltraSPARC-III).
    pub clock_hz: f64,
}

impl Program {
    /// The paper's measurement platform clock: 750 MHz.
    pub const PAPER_CLOCK_HZ: f64 = 750.0e6;

    /// Total bytes across all arrays.
    #[must_use]
    pub fn total_data_bytes(&self) -> u64 {
        self.arrays.iter().map(ArrayFile::total_bytes).sum()
    }

    /// Wall-clock seconds of pure computation (sum of nest cycle totals at
    /// `clock_hz`), excluding any I/O stall the simulator adds.
    #[must_use]
    pub fn compute_secs(&self) -> f64 {
        self.nests.iter().map(LoopNest::total_cycles).sum::<f64>() / self.clock_hz
    }

    /// Seconds per iteration of `nest`.
    #[must_use]
    pub fn iter_secs(&self, nest: NestId) -> f64 {
        self.nests[nest].cycles_per_iter / self.clock_hz
    }

    /// Structural validation: every reference must name an existing array
    /// with matching rank and subscript depth, stay inside the array's
    /// extents, and linearize to an affine form that fits `i64` under
    /// either storage order; each array's byte size must fit `i64`,
    /// striping must fit `pool`, and cycle counts must be positive and
    /// finite.
    pub fn validate(&self, pool: DiskPool) -> Result<(), String> {
        if self.clock_hz <= 0.0 || !self.clock_hz.is_finite() {
            return Err(format!("bad clock_hz {}", self.clock_hz));
        }
        for (ai, a) in self.arrays.iter().enumerate() {
            if a.dims.is_empty() || a.dims.contains(&0) {
                return Err(format!("array {ai} ({}) has empty shape", a.name));
            }
            if a.element_bytes == 0 {
                return Err(format!("array {ai} ({}) has zero element size", a.name));
            }
            let bytes = a
                .dims
                .iter()
                .try_fold(a.element_bytes, |b, &d| b.checked_mul(d));
            if bytes.is_none_or(|b| i64::try_from(b).is_err()) {
                return Err(format!(
                    "array {ai} ({}) spans more than i64::MAX bytes",
                    a.name
                ));
            }
            a.striping
                .validate(pool)
                .map_err(|e| format!("array {ai} ({}): {e}", a.name))?;
        }
        for (ni, n) in self.nests.iter().enumerate() {
            if n.cycles_per_iter.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
                || !n.cycles_per_iter.is_finite()
            {
                return Err(format!(
                    "nest {ni} ({}) has bad cycles_per_iter {}",
                    n.label, n.cycles_per_iter
                ));
            }
            for l in &n.loops {
                if l.step == 0 {
                    return Err(format!("nest {ni} ({}) has a zero-step loop", n.label));
                }
            }
            for (si, s) in n.stmts.iter().enumerate() {
                for r in &s.refs {
                    let a = self.arrays.get(r.array).ok_or_else(|| {
                        format!(
                            "nest {ni} stmt {si}: reference to unknown array {}",
                            r.array
                        )
                    })?;
                    if r.subscripts.len() != a.dims.len() {
                        return Err(format!(
                            "nest {ni} stmt {si}: {}-d subscript on {}-d array {}",
                            r.subscripts.len(),
                            a.dims.len(),
                            a.name
                        ));
                    }
                    for e in &r.subscripts {
                        if e.depth() != n.depth() {
                            return Err(format!(
                                "nest {ni} stmt {si}: subscript depth {} != nest depth {}",
                                e.depth(),
                                n.depth()
                            ));
                        }
                    }
                    if let Some((dim, v, ivars)) = bounds_violation(n, &r.subscripts, &a.dims) {
                        let v = v.map_or_else(|| "overflow".to_string(), |v| v.to_string());
                        return Err(format!(
                            "nest {ni} stmt {si}: subscript {dim} of {} evaluates \
                             to {v} (extent {}) at corner {ivars:?}",
                            a.name, a.dims[dim]
                        ));
                    }
                    // Tiling linearizes under the transposed order too.
                    for order in [StorageOrder::RowMajor, StorageOrder::ColMajor] {
                        if checked_linearized_ref(r, a, order).is_none() {
                            return Err(format!(
                                "nest {ni} ({}) stmt {si} ({}): the {order:?} linearization \
                                 of a reference to {} overflows i64",
                                n.label, s.label, a.name
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Induction variables at the corner of `n`'s iteration box where loop
/// `d` takes its last trip iff `last(d)`, and its first otherwise. A
/// zero-trip loop stays at `lower`.
fn box_corner(n: &LoopNest, last: impl Fn(usize) -> bool) -> Vec<i128> {
    n.loops
        .iter()
        .enumerate()
        .map(|(d, l)| {
            let lower = i128::from(l.lower);
            if l.count == 0 || !last(d) {
                lower
            } else {
                // |step·(count − 1)| < 2^127 − 2^63: no i128 overflow.
                lower + i128::from(l.step) * i128::from(l.count - 1)
            }
        })
        .collect()
}

/// `e` at `ivars` in `i128`; `None` on overflow.
fn eval_at(e: &AffineExpr, ivars: &[i128]) -> Option<i128> {
    e.coeffs
        .iter()
        .zip(ivars)
        .try_fold(i128::from(e.constant), |acc, (&c, &x)| {
            acc.checked_add(i128::from(c).checked_mul(x)?)
        })
}

/// Where a subscript of a reference leaves its extent: `(subscript,
/// value, corner)`, the value `None` on `i128` overflow.
///
/// An affine subscript is monotone in each loop, so its extremes over
/// the iteration box sit at the two corners that put every loop at the
/// end its coefficient favours; checking those is exact and O(depth) at
/// any depth. A failure in a nest of depth ≤ 16 is reported at the first
/// corner in binary order (bit `d` set = loop `d` at its last trip) where
/// any subscript fails, naming the first one that does.
fn bounds_violation(
    n: &LoopNest,
    subscripts: &[AffineExpr],
    dims: &[u64],
) -> Option<(usize, Option<i128>, Vec<i128>)> {
    let check = |ivars: Vec<i128>| {
        subscripts
            .iter()
            .zip(dims)
            .enumerate()
            .find_map(|(dim, (e, &extent))| {
                let v = eval_at(e, &ivars);
                let inside = v.is_some_and(|v| v >= 0 && v < i128::from(extent));
                (!inside).then(|| (dim, v, ivars.clone()))
            })
    };
    let found = subscripts
        .iter()
        .flat_map(|e| {
            [-1, 1].map(|toward| {
                box_corner(n, |d| {
                    e.coeff(d).signum() * n.loops[d].step.signum() == toward
                })
            })
        })
        .find_map(check)?;
    if n.depth() > 16 {
        return Some(found);
    }
    (0..1u32 << n.depth()).find_map(|corner| check(box_corner(n, |d| corner >> d & 1 == 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{ArrayRef, LoopDim, Statement};
    use sdpm_layout::{DiskId, StorageOrder, Striping};

    fn array(name: &str, n: u64) -> ArrayFile {
        ArrayFile {
            name: name.into(),
            dims: vec![n],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 1024,
            },
            base_block: 0,
        }
    }

    fn valid_program() -> Program {
        Program {
            name: "t".into(),
            arrays: vec![array("U1", 100)],
            nests: vec![LoopNest {
                label: "n1".into(),
                loops: vec![LoopDim::simple(100)],
                stmts: vec![Statement {
                    label: "S1".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 50.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        }
    }

    #[test]
    fn valid_program_passes() {
        assert_eq!(valid_program().validate(DiskPool::new(8)), Ok(()));
    }

    #[test]
    fn out_of_bounds_subscript_caught_at_corner() {
        let mut p = valid_program();
        p.nests[0].stmts[0].refs[0].subscripts[0] = AffineExpr::var(1, 0).shifted(1);
        let err = p.validate(DiskPool::new(8)).unwrap_err();
        assert!(err.contains("evaluates to 100"), "{err}");
    }

    #[test]
    fn bounds_failure_reports_the_first_corner_in_binary_order() {
        // A[i + j] over 0..10 × 0..10 first leaves 0..9 at i = 9, j = 0,
        // before the maximum corner (9, 9).
        let mut p = valid_program();
        p.arrays[0].dims = vec![9];
        let n = &mut p.nests[0];
        n.loops = vec![LoopDim::simple(10), LoopDim::simple(10)];
        n.stmts[0].refs[0].subscripts = vec![AffineExpr {
            coeffs: vec![1, 1],
            constant: 0,
        }];
        let err = p.validate(DiskPool::new(8)).unwrap_err();
        assert!(
            err.ends_with("evaluates to 9 (extent 9) at corner [9, 0]"),
            "{err}"
        );
        // A zero-trip loop is checked at its lower bound.
        let n = &mut p.nests[0];
        n.loops = vec![LoopDim {
            lower: 20,
            count: 0,
            step: 1,
        }];
        n.stmts[0].refs[0].subscripts = vec![AffineExpr::var(1, 0)];
        let err = p.validate(DiskPool::new(8)).unwrap_err();
        assert!(
            err.ends_with("evaluates to 20 (extent 9) at corner [20]"),
            "{err}"
        );
    }

    #[test]
    fn bounds_are_checked_past_loop_sixteen() {
        // A 17-deep nest reading A[i16], i16 in 0..8, from a 4-element A.
        let mut p = valid_program();
        p.arrays[0].dims = vec![4];
        let n = &mut p.nests[0];
        n.loops = vec![LoopDim::simple(1); 17];
        n.loops[16] = LoopDim::simple(8);
        n.stmts[0].refs[0].subscripts = vec![AffineExpr::var(17, 16)];
        let err = p.validate(DiskPool::new(8)).unwrap_err();
        let corner = format!("{:?}", [&[0; 16][..], &[7]].concat());
        assert!(
            err.ends_with(&format!("evaluates to 7 (extent 4) at corner {corner}")),
            "{err}"
        );
        p.nests[0].loops[16] = LoopDim::simple(4);
        assert_eq!(p.validate(DiskPool::new(8)), Ok(()));
    }

    #[test]
    fn linearization_overflow_caught_under_either_order() {
        // A[2^62·i0 + 1][i1] over a one-trip i0: every subscript is in
        // bounds, but the row-major linearization's i0 coefficient is
        // 64·2^62, which does not fit i64.
        let mut p = valid_program();
        p.arrays[0].dims = vec![4, 64];
        let n = &mut p.nests[0];
        n.loops = vec![
            LoopDim {
                lower: 0,
                count: 1,
                step: 1,
            },
            LoopDim::simple(64),
        ];
        n.stmts[0].refs[0].subscripts = vec![
            AffineExpr::scaled_var(2, 0, 1 << 62, 1),
            AffineExpr::var(2, 1),
        ];
        let err = p.validate(DiskPool::new(8)).unwrap_err();
        assert_eq!(
            err,
            "nest 0 (n1) stmt 0 (S1): the RowMajor linearization of a reference \
             to U1 overflows i64"
        );
        // Column-major storage linearizes it as 2^62·i0 + 1 + 4·i1, which
        // fits, but tiling may transpose the array to row-major.
        p.arrays[0].order = StorageOrder::ColMajor;
        assert!(p
            .validate(DiskPool::new(8))
            .unwrap_err()
            .contains("RowMajor"));
        // A one-trip coefficient whose linearization fits is accepted.
        p.arrays[0].order = StorageOrder::RowMajor;
        p.nests[0].stmts[0].refs[0].subscripts[0] = AffineExpr::scaled_var(2, 0, 1 << 56, 1);
        assert_eq!(p.validate(DiskPool::new(8)), Ok(()));
    }

    #[test]
    fn array_wider_than_i64_bytes_caught() {
        let mut p = valid_program();
        p.arrays[0].dims = vec![1 << 40, 1 << 21];
        let err = p.validate(DiskPool::new(8)).unwrap_err();
        assert!(err.contains("spans more than i64::MAX bytes"), "{err}");
    }

    #[test]
    fn negative_subscript_caught() {
        let mut p = valid_program();
        p.nests[0].stmts[0].refs[0].subscripts[0] = AffineExpr::var(1, 0).shifted(-1);
        assert!(p.validate(DiskPool::new(8)).is_err());
    }

    #[test]
    fn unknown_array_caught() {
        let mut p = valid_program();
        p.nests[0].stmts[0].refs[0].array = 9;
        assert!(p.validate(DiskPool::new(8)).is_err());
    }

    #[test]
    fn rank_mismatch_caught() {
        let mut p = valid_program();
        p.nests[0].stmts[0].refs[0]
            .subscripts
            .push(AffineExpr::constant(1, 0));
        assert!(p.validate(DiskPool::new(8)).is_err());
    }

    #[test]
    fn striping_that_exceeds_pool_caught() {
        let p = valid_program();
        assert!(p.validate(DiskPool::new(2)).is_err());
    }

    #[test]
    fn bad_cycle_count_caught() {
        let mut p = valid_program();
        p.nests[0].cycles_per_iter = 0.0;
        assert!(p.validate(DiskPool::new(8)).is_err());
    }

    #[test]
    fn compute_secs_uses_clock() {
        let p = valid_program();
        // 100 iters * 50 cycles / 750 MHz.
        assert!((p.compute_secs() - 5000.0 / 750.0e6).abs() < 1e-18);
        assert!((p.iter_secs(0) - 50.0 / 750.0e6).abs() < 1e-18);
    }

    #[test]
    fn total_data_bytes_sums_arrays() {
        let mut p = valid_program();
        p.arrays.push(array("U2", 50));
        assert_eq!(p.total_data_bytes(), 800 + 400);
    }
}
