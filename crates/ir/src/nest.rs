//! Loop nests, statements, and array references.

use crate::expr::AffineExpr;
use serde::{Deserialize, Serialize};

/// One loop of a nest: `for iv = lower, lower + step, ... (count trips)`.
///
/// Trip count is explicit (rather than an upper bound) so negative steps
/// and non-unit strides cannot produce off-by-one trip counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LoopDim {
    /// First value of the induction variable.
    pub lower: i64,
    /// Number of iterations (trips). Zero-trip loops are legal.
    pub count: u64,
    /// Induction-variable stride per trip; must be nonzero.
    pub step: i64,
}

impl LoopDim {
    /// The canonical `for iv = 0 .. count` loop.
    #[must_use]
    pub fn simple(count: u64) -> Self {
        LoopDim {
            lower: 0,
            count,
            step: 1,
        }
    }

    /// Induction-variable value on trip `k` (0-based).
    #[must_use]
    pub fn value(&self, k: u64) -> i64 {
        self.lower + self.step * k as i64
    }
}

/// Whether a reference reads or writes the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RefKind {
    Read,
    Write,
}

/// One array reference `A[e1][e2]...` inside a statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayRef {
    /// Index of the array in the program's symbol table.
    pub array: usize,
    /// One affine subscript per array dimension.
    pub subscripts: Vec<AffineExpr>,
    /// Read or write.
    pub kind: RefKind,
}

impl ArrayRef {
    /// A read reference.
    #[must_use]
    pub fn read(array: usize, subscripts: Vec<AffineExpr>) -> Self {
        ArrayRef {
            array,
            subscripts,
            kind: RefKind::Read,
        }
    }

    /// A write reference.
    #[must_use]
    pub fn write(array: usize, subscripts: Vec<AffineExpr>) -> Self {
        ArrayRef {
            array,
            subscripts,
            kind: RefKind::Write,
        }
    }

    /// Evaluates all subscripts at `ivars`, yielding the accessed
    /// element's subscript vector.
    #[must_use]
    pub fn element_at(&self, ivars: &[i64]) -> Vec<i64> {
        self.subscripts.iter().map(|e| e.eval(ivars)).collect()
    }
}

/// One statement of a loop body: the set of array references it makes.
///
/// The IR does not model the computation itself — only which array
/// elements each statement touches, which is all the paper's analyses
/// (grouping, dependence, access pattern) consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Source-order label for diagnostics, e.g. `"S1"`.
    pub label: String,
    /// All references made by the statement.
    pub refs: Vec<ArrayRef>,
}

impl Statement {
    /// Arrays this statement touches (deduplicated, in first-touch order).
    #[must_use]
    pub fn arrays(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for r in &self.refs {
            if !out.contains(&r.array) {
                out.push(r.array);
            }
        }
        out
    }

    /// True if the statement writes `array`.
    #[must_use]
    pub fn writes(&self, array: usize) -> bool {
        self.refs
            .iter()
            .any(|r| r.array == array && r.kind == RefKind::Write)
    }

    /// True if the statement reads `array`.
    #[must_use]
    pub fn reads(&self, array: usize) -> bool {
        self.refs
            .iter()
            .any(|r| r.array == array && r.kind == RefKind::Read)
    }
}

/// A (perfect) affine loop nest with a straight-line body of statements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopNest {
    /// Source-order label for diagnostics, e.g. `"nest1"`.
    pub label: String,
    /// Loops, outermost first.
    pub loops: Vec<LoopDim>,
    /// Body statements in source order.
    pub stmts: Vec<Statement>,
    /// Measured cycles per iteration of the full body (the paper obtains
    /// these with `gethrtime` on an UltraSPARC-III; our workload models
    /// carry calibrated values).
    pub cycles_per_iter: f64,
}

impl LoopNest {
    /// Total number of iterations (product of trip counts).
    #[must_use]
    pub fn iter_count(&self) -> u64 {
        self.loops.iter().map(|l| l.count).product()
    }

    /// Nest depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Induction-variable vector of flat iteration `flat`
    /// (lexicographic/odometer order, outermost slowest).
    #[must_use]
    pub fn ivars_of(&self, mut flat: u64) -> Vec<i64> {
        let mut ivars = vec![0i64; self.loops.len()];
        for (d, l) in self.loops.iter().enumerate().rev() {
            if l.count == 0 {
                ivars[d] = l.lower;
                continue;
            }
            ivars[d] = l.value(flat % l.count);
            flat /= l.count;
        }
        debug_assert_eq!(flat, 0, "flat iteration out of range");
        ivars
    }

    /// All arrays referenced anywhere in the nest, deduplicated.
    #[must_use]
    pub fn arrays(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for s in &self.stmts {
            for a in s.arrays() {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Total cycles the nest runs for.
    #[must_use]
    pub fn total_cycles(&self) -> f64 {
        self.cycles_per_iter * self.iter_count() as f64
    }

    /// The odometer-carry test on the inner loops `loops[first..]`: with
    /// the outer loops held fixed, `lin` is affine in the flat iteration
    /// `t` of the inner loops iff `coeff_d·step_d == slope·weight_d` for
    /// every inner loop `d` with more than one trip, `weight_d` being the
    /// product of the trip counts nested inside `d`.
    ///
    /// Returns `(base, slope)`, where `base` is `lin` at the nest's first
    /// iteration, so `lin = base + slope·t` while every outer loop sits at
    /// its first trip. `first = 0` tests affinity in the nest's own flat
    /// iteration. `None` when the test fails or `i128` arithmetic
    /// overflows.
    #[must_use]
    pub fn affine_in_flat(&self, lin: &AffineExpr, first: usize) -> Option<(i128, i128)> {
        let mut slope: Option<i128> = None;
        let mut weight = 1i128;
        for d in (first..self.depth()).rev() {
            let l = self.loops[d];
            if l.count > 1 {
                let contrib = i128::from(lin.coeff(d)) * i128::from(l.step);
                // The innermost loop that varies fixes the slope.
                let s = match slope {
                    Some(s) => s,
                    None => *slope.insert(contrib.checked_div(weight)?),
                };
                if s.checked_mul(weight)? != contrib {
                    return None;
                }
            }
            if d > first {
                weight = weight.checked_mul(i128::from(l.count))?;
            }
        }
        let base = self
            .loops
            .iter()
            .enumerate()
            .try_fold(i128::from(lin.constant), |acc, (d, l)| {
                acc.checked_add(i128::from(lin.coeff(d)) * i128::from(l.lower))
            })?;
        Some((base, slope.unwrap_or(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_nest() -> LoopNest {
        LoopNest {
            label: "n".into(),
            loops: vec![LoopDim::simple(3), LoopDim::simple(4)],
            stmts: vec![Statement {
                label: "S1".into(),
                refs: vec![ArrayRef::read(
                    0,
                    vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)],
                )],
            }],
            cycles_per_iter: 100.0,
        }
    }

    #[test]
    fn iter_count_is_trip_product() {
        assert_eq!(two_level_nest().iter_count(), 12);
    }

    #[test]
    fn ivars_follow_odometer_order() {
        let n = two_level_nest();
        assert_eq!(n.ivars_of(0), vec![0, 0]);
        assert_eq!(n.ivars_of(1), vec![0, 1]);
        assert_eq!(n.ivars_of(4), vec![1, 0]);
        assert_eq!(n.ivars_of(11), vec![2, 3]);
    }

    #[test]
    fn loop_dim_with_stride_and_offset() {
        let l = LoopDim {
            lower: 10,
            count: 5,
            step: -2,
        };
        assert_eq!(l.value(0), 10);
        assert_eq!(l.value(4), 2);
    }

    #[test]
    fn statement_read_write_queries() {
        let s = Statement {
            label: "S".into(),
            refs: vec![
                ArrayRef::write(1, vec![AffineExpr::var(1, 0)]),
                ArrayRef::read(2, vec![AffineExpr::var(1, 0)]),
                ArrayRef::read(1, vec![AffineExpr::var(1, 0).shifted(1)]),
            ],
        };
        assert!(s.writes(1));
        assert!(s.reads(1));
        assert!(!s.writes(2));
        assert!(s.reads(2));
        assert_eq!(s.arrays(), vec![1, 2]);
    }

    #[test]
    fn element_at_evaluates_all_subscripts() {
        let r = ArrayRef::read(
            0,
            vec![
                AffineExpr::scaled_var(2, 0, 2, 0),
                AffineExpr::var(2, 1).shifted(3),
            ],
        );
        assert_eq!(r.element_at(&[4, 5]), vec![8, 8]);
    }

    #[test]
    fn zero_trip_nest_has_zero_iterations() {
        let mut n = two_level_nest();
        n.loops[1] = LoopDim::simple(0);
        assert_eq!(n.iter_count(), 0);
    }

    #[test]
    fn total_cycles_scales_with_iterations() {
        let n = two_level_nest();
        assert!((n.total_cycles() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn affine_in_flat_tests_a_suffix_of_the_loops() {
        let n = two_level_nest();
        // Row walk 4·i + j: affine in the whole nest's flat iteration.
        let row = AffineExpr {
            coeffs: vec![4, 1],
            constant: 2,
        };
        assert_eq!(n.affine_in_flat(&row, 0), Some((2, 1)));
        // Column walk i + 3·j: affine only inside the inner loop.
        let col = AffineExpr {
            coeffs: vec![1, 3],
            constant: 0,
        };
        assert_eq!(n.affine_in_flat(&col, 0), None);
        assert_eq!(n.affine_in_flat(&col, 1), Some((0, 3)));
        // Lower bounds and steps fold into base and slope.
        let mut strided = n.clone();
        strided.loops[1] = LoopDim {
            lower: 9,
            count: 4,
            step: -2,
        };
        assert_eq!(strided.affine_in_flat(&col, 1), Some((27, -6)));
        // A zero-trip inner loop makes the outer carry untestable.
        strided.loops[1].count = 0;
        assert_eq!(strided.affine_in_flat(&col, 0), None);
        assert_eq!(strided.affine_in_flat(&col, 1), Some((27, 0)));
    }

    #[test]
    fn nest_arrays_deduplicate_across_statements() {
        let mut n = two_level_nest();
        n.stmts.push(Statement {
            label: "S2".into(),
            refs: vec![
                ArrayRef::read(0, vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)]),
                ArrayRef::write(3, vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)]),
            ],
        });
        assert_eq!(n.arrays(), vec![0, 3]);
    }
}
