//! Access-vs-storage conformance analysis.
//!
//! For each array reference, the interesting quantity is the **innermost
//! stride**: how far the referenced element moves through the array's
//! *storage order* when the innermost loop advances one step. Unit stride
//! means the access pattern conforms to the on-disk layout (a sequential
//! scan); large strides mean each iteration hops stripes — and therefore
//! disks. The Fig. 12 tiling algorithm transposes an array's layout
//! exactly when transposing turns a non-conforming access into a
//! conforming one (this is what makes `wupwise` profit from TL+DL while
//! `galgel` does not).

use crate::expr::AffineExpr;
use crate::nest::{ArrayRef, LoopNest};
use sdpm_layout::{ArrayFile, StorageOrder};

/// Per-dimension storage strides (elements) of an array under `order`.
#[must_use]
pub fn storage_strides(dims: &[u64], order: StorageOrder) -> Vec<i64> {
    let n = dims.len();
    let mut strides = vec![1i64; n];
    match order {
        StorageOrder::RowMajor => {
            for d in (0..n.saturating_sub(1)).rev() {
                strides[d] = strides[d + 1] * dims[d + 1] as i64;
            }
        }
        StorageOrder::ColMajor => {
            for d in 1..n {
                strides[d] = strides[d - 1] * dims[d - 1] as i64;
            }
        }
    }
    strides
}

/// Collapses `r`'s subscripts into a single affine expression over the
/// nest's induction variables whose value is the referenced element's
/// **linear index** in `order` storage.
///
/// This is the workhorse of both the conformance test and the fast
/// activity walk in [`crate::pattern`]: evaluating one affine form per
/// reference per iteration instead of per-dimension linearization.
///
/// # Panics
/// If a coefficient or the constant does not fit `i64`, which
/// [`crate::Program::validate`] rules out under both storage orders.
#[must_use]
pub fn linearized_ref(r: &ArrayRef, file: &ArrayFile, order: StorageOrder) -> AffineExpr {
    checked_linearized_ref(r, file, order).expect("validated reference linearizes within i64")
}

/// [`linearized_ref`], summed exactly in `i128`: `None` when a
/// coefficient or the constant does not fit `i64`. Assumes the array's
/// element count fits `i64`, so its strides do.
#[must_use]
pub(crate) fn checked_linearized_ref(
    r: &ArrayRef,
    file: &ArrayFile,
    order: StorageOrder,
) -> Option<AffineExpr> {
    let strides = storage_strides(&file.dims, order);
    let sum = |term: &dyn Fn(&AffineExpr) -> i64| {
        r.subscripts
            .iter()
            .zip(&strides)
            .try_fold(0i128, |acc, (sub, &stride)| {
                acc.checked_add(i128::from(stride) * i128::from(term(sub)))
            })
            .and_then(|v| i64::try_from(v).ok())
    };
    let depth = r.subscripts.first().map_or(0, AffineExpr::depth);
    Some(AffineExpr {
        coeffs: (0..depth)
            .map(|d| sum(&|e| e.coeff(d)))
            .collect::<Option<_>>()?,
        constant: sum(&|e| e.constant)?,
    })
}

/// Elements the referenced address moves per step of the innermost loop,
/// under the array's *current* storage order. Zero means the reference is
/// invariant in the innermost loop.
#[must_use]
pub fn innermost_stride(nest: &LoopNest, r: &ArrayRef, file: &ArrayFile) -> i64 {
    innermost_stride_under(nest, r, file, file.order)
}

/// Like [`innermost_stride`] but under a hypothetical storage order —
/// used by the tiling transformation to ask "would transposing fix this?".
#[must_use]
pub fn innermost_stride_under(
    nest: &LoopNest,
    r: &ArrayRef,
    file: &ArrayFile,
    order: StorageOrder,
) -> i64 {
    if nest.depth() == 0 {
        return 0;
    }
    let lin = linearized_ref(r, file, order);
    let innermost = nest.depth() - 1;
    lin.coeff(innermost) * nest.loops[innermost].step
}

/// True if the reference walks storage with unit stride in the innermost
/// loop (forward or backward): the "access pattern conforms to the data
/// layout" condition of Fig. 12.
#[must_use]
pub fn ref_conforms(nest: &LoopNest, r: &ArrayRef, file: &ArrayFile) -> bool {
    innermost_stride(nest, r, file).abs() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{LoopDim, RefKind};
    use sdpm_layout::{DiskId, Striping};

    fn file_2d(rows: u64, cols: u64, order: StorageOrder) -> ArrayFile {
        ArrayFile {
            name: "A".into(),
            dims: vec![rows, cols],
            element_bytes: 8,
            order,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 1024,
            },
            base_block: 0,
        }
    }

    fn nest_2d(n: u64) -> LoopNest {
        LoopNest {
            label: "n".into(),
            loops: vec![LoopDim::simple(n), LoopDim::simple(n)],
            stmts: vec![],
            cycles_per_iter: 1.0,
        }
    }

    fn aref(subs: Vec<AffineExpr>) -> ArrayRef {
        ArrayRef {
            array: 0,
            subscripts: subs,
            kind: RefKind::Read,
        }
    }

    #[test]
    fn storage_strides_row_major() {
        assert_eq!(
            storage_strides(&[3, 4, 5], StorageOrder::RowMajor),
            vec![20, 5, 1]
        );
    }

    #[test]
    fn storage_strides_col_major() {
        assert_eq!(
            storage_strides(&[3, 4, 5], StorageOrder::ColMajor),
            vec![1, 3, 12]
        );
    }

    #[test]
    fn linearized_matches_layout_linearize() {
        use sdpm_layout::linearize;
        let f = file_2d(6, 9, StorageOrder::RowMajor);
        let r = aref(vec![
            AffineExpr::var(2, 0),
            AffineExpr::var(2, 1).shifted(2),
        ]);
        let lin = linearized_ref(&r, &f, StorageOrder::RowMajor);
        for i in 0..6i64 {
            for j in 0..7i64 {
                let elem = r.element_at(&[i, j]);
                let expect = linearize(
                    &f.dims,
                    &elem.iter().map(|&v| v as u64).collect::<Vec<_>>(),
                    StorageOrder::RowMajor,
                );
                assert_eq!(lin.eval(&[i, j]) as u64, expect);
            }
        }
    }

    #[test]
    fn row_access_on_row_major_conforms() {
        // A[i][j] with j innermost on a row-major array: stride 1.
        let f = file_2d(64, 64, StorageOrder::RowMajor);
        let n = nest_2d(64);
        let r = aref(vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)]);
        assert_eq!(innermost_stride(&n, &r, &f), 1);
        assert!(ref_conforms(&n, &r, &f));
    }

    #[test]
    fn column_access_on_row_major_does_not_conform() {
        // A[j][i] with j innermost: stride = row length = 64.
        let f = file_2d(64, 64, StorageOrder::RowMajor);
        let n = nest_2d(64);
        let r = aref(vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)]);
        assert_eq!(innermost_stride(&n, &r, &f), 64);
        assert!(!ref_conforms(&n, &r, &f));
        // ... but transposing the layout fixes it (the Fig. 12 decision).
        assert_eq!(
            innermost_stride_under(&n, &r, &f, StorageOrder::ColMajor),
            1
        );
    }

    #[test]
    fn negative_step_gives_negative_unit_stride() {
        let f = file_2d(64, 64, StorageOrder::RowMajor);
        let mut n = nest_2d(64);
        n.loops[1] = LoopDim {
            lower: 63,
            count: 64,
            step: -1,
        };
        let r = aref(vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)]);
        assert_eq!(innermost_stride(&n, &r, &f), -1);
        assert!(ref_conforms(&n, &r, &f), "backward scan still conforms");
    }

    #[test]
    fn invariant_ref_has_zero_stride() {
        let f = file_2d(64, 64, StorageOrder::RowMajor);
        let n = nest_2d(64);
        let r = aref(vec![AffineExpr::var(2, 0), AffineExpr::constant(2, 5)]);
        assert_eq!(innermost_stride(&n, &r, &f), 0);
        assert!(!ref_conforms(&n, &r, &f));
    }

    #[test]
    fn strided_subscript_scales_stride() {
        let f = file_2d(64, 64, StorageOrder::RowMajor);
        let n = nest_2d(32);
        let r = aref(vec![
            AffineExpr::var(2, 0),
            AffineExpr::scaled_var(2, 1, 2, 0),
        ]);
        assert_eq!(innermost_stride(&n, &r, &f), 2);
        assert!(!ref_conforms(&n, &r, &f));
    }
}
