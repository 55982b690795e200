//! Iteration-space walking.
//!
//! Analyses (the disk-activity map, tiling's legality checks) and tests
//! walk nests iteration by iteration. [`walk_nest`] runs an odometer over
//! the induction variables so each step is O(1) amortized (no div/mod per
//! iteration), which keeps walking tens of millions of iterations well
//! under a second in release builds. The trace generator does not walk:
//! it jumps from cache miss to cache miss in closed form
//! (`sdpm_trace::gen`), and its tests hold it to a spec walk built on
//! [`walk_nest`].

use crate::nest::LoopNest;

/// Calls `f(flat, ivars)` for every iteration of `nest` in execution
/// (lexicographic) order. `flat` counts from 0; `ivars` is outermost
/// first.
pub fn walk_nest<F: FnMut(u64, &[i64])>(nest: &LoopNest, mut f: F) {
    let total = nest.iter_count();
    if total == 0 {
        return;
    }
    let depth = nest.depth();
    if depth == 0 {
        f(0, &[]);
        return;
    }
    let mut trips = vec![0u64; depth];
    let mut ivars: Vec<i64> = nest.loops.iter().map(|l| l.lower).collect();
    let mut flat = 0u64;
    loop {
        f(flat, &ivars);
        flat += 1;
        if flat == total {
            return;
        }
        // Odometer increment, innermost fastest.
        let mut d = depth - 1;
        loop {
            trips[d] += 1;
            if trips[d] < nest.loops[d].count {
                ivars[d] += nest.loops[d].step;
                break;
            }
            trips[d] = 0;
            ivars[d] = nest.loops[d].lower;
            debug_assert!(d > 0, "odometer overflow before total reached");
            d -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::LoopDim;

    fn nest(dims: &[u64]) -> LoopNest {
        LoopNest {
            label: "n".into(),
            loops: dims.iter().map(|&c| LoopDim::simple(c)).collect(),
            stmts: vec![],
            cycles_per_iter: 1.0,
        }
    }

    #[test]
    fn walk_visits_every_iteration_in_order() {
        let n = nest(&[3, 4]);
        let mut seen = Vec::new();
        walk_nest(&n, |flat, ivars| seen.push((flat, ivars.to_vec())));
        assert_eq!(seen.len(), 12);
        assert_eq!(seen[0], (0, vec![0, 0]));
        assert_eq!(seen[5], (5, vec![1, 1]));
        assert_eq!(seen[11], (11, vec![2, 3]));
        for (flat, ivars) in &seen {
            assert_eq!(*ivars, n.ivars_of(*flat));
        }
    }

    #[test]
    fn walk_handles_strided_and_offset_loops() {
        let n = LoopNest {
            label: "n".into(),
            loops: vec![LoopDim {
                lower: 5,
                count: 3,
                step: -2,
            }],
            stmts: vec![],
            cycles_per_iter: 1.0,
        };
        let mut seen = Vec::new();
        walk_nest(&n, |_, iv| seen.push(iv[0]));
        assert_eq!(seen, vec![5, 3, 1]);
    }

    #[test]
    fn zero_trip_nest_never_calls_back() {
        let n = nest(&[4, 0]);
        let mut called = false;
        walk_nest(&n, |_, _| called = true);
        assert!(!called);
    }

    #[test]
    fn depth_zero_nest_runs_once() {
        let n = nest(&[]);
        let mut count = 0;
        walk_nest(&n, |flat, iv| {
            assert_eq!(flat, 0);
            assert!(iv.is_empty());
            count += 1;
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn large_walk_is_consistent() {
        let n = nest(&[100, 100, 10]);
        let mut count = 0u64;
        let mut last = None;
        walk_nest(&n, |f, iv| {
            count += 1;
            last = Some((f, iv.to_vec()));
        });
        assert_eq!(count, 100_000);
        assert_eq!(last, Some((99_999, vec![99, 99, 9])));
    }
}
