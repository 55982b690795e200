//! Per-disk activity in iteration space.
//!
//! For every nest and every disk, [`disk_activity`] computes the maximal
//! intervals of iterations during which the disk is touched by at least
//! one reference. This is the raw material of the paper's **Disk Access
//! Pattern (DAP)**: the DAP entries `<Nest k, iteration n, idle|active>`
//! are exactly the boundaries of these intervals (the conversion to
//! cycle-denominated idle periods and the break-even filtering live in
//! `sdpm-core`, which owns the power-management decision).

use crate::conform::linearized_ref;
use crate::expr::AffineExpr;
use crate::program::{NestId, Program};
use crate::walk::walk_nest;
use sdpm_layout::{DiskPool, DiskSet};
use serde::{Deserialize, Serialize};

/// Half-open iteration interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterInterval {
    pub start: u64,
    pub end: u64,
}

impl IterInterval {
    /// Number of iterations covered.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True if the interval covers nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Activity of all disks during one nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestActivity {
    /// Which nest this describes.
    pub nest: NestId,
    /// The nest's total iteration count.
    pub iter_count: u64,
    /// `per_disk[d]` = sorted, disjoint, maximal active intervals of disk
    /// `d` (indexed by disk id) in this nest's iteration space.
    pub per_disk: Vec<Vec<IterInterval>>,
}

impl NestActivity {
    /// Total active iterations of `disk` in this nest.
    #[must_use]
    pub fn active_iters(&self, disk: usize) -> u64 {
        self.per_disk[disk].iter().map(IterInterval::len).sum()
    }

    /// The set of disks touched at least once during this nest.
    #[must_use]
    pub fn disks_used(&self) -> DiskSet {
        self.per_disk
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(d, _)| sdpm_layout::DiskId(d as u32))
            .collect()
    }
}

/// Whole-program disk activity: one [`NestActivity`] per nest, in
/// execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityMap {
    /// Pool size the analysis ran against.
    pub pool_size: u32,
    /// Per-nest activity, in program execution order.
    pub nests: Vec<NestActivity>,
}

impl ActivityMap {
    /// The program-wide set of disks a nest uses.
    #[must_use]
    pub fn disks_used(&self, nest: NestId) -> DiskSet {
        self.nests[nest].disks_used()
    }
}

/// Computes per-disk activity intervals for every nest of `program`.
///
/// The walk visits every iteration and evaluates one pre-linearized
/// affine form per reference per iteration, so its cost is the nest's
/// iteration count times its reference count: over the six Table 2
/// kernels it takes about 11.6 s in a release build (mgrid 5.8 s,
/// wupwise 2.4 s, applu 1.7 s). ROADMAP item 3 plans a closed form.
#[must_use]
pub fn disk_activity(program: &Program, pool: DiskPool) -> ActivityMap {
    let nests = program
        .nests
        .iter()
        .enumerate()
        .map(|(ni, nest)| {
            // Pre-linearize every reference of the nest, carrying the
            // striping constants needed to go element -> disk.
            struct LinRef {
                lin: AffineExpr,
                element_bytes: u64,
                stripe_bytes: u64,
                stripe_factor: u64,
                start_disk: u32,
            }
            let linrefs: Vec<LinRef> = nest
                .stmts
                .iter()
                .flat_map(|s| s.refs.iter())
                .map(|r| {
                    let file = &program.arrays[r.array];
                    LinRef {
                        lin: linearized_ref(r, file, file.order),
                        element_bytes: file.element_bytes,
                        stripe_bytes: file.striping.stripe_bytes,
                        stripe_factor: u64::from(file.striping.stripe_factor),
                        start_disk: file.striping.start_disk.0,
                    }
                })
                .collect();
            let pool_n = pool.count();
            let mut per_disk: Vec<Vec<IterInterval>> = vec![Vec::new(); pool_n as usize];
            walk_nest(nest, |flat, ivars| {
                let mut touched = DiskSet::empty();
                for lr in &linrefs {
                    let elem = lr.lin.eval(ivars);
                    debug_assert!(elem >= 0, "validated programs index in bounds");
                    let byte = elem as u64 * lr.element_bytes;
                    let stripe = byte / lr.stripe_bytes;
                    let disk = (lr.start_disk + (stripe % lr.stripe_factor) as u32) % pool_n;
                    touched.insert(sdpm_layout::DiskId(disk));
                }
                for d in touched.iter() {
                    let list = &mut per_disk[d.0 as usize];
                    match list.last_mut() {
                        Some(last) if last.end == flat => last.end = flat + 1,
                        _ => list.push(IterInterval {
                            start: flat,
                            end: flat + 1,
                        }),
                    }
                }
            });
            NestActivity {
                nest: ni,
                iter_count: nest.iter_count(),
                per_disk,
            }
        })
        .collect();
    ActivityMap {
        pool_size: pool.count(),
        nests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, DiskId, StorageOrder, Striping};

    /// Fig. 2's setting: U1 of 4S bytes striped (0,4,S), U2 of 2S bytes
    /// striped (2,2,S); first nest reads U1[i] and U2[i] for i in 0..2S
    /// elements.
    fn figure2_program() -> (Program, DiskPool) {
        let s_bytes = 1024u64;
        let elems_per_stripe = s_bytes / 8;
        let u1 = ArrayFile {
            name: "U1".into(),
            dims: vec![4 * elems_per_stripe],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: s_bytes,
            },
            base_block: 0,
        };
        let u2 = ArrayFile {
            name: "U2".into(),
            dims: vec![2 * elems_per_stripe],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(2),
                stripe_factor: 1,
                stripe_bytes: s_bytes,
            },
            base_block: 0,
        };
        let nest = LoopNest {
            label: "nest1".into(),
            loops: vec![LoopDim::simple(2 * elems_per_stripe)],
            stmts: vec![Statement {
                label: "S1".into(),
                refs: vec![
                    ArrayRef::read(0, vec![AffineExpr::var(1, 0)]),
                    ArrayRef::read(1, vec![AffineExpr::var(1, 0)]),
                ],
            }],
            cycles_per_iter: 100.0,
        };
        let p = Program {
            name: "fig2".into(),
            arrays: vec![u1, u2],
            nests: vec![nest],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let pool = DiskPool::new(4);
        p.validate(pool).unwrap();
        (p, pool)
    }

    #[test]
    fn figure2_daps_match_paper() {
        let (p, pool) = figure2_program();
        let am = disk_activity(&p, pool);
        let n = &am.nests[0];
        let epi = 128u64; // elements per stripe
                          // Disk 0: active first stripe of U1 only.
        assert_eq!(n.per_disk[0], vec![IterInterval { start: 0, end: epi }]);
        // Disk 1: active during U1's second stripe.
        assert_eq!(
            n.per_disk[1],
            vec![IterInterval {
                start: epi,
                end: 2 * epi
            }]
        );
        // Disk 2: U2 entirely -> active the whole nest.
        assert_eq!(
            n.per_disk[2],
            vec![IterInterval {
                start: 0,
                end: 2 * epi
            }]
        );
        // Disk 3: never touched (idle for the whole program), the paper's
        // example DAP for disk3.
        assert!(n.per_disk[3].is_empty());
    }

    #[test]
    fn disks_used_reflects_activity() {
        let (p, pool) = figure2_program();
        let am = disk_activity(&p, pool);
        let used = am.disks_used(0);
        assert_eq!(used.len(), 3);
        assert!(!used.contains(DiskId(3)));
    }

    #[test]
    fn active_iters_counts_interval_lengths() {
        let (p, pool) = figure2_program();
        let am = disk_activity(&p, pool);
        assert_eq!(am.nests[0].active_iters(0), 128);
        assert_eq!(am.nests[0].active_iters(2), 256);
        assert_eq!(am.nests[0].active_iters(3), 0);
    }

    #[test]
    fn intervals_are_sorted_disjoint_and_maximal() {
        let (p, pool) = figure2_program();
        let am = disk_activity(&p, pool);
        for nest in &am.nests {
            for list in &nest.per_disk {
                for w in list.windows(2) {
                    assert!(
                        w[0].end < w[1].start,
                        "adjacent intervals must be separated (maximality)"
                    );
                }
                for iv in list {
                    assert!(!iv.is_empty());
                    assert!(iv.end <= nest.iter_count);
                }
            }
        }
    }

    #[test]
    fn round_robin_reuse_produces_alternating_intervals() {
        // One array striped over 2 disks, 2 stripes each: disk0 active on
        // stripes 0 and 2.
        let epi = 16u64;
        let a = ArrayFile {
            name: "A".into(),
            dims: vec![4 * epi],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 2,
                stripe_bytes: epi * 8,
            },
            base_block: 0,
        };
        let p = Program {
            name: "alt".into(),
            arrays: vec![a],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(4 * epi)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 1.0,
            }],
            clock_hz: 1.0e9,
        };
        let pool = DiskPool::new(2);
        p.validate(pool).unwrap();
        let am = disk_activity(&p, pool);
        assert_eq!(
            am.nests[0].per_disk[0],
            vec![
                IterInterval { start: 0, end: epi },
                IterInterval {
                    start: 2 * epi,
                    end: 3 * epi
                }
            ]
        );
        assert_eq!(
            am.nests[0].per_disk[1],
            vec![
                IterInterval {
                    start: epi,
                    end: 2 * epi
                },
                IterInterval {
                    start: 3 * epi,
                    end: 4 * epi
                }
            ]
        );
    }
}
