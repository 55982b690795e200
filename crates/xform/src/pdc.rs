//! Popular Data Concentration (PDC) baseline.
//!
//! The paper cites Pinheiro & Bianchini's PDC [16] as the third family of
//! prior disk power management: instead of changing disk states, migrate
//! **popular data onto few disks** so the remaining disks see long idle
//! stretches and can power down. We implement the layout-level essence:
//! rank arrays by their access volume, then pack them disk by disk in
//! popularity order (popular arrays share the first disks; cold arrays
//! land on the last), each array stored unstriped on its assigned disk.
//!
//! PDC is *data placement*, not code transformation — it needs no source
//! access, which is why the paper classes it with the reactive schemes.
//! Its cost is the serialization of hot data onto few spindles, which
//! open-loop simulation (a single-tenant `sdpm_sim::simulate_mix` run)
//! exposes as response-time degradation.

use sdpm_ir::Program;
use sdpm_layout::{DiskId, DiskPool, Striping};
use serde::{Deserialize, Serialize};

/// Outcome of the PDC placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PdcOutcome {
    /// The re-laid-out program.
    pub program: Program,
    /// Per-array: `(array, assigned disk, accessed bytes)` in placement
    /// order (most popular first).
    pub placement: Vec<PdcPlacement>,
}

/// One array's PDC placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PdcPlacement {
    /// Array id in the program's symbol table.
    pub array: usize,
    /// Disk the whole array was concentrated onto.
    pub disk: DiskId,
    /// Total bytes the program's nests read/write in this array (the
    /// popularity metric).
    pub accessed_bytes: u64,
}

/// Bytes each array is accessed for across the whole program (statically:
/// per-reference iteration counts times the element size).
#[must_use]
pub fn access_volume(program: &Program) -> Vec<u64> {
    let mut vol = vec![0u64; program.arrays.len()];
    for nest in &program.nests {
        let iters = nest.iter_count();
        for stmt in &nest.stmts {
            for r in &stmt.refs {
                vol[r.array] =
                    vol[r.array].saturating_add(iters * program.arrays[r.array].element_bytes);
            }
        }
    }
    vol
}

/// Applies PDC: arrays sorted by descending access volume are packed onto
/// disks in order, filling each disk up to roughly `1/pool` of the total
/// footprint before moving to the next. Every array ends up unstriped
/// (`stripe factor 1`) on one disk, stripe size equal to its own length.
#[must_use]
pub fn pdc_layout(program: &Program, pool: DiskPool) -> PdcOutcome {
    let vol = access_volume(program);
    let mut order: Vec<usize> = (0..program.arrays.len()).collect();
    order.sort_by_key(|&a| std::cmp::Reverse(vol[a]));

    let total_bytes: u64 = program.arrays.iter().map(|a| a.total_bytes()).sum();
    let per_disk_budget = total_bytes.div_ceil(u64::from(pool.count())).max(1);

    let mut out = program.clone();
    let mut placement = Vec::with_capacity(order.len());
    let mut disk = 0u32;
    let mut filled = 0u64;
    for a in order {
        let bytes = program.arrays[a].total_bytes();
        if filled > 0 && filled + bytes > per_disk_budget && disk + 1 < pool.count() {
            disk += 1;
            filled = 0;
        }
        filled += bytes;
        out.arrays[a].striping = Striping {
            start_disk: DiskId(disk),
            stripe_factor: 1,
            stripe_bytes: bytes.max(1),
        };
        placement.push(PdcPlacement {
            array: a,
            disk: DiskId(disk),
            accessed_bytes: vol[a],
        });
    }
    PdcOutcome {
        program: out,
        placement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, StorageOrder};

    fn file(name: &str, elems: u64) -> ArrayFile {
        ArrayFile {
            name: name.into(),
            dims: vec![elems],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping::default_paper(),
            base_block: 0,
        }
    }

    /// Three equal arrays; `hot` is scanned 4x, `warm` 2x, `cold` once.
    fn program() -> Program {
        let scan = |a: usize, sweeps: u64| LoopNest {
            label: format!("scan{a}x{sweeps}"),
            loops: vec![LoopDim::simple(1024 * sweeps)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(
                    a,
                    // Wrap within the array by scaling: sweeps * 1024
                    // iterations over a 1024-element array via i % n is
                    // not affine, so sweep via separate nests instead.
                    vec![AffineExpr::var(1, 0)],
                )],
            }],
            cycles_per_iter: 10.0,
        };
        // Use distinct nests per sweep to stay affine.
        let mut nests = Vec::new();
        for _ in 0..4 {
            nests.push(LoopNest {
                loops: vec![LoopDim::simple(1024)],
                ..scan(0, 1)
            });
        }
        for _ in 0..2 {
            nests.push(LoopNest {
                loops: vec![LoopDim::simple(1024)],
                ..scan(1, 1)
            });
        }
        nests.push(LoopNest {
            loops: vec![LoopDim::simple(1024)],
            ..scan(2, 1)
        });
        // Fix array ids per nest group.
        for (i, n) in nests.iter_mut().enumerate() {
            let a = if i < 4 {
                0
            } else if i < 6 {
                1
            } else {
                2
            };
            n.stmts[0].refs[0].array = a;
        }
        Program {
            name: "pdc".into(),
            arrays: vec![file("hot", 4096), file("warm", 4096), file("cold", 4096)],
            nests,
            clock_hz: 1e9,
        }
    }

    #[test]
    fn access_volume_ranks_by_sweeps() {
        let p = program();
        let v = access_volume(&p);
        assert!(v[0] > v[1] && v[1] > v[2]);
        assert_eq!(v[0], 4 * 1024 * 8);
    }

    #[test]
    fn pdc_places_popular_arrays_first_and_unstripes() {
        let p = program();
        let pool = DiskPool::new(8);
        let out = pdc_layout(&p, pool);
        out.program.validate(pool).unwrap();
        assert_eq!(out.placement[0].array, 0, "hot array placed first");
        for a in &out.program.arrays {
            assert_eq!(a.striping.stripe_factor, 1);
        }
        // Hot array on the first disk.
        assert_eq!(out.program.arrays[0].striping.start_disk, DiskId(0));
    }

    #[test]
    fn pdc_spreads_by_footprint_budget() {
        let p = program();
        // Pool of 3: each disk's budget ~= one array.
        let out = pdc_layout(&p, DiskPool::new(3));
        let disks: Vec<u32> = out.placement.iter().map(|pl| pl.disk.0).collect();
        assert_eq!(disks, vec![0, 1, 2], "one array per disk at this budget");
    }

    #[test]
    fn pdc_on_single_disk_pool_stacks_everything() {
        let p = program();
        let out = pdc_layout(&p, DiskPool::new(1));
        assert!(out
            .program
            .arrays
            .iter()
            .all(|a| a.striping.start_disk == DiskId(0)));
    }
}
