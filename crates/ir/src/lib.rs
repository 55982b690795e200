//! Affine loop-nest IR and access-pattern analysis.
//!
//! The paper's compiler component (built on SUIF) analyzes array-intensive
//! codes: perfectly-nested affine loops over disk-resident arrays. This
//! crate is the equivalent substrate: a small IR that captures exactly the
//! program structure those analyses consume —
//!
//! * [`expr`] — affine expressions over loop induction variables,
//! * [`nest`] — loop nests, statements, and array references,
//! * [`program`] — whole programs (arrays + nests + clock), with
//!   validation,
//! * [`walk`] — efficient iteration-space walking (odometer order),
//! * [`depend`] — statement dependence graph, strongly-connected
//!   components, and loop-distribution (fission) legality,
//! * [`conform`] — access-vs-storage conformance (innermost stride
//!   analysis), which drives the Fig. 12 layout transformation,
//! * [`pattern`] — per-disk activity intervals in iteration space, the raw
//!   material of the paper's Disk Access Pattern (DAP).
//!
//! The IR is deliberately concrete: analyses may walk the full iteration
//! space. The paper's benchmarks generate a few thousand block-level I/O
//! requests over tens of millions of iterations. A walk pays one affine
//! evaluation per reference per iteration: [`disk_activity`] takes about
//! 11.6 s over the six Table 2 kernels in a release build (ROADMAP item 3
//! plans a closed form).
//!
//! # Example
//!
//! ```
//! use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Program, Statement};
//! use sdpm_ir::{disk_activity, is_fissionable};
//! use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};
//!
//! // for i in 0..1024 { use(A[i]); }
//! let a = ArrayFile {
//!     name: "A".into(), dims: vec![1024], element_bytes: 8,
//!     order: StorageOrder::RowMajor,
//!     striping: Striping { start_disk: DiskId(0), stripe_factor: 2, stripe_bytes: 2048 },
//!     base_block: 0,
//! };
//! let nest = LoopNest {
//!     label: "scan".into(),
//!     loops: vec![LoopDim::simple(1024)],
//!     stmts: vec![Statement {
//!         label: "S1".into(),
//!         refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
//!     }],
//!     cycles_per_iter: 100.0,
//! };
//! let p = Program { name: "demo".into(), arrays: vec![a], nests: vec![nest],
//!                   clock_hz: Program::PAPER_CLOCK_HZ };
//! let pool = DiskPool::new(2);
//! assert!(p.validate(pool).is_ok());
//! assert!(!is_fissionable(&p.nests[0]));
//! // Disk 0 holds stripes 0 and 2 of A: two active intervals.
//! let activity = disk_activity(&p, pool);
//! assert_eq!(activity.nests[0].per_disk[0].len(), 2);
//! ```

#![forbid(unsafe_code)]
pub mod conform;
pub mod depend;
pub mod expr;
pub mod nest;
pub mod pattern;
pub mod pretty;
pub mod program;
pub mod walk;

pub use conform::{innermost_stride, ref_conforms};
pub use depend::{fission_groups, is_fissionable, DependenceGraph};
pub use expr::AffineExpr;
pub use nest::{ArrayRef, LoopDim, LoopNest, RefKind, Statement};
pub use pattern::{disk_activity, ActivityMap, IterInterval, NestActivity};
pub use pretty::{render_nest, render_program};
pub use program::{ArrayId, NestId, Program};
pub use walk::walk_nest;
