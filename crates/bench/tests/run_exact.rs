//! The acceptance gate for the run-compressed fast path: every Table 2
//! kernel × every scheme must produce a bitwise-identical `SimReport`
//! through `Session::run_compressed` and `Session::run`, and the
//! analytic generator must reproduce the walk's trace on every kernel
//! program, original and transformed.

use sdpm_bench::{config_for, parallel_map};
use sdpm_core::{Scheme, Session};
use sdpm_layout::DiskPool;
use sdpm_trace::{generate, generate_runs};
use sdpm_xform::Transform;

#[test]
fn run_compressed_matches_per_event_for_every_kernel_and_scheme() {
    for bench in sdpm_workloads::all_benchmarks() {
        let cfg = config_for(&bench);
        let mut fast = Session::new(&bench.program, &cfg);
        let mut slow = Session::new(&bench.program, &cfg);
        for &scheme in &Scheme::all() {
            let f = fast.run_compressed(scheme);
            let s = slow.run(scheme);
            let label = format!("{} / {}", bench.name, scheme.label());
            assert_eq!(
                f.sim_path,
                sdpm_sim::SimPath::RunCompressed,
                "{label}: fast path must actually take the run route"
            );
            assert_eq!(f, s, "{label}: reports must be identical");
            assert_eq!(
                f.exec_secs.to_bits(),
                s.exec_secs.to_bits(),
                "{label}: exec time must match bitwise"
            );
            assert_eq!(
                f.total_energy_j().to_bits(),
                s.total_energy_j().to_bits(),
                "{label}: energy must match bitwise"
            );
        }
    }
}

/// Equal reports do not prove equal traces: every kernel, original and
/// under each transform, must generate the walk's trace event for event.
#[test]
fn analytic_trace_matches_the_walk_on_every_program() {
    let mut programs = Vec::new();
    for bench in sdpm_workloads::all_benchmarks() {
        let pool = DiskPool::new(config_for(&bench).disks);
        let variants = Transform::all().map(|t| (t.label(), t.apply(&bench.program, pool)));
        for (label, program) in [("original", bench.program.clone())]
            .into_iter()
            .chain(variants)
        {
            programs.push((format!("{} {label}", bench.name), program, pool, bench.gen));
        }
    }
    assert_eq!(programs.len(), 30, "6 kernels x (original + 4 transforms)");
    parallel_map(&programs, |(label, program, pool, gen)| {
        let walked = generate(program, *pool, *gen);
        let analytic = generate_runs(program, *pool, *gen).lower();
        assert!(analytic.events == walked.events, "{label}: traces differ");
    });
}
