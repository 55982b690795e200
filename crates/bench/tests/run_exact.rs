//! The acceptance gate for the run-compressed fast path: every Table 2
//! kernel × every scheme must produce a bitwise-identical `SimReport`
//! through `Session::run_compressed` and `Session::run`, so must random
//! programs, and the generator must reproduce the spec walk's trace on
//! every kernel program, original and transformed, and on the synthetic
//! programs in use. The session's one-pass oracles, replaying the
//! schedules it keeps, must match the engine's own two-pass oracles on
//! every kernel.

#[path = "../../trace/tests/support/mod.rs"]
mod support;

use proptest::prelude::*;
use sdpm_bench::{config_for, parallel_map};
use sdpm_core::{PipelineConfig, Scheme, Session};
use sdpm_fault::{FaultConfig, FaultPlan};
use sdpm_ir::Program;
use sdpm_layout::DiskPool;
use sdpm_sim::{oracle, Engine, Policy, SimPath, SimReport};
use sdpm_trace::generate;
use sdpm_workloads::synth::{blocked_matmul, checkpoint_loop, out_of_core_stencil};
use sdpm_xform::Transform;
use support::{random_program, spec_walk};

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
                SimPath::RunCompressed,
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

/// The session replays ITPM/IDRPM schedules built once from the report of
/// its first clean Base pass and kept; a standalone oracle engine plays
/// its own clean Base pass first. On every kernel, and on a checkpointing
/// program whose Base gaps pass the TPM break-even (the kernels' do not,
/// so their ITPM schedules are empty), the two must agree bit for bit,
/// whichever run fills the session's Base report: `run(Base)`,
/// the oracle itself on a fresh session, or the oracle after a faulted
/// Base run, which must not fill it. A faulted oracle run must match the
/// standalone engine with the same plan: the schedule comes from the
/// clean gaps, the faults hit the replay. On one session, each oracle run
/// twice, between a faulted Base run, a faulted IDRPM run and (with the
/// `obs` feature) a recorded run, must replay its own kept schedule,
/// never the other oracle's or one built from a faulted report.
#[test]
fn session_oracles_match_the_standalone_two_pass_engine() {
    let plan = FaultPlan::new(FaultConfig::uniform(11, 0.05));
    let mut programs: Vec<(String, Program, PipelineConfig)> = sdpm_workloads::all_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), b.program.clone(), config_for(&b)))
        .collect();
    programs.push((
        "checkpoint 2/12/60".to_string(),
        checkpoint_loop(2, 12, 60.0),
        PipelineConfig::default(),
    ));
    for (name, program, cfg) in &programs {
        let mut reference = Session::new(program, cfg);
        let clean_base = reference.run(Scheme::Base);
        if name.starts_with("checkpoint") {
            let schedule = oracle::ideal_tpm_schedule(&clean_base, &cfg.params);
            assert!(
                schedule.iter().any(|disk| !disk.is_empty()),
                "{name}: the ITPM schedule must not be empty"
            );
        }
        let pool = reference.pool();
        let trace = reference.base_trace();
        let standalone = |policy: &Policy, faults: Option<&FaultPlan>| {
            Engine::new(cfg.params.clone(), pool, policy.clone())
                .faults(faults)
                .events(trace)
                .expect("standalone oracle run")
        };
        let same = |got: &SimReport, want: &SimReport, order: &str| {
            let label = format!("{name} / {} {order}", want.policy);
            // `assert!`, not `assert_eq!`: a kernel report's `Debug`
            // text runs to megabytes.
            assert!(got == want, "{label}: reports differ");
            assert_eq!(
                got.exec_secs.to_bits(),
                want.exec_secs.to_bits(),
                "{label}: exec time differs"
            );
            assert_eq!(
                got.total_energy_j().to_bits(),
                want.total_energy_j().to_bits(),
                "{label}: energy differs"
            );
        };
        let itpm = standalone(&Policy::IdealTpm, None);
        let idrpm = standalone(&Policy::IdealDrpm, None);
        for (scheme, policy, want) in [
            (Scheme::ITpm, Policy::IdealTpm, &itpm),
            (Scheme::IDrpm, Policy::IdealDrpm, &idrpm),
        ] {
            let mut after_base = Session::new(program, cfg);
            let _ = after_base.run(Scheme::Base);
            same(&after_base.run(scheme), want, "after run(Base)");

            let mut fresh = Session::new(program, cfg);
            same(&fresh.run(scheme), want, "first on a fresh session");

            let mut faulted = Session::new(program, cfg);
            let faulted_base = faulted
                .run_with_faults(Scheme::Base, Some(&plan))
                .expect("faulted Base run degrades gracefully");
            assert!(
                faulted_base != clean_base,
                "{name}: the plan must perturb Base"
            );
            same(&faulted.run(scheme), want, "after a faulted Base run");
            let faulted_oracle = faulted
                .run_with_faults(scheme, Some(&plan))
                .expect("faulted oracle run degrades gracefully");
            same(
                &faulted_oracle,
                &standalone(&policy, Some(&plan)),
                "with faults",
            );
        }

        // Both schedules are kept before the faulted runs, and both are
        // read after them. ITPM's is empty on the six kernels, so there
        // IDRPM's carries the check; the checkpointing program's is not.
        let mut kept = Session::new(program, cfg);
        same(&kept.run(Scheme::IDrpm), &idrpm, "kept: first IDRPM");
        same(&kept.run(Scheme::ITpm), &itpm, "kept: first ITPM");
        let _ = kept
            .run_with_faults(Scheme::Base, Some(&plan))
            .expect("faulted Base run degrades gracefully");
        let faulted_idrpm = kept
            .run_with_faults(Scheme::IDrpm, Some(&plan))
            .expect("faulted oracle run degrades gracefully");
        same(
            &faulted_idrpm,
            &standalone(&Policy::IdealDrpm, Some(&plan)),
            "kept: faulted IDRPM",
        );
        #[cfg(feature = "obs")]
        {
            let rec = sdpm_obs::MetricsRecorder::new();
            same(
                &kept.run_with_recorder(Scheme::IDrpm, &rec),
                &idrpm,
                "kept: recorded IDRPM",
            );
        }
        same(&kept.run(Scheme::ITpm), &itpm, "kept: second ITPM");
        same(&kept.run(Scheme::IDrpm), &idrpm, "kept: second IDRPM");
    }
}

/// Equal reports do not prove equal traces: every kernel, original and
/// under each transform, and every synthetic program at the parameters
/// `repro` and the examples run it with, must generate the spec walk's
/// trace event for event.
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
    let cfg = PipelineConfig::default();
    let pool = DiskPool::new(cfg.disks);
    for (label, program) in [
        ("checkpoint 2/12/60", checkpoint_loop(2, 12, 60.0)),
        ("checkpoint 16/6/6", checkpoint_loop(16, 6, 6.0)),
        ("stencil 32/6/4", out_of_core_stencil(32, 6, 4.0)),
        ("matmul 21/6", blocked_matmul(21, 6.0)),
    ] {
        programs.push((label.to_string(), program, pool, cfg.gen));
    }
    parallel_map(&programs, |(label, program, pool, gen)| {
        let analytic = generate(program, *pool, *gen);
        assert!(
            analytic.events == spec_walk(program, *pool, *gen),
            "{label}: traces differ"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random programs simulate to bit-identical reports on the per-event
    /// and run paths under all seven schemes. Each nest's iterations take
    /// 1 µs, 0.1 s or 10 s, so gaps fall on both sides of the DRPM drift
    /// step and the TPM break-even.
    #[test]
    fn per_event_and_run_paths_agree_on_random_programs(
        seed in any::<u64>(),
        speeds in proptest::collection::vec(0usize..3, 3),
    ) {
        let (mut program, gen) = random_program(seed);
        for (nest, &speed) in program.nests.iter_mut().zip(&speeds) {
            nest.cycles_per_iter = [750.0, 7.5e7, 7.5e9][speed];
        }
        let cfg = PipelineConfig {
            disks: 4,
            gen,
            ..PipelineConfig::default()
        };
        let mut per_event = Session::new(&program, &cfg);
        let mut runs = Session::new(&program, &cfg);
        for scheme in Scheme::all() {
            let slow = per_event.run(scheme);
            let mut fast = runs.run_compressed(scheme);
            prop_assert_eq!(fast.sim_path, SimPath::RunCompressed);
            fast.sim_path = slow.sim_path;
            prop_assert_eq!(
                format!("{fast:?}"),
                format!("{slow:?}"),
                "{} {}",
                program.name,
                scheme.label()
            );
        }
    }
}
