//! The acceptance gate for the run-compressed fast path: every Table 2
//! kernel × every scheme must produce a bitwise-identical `SimReport`
//! through `Session::run_compressed` and `Session::run`, so must random
//! programs, and the generator must reproduce the spec walk's trace on
//! every kernel program, original and transformed, and on the synthetic
//! programs in use. The session's one-pass oracles, replaying the
//! schedules it keeps, must match the engine's own two-pass oracles on
//! every kernel. The session's compiler-managed runs, which stream the
//! base trace woven with their directive plan into the engine, must match
//! the engine on the woven trace, and that trace must match a reference
//! weave, on every kernel at four noise seeds and on random programs.

#[path = "../../trace/tests/support/mod.rs"]
mod support;
#[path = "../../core/tests/support/weave.rs"]
mod weave;

use proptest::prelude::*;
use sdpm_bench::{config_for, parallel_map};
use sdpm_core::{plan_directives, CmMode, PipelineConfig, Scheme, Session};
use sdpm_disk::RpmLadder;
use sdpm_fault::{FaultConfig, FaultPlan};
use sdpm_ir::Program;
use sdpm_layout::DiskPool;
use sdpm_sim::{oracle, DirectiveConfig, Engine, Policy, SimPath, SimReport};
use sdpm_trace::{generate, Trace};
use sdpm_workloads::synth::{blocked_matmul, checkpoint_loop, out_of_core_stencil};
use sdpm_xform::Transform;
use support::{random_program, spec_walk};
use weave::reference_weave;

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

/// The CM scheme that replays `mode`'s plan.
fn cm_scheme(mode: CmMode) -> Scheme {
    match mode {
        CmMode::Tpm => Scheme::CmTpm,
        CmMode::Drpm => Scheme::CmDrpm,
    }
}

/// A writer that keeps only the length and an FNV-1a hash of its bytes,
/// so two long JSONL streams compare without being held.
struct Digest(u64, u64);

impl Digest {
    fn new() -> Self {
        Digest(0, 0xcbf2_9ce4_8422_2325)
    }
}

impl std::io::Write for Digest {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.1 = (self.1 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The engine a CM scheme of `cfg` runs on, with `faults` attached.
fn directive_engine<'r>(
    cfg: &PipelineConfig,
    pool: DiskPool,
    faults: Option<&'r FaultPlan>,
) -> Engine<'r> {
    let policy = Policy::Directive(DirectiveConfig {
        overhead_secs: cfg.overhead_secs,
    });
    Engine::new(cfg.params.clone(), pool, policy).faults(faults)
}

/// Checks `mode`'s compiler-managed runs on a fresh session of `program`
/// against the woven trace they replay in place: the session's woven
/// trace must equal the reference weave of the plan's pins, and each run
/// (clean, under `faults`, and recorded) must equal `Engine::events` on
/// that trace under the Directive policy with the same options, whole
/// report and JSONL stream. The runs come before the woven trace is
/// built, and once more after. Returns the plan's directive count.
fn check_in_place_replay(
    name: &str,
    program: &Program,
    cfg: &PipelineConfig,
    mode: CmMode,
    faults: &FaultPlan,
) -> usize {
    let scheme = cm_scheme(mode);
    let label = format!("{name} / {}", scheme.label());
    let mut s = Session::new(program, cfg);
    let clean = s.run(scheme);
    let faulted = s
        .run_with_faults(scheme, Some(faults))
        .expect("faulted CM run degrades gracefully");
    #[cfg(feature = "obs")]
    let recorded = {
        let rec = sdpm_obs::JsonlRecorder::new(Digest::new());
        let report = s.run_with_recorder(scheme, &rec);
        let digest = rec.into_inner();
        (report, digest.0, digest.1)
    };
    let base = s.base_trace().clone();
    let out = s.instrumented(mode).clone();
    let plan = plan_directives(&base, &cfg.params, &cfg.noise, mode, cfg.overhead_secs);
    let max = RpmLadder::new(&cfg.params).max_level();
    assert!(
        out.trace.events == reference_weave(&base, plan.pins(), max),
        "{label}: the woven trace differs from the reference weave"
    );
    assert_eq!(out.inserted, plan.pins().len(), "{label}");
    let pool = s.pool();
    let engine = |faults| directive_engine(cfg, pool, faults);
    let woven = |engine: Engine<'_>, trace: &Trace| {
        let mut r = engine.events(trace).expect("woven trace replays");
        r.policy = scheme.label().to_string();
        r
    };
    let want = woven(engine(None), &out.trace);
    // `assert!`, not `assert_eq!`: a kernel report's `Debug` text runs to
    // megabytes.
    assert!(clean == want, "{label}: clean run differs");
    assert_eq!(
        clean.exec_secs.to_bits(),
        want.exec_secs.to_bits(),
        "{label}"
    );
    assert_eq!(
        clean.total_energy_j().to_bits(),
        want.total_energy_j().to_bits(),
        "{label}"
    );
    assert!(
        faulted == woven(engine(Some(faults)), &out.trace),
        "{label}: faulted run differs"
    );
    assert!(
        s.run(scheme) == want,
        "{label}: run after the weave differs"
    );
    #[cfg(feature = "obs")]
    {
        use sdpm_obs::{Event, Recorder};
        let rec = sdpm_obs::JsonlRecorder::new(Digest::new());
        rec.record(&Event::PhaseStart {
            phase: "simulation",
        });
        let report = woven(engine(None).recorder(&rec), &out.trace);
        rec.record(&Event::PhaseEnd {
            phase: "simulation",
        });
        let digest = rec.into_inner();
        assert!(recorded.0 == report, "{label}: recorded run differs");
        assert_eq!(
            (recorded.1, recorded.2),
            (digest.0, digest.1),
            "{label}: JSONL streams differ"
        );
    }
    plan.pins().len()
}

/// On every kernel at its own noise seed and three others, and on a
/// checkpointing program whose CMTPM plan is not empty (the kernels' are
/// at seed 0), both CM schemes replay their plans in place exactly as the
/// engine plays the woven trace.
#[test]
fn cm_runs_match_the_engine_on_the_woven_trace() {
    let faults = FaultPlan::new(FaultConfig::uniform(11, 0.05));
    let mut cases: Vec<(String, Program, PipelineConfig)> = Vec::new();
    for bench in sdpm_workloads::all_benchmarks() {
        for seed in [None, Some(3), Some(17), Some(101)] {
            let mut cfg = config_for(&bench);
            if let Some(seed) = seed {
                cfg.noise.seed = seed;
            }
            let name = format!("{} seed {}", bench.name, cfg.noise.seed);
            cases.push((name, bench.program.clone(), cfg));
        }
    }
    cases.push((
        "checkpoint 2/12/60".to_string(),
        checkpoint_loop(2, 12, 60.0),
        PipelineConfig::default(),
    ));
    let directives = parallel_map(&cases, |(name, program, cfg)| {
        [CmMode::Tpm, CmMode::Drpm]
            .map(|mode| check_in_place_replay(name, program, cfg, mode, &faults))
    });
    let checkpoint = directives.last().expect("cases");
    assert!(
        checkpoint[0] > 0,
        "the checkpoint CMTPM plan must not be empty"
    );
    assert!(
        directives.iter().all(|d| d[1] > 0),
        "every CMDRPM plan must pin calls"
    );
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

    /// On random programs, with nests of 1 µs, 0.1 s or 10 s iterations
    /// so plans pin both kinds of calls, both CM schemes replay their
    /// plans in place exactly as the engine plays the woven trace.
    #[test]
    fn cm_runs_replay_plans_in_place_on_random_programs(
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
        let faults = FaultPlan::new(FaultConfig::uniform(seed, 0.1));
        for mode in [CmMode::Tpm, CmMode::Drpm] {
            check_in_place_replay(&program.name, &program, &cfg, mode, &faults);
        }
    }
}
