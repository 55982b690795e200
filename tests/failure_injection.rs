//! Failure injection: malformed inputs must be rejected loudly or
//! absorbed gracefully (misfire accounting), never silently corrupt a
//! run.

use sdpm_disk::{ultrastar36z15, RpmLevel};
use sdpm_fault::{FaultConfig, FaultPlan};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_sim::{simulate, DirectiveConfig, Engine, Policy, SimError};
use sdpm_trace::{
    AppEvent, IoRequest, IoTemplate, PowerAction, REvent, ReqKind, Run, RunTrace, Trace,
};

fn io(disk: u32, size: u64) -> AppEvent {
    AppEvent::Io(IoRequest {
        disk: DiskId(disk),
        start_block: 0,
        size_bytes: size,
        kind: ReqKind::Read,
        sequential: false,
        nest: 0,
        iter: 0,
    })
}

fn compute(secs: f64) -> AppEvent {
    AppEvent::Compute {
        nest: 0,
        first_iter: 0,
        iters: 1,
        secs,
    }
}

#[test]
fn trace_with_out_of_pool_disk_is_rejected() {
    let t = Trace {
        name: "bad".into(),
        pool_size: 2,
        events: vec![io(5, 4096)],
    };
    assert!(t.validate().is_err());
}

#[test]
#[should_panic(expected = "valid trace")]
fn simulator_refuses_invalid_traces() {
    let t = Trace {
        name: "bad".into(),
        pool_size: 2,
        events: vec![io(5, 4096)],
    };
    let _ = simulate(&t, &ultrastar36z15(), DiskPool::new(2), &Policy::Base);
}

#[test]
#[should_panic(expected = "pool")]
fn simulator_refuses_pool_mismatch() {
    let t = Trace {
        name: "mismatch".into(),
        pool_size: 4,
        events: vec![compute(1.0)],
    };
    let _ = simulate(&t, &ultrastar36z15(), DiskPool::new(8), &Policy::Base);
}

#[test]
fn zero_byte_requests_are_rejected_by_validation() {
    let t = Trace {
        name: "zero".into(),
        pool_size: 2,
        events: vec![io(0, 0)],
    };
    assert!(t.validate().is_err());
}

#[test]
fn hostile_directive_stream_is_absorbed_as_misfires() {
    // Spin up a spinning disk, set an off-ladder level, spin down twice:
    // all misfires, none fatal, energy ledger still balances.
    let t = Trace {
        name: "hostile".into(),
        pool_size: 2,
        events: vec![
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinUp,
            },
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SetRpm(RpmLevel(200)),
            },
            AppEvent::Power {
                disk: DiskId(1),
                action: PowerAction::SpinDown,
            },
            AppEvent::Power {
                disk: DiskId(1),
                action: PowerAction::SpinDown,
            },
            compute(5.0),
            io(1, 4096),
        ],
    };
    let r = simulate(
        &t,
        &ultrastar36z15(),
        DiskPool::new(2),
        &Policy::Directive(DirectiveConfig::default()),
    );
    assert_eq!(
        r.misfire_causes.total(),
        3,
        "three of four calls are illegal"
    );
    assert_eq!(r.misfire_causes.spin_up_rejected, 1);
    assert_eq!(r.misfire_causes.off_ladder_level, 1);
    assert_eq!(r.misfire_causes.spin_down_rejected, 1);
    for d in &r.per_disk {
        assert!((d.energy.total_secs() - r.exec_secs).abs() < 1e-3);
    }
    // Disk 1 was legally spun down once and must pay the wake-up.
    assert!(r.stall_secs > 5.0);
}

#[test]
fn empty_trace_simulates_to_zero_time() {
    let t = Trace {
        name: "empty".into(),
        pool_size: 2,
        events: vec![],
    };
    let r = simulate(&t, &ultrastar36z15(), DiskPool::new(2), &Policy::Base);
    assert_eq!(r.exec_secs, 0.0);
    assert_eq!(r.requests, 0);
    assert_eq!(r.total_energy_j(), 0.0);
}

#[test]
fn malformed_stream_surfaces_typed_error_not_panic() {
    // The engine does not re-validate its input (callers validate once),
    // so an out-of-pool disk must surface from inside the loop as a typed
    // error, not a panic or an index OOB.
    let t = Trace {
        name: "bad-stream".into(),
        pool_size: 2,
        events: vec![compute(1.0), io(5, 4096)],
    };
    let err = Engine::new(ultrastar36z15(), DiskPool::new(2), Policy::Base)
        .events(&t)
        .expect_err("out-of-pool disk must be rejected");
    assert!(
        matches!(err, SimError::DiskOutOfRange { disk: 5, pool: 2 }),
        "unexpected error: {err}"
    );
}

#[test]
fn invalid_trace_surfaces_typed_error_not_panic() {
    // The same trace `simulator_refuses_invalid_traces` panics on, fed to
    // the fallible engine: the oracle's Base pass meets the bad disk.
    let t = Trace {
        name: "bad".into(),
        pool_size: 2,
        events: vec![io(5, 4096)],
    };
    let err = Engine::new(ultrastar36z15(), DiskPool::new(2), Policy::IdealTpm)
        .events(&t)
        .expect_err("invalid trace must be typed");
    assert!(
        matches!(err, SimError::DiskOutOfRange { disk: 5, pool: 2 }),
        "got: {err}"
    );

    let mismatch = Trace {
        name: "mismatch".into(),
        pool_size: 4,
        events: vec![compute(1.0)],
    };
    let err = Engine::new(ultrastar36z15(), DiskPool::new(8), Policy::Base)
        .events(&mismatch)
        .expect_err("pool mismatch must be typed");
    assert!(matches!(err, SimError::PoolMismatch { .. }), "got: {err}");

    let mut bad_params = ultrastar36z15();
    bad_params.idle_power_w = 1.0;
    let err = Engine::new(bad_params, DiskPool::new(4), Policy::Base)
        .events(&mismatch)
        .expect_err("invalid parameters must be typed");
    assert!(matches!(err, SimError::InvalidParams(_)), "got: {err}");
}

#[test]
fn malformed_run_record_surfaces_typed_error_not_panic() {
    // rotation = 0 would divide by zero in the period math; the engine
    // must reject the record before touching it.
    let rt = RunTrace {
        name: "bad-run".into(),
        pool_size: 2,
        events: vec![REvent::Run(Run {
            count: 3,
            nest: 0,
            first_iter: 0,
            iters_per_rep: 1,
            secs_per_rep: 1.0,
            rotation: 0,
            reqs: vec![],
        })],
    };
    let err = Engine::new(ultrastar36z15(), DiskPool::new(2), Policy::Base)
        .runs(&rt)
        .expect_err("zero-rotation run must be rejected");
    assert!(matches!(err, SimError::InvalidRun(_)), "got: {err}");

    // A run trace built for another pool size.
    let mismatch = RunTrace {
        name: "mismatch".into(),
        pool_size: 4,
        events: vec![REvent::Event(compute(1.0))],
    };
    let err = Engine::new(ultrastar36z15(), DiskPool::new(2), Policy::Base)
        .runs(&mismatch)
        .expect_err("pool mismatch must be typed");
    assert!(
        matches!(err, SimError::PoolMismatch { trace: 4, pool: 2 }),
        "got: {err}"
    );

    // A valid one-template run whose template names a disk outside the
    // pool, on the fast path (Base) and through the oracle's Base pass.
    let AppEvent::Io(req) = io(5, 4096) else {
        unreachable!("io() builds a request")
    };
    let out_of_pool = RunTrace {
        name: "out-of-pool".into(),
        pool_size: 2,
        events: vec![REvent::Run(Run {
            count: 3,
            nest: 0,
            first_iter: 0,
            iters_per_rep: 1,
            secs_per_rep: 1.0,
            rotation: 1,
            reqs: vec![IoTemplate {
                io: req,
                block_stride: 8,
            }],
        })],
    };
    for policy in [Policy::Base, Policy::IdealDrpm] {
        let err = Engine::new(ultrastar36z15(), DiskPool::new(2), policy)
            .runs(&out_of_pool)
            .expect_err("out-of-pool template must be rejected");
        assert!(
            matches!(err, SimError::DiskOutOfRange { disk: 5, pool: 2 }),
            "got: {err}"
        );
    }
}

#[test]
fn faults_disabled_is_bit_exact_across_data_paths() {
    let bench = sdpm_workloads::swim();
    let cfg = sdpm_bench::config_for(&bench);
    let pool = DiskPool::new(cfg.disks);
    let params = cfg.params;
    let trace = sdpm_trace::generate(&bench.program, pool, bench.gen);
    let runs = sdpm_trace::compress(&trace);
    for policy in [Policy::IdealDrpm, Policy::Base] {
        let clean = simulate(&trace, &params, pool, &policy);
        let engine = Engine::new(params.clone(), pool, policy).faults(None);
        let per_event = engine
            .events(&trace)
            .expect("fault-free per-event run succeeds");
        let compressed = engine
            .runs(&runs)
            .expect("fault-free run-compressed run succeeds");
        assert_eq!(clean, per_event, "per-event path drifted with faults off");
        assert_eq!(
            clean.total_energy_j().to_bits(),
            per_event.total_energy_j().to_bits()
        );
        assert_eq!(
            clean.total_energy_j().to_bits(),
            compressed.total_energy_j().to_bits(),
            "run-compressed path drifted with faults off"
        );
        assert_eq!(clean.exec_secs.to_bits(), compressed.exec_secs.to_bits());
        assert_eq!(clean.faults.total(), 0);
    }
}

#[test]
fn injected_faults_degrade_gracefully_and_deterministically() {
    let bench = sdpm_workloads::swim();
    let cfg = sdpm_bench::config_for(&bench);
    let pool = DiskPool::new(cfg.disks);
    let params = cfg.params;
    let trace = sdpm_trace::generate(&bench.program, pool, bench.gen);
    let plan = FaultPlan::new(FaultConfig::uniform(42, 0.1));
    for policy in [
        Policy::Base,
        Policy::Drpm(Default::default()),
        Policy::IdealTpm,
    ] {
        let engine = Engine::new(params.clone(), pool, policy.clone()).faults(Some(&plan));
        let a = engine
            .events(&trace)
            .expect("faulted run must degrade gracefully, not fail");
        let b = engine
            .events(&trace)
            .expect("faulted run must degrade gracefully, not fail");
        assert_eq!(a, b, "same seed must reproduce the same faulted run");
        assert!(a.faults.total() > 0, "rate 0.1 must inject something");
        // Under Base only transient retries fire, and their backoff can
        // only delay requests. (RPM-stuck faults under DRPM can pin a
        // disk at a *faster* level, so no such bound holds there.)
        if matches!(policy, Policy::Base) {
            let clean = simulate(&trace, &params, pool, &policy);
            assert!(
                a.exec_secs >= clean.exec_secs,
                "transient faults must not speed up the run: {} < {}",
                a.exec_secs,
                clean.exec_secs
            );
        }
    }
}

#[test]
fn faulted_run_compressed_path_degrades_to_per_event_servicing() {
    let bench = sdpm_workloads::swim();
    let cfg = sdpm_bench::config_for(&bench);
    let pool = DiskPool::new(cfg.disks);
    let params = cfg.params;
    let trace = sdpm_trace::generate(&bench.program, pool, bench.gen);
    let runs = sdpm_trace::compress(&trace);
    let plan = FaultPlan::new(FaultConfig::uniform(9, 0.1));
    let r = Engine::new(params, pool, Policy::Base)
        .faults(Some(&plan))
        .runs(&runs)
        .expect("faulted run-compressed run must complete");
    assert!(
        r.faults.degraded_expansions > 0,
        "fault plan must force run records off the steady fast path"
    );
    assert!(r.faults.total() > 0);
}

#[test]
fn bad_disk_parameters_are_rejected_before_simulation() {
    let mut p = ultrastar36z15();
    p.idle_power_w = 1.0; // below standby: nonsense ordering
    let t = Trace {
        name: "t".into(),
        pool_size: 1,
        events: vec![compute(1.0)],
    };
    let result = std::panic::catch_unwind(|| {
        let _ = simulate(&t, &p, DiskPool::new(1), &Policy::Base);
    });
    assert!(result.is_err(), "invalid DiskParams must fail fast");
}
