//! Deep path coverage for the simulation engine: interactions between
//! policies, transitions, and the gap ledger that the unit tests don't
//! reach.

use sdpm_disk::{ultrastar36z15, RpmLadder, RpmLevel};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_sim::{
    simulate, DirectiveConfig, DrpmConfig, Policy, ScheduledAction, SimReport, TpmConfig,
};
use sdpm_trace::{AppEvent, IoRequest, PowerAction, ReqKind, Trace};

fn io(disk: u32, size: u64, iter: u64) -> AppEvent {
    AppEvent::Io(IoRequest {
        disk: DiskId(disk),
        start_block: iter * 256,
        size_bytes: size,
        kind: ReqKind::Read,
        sequential: false,
        nest: 0,
        iter,
    })
}

fn compute(secs: f64, iter: u64) -> AppEvent {
    AppEvent::Compute {
        nest: 0,
        first_iter: iter,
        iters: 1,
        secs,
    }
}

fn trace(events: Vec<AppEvent>) -> Trace {
    let t = Trace {
        name: "paths".into(),
        pool_size: 2,
        events,
    };
    t.validate().unwrap();
    t
}

fn run(t: &Trace, p: &Policy) -> SimReport {
    simulate(t, &ultrastar36z15(), DiskPool::new(2), p)
}

#[test]
fn request_during_tpm_spin_down_waits_out_both_transitions() {
    // Idle long enough to trigger the threshold spin-down, then a request
    // arrives while the platter is still decelerating.
    let be = sdpm_disk::tpm_break_even_secs(&ultrastar36z15());
    let t = trace(vec![
        io(0, 4096, 0),
        compute(be + 0.5, 1), // spin-down fires at be, still in flight +0.5 < 1.5
        io(0, 4096, 2),
    ]);
    let r = run(&t, &Policy::Tpm(TpmConfig::default()));
    // Must finish the 1.5 s spin-down and then the 10.9 s spin-up.
    assert!(r.stall_secs > 11.0, "stall {}", r.stall_secs);
    assert_eq!(r.per_disk[0].spin_downs, 1);
    assert_eq!(r.per_disk[0].spin_ups, 1);
}

#[test]
fn custom_tpm_threshold_changes_behavior() {
    let t = trace(vec![io(0, 4096, 0), compute(5.0, 1), io(0, 4096, 2)]);
    let aggressive = run(
        &t,
        &Policy::Tpm(TpmConfig {
            threshold_secs: Some(1.0),
        }),
    );
    let default = run(&t, &Policy::Tpm(TpmConfig::default()));
    assert_eq!(aggressive.per_disk[0].spin_downs, 1, "1 s threshold fires");
    assert_eq!(default.per_disk[0].spin_downs, 0, "break-even does not");
    // Aggressive spin-down on a 5 s gap costs energy AND time.
    assert!(aggressive.total_energy_j() > default.total_energy_j());
    assert!(aggressive.exec_secs > default.exec_secs + 5.0);
}

#[test]
fn drpm_window_restore_and_hold_cycle() {
    // Many slow-ish services: the controller must eventually restore full
    // speed (window breach) and hold drifting until a calm window.
    let cfg = DrpmConfig {
        window: 5,
        upper_tolerance: 1.2,
        lower_tolerance: 1.05,
        idle_drift_secs: 0.02,
    };
    let mut events = Vec::new();
    for i in 0..40u64 {
        events.push(compute(0.3, i * 2)); // drift a few levels each gap
        events.push(io(0, 64 * 1024, i * 2 + 1));
    }
    let t = trace(events);
    let r = run(&t, &Policy::Drpm(cfg));
    // The controller restored at least once: shifts include up-moves
    // beyond what pure drifting would produce.
    assert!(r.per_disk[0].rpm_shifts > 10);
    assert!(r.mean_slowdown > 1.0);
    // Ledger still balances.
    for d in &r.per_disk {
        assert!((d.energy.total_secs() - r.exec_secs).abs() < 1e-6);
    }
}

#[test]
fn directive_spin_down_then_set_rpm_is_a_misfire_not_a_crash() {
    let t = trace(vec![
        AppEvent::Power {
            disk: DiskId(0),
            action: PowerAction::SpinDown,
        },
        AppEvent::Power {
            disk: DiskId(0),
            action: PowerAction::SetRpm(RpmLevel(2)),
        },
        compute(30.0, 0),
        AppEvent::Power {
            disk: DiskId(0),
            action: PowerAction::SpinUp,
        },
        compute(11.0, 1),
        io(0, 4096, 2),
    ]);
    let r = run(&t, &Policy::Directive(DirectiveConfig::default()));
    assert_eq!(r.misfire_causes.total(), 1, "set_RPM on a stopped spindle");
    assert_eq!(r.misfire_causes.rpm_shift_rejected, 1);
    assert!(r.stall_secs < 1e-6, "the spin-up still pre-activates");
}

#[test]
fn back_to_back_requests_have_zero_length_gaps_suppressed() {
    let t = trace(vec![io(0, 4096, 0), io(0, 4096, 1), io(0, 4096, 2)]);
    let r = run(&t, &Policy::Base);
    // Gap records: only the trailing one could be non-empty... but the
    // run ends at the last completion, so disk 0 records no gap at all.
    assert!(r.per_disk[0].gaps.is_empty());
    // Disk 1 never serves: exactly one whole-run gap.
    assert_eq!(r.per_disk[1].gaps.len(), 1);
}

#[test]
fn schedule_actions_beyond_end_of_trace_apply_at_finalize() {
    let l = RpmLadder::new(&ultrastar36z15());
    let sched = vec![
        vec![ScheduledAction {
            at: 1.0,
            action: PowerAction::SetRpm(RpmLevel(0)),
        }],
        vec![ScheduledAction {
            at: 999.0, // beyond the run: never fires
            action: PowerAction::SetRpm(RpmLevel(0)),
        }],
    ];
    let t = trace(vec![compute(10.0, 0)]);
    let r = run(&t, &Policy::Schedule(sched.into()));
    assert_eq!(r.per_disk[0].rpm_shifts, 1);
    assert_eq!(r.per_disk[1].rpm_shifts, 0);
    assert_eq!(r.per_disk[0].gaps[0].level, RpmLevel(0));
    assert_eq!(r.per_disk[1].gaps[0].level, l.max_level());
}

#[test]
fn mixed_disks_interleave_independently() {
    // Disk 0 busy constantly; disk 1 sees one long gap. Reactive DRPM
    // must treat them separately: disk 1 drifts deep, disk 0 stays high.
    let mut events = Vec::new();
    events.push(io(1, 4096, 0));
    for i in 0..200u64 {
        events.push(compute(0.004, i * 2 + 1));
        events.push(io(0, 64 * 1024, i * 2 + 2));
    }
    events.push(io(1, 4096, 500));
    let t = trace(events);
    let r = run(&t, &Policy::Drpm(DrpmConfig::default()));
    let deep1 = r.per_disk[1].gaps.iter().map(|g| g.level).min().unwrap();
    assert_eq!(deep1, RpmLevel::MIN, "idle disk drifts to the bottom");
    let deep0 = r.per_disk[0].gaps.iter().map(|g| g.level).min().unwrap();
    assert!(
        deep0 > RpmLevel(5),
        "busy disk must stay near full speed, got {deep0:?}"
    );
}

#[test]
fn slowdown_statistics_reflect_reduced_speed_service() {
    let t = trace(vec![io(0, 4096, 0), compute(60.0, 1), io(0, 64 * 1024, 2)]);
    let base = run(&t, &Policy::Base);
    assert!((base.mean_slowdown - 1.0).abs() < 1e-9);
    let drpm = run(&t, &Policy::Drpm(DrpmConfig::default()));
    assert!(drpm.mean_slowdown > 1.0);
    assert!(drpm.stall_secs > 0.0);
}

#[test]
fn ideal_policies_handle_traces_ending_mid_gap() {
    // Trailing compute leaves every disk mid-gap at the end; the oracle
    // schedule must not try to pre-activate past the end of execution.
    let t = trace(vec![io(0, 4096, 0), compute(100.0, 1)]);
    let base = run(&t, &Policy::Base);
    for policy in [Policy::IdealTpm, Policy::IdealDrpm] {
        let r = run(&t, &policy);
        assert!(r.total_energy_j() < base.total_energy_j());
        assert!((r.exec_secs - base.exec_secs).abs() < 1e-9);
        assert_eq!(r.misfire_causes.total(), 0);
    }
}

#[test]
fn energy_monotone_in_pool_size() {
    // The same single-disk workload on larger pools burns strictly more
    // energy (idle disks), under every policy except the deep-sleeping
    // oracles where it still must not decrease.
    let mk = |pool: u32| {
        let mut events = vec![io(0, 4096, 0), compute(5.0, 1), io(0, 4096, 2)];
        events[0] = io(0, 4096, 0);
        let t = Trace {
            name: "pool".into(),
            pool_size: pool,
            events,
        };
        t.validate().unwrap();
        t
    };
    let mut prev = 0.0;
    for pool in [1u32, 2, 4, 8] {
        let r = simulate(
            &mk(pool),
            &ultrastar36z15(),
            DiskPool::new(pool),
            &Policy::Base,
        );
        assert!(r.total_energy_j() > prev);
        prev = r.total_energy_j();
    }
}

/// Pushing a trace's events through `Engine::stream` gives the report
/// `Engine::events` gives on the trace, bit for bit, under every policy
/// the loop plays directly, with and without faults.
#[test]
fn streamed_events_match_the_whole_trace_pass() {
    use sdpm_fault::{FaultConfig, FaultPlan};
    use sdpm_sim::Engine;
    let max = RpmLadder::new(&ultrastar36z15()).max_level();
    let t = trace(vec![
        io(0, 4096, 0),
        AppEvent::Power {
            disk: DiskId(1),
            action: PowerAction::SetRpm(RpmLevel(2)),
        },
        compute(30.0, 1),
        AppEvent::Power {
            disk: DiskId(1),
            action: PowerAction::SetRpm(max),
        },
        io(1, 65536, 2),
        compute(0.02, 3),
        io(0, 4096, 4),
        compute(20.0, 5),
        io(1, 4096, 6),
    ]);
    let plan = FaultPlan::new(FaultConfig::uniform(5, 0.3));
    let schedule = vec![
        vec![ScheduledAction {
            at: 1.0,
            action: PowerAction::SpinDown,
        }],
        vec![],
    ];
    for policy in [
        Policy::Base,
        Policy::Tpm(TpmConfig {
            threshold_secs: Some(2.0),
        }),
        Policy::Drpm(DrpmConfig::default()),
        Policy::Directive(DirectiveConfig::default()),
        Policy::Schedule(schedule.into()),
    ] {
        for faults in [None, Some(&plan)] {
            let engine =
                Engine::new(ultrastar36z15(), DiskPool::new(2), policy.clone()).faults(faults);
            let whole = engine.events(&t).unwrap();
            let mut stream = engine.stream(t.pool_size).unwrap();
            for e in &t.events {
                stream.event(e).unwrap();
            }
            let streamed = stream.finish().unwrap();
            assert_eq!(whole, streamed, "{}", policy.label());
            assert_eq!(whole.exec_secs.to_bits(), streamed.exec_secs.to_bits());
            assert_eq!(
                whole.total_energy_j().to_bits(),
                streamed.total_energy_j().to_bits()
            );
        }
    }
}

/// An oracle's schedule needs a clean Base pass over the whole trace, so
/// it cannot stream; neither can a pass for a different pool.
#[test]
fn stream_rejects_oracles_and_other_pools() {
    use sdpm_sim::{Engine, SimError};
    let engine = |policy| Engine::new(ultrastar36z15(), DiskPool::new(2), policy);
    for policy in [Policy::IdealTpm, Policy::IdealDrpm] {
        let label = policy.label();
        assert!(matches!(
            engine(policy).stream(2),
            Err(SimError::OracleStream(l)) if l == label
        ));
    }
    assert!(matches!(
        engine(Policy::Base).stream(3),
        Err(SimError::PoolMismatch { trace: 3, pool: 2 })
    ));
}
