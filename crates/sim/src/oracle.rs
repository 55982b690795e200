//! Oracle schedules for the ideal (ITPM / IDRPM) policies.
//!
//! The ideal schemes of Section 4.2 "assume the existence of an oracle
//! predictor for detecting idle periods". We realize the oracle by
//! running the trace once under `Base` — its per-disk [`GapRecord`]s are
//! the true idle periods, because the Base timeline is exactly the
//! timeline an ideal run reproduces (ideal actions never delay a request)
//! — and then compiling a feasible, optimal per-disk action schedule:
//!
//! * **ITPM**: spin down at the start of every gap that passes the
//!   break-even test, and issue the spin-up exactly one spin-up time
//!   before the gap ends, so the request never waits.
//! * **IDRPM**: for every gap, dwell at the energy-optimal RPM level
//!   (accounting for both transitions) and begin the return shift exactly
//!   one transition time before the gap ends.

use crate::policy::ScheduledAction;
use crate::report::SimReport;
use sdpm_disk::{best_rpm_for_gap, breakeven::tpm_gap_is_worthwhile, DiskParams, RpmLadder};
use sdpm_trace::PowerAction;

/// Builds the ITPM per-disk schedule from a Base run.
#[must_use]
pub fn ideal_tpm_schedule(base: &SimReport, params: &DiskParams) -> Vec<Vec<ScheduledAction>> {
    base.per_disk
        .iter()
        .map(|d| {
            let mut actions = Vec::new();
            for g in &d.gaps {
                // Trailing = the gap runs to the end of execution, so no
                // request follows it (the last *recorded* gap can still be
                // a mid gap when the run ends on a request completion).
                let trailing = g.end >= base.exec_secs - 1e-9;
                if !tpm_gap_is_worthwhile(params, g.len_secs()) {
                    continue;
                }
                actions.push(ScheduledAction {
                    at: g.start,
                    action: PowerAction::SpinDown,
                });
                if !trailing {
                    actions.push(ScheduledAction {
                        at: g.end - params.spin_up_secs,
                        action: PowerAction::SpinUp,
                    });
                }
            }
            actions
        })
        .collect()
}

/// Builds the IDRPM per-disk schedule from a Base run.
#[must_use]
pub fn ideal_drpm_schedule(base: &SimReport, params: &DiskParams) -> Vec<Vec<ScheduledAction>> {
    let ladder = RpmLadder::new(params);
    let max = ladder.max_level();
    base.per_disk
        .iter()
        .map(|d| {
            let mut actions = Vec::new();
            for g in &d.gaps {
                let trailing = g.end >= base.exec_secs - 1e-9;
                let choice = best_rpm_for_gap(&ladder, g.len_secs());
                if choice.level == max {
                    continue;
                }
                actions.push(ScheduledAction {
                    at: g.start,
                    action: PowerAction::SetRpm(choice.level),
                });
                if !trailing {
                    actions.push(ScheduledAction {
                        at: g.end - ladder.transition_secs(choice.level, max),
                        action: PowerAction::SetRpm(max),
                    });
                }
            }
            actions
        })
        .collect()
}

/// Sanity helper for tests and diagnostics: a schedule is well-formed if
/// per-disk actions are time-ordered and non-negative.
#[must_use]
pub fn schedule_is_well_formed(sched: &[Vec<ScheduledAction>]) -> bool {
    sched.iter().all(|actions| {
        actions.windows(2).all(|w| w[0].at <= w[1].at) && actions.iter().all(|a| a.at >= 0.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::policy::Policy;
    use crate::simulate;
    use sdpm_disk::ultrastar36z15;
    use sdpm_layout::{DiskId, DiskPool};
    use sdpm_trace::{AppEvent, IoRequest, ReqKind, Trace};

    fn io(disk: u32, iter: u64) -> AppEvent {
        AppEvent::Io(IoRequest {
            disk: DiskId(disk),
            start_block: 0,
            size_bytes: 4096,
            kind: ReqKind::Read,
            sequential: false,
            nest: 0,
            iter,
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

    fn gap_trace(gap_secs: f64) -> Trace {
        Trace {
            name: "g".into(),
            pool_size: 2,
            events: vec![io(0, 0), compute(gap_secs), io(0, 1), compute(1.0)],
        }
    }

    #[test]
    fn ideal_tpm_skips_sub_break_even_gaps() {
        let p = ultrastar36z15();
        let tr = gap_trace(10.0);
        let base = Engine::new(p.clone(), DiskPool::new(2), Policy::Base)
            .events(&tr)
            .unwrap();
        let sched = ideal_tpm_schedule(&base, &p);
        assert!(sched[0].is_empty(), "10 s < 15.2 s break-even");
    }

    #[test]
    fn ideal_tpm_spins_down_long_gaps_with_exact_preactivation() {
        let p = ultrastar36z15();
        let tr = gap_trace(100.0);
        let base = Engine::new(p.clone(), DiskPool::new(2), Policy::Base)
            .events(&tr)
            .unwrap();
        let sched = ideal_tpm_schedule(&base, &p);
        assert!(schedule_is_well_formed(&sched));
        // Disk 0: the 100 s gap gets a down+up; the final tail gap (1 s)
        // does not qualify. Disk 1 idles the whole run (~100 s) and gets a
        // spin-down with no pre-activation.
        let d0: Vec<_> = sched[0].iter().map(|a| a.action).collect();
        assert_eq!(d0, vec![PowerAction::SpinDown, PowerAction::SpinUp]);
        assert_eq!(
            sched[1].iter().map(|a| a.action).collect::<Vec<_>>(),
            vec![PowerAction::SpinDown]
        );
        // Replay: no stall, less energy.
        let itpm = simulate(&tr, &p, DiskPool::new(2), &Policy::IdealTpm);
        assert!(itpm.stall_secs < 1e-6, "stall {}", itpm.stall_secs);
        assert!(itpm.total_energy_j() < base.total_energy_j());
        assert!((itpm.exec_secs - base.exec_secs).abs() < 1e-6);
    }

    #[test]
    fn ideal_drpm_exploits_mid_size_gaps_tpm_cannot() {
        let p = ultrastar36z15();
        let tr = gap_trace(8.0);
        let base = Engine::new(p.clone(), DiskPool::new(2), Policy::Base)
            .events(&tr)
            .unwrap();
        let itpm = simulate(&tr, &p, DiskPool::new(2), &Policy::IdealTpm);
        let idrpm = simulate(&tr, &p, DiskPool::new(2), &Policy::IdealDrpm);
        // The 8 s gap is below TPM break-even but plenty for RPM shifts.
        assert!(idrpm.total_energy_j() < base.total_energy_j());
        assert!(idrpm.total_energy_j() < itpm.total_energy_j());
        assert!(idrpm.stall_secs < 1e-6);
        assert!((idrpm.exec_secs - base.exec_secs).abs() < 1e-6);
    }

    #[test]
    fn ideal_drpm_never_loses_to_base() {
        let p = ultrastar36z15();
        for gap in [0.1, 0.5, 1.0, 3.0, 8.0, 20.0, 120.0] {
            let tr = gap_trace(gap);
            let base = Engine::new(p.clone(), DiskPool::new(2), Policy::Base)
                .events(&tr)
                .unwrap();
            let idrpm = simulate(&tr, &p, DiskPool::new(2), &Policy::IdealDrpm);
            assert!(
                idrpm.total_energy_j() <= base.total_energy_j() + 1e-6,
                "gap {gap}: {} vs {}",
                idrpm.total_energy_j(),
                base.total_energy_j()
            );
            assert!(
                idrpm.exec_secs <= base.exec_secs + 1e-6,
                "gap {gap}: ideal must not slow down"
            );
        }
    }

    #[test]
    fn ideal_drpm_dwell_levels_are_recorded_in_gaps() {
        let p = ultrastar36z15();
        let tr = gap_trace(60.0);
        let idrpm = simulate(&tr, &p, DiskPool::new(2), &Policy::IdealDrpm);
        // The 60 s gap should dwell at the ladder bottom.
        let deep = idrpm.per_disk[0]
            .gaps
            .iter()
            .map(|g| g.level)
            .min()
            .unwrap();
        assert_eq!(deep, sdpm_disk::RpmLevel::MIN);
        // And Table 3 machinery sees zero mispredictions for the oracle.
        let ladder = RpmLadder::new(&p);
        assert_eq!(idrpm.mispredicted_speed_fraction(&ladder), 0.0);
    }

    #[test]
    fn schedules_are_time_ordered() {
        let p = ultrastar36z15();
        let tr = Trace {
            name: "multi".into(),
            pool_size: 2,
            events: vec![
                io(0, 0),
                compute(30.0),
                io(0, 1),
                compute(50.0),
                io(0, 2),
                compute(5.0),
                io(1, 3),
                compute(400.0),
                io(1, 4),
            ],
        };
        let base = Engine::new(p.clone(), DiskPool::new(2), Policy::Base)
            .events(&tr)
            .unwrap();
        assert!(schedule_is_well_formed(&ideal_tpm_schedule(&base, &p)));
        assert!(schedule_is_well_formed(&ideal_drpm_schedule(&base, &p)));
    }
}
