//! Property tests for the disk power model.

use proptest::prelude::*;
use sdpm_disk::{
    best_rpm_for_gap, laptop_disk, service_time_secs, tpm_break_even_secs, ultrastar36z15,
    DiskParams, PowerStateMachine, RpmChoice, RpmLadder, RpmLevel, ServiceRequest,
};

/// The service model as it reads without the ladder's cache: three
/// divisions per call. The cached [`service_time_secs`] must match it
/// bit for bit.
fn spec_service_time_secs(
    params: &DiskParams,
    ladder: &RpmLadder,
    level: RpmLevel,
    req: ServiceRequest,
) -> f64 {
    let ratio = f64::from(ladder.rpm(level)) / f64::from(ladder.rpm(ladder.max_level()));
    let positioning = if req.sequential {
        0.0
    } else {
        params.avg_seek_secs + params.avg_rotation_secs / ratio
    };
    let transfer = req.size_bytes as f64 / (params.transfer_rate_bps * ratio);
    positioning + transfer
}

/// The DRPM gap decision from any starting level `from`, built from the
/// ladder's transition queries alone. From full speed it is the spec of
/// the cached [`best_rpm_for_gap`].
fn spec_best_rpm_for_gap(ladder: &RpmLadder, from: RpmLevel, gap_secs: f64) -> RpmChoice {
    let max = ladder.max_level();
    let stay_energy_j = {
        // "Stay" baseline: shift home to max immediately (if not already
        // there) and idle at full speed for the rest of the gap.
        let home_secs = ladder.transition_secs(from, max);
        let dwell = (gap_secs - home_secs).max(0.0);
        ladder.transition_energy_j(from, max) + ladder.idle_power_w(max) * dwell
    };
    let mut best = RpmChoice {
        level: max,
        predicted_energy_j: stay_energy_j,
        stay_energy_j,
        dwell_secs: (gap_secs - ladder.transition_secs(from, max)).max(0.0),
    };
    for level in ladder.levels() {
        if level == max {
            continue;
        }
        let t_in = ladder.transition_secs(from, level);
        let t_out = ladder.transition_secs(level, max);
        if t_in + t_out > gap_secs {
            continue;
        }
        let dwell = gap_secs - t_in - t_out;
        let energy = ladder.transition_energy_j(from, level)
            + ladder.idle_power_w(level) * dwell
            + ladder.transition_energy_j(level, max);
        // Strict `<` keeps the faster level on ties.
        if energy < best.predicted_energy_j {
            best = RpmChoice {
                level,
                predicted_energy_j: energy,
                stay_energy_j,
                dwell_secs: dwell,
            };
        }
    }
    best
}

/// The fields of a gap decision as bits, so `-0.0`/`0.0` and NaN
/// payloads count as differences.
fn choice_bits(c: &RpmChoice) -> (RpmLevel, u64, u64, u64) {
    (
        c.level,
        c.predicted_energy_j.to_bits(),
        c.stay_energy_j.to_bits(),
        c.dwell_secs.to_bits(),
    )
}

/// The two disk models the cache is checked on.
fn models() -> [DiskParams; 2] {
    [ultrastar36z15(), laptop_disk()]
}

/// Gap lengths at, just below and just above each level's feasibility
/// edge `2 * transition_secs(level, max)`, for every level of `ladder`.
fn edge_gaps(ladder: &RpmLadder) -> Vec<f64> {
    let max = ladder.max_level();
    ladder
        .levels()
        .flat_map(|level| {
            let edge = 2.0 * ladder.transition_secs(level, max);
            [edge.next_down(), edge, edge.next_up()]
        })
        .collect()
}

/// Starting below full speed, the decision charges the shift home: a
/// disk already at the bottom stays there, and pays only the final
/// up-shift on top of its dwell.
#[test]
fn gap_from_lower_level_accounts_for_homing_cost() {
    let l = RpmLadder::new(&ultrastar36z15());
    let c = spec_best_rpm_for_gap(&l, RpmLevel::MIN, 600.0);
    assert_eq!(c.level, RpmLevel::MIN, "already at bottom, stay");
    assert!(c.predicted_energy_j < c.stay_energy_j);
}

/// Every level's feasibility edge, on both disk models: the cached
/// decision equals the spec from full speed bit for bit.
#[test]
fn cached_gap_decision_matches_the_spec_at_every_feasibility_edge() {
    for p in models() {
        let ladder = RpmLadder::new(&p);
        for gap in edge_gaps(&ladder) {
            assert_eq!(
                choice_bits(&best_rpm_for_gap(&ladder, gap)),
                choice_bits(&spec_best_rpm_for_gap(&ladder, ladder.max_level(), gap)),
                "{}: gap {gap:e}",
                p.model
            );
        }
    }
}

/// Random legal event scripts for the power-state machine.
#[derive(Debug, Clone, Copy)]
enum Op {
    Advance(f64),
    Service(f64),
    SpinDownUp(f64),
    SetRpm(u8, f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.001f64..30.0).prop_map(Op::Advance),
        (0.0001f64..0.5).prop_map(Op::Service),
        (0.0f64..30.0).prop_map(Op::SpinDownUp),
        (0u8..11, 0.0f64..5.0).prop_map(|(l, d)| Op::SetRpm(l, d)),
    ]
}

proptest! {
    /// Any legal event script keeps the joule ledger consistent: the
    /// total equals the sum of the per-state parts, the accounted seconds
    /// equal the elapsed clock, and energy never decreases.
    #[test]
    fn power_machine_ledger_is_consistent(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut m = PowerStateMachine::new(ultrastar36z15());
        let mut t = 0.0f64;
        let mut prev_total = 0.0f64;
        for op in ops {
            match op {
                Op::Advance(dt) => {
                    t = m.now().max(t) + dt;
                    m.advance(t).unwrap();
                }
                Op::Service(dur) => {
                    // Only from a steady idle state.
                    t = m.ready_time().max(t);
                    m.advance(t).unwrap();
                    if m.state().can_service() {
                        m.begin_service(t).unwrap();
                        t += dur;
                        m.end_service(t).unwrap();
                    }
                }
                Op::SpinDownUp(dwell) => {
                    t = m.ready_time().max(t);
                    m.advance(t).unwrap();
                    if m.state().can_service() && m.spin_down(t).is_ok() {
                        t += 1.5 + dwell;
                        m.advance(t).unwrap();
                        m.spin_up(t).unwrap();
                        t += 10.9;
                        m.advance(t).unwrap();
                    }
                }
                Op::SetRpm(level, dwell) => {
                    t = m.ready_time().max(t);
                    m.advance(t).unwrap();
                    if m.state().can_service() {
                        m.set_rpm(t, RpmLevel(level)).unwrap();
                        t = m.ready_time() + dwell;
                        m.advance(t).unwrap();
                    }
                }
            }
            let b = m.energy().breakdown();
            let parts = b.active_j + b.idle_j + b.standby_j + b.spin_up_j + b.spin_down_j
                + b.transition_j;
            prop_assert!((b.total_j() - parts).abs() < 1e-6);
            prop_assert!(b.total_j() + 1e-9 >= prev_total, "energy must not decrease");
            prev_total = b.total_j();
            prop_assert!((b.total_secs() - m.now()).abs() < 1e-6,
                "accounted {} vs clock {}", b.total_secs(), m.now());
        }
    }

    /// The gap decision is optimal: no single-level plan beats it, and it
    /// is always feasible.
    #[test]
    fn best_rpm_is_optimal_and_feasible(gap in 0.0f64..100.0) {
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let max = ladder.max_level();
        let c = best_rpm_for_gap(&ladder, gap);
        prop_assert!(c.saved_j() >= -1e-9);
        for level in ladder.levels() {
            let t_in = ladder.transition_secs(max, level);
            let t_out = ladder.transition_secs(level, max);
            if t_in + t_out > gap {
                continue;
            }
            let e = ladder.transition_energy_j(max, level)
                + ladder.idle_power_w(level) * (gap - t_in - t_out)
                + ladder.transition_energy_j(level, max);
            prop_assert!(c.predicted_energy_j <= e + 1e-9);
        }
    }

    /// Savings are monotone in gap length.
    #[test]
    fn savings_monotone_in_gap(g1 in 0.0f64..50.0, delta in 0.0f64..50.0) {
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let s1 = best_rpm_for_gap(&ladder, g1).saved_j();
        let s2 = best_rpm_for_gap(&ladder, g1 + delta).saved_j();
        prop_assert!(s2 + 1e-9 >= s1);
    }

    /// Service time decreases with level and increases with size.
    #[test]
    fn service_time_monotone(size in 0u64..10_000_000, seq in any::<bool>()) {
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let req = ServiceRequest { size_bytes: size, sequential: seq };
        let mut prev = f64::INFINITY;
        for level in ladder.levels() {
            let t = service_time_secs(&ladder, level, req);
            prop_assert!(t <= prev + 1e-15);
            prev = t;
        }
        let bigger = ServiceRequest { size_bytes: size + 1024, sequential: seq };
        let max = ladder.max_level();
        prop_assert!(
            service_time_secs(&ladder, max, bigger) > service_time_secs(&ladder, max, req)
        );
    }

    /// The cached service time equals the three-division spec bit for
    /// bit, at every level of both disk models, for either sequentiality.
    #[test]
    fn cached_service_time_matches_the_spec(size in 0u64..(1 << 40), sequential in any::<bool>()) {
        let req = ServiceRequest { size_bytes: size, sequential };
        for p in models() {
            let ladder = RpmLadder::new(&p);
            for level in ladder.levels() {
                prop_assert_eq!(
                    service_time_secs(&ladder, level, req).to_bits(),
                    spec_service_time_secs(&p, &ladder, level, req).to_bits(),
                    "{} level {:?}", p.model, level
                );
            }
        }
    }

    /// Gaps near every level's feasibility edge, on both disk models: the
    /// cached decision equals the spec from full speed bit for bit.
    #[test]
    fn cached_gap_decision_matches_the_spec_near_every_edge(
        level in 0u8..11,
        offset in -1e-3f64..1e-3,
    ) {
        for p in models() {
            let ladder = RpmLadder::new(&p);
            let max = ladder.max_level();
            let level = RpmLevel(level.min(max.0));
            let gap = (2.0 * ladder.transition_secs(level, max) + offset).max(0.0);
            prop_assert_eq!(
                choice_bits(&best_rpm_for_gap(&ladder, gap)),
                choice_bits(&spec_best_rpm_for_gap(&ladder, max, gap)),
                "{} gap {:e}", p.model, gap
            );
        }
    }

    /// TPM break-even really is the zero crossing: cycling a gap just
    /// above it saves, just below it loses.
    #[test]
    fn break_even_is_a_zero_crossing(eps in 0.01f64..2.0) {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        let above = sdpm_disk::breakeven::tpm_energy_saved_j(&p, be + eps).unwrap();
        let below = sdpm_disk::breakeven::tpm_energy_saved_j(&p, (be - eps).max(12.4)).unwrap();
        prop_assert!(above > 0.0);
        if be - eps > 12.4 {
            prop_assert!(below < 0.0);
        }
    }
}
