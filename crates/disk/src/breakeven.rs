//! Break-even analysis for idle gaps.
//!
//! Given a disk idle gap of known (or estimated) length, these routines
//! answer the two questions every proactive policy in the paper asks:
//!
//! 1. **TPM**: is the gap long enough that spinning down to standby and
//!    back saves energy? ([`tpm_break_even_secs`],
//!    [`tpm_gap_is_worthwhile`])
//! 2. **DRPM**: which RPM level minimizes energy over the gap, accounting
//!    for both shift transitions, under the constraint that the disk is
//!    back at full speed when the gap ends? ([`best_rpm_for_gap`])
//!
//! Crucially, the *same* decision procedure serves the oracle policies
//! (IDRPM/ITPM, which feed it true gap lengths) and the compiler-directed
//! policies (CMDRPM/CMTPM, which feed it estimated gap lengths). Table 3's
//! "mispredicted disk speeds" are therefore exactly the disagreements
//! caused by gap estimation error, as in the paper.

use crate::params::DiskParams;
use crate::rpm::{RpmLadder, RpmLevel};
use serde::{Deserialize, Serialize};

/// TPM break-even idle length, seconds: the gap length at which
/// `spin down + standby dwell + spin up` costs exactly as much as staying
/// idle. For Table 1's Ultrastar 36Z15 this is ~15.19 s.
#[must_use]
pub fn tpm_break_even_secs(p: &DiskParams) -> f64 {
    let transition_j = p.spin_down_energy_j + p.spin_up_energy_j;
    let transition_secs = p.spin_down_secs + p.spin_up_secs;
    (transition_j - p.standby_power_w * transition_secs) / (p.idle_power_w - p.standby_power_w)
}

/// True if a TPM power cycle over a gap of `gap_secs` saves energy.
///
/// Also requires the gap to physically fit the down+up transitions, so that
/// pre-activation can restore the disk in time.
#[must_use]
pub fn tpm_gap_is_worthwhile(p: &DiskParams, gap_secs: f64) -> bool {
    gap_secs >= p.spin_down_secs + p.spin_up_secs && gap_secs > tpm_break_even_secs(p)
}

/// Energy saved (joules, possibly negative) by a TPM power cycle over a gap
/// of `gap_secs`, relative to idling through it. Returns `None` if the gap
/// cannot fit the transitions at all.
#[must_use]
pub fn tpm_energy_saved_j(p: &DiskParams, gap_secs: f64) -> Option<f64> {
    let transition_secs = p.spin_down_secs + p.spin_up_secs;
    if gap_secs < transition_secs {
        return None;
    }
    let stay = p.idle_power_w * gap_secs;
    let cycle = p.spin_down_energy_j
        + p.spin_up_energy_j
        + p.standby_power_w * (gap_secs - transition_secs);
    Some(stay - cycle)
}

/// The outcome of the DRPM gap decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RpmChoice {
    /// Level to dwell at during the gap (may be full speed: "do nothing").
    pub level: RpmLevel,
    /// Predicted joules over the whole gap under this choice, including
    /// both transitions.
    pub predicted_energy_j: f64,
    /// Predicted joules if the disk simply idles at full speed instead.
    pub stay_energy_j: f64,
    /// Seconds spent dwelling at `level` (gap minus both transitions).
    pub dwell_secs: f64,
}

impl RpmChoice {
    /// Joules saved relative to idling at full speed (>= 0 by
    /// construction: full speed itself is always a candidate).
    #[must_use]
    pub fn saved_j(&self) -> f64 {
        self.stay_energy_j - self.predicted_energy_j
    }
}

/// Chooses the energy-optimal RPM level to dwell at during an idle gap of
/// `gap_secs` that starts at *full speed* and must end there.
///
/// A level is feasible only if both transitions (`max -> level` and
/// `level -> max`) fit within the gap. Full speed (dwell at max) is always
/// feasible, so the function always returns a choice; when the gap is too
/// short to profit from any shift, the returned level is the ladder
/// maximum. Ties break toward the *faster* level (less performance risk
/// for equal energy).
///
/// Both transitions of a level cost its cached shift time and energy to
/// full speed, which are the same floats as `transition_secs(max, level)`
/// and `transition_energy_j(max, level)`.
#[must_use]
pub fn best_rpm_for_gap(ladder: &RpmLadder, gap_secs: f64) -> RpmChoice {
    let max = ladder.max_level();
    // "Stay" baseline: idle at full speed through the gap. The zero-length
    // shift home keeps the float operations of a decision that starts
    // below full speed.
    let home = ladder.consts(max);
    let stay_dwell = (gap_secs - home.shift_to_max_secs).max(0.0);
    let stay_energy_j = home.shift_to_max_j + ladder.idle_power_w(max) * stay_dwell;
    let mut best = RpmChoice {
        level: max,
        predicted_energy_j: stay_energy_j,
        stay_energy_j,
        dwell_secs: stay_dwell,
    };
    for level in ladder.levels() {
        if level == max {
            continue;
        }
        let c = ladder.consts(level);
        let shift = c.shift_to_max_secs;
        if shift + shift > gap_secs {
            continue;
        }
        let dwell = gap_secs - shift - shift;
        let energy = c.shift_to_max_j + ladder.idle_power_w(level) * dwell + c.shift_to_max_j;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ultrastar36z15;

    fn setup() -> (DiskParams, RpmLadder) {
        let p = ultrastar36z15();
        let l = RpmLadder::new(&p);
        (p, l)
    }

    #[test]
    fn break_even_matches_hand_derivation() {
        let p = ultrastar36z15();
        // (148 - 2.5 * 12.4) / (10.2 - 2.5) = 117 / 7.7 = 15.1948...
        let be = tpm_break_even_secs(&p);
        assert!((be - 117.0 / 7.7).abs() < 1e-9, "got {be}");
    }

    #[test]
    fn short_gaps_are_not_worthwhile_for_tpm() {
        let p = ultrastar36z15();
        assert!(!tpm_gap_is_worthwhile(&p, 1.0));
        assert!(!tpm_gap_is_worthwhile(&p, 15.0));
        assert!(tpm_gap_is_worthwhile(&p, 16.0));
        assert!(tpm_gap_is_worthwhile(&p, 3600.0));
    }

    #[test]
    fn tpm_savings_are_zero_at_break_even() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        let saved = tpm_energy_saved_j(&p, be).unwrap();
        assert!(saved.abs() < 1e-9);
        assert!(tpm_energy_saved_j(&p, 2.0 * be).unwrap() > 0.0);
        assert!(tpm_energy_saved_j(&p, 13.0).unwrap() < 0.0);
        assert_eq!(tpm_energy_saved_j(&p, 5.0), None, "gap cannot fit 12.4 s");
    }

    #[test]
    fn tiny_gap_stays_at_full_speed() {
        let (p, l) = setup();
        // A gap shorter than one down+up step pair cannot fit any shift.
        let gap = 1.9 * p.rpm_transition_secs_per_step;
        let c = best_rpm_for_gap(&l, gap);
        assert_eq!(c.level, l.max_level());
        assert_eq!(c.saved_j(), 0.0);
    }

    #[test]
    fn long_gap_drops_to_ladder_bottom() {
        let (_, l) = setup();
        let c = best_rpm_for_gap(&l, 600.0);
        assert_eq!(c.level, RpmLevel::MIN);
        assert!(c.saved_j() > 0.0);
        // Hand check: two full-swing transitions at 10.2 W, the remaining
        // dwell at the bottom level's ~2.59 W, versus 600 s at 10.2 W.
        let swing = 10.0 * ultrastar36z15().rpm_transition_secs_per_step;
        let p_min = l.idle_power_w(RpmLevel::MIN);
        let expected = 2.0 * 10.2 * swing + p_min * (600.0 - 2.0 * swing);
        assert!((c.predicted_energy_j - expected).abs() < 1e-6);
    }

    #[test]
    fn medium_gap_picks_interior_level() {
        let (_, l) = setup();
        // A gap just over two full transitions' time: the bottom is
        // feasible but barely dwells; some interior level may win. Verify
        // the chosen level is optimal by exhaustive comparison.
        for gap in [3.5, 4.0, 6.0, 10.0, 20.0] {
            let c = best_rpm_for_gap(&l, gap);
            for level in l.levels() {
                let t_in = l.transition_secs(l.max_level(), level);
                let t_out = l.transition_secs(level, l.max_level());
                if t_in + t_out > gap {
                    continue;
                }
                let e = l.transition_energy_j(l.max_level(), level)
                    + l.idle_power_w(level) * (gap - t_in - t_out)
                    + l.transition_energy_j(level, l.max_level());
                assert!(
                    c.predicted_energy_j <= e + 1e-9,
                    "gap {gap}: chosen {:?} beaten by {:?}",
                    c.level,
                    level
                );
            }
        }
    }

    #[test]
    fn savings_monotonically_grow_with_gap_length() {
        let (_, l) = setup();
        let mut prev = -1.0;
        for gap in [1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1000.0] {
            let s = best_rpm_for_gap(&l, gap).saved_j();
            assert!(s >= prev, "savings must not shrink as gaps grow");
            prev = s;
        }
    }

    #[test]
    fn choice_is_always_feasible() {
        let (_, l) = setup();
        for gap in [0.0, 0.01, 0.3, 1.0, 2.9, 3.0, 3.1, 50.0] {
            let c = best_rpm_for_gap(&l, gap);
            let t_total = l.transition_secs(l.max_level(), c.level)
                + l.transition_secs(c.level, l.max_level());
            assert!(
                t_total <= gap || c.level == l.max_level(),
                "gap {gap} got infeasible level {:?}",
                c.level
            );
            assert!(c.saved_j() >= -1e-12);
        }
    }
}
