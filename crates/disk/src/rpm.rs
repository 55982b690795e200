//! DRPM speed ladder: discrete RPM levels, power scaling, and transition
//! costs.
//!
//! A DRPM-capable disk exposes a ladder of spindle speeds
//! `rpm_min, rpm_min + step, ..., rpm_max`. The paper's Table 1 instance is
//! 3,000..15,000 RPM in 1,200 RPM steps (11 levels). Requests can be
//! serviced at any level, at proportionally reduced rotational latency and
//! media rate; power scales with the `(rpm/rpm_max)^2.8` spindle law above
//! the standby floor.

use crate::params::DiskParams;
use serde::{Deserialize, Serialize};

/// Index into a disk's RPM ladder. Level `0` is the *slowest* speed
/// (`rpm_min`); the highest level is full speed (`rpm_max`).
///
/// Using an index rather than a raw RPM value makes off-ladder speeds
/// unrepresentable in policy code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RpmLevel(pub u8);

impl RpmLevel {
    /// The slowest level of any ladder.
    pub const MIN: RpmLevel = RpmLevel(0);
}

/// The discrete speed ladder of one disk model, with cached derived
/// quantities used on the simulator hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpmLadder {
    rpms: Vec<u32>,
    /// Idle (spinning, not servicing) power at each level, watts.
    idle_power_w: Vec<f64>,
    /// Extra power while servicing, on top of idle power (RPM-independent).
    active_extra_w: f64,
    /// Seconds to move between two *adjacent* levels.
    secs_per_step: f64,
    /// Per-level constants of the service model and the gap decision.
    consts: Vec<LevelConsts>,
}

/// Constants of one ladder level that the service model and the DRPM gap
/// decision would otherwise re-derive on every call. Each is computed
/// once, with the same expression the uncached model evaluates, so the
/// cached value is bit-identical to the recomputed one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct LevelConsts {
    /// `rpm(level) / rpm(max)`.
    pub(crate) speed_ratio: f64,
    /// Average seek plus rotational latency at this speed, seconds.
    pub(crate) positioning_secs: f64,
    /// Media transfer rate at this speed, bytes/second.
    pub(crate) transfer_bps: f64,
    /// `transition_secs(level, max)`.
    pub(crate) shift_to_max_secs: f64,
    /// `transition_energy_j(level, max)`.
    pub(crate) shift_to_max_j: f64,
}

impl RpmLadder {
    /// Builds the ladder for `params`. Panics if `params` fails
    /// [`DiskParams::validate`]; simulator constructors validate first.
    #[must_use]
    pub fn new(params: &DiskParams) -> Self {
        params
            .validate()
            .expect("RpmLadder requires validated DiskParams");
        let n = params.rpm_level_count();
        let mut rpms = Vec::with_capacity(n);
        let mut idle_power_w = Vec::with_capacity(n);
        for i in 0..n {
            let rpm = params.rpm_min + (i as u32) * params.rpm_step;
            rpms.push(rpm);
            let ratio = f64::from(rpm) / f64::from(params.rpm_max);
            let dyn_w = (params.idle_power_w - params.standby_power_w)
                * ratio.powf(params.spindle_power_exponent);
            idle_power_w.push(params.standby_power_w + dyn_w);
        }
        let mut ladder = RpmLadder {
            rpms,
            idle_power_w,
            active_extra_w: params.active_extra_power_w(),
            secs_per_step: params.rpm_transition_secs_per_step,
            consts: Vec::new(),
        };
        let max = ladder.max_level();
        ladder.consts = ladder
            .levels()
            .map(|level| {
                let ratio = f64::from(ladder.rpm(level)) / f64::from(ladder.rpm(max));
                LevelConsts {
                    speed_ratio: ratio,
                    positioning_secs: params.avg_seek_secs + params.avg_rotation_secs / ratio,
                    transfer_bps: params.transfer_rate_bps * ratio,
                    shift_to_max_secs: ladder.transition_secs(level, max),
                    shift_to_max_j: ladder.transition_energy_j(level, max),
                }
            })
            .collect();
        ladder
    }

    /// The cached constants of `level`.
    ///
    /// # Panics
    /// If `level` is off the ladder.
    #[inline]
    pub(crate) fn consts(&self, level: RpmLevel) -> &LevelConsts {
        &self.consts[level.0 as usize]
    }

    /// Number of levels on the ladder.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.rpms.len()
    }

    /// The full-speed (fastest) level.
    #[must_use]
    #[inline]
    pub fn max_level(&self) -> RpmLevel {
        RpmLevel((self.rpms.len() - 1) as u8)
    }

    /// True if `level` exists on this ladder.
    #[must_use]
    pub fn contains(&self, level: RpmLevel) -> bool {
        (level.0 as usize) < self.rpms.len()
    }

    /// Spindle speed at `level`, RPM.
    ///
    /// # Panics
    /// If `level` is off the ladder.
    #[must_use]
    pub fn rpm(&self, level: RpmLevel) -> u32 {
        self.rpms[level.0 as usize]
    }

    /// The level whose speed equals `rpm`, if on the ladder.
    #[must_use]
    pub fn level_of_rpm(&self, rpm: u32) -> Option<RpmLevel> {
        self.rpms
            .iter()
            .position(|&r| r == rpm)
            .map(|i| RpmLevel(i as u8))
    }

    /// Idle (spinning, no service) power at `level`, watts.
    #[must_use]
    #[inline]
    pub fn idle_power_w(&self, level: RpmLevel) -> f64 {
        self.idle_power_w[level.0 as usize]
    }

    /// Power while servicing a request at `level`, watts.
    #[must_use]
    #[inline]
    pub fn active_power_w(&self, level: RpmLevel) -> f64 {
        self.idle_power_w[level.0 as usize] + self.active_extra_w
    }

    /// Time to transition between two levels, seconds. Zero if equal.
    #[must_use]
    pub fn transition_secs(&self, from: RpmLevel, to: RpmLevel) -> f64 {
        let steps = (i32::from(from.0) - i32::from(to.0)).unsigned_abs();
        f64::from(steps) * self.secs_per_step
    }

    /// Energy consumed by a transition between two levels, joules.
    ///
    /// Per the paper (Section 4.1) we conservatively charge the transition
    /// at the *faster* of the two levels' idle power for its whole
    /// duration.
    #[must_use]
    pub fn transition_energy_j(&self, from: RpmLevel, to: RpmLevel) -> f64 {
        let faster = if from >= to { from } else { to };
        self.idle_power_w(faster) * self.transition_secs(from, to)
    }

    /// One level slower, saturating at the ladder bottom.
    #[must_use]
    pub fn step_down(&self, level: RpmLevel) -> RpmLevel {
        RpmLevel(level.0.saturating_sub(1))
    }

    /// One level faster, saturating at full speed.
    #[must_use]
    pub fn step_up(&self, level: RpmLevel) -> RpmLevel {
        if level >= self.max_level() {
            self.max_level()
        } else {
            RpmLevel(level.0 + 1)
        }
    }

    /// Ratio `rpm(level) / rpm_max`, used by the service-time model.
    #[must_use]
    pub fn speed_ratio(&self, level: RpmLevel) -> f64 {
        self.consts(level).speed_ratio
    }

    /// Iterates all levels from slowest to fastest.
    pub fn levels(&self) -> impl DoubleEndedIterator<Item = RpmLevel> + '_ {
        (0..self.rpms.len()).map(|i| RpmLevel(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ultrastar36z15;

    fn ladder() -> RpmLadder {
        RpmLadder::new(&ultrastar36z15())
    }

    #[test]
    fn ladder_has_eleven_levels_for_table1() {
        assert_eq!(ladder().level_count(), 11);
    }

    #[test]
    fn endpoints_match_params() {
        let l = ladder();
        assert_eq!(l.rpm(RpmLevel::MIN), 3_000);
        assert_eq!(l.rpm(l.max_level()), 15_000);
    }

    #[test]
    fn full_speed_power_matches_table1() {
        let l = ladder();
        assert!((l.idle_power_w(l.max_level()) - 10.2).abs() < 1e-9);
        assert!((l.active_power_w(l.max_level()) - 13.5).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotonic_in_speed() {
        let l = ladder();
        let mut prev = 0.0;
        for level in l.levels() {
            let p = l.idle_power_w(level);
            assert!(p > prev, "power must strictly increase with RPM");
            prev = p;
        }
    }

    #[test]
    fn lowest_level_power_is_near_standby_floor() {
        let l = ladder();
        let p = l.idle_power_w(RpmLevel::MIN);
        // (3000/15000)^2.8 = 0.2^2.8 ~ 0.0111 -> 2.5 + 7.7 * 0.0111 ~ 2.59 W.
        assert!(p > 2.5 && p < 2.7, "got {p}");
    }

    #[test]
    fn transition_time_is_linear_in_steps() {
        let l = ladder();
        let per_step = ultrastar36z15().rpm_transition_secs_per_step;
        let full = l.transition_secs(RpmLevel::MIN, l.max_level());
        assert!(
            (full - 10.0 * per_step).abs() < 1e-9,
            "10 steps of {per_step} s"
        );
        assert_eq!(l.transition_secs(RpmLevel(3), RpmLevel(3)), 0.0);
        assert!(
            (l.transition_secs(RpmLevel(2), RpmLevel(5))
                - l.transition_secs(RpmLevel(5), RpmLevel(2)))
            .abs()
                < 1e-12,
            "transition time is symmetric"
        );
    }

    #[test]
    fn transition_energy_charged_at_faster_level() {
        let l = ladder();
        let down = l.transition_energy_j(l.max_level(), RpmLevel::MIN);
        let up = l.transition_energy_j(RpmLevel::MIN, l.max_level());
        assert!((down - up).abs() < 1e-12, "conservative model is symmetric");
        let full_swing = 10.0 * ultrastar36z15().rpm_transition_secs_per_step;
        assert!((down - 10.2 * full_swing).abs() < 1e-9);
    }

    #[test]
    fn step_up_and_down_saturate() {
        let l = ladder();
        assert_eq!(l.step_down(RpmLevel::MIN), RpmLevel::MIN);
        assert_eq!(l.step_up(l.max_level()), l.max_level());
        assert_eq!(l.step_up(RpmLevel(3)), RpmLevel(4));
        assert_eq!(l.step_down(RpmLevel(3)), RpmLevel(2));
    }

    #[test]
    fn level_of_rpm_round_trips() {
        let l = ladder();
        for level in l.levels() {
            assert_eq!(l.level_of_rpm(l.rpm(level)), Some(level));
        }
        assert_eq!(l.level_of_rpm(3_100), None);
    }

    #[test]
    fn speed_ratio_spans_unit_interval() {
        let l = ladder();
        assert!((l.speed_ratio(RpmLevel::MIN) - 0.2).abs() < 1e-12);
        assert!((l.speed_ratio(l.max_level()) - 1.0).abs() < 1e-12);
    }
}
