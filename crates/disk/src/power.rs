//! Disk power-state machine.
//!
//! One [`PowerStateMachine`] tracks a single disk's power state over
//! simulated time and integrates its energy. It supports both management
//! styles the paper studies:
//!
//! * **TPM** — `spin_down` to standby and `spin_up` back, with the Table 1
//!   transition times/energies charged at a constant rate over the
//!   transition interval (so partially-observed transitions integrate
//!   correctly), and
//! * **DRPM** — `set_rpm` shifts between ladder levels, charging the faster
//!   level's idle power for the shift duration (the paper's conservative
//!   assumption).
//!
//! The machine is *mechanism*, not *policy*: callers (the simulator's
//! policy implementations) decide when to issue events; the machine
//! enforces legality (e.g. you cannot spin down a disk that is mid-service)
//! and keeps the joule ledger.

use crate::energy::EnergyIntegrator;
use crate::params::DiskParams;
use crate::rpm::{RpmLadder, RpmLevel};
use serde::{Deserialize, Serialize};

/// Instantaneous power state of one disk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DiskPowerState {
    /// Spinning at `level`, not servicing a request.
    Idle { level: RpmLevel },
    /// Servicing a request at `level`.
    Active { level: RpmLevel },
    /// Spindle stopped (TPM low-power mode).
    Standby,
    /// TPM spin-down in progress; completes (enters `Standby`) at `until`.
    SpinningDown { until: f64 },
    /// TPM spin-up in progress; completes (enters `Idle` at full speed) at
    /// `until`.
    SpinningUp { until: f64 },
    /// DRPM speed shift in progress; completes (enters `Idle { to }`) at
    /// `until`.
    Shifting {
        from: RpmLevel,
        to: RpmLevel,
        until: f64,
    },
}

impl DiskPowerState {
    /// The spindle level if the disk is spinning steadily, else `None`.
    #[must_use]
    pub fn steady_level(&self) -> Option<RpmLevel> {
        match *self {
            DiskPowerState::Idle { level } | DiskPowerState::Active { level } => Some(level),
            _ => None,
        }
    }

    /// True if the disk can begin servicing a request right now.
    #[must_use]
    pub fn can_service(&self) -> bool {
        matches!(self, DiskPowerState::Idle { .. })
    }
}

/// A power-management event applied to the machine, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerEvent {
    BeginService,
    EndService,
    SpinDown,
    SpinUp,
    SetRpm(RpmLevel),
}

/// Errors from illegal event applications.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerError {
    /// The requested event is not legal in the current state.
    IllegalTransition {
        state: &'static str,
        event: &'static str,
    },
    /// `set_rpm` named a level that is off the disk's ladder.
    BadLevel,
    /// An event was applied at a time earlier than the machine's clock.
    TimeWentBackwards { now: f64, event_time: f64 },
}

impl std::fmt::Display for PowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerError::IllegalTransition { state, event } => {
                write!(f, "illegal power event {event} in state {state}")
            }
            PowerError::BadLevel => write!(f, "RPM level off the ladder"),
            PowerError::TimeWentBackwards { now, event_time } => {
                write!(f, "event at t={event_time} precedes machine clock t={now}")
            }
        }
    }
}

impl std::error::Error for PowerError {}

/// Per-disk power state + energy ledger.
#[derive(Debug, Clone)]
pub struct PowerStateMachine {
    params: DiskParams,
    ladder: RpmLadder,
    state: DiskPowerState,
    now: f64,
    energy: EnergyIntegrator,
    /// Count of completed spin-down -> standby trips (for stats).
    pub spin_downs: u64,
    /// Count of completed standby -> spinning trips.
    pub spin_ups: u64,
    /// Count of completed RPM shifts.
    pub rpm_shifts: u64,
}

impl PowerStateMachine {
    /// A disk that starts idle at full speed at `t = 0`.
    #[must_use]
    pub fn new(params: DiskParams) -> Self {
        let ladder = RpmLadder::new(&params);
        let state = DiskPowerState::Idle {
            level: ladder.max_level(),
        };
        PowerStateMachine {
            params,
            ladder,
            state,
            now: 0.0,
            energy: EnergyIntegrator::default(),
            spin_downs: 0,
            spin_ups: 0,
            rpm_shifts: 0,
        }
    }

    /// Current simulated time of this machine, seconds.
    #[must_use]
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Current state.
    #[must_use]
    #[inline]
    pub fn state(&self) -> DiskPowerState {
        self.state
    }

    /// The ladder this machine runs on.
    #[must_use]
    pub fn ladder(&self) -> &RpmLadder {
        &self.ladder
    }

    /// Accumulated energy breakdown so far.
    #[must_use]
    pub fn energy(&self) -> &EnergyIntegrator {
        &self.energy
    }

    /// Earliest time at which the disk will be able to service a request,
    /// given its current state and assuming the caller issues whatever
    /// spin-up is needed *now*. In `Standby` this includes the full
    /// spin-up.
    #[must_use]
    pub fn ready_time(&self) -> f64 {
        match self.state {
            DiskPowerState::Idle { .. } | DiskPowerState::Active { .. } => self.now,
            DiskPowerState::Standby => self.now + self.params.spin_up_secs,
            DiskPowerState::SpinningDown { until } => {
                // Must finish spinning down, then spin fully up.
                until + self.params.spin_up_secs
            }
            DiskPowerState::SpinningUp { until } | DiskPowerState::Shifting { until, .. } => until,
        }
    }

    /// Charges `dur` seconds in `state` at that state's power rate.
    #[inline]
    fn charge(&mut self, state: DiskPowerState, dur: f64) {
        debug_assert!(dur >= 0.0);
        let p = &self.params;
        match state {
            DiskPowerState::Idle { level } => {
                let rate = self.ladder.idle_power_w(level);
                self.energy.add_idle(rate * dur, dur);
            }
            DiskPowerState::Active { level } => {
                let rate = self.ladder.active_power_w(level);
                self.energy.add_active(rate * dur, dur);
            }
            DiskPowerState::Standby => {
                let rate = p.standby_power_w;
                self.energy.add_standby(rate * dur, dur);
            }
            DiskPowerState::SpinningDown { .. } => {
                let rate = p.spin_down_energy_j / p.spin_down_secs;
                self.energy.add_spin_down(rate * dur, dur);
            }
            DiskPowerState::SpinningUp { .. } => {
                let rate = p.spin_up_energy_j / p.spin_up_secs;
                self.energy.add_spin_up(rate * dur, dur);
            }
            DiskPowerState::Shifting { from, to, .. } => {
                let faster = if from >= to { from } else { to };
                let rate = self.ladder.idle_power_w(faster);
                self.energy.add_transition(rate * dur, dur);
            }
        }
    }

    /// Advances the clock to `t`, integrating energy and auto-completing
    /// any in-flight transition whose end falls in `(now, t]`.
    ///
    /// Advancing to the past is a no-op for `t == now` and an error
    /// otherwise.
    #[inline]
    pub fn advance(&mut self, t: f64) -> Result<(), PowerError> {
        if t < self.now {
            return Err(PowerError::TimeWentBackwards {
                now: self.now,
                event_time: t,
            });
        }
        match self.state {
            // The steady step: the disk spins with no transition in
            // flight, so the whole interval is charged in its state.
            DiskPowerState::Idle { .. } | DiskPowerState::Active { .. } => {
                if self.now < t {
                    self.charge(self.state, t - self.now);
                    self.now = t;
                }
            }
            _ => self.advance_slow(t),
        }
        Ok(())
    }

    /// [`Self::advance`] from standby or a transition: completes the
    /// transition if it ends by `t`, then charges the rest of the
    /// interval in the state it landed in.
    fn advance_slow(&mut self, t: f64) {
        while self.now < t {
            match self.state {
                DiskPowerState::SpinningDown { until } if until <= t => {
                    self.charge(self.state, until - self.now);
                    self.now = until;
                    self.state = DiskPowerState::Standby;
                    self.spin_downs += 1;
                }
                DiskPowerState::SpinningUp { until } if until <= t => {
                    self.charge(self.state, until - self.now);
                    self.now = until;
                    self.state = DiskPowerState::Idle {
                        level: self.ladder.max_level(),
                    };
                    self.spin_ups += 1;
                }
                DiskPowerState::Shifting { to, until, .. } if until <= t => {
                    self.charge(self.state, until - self.now);
                    self.now = until;
                    self.state = DiskPowerState::Idle { level: to };
                    self.rpm_shifts += 1;
                }
                state => {
                    self.charge(state, t - self.now);
                    self.now = t;
                }
            }
        }
    }

    /// Begins servicing a request at time `t`. The disk must be `Idle`
    /// (spinning steadily) at `t`; callers are responsible for first
    /// waiting out standby/transition states (see [`Self::ready_time`]).
    #[inline]
    pub fn begin_service(&mut self, t: f64) -> Result<RpmLevel, PowerError> {
        self.advance(t)?;
        match self.state {
            DiskPowerState::Idle { level } => {
                self.state = DiskPowerState::Active { level };
                Ok(level)
            }
            _ => Err(self.illegal("begin_service")),
        }
    }

    /// Ends the in-flight service at time `t`, returning to `Idle`.
    #[inline]
    pub fn end_service(&mut self, t: f64) -> Result<(), PowerError> {
        self.advance(t)?;
        match self.state {
            DiskPowerState::Active { level } => {
                self.state = DiskPowerState::Idle { level };
                Ok(())
            }
            _ => Err(self.illegal("end_service")),
        }
    }

    /// Initiates a TPM spin-down at time `t`. Legal only from `Idle`.
    pub fn spin_down(&mut self, t: f64) -> Result<(), PowerError> {
        self.advance(t)?;
        match self.state {
            DiskPowerState::Idle { .. } => {
                self.state = DiskPowerState::SpinningDown {
                    until: t + self.params.spin_down_secs,
                };
                Ok(())
            }
            _ => Err(self.illegal("spin_down")),
        }
    }

    /// Initiates a TPM spin-up at time `t`. Legal only from `Standby`.
    pub fn spin_up(&mut self, t: f64) -> Result<(), PowerError> {
        self.advance(t)?;
        match self.state {
            DiskPowerState::Standby => {
                self.state = DiskPowerState::SpinningUp {
                    until: t + self.params.spin_up_secs,
                };
                Ok(())
            }
            _ => Err(self.illegal("spin_up")),
        }
    }

    /// Initiates a DRPM speed change at time `t`. Legal only from `Idle`;
    /// a no-op if the disk is already at `to`.
    pub fn set_rpm(&mut self, t: f64, to: RpmLevel) -> Result<(), PowerError> {
        if !self.ladder.contains(to) {
            return Err(PowerError::BadLevel);
        }
        self.advance(t)?;
        match self.state {
            DiskPowerState::Idle { level } if level == to => Ok(()),
            DiskPowerState::Idle { level } => {
                self.state = DiskPowerState::Shifting {
                    from: level,
                    to,
                    until: t + self.ladder.transition_secs(level, to),
                };
                Ok(())
            }
            _ => Err(self.illegal("set_rpm")),
        }
    }

    fn illegal(&self, event: &'static str) -> PowerError {
        let state = match self.state {
            DiskPowerState::Idle { .. } => "Idle",
            DiskPowerState::Active { .. } => "Active",
            DiskPowerState::Standby => "Standby",
            DiskPowerState::SpinningDown { .. } => "SpinningDown",
            DiskPowerState::SpinningUp { .. } => "SpinningUp",
            DiskPowerState::Shifting { .. } => "Shifting",
        };
        PowerError::IllegalTransition { state, event }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ultrastar36z15;

    fn machine() -> PowerStateMachine {
        PowerStateMachine::new(ultrastar36z15())
    }

    #[test]
    fn starts_idle_at_full_speed() {
        let m = machine();
        assert_eq!(
            m.state(),
            DiskPowerState::Idle {
                level: m.ladder().max_level()
            }
        );
    }

    #[test]
    fn idle_hour_costs_idle_power() {
        let mut m = machine();
        m.advance(3600.0).unwrap();
        let e = m.energy().breakdown();
        assert!((e.idle_j - 10.2 * 3600.0).abs() < 1e-6);
        assert_eq!(e.active_j, 0.0);
    }

    #[test]
    fn service_interval_charges_active_power() {
        let mut m = machine();
        m.begin_service(1.0).unwrap();
        m.end_service(1.5).unwrap();
        m.advance(2.0).unwrap();
        let e = m.energy().breakdown();
        assert!((e.active_j - 13.5 * 0.5).abs() < 1e-9);
        assert!((e.idle_j - 10.2 * 1.5).abs() < 1e-9);
    }

    #[test]
    fn spin_down_reaches_standby_and_charges_lump() {
        let mut m = machine();
        m.spin_down(0.0).unwrap();
        m.advance(10.0).unwrap();
        assert_eq!(m.state(), DiskPowerState::Standby);
        assert_eq!(m.spin_downs, 1);
        let e = m.energy().breakdown();
        assert!((e.spin_down_j - 13.0).abs() < 1e-9);
        assert!((e.standby_j - 2.5 * 8.5).abs() < 1e-9);
    }

    #[test]
    fn spin_up_restores_full_speed() {
        let mut m = machine();
        m.spin_down(0.0).unwrap();
        m.advance(5.0).unwrap();
        m.spin_up(5.0).unwrap();
        m.advance(20.0).unwrap();
        assert_eq!(
            m.state(),
            DiskPowerState::Idle {
                level: m.ladder().max_level()
            }
        );
        assert_eq!(m.spin_ups, 1);
        let e = m.energy().breakdown();
        assert!((e.spin_up_j - 135.0).abs() < 1e-9);
    }

    #[test]
    fn full_power_cycle_matches_break_even_arithmetic() {
        // A 15.1948.. s idle gap spent down should cost exactly the same
        // as staying idle, per the break-even derivation in DESIGN.md.
        let gap = (148.0 - 2.5 * 12.4) / (10.2 - 2.5);
        let mut down = machine();
        down.spin_down(0.0).unwrap();
        down.advance(gap - 10.9).unwrap();
        down.spin_up(gap - 10.9).unwrap();
        down.advance(gap).unwrap();
        let mut stay = machine();
        stay.advance(gap).unwrap();
        let e_down = down.energy().breakdown().total_j();
        let e_stay = stay.energy().breakdown().total_j();
        assert!(
            (e_down - e_stay).abs() < 1e-6,
            "down {e_down} vs stay {e_stay}"
        );
    }

    #[test]
    fn set_rpm_shifts_and_lands_on_target() {
        let mut m = machine();
        let target = RpmLevel(2);
        m.set_rpm(0.0, target).unwrap();
        match m.state() {
            DiskPowerState::Shifting { from, to, until } => {
                assert_eq!(from, m.ladder().max_level());
                assert_eq!(to, target);
                let step = ultrastar36z15().rpm_transition_secs_per_step;
                assert!((until - 8.0 * step).abs() < 1e-12);
            }
            s => panic!("expected Shifting, got {s:?}"),
        }
        m.advance(2.0).unwrap();
        assert_eq!(m.state(), DiskPowerState::Idle { level: target });
        assert_eq!(m.rpm_shifts, 1);
    }

    #[test]
    fn set_rpm_same_level_is_noop() {
        let mut m = machine();
        let max = m.ladder().max_level();
        m.set_rpm(1.0, max).unwrap();
        assert_eq!(m.state(), DiskPowerState::Idle { level: max });
        assert_eq!(m.rpm_shifts, 0);
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let mut m = machine();
        m.begin_service(0.0).unwrap();
        assert!(m.spin_down(0.5).is_err());
        assert!(m.set_rpm(0.5, RpmLevel(0)).is_err());
        assert!(m.begin_service(0.5).is_err());
        m.end_service(1.0).unwrap();
        assert!(m.end_service(1.0).is_err());
        assert!(m.spin_up(1.0).is_err(), "cannot spin up a spinning disk");
    }

    #[test]
    fn off_ladder_level_is_rejected() {
        let mut m = machine();
        assert_eq!(m.set_rpm(0.0, RpmLevel(200)), Err(PowerError::BadLevel));
    }

    #[test]
    fn time_cannot_go_backwards() {
        let mut m = machine();
        m.advance(5.0).unwrap();
        assert!(matches!(
            m.advance(4.0),
            Err(PowerError::TimeWentBackwards { .. })
        ));
    }

    #[test]
    fn ready_time_accounts_for_transitions() {
        let mut m = machine();
        assert_eq!(m.ready_time(), 0.0);
        m.spin_down(0.0).unwrap();
        // Mid-spin-down: must finish (at 1.5) then spin up (10.9).
        assert!((m.ready_time() - (1.5 + 10.9)).abs() < 1e-12);
        m.advance(2.0).unwrap();
        assert!((m.ready_time() - (2.0 + 10.9)).abs() < 1e-12);
        m.spin_up(2.0).unwrap();
        assert!((m.ready_time() - 12.9).abs() < 1e-12);
    }

    #[test]
    fn energy_total_is_sum_of_parts_through_mixed_run() {
        let mut m = machine();
        m.begin_service(0.5).unwrap();
        m.end_service(0.9).unwrap();
        m.set_rpm(1.0, RpmLevel(4)).unwrap();
        m.advance(30.0).unwrap();
        m.set_rpm(30.0, m.ladder().max_level()).unwrap();
        m.advance(40.0).unwrap();
        let b = m.energy().breakdown();
        let total = b.total_j();
        let sum =
            b.active_j + b.idle_j + b.standby_j + b.spin_up_j + b.spin_down_j + b.transition_j;
        assert!((total - sum).abs() < 1e-9);
        assert!(b.transition_j > 0.0);
    }
}
