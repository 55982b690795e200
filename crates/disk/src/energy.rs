//! Energy accounting.
//!
//! The simulator reports disk-subsystem energy "by where it went": steady
//! states (active / idle / standby) and transitions (spin-up / spin-down /
//! RPM shifts). Keeping the breakdown — rather than a single joule counter —
//! lets the experiment harness explain *why* a scheme wins (e.g. DRPM's
//! savings show up as idle joules moving down the RPM ladder, while TPM's
//! failure shows up as spin-up joules swamping standby savings).

use serde::{Deserialize, Serialize};

/// Joules and seconds accumulated per power state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Joules while servicing requests.
    pub active_j: f64,
    /// Joules while spinning idle (at any RPM level).
    pub idle_j: f64,
    /// Joules in standby.
    pub standby_j: f64,
    /// Joules spent spinning up.
    pub spin_up_j: f64,
    /// Joules spent spinning down.
    pub spin_down_j: f64,
    /// Joules spent shifting between RPM levels.
    pub transition_j: f64,
    /// Seconds spent servicing.
    pub active_secs: f64,
    /// Seconds spent idle-spinning.
    pub idle_secs: f64,
    /// Seconds in standby.
    pub standby_secs: f64,
    /// Seconds in any transition (spin-up + spin-down + RPM shifts).
    pub transition_secs: f64,
}

impl EnergyBreakdown {
    /// Total joules across all states.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.active_j
            + self.idle_j
            + self.standby_j
            + self.spin_up_j
            + self.spin_down_j
            + self.transition_j
    }

    /// Total accounted seconds (should equal the disk's observed lifetime).
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.active_secs + self.idle_secs + self.standby_secs + self.transition_secs
    }

    /// Element-wise sum, used to aggregate per-disk ledgers into a
    /// subsystem total.
    #[must_use]
    pub fn merged(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            active_j: self.active_j + other.active_j,
            idle_j: self.idle_j + other.idle_j,
            standby_j: self.standby_j + other.standby_j,
            spin_up_j: self.spin_up_j + other.spin_up_j,
            spin_down_j: self.spin_down_j + other.spin_down_j,
            transition_j: self.transition_j + other.transition_j,
            active_secs: self.active_secs + other.active_secs,
            idle_secs: self.idle_secs + other.idle_secs,
            standby_secs: self.standby_secs + other.standby_secs,
            transition_secs: self.transition_secs + other.transition_secs,
        }
    }
}

/// Mutable joule ledger used by the power-state machine.
#[derive(Debug, Clone, Default)]
pub struct EnergyIntegrator {
    breakdown: EnergyBreakdown,
}

impl EnergyIntegrator {
    /// Snapshot of the accumulated breakdown.
    #[must_use]
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    #[inline]
    pub fn add_active(&mut self, joules: f64, secs: f64) {
        debug_assert!(joules >= 0.0 && secs >= 0.0);
        self.breakdown.active_j += joules;
        self.breakdown.active_secs += secs;
    }

    #[inline]
    pub fn add_idle(&mut self, joules: f64, secs: f64) {
        debug_assert!(joules >= 0.0 && secs >= 0.0);
        self.breakdown.idle_j += joules;
        self.breakdown.idle_secs += secs;
    }

    #[inline]
    pub fn add_standby(&mut self, joules: f64, secs: f64) {
        debug_assert!(joules >= 0.0 && secs >= 0.0);
        self.breakdown.standby_j += joules;
        self.breakdown.standby_secs += secs;
    }

    #[inline]
    pub fn add_spin_up(&mut self, joules: f64, secs: f64) {
        debug_assert!(joules >= 0.0 && secs >= 0.0);
        self.breakdown.spin_up_j += joules;
        self.breakdown.transition_secs += secs;
    }

    #[inline]
    pub fn add_spin_down(&mut self, joules: f64, secs: f64) {
        debug_assert!(joules >= 0.0 && secs >= 0.0);
        self.breakdown.spin_down_j += joules;
        self.breakdown.transition_secs += secs;
    }

    #[inline]
    pub fn add_transition(&mut self, joules: f64, secs: f64) {
        debug_assert!(joules >= 0.0 && secs >= 0.0);
        self.breakdown.transition_j += joules;
        self.breakdown.transition_secs += secs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_zero() {
        let e = EnergyIntegrator::default();
        assert_eq!(e.breakdown().total_j(), 0.0);
        assert_eq!(e.breakdown().total_secs(), 0.0);
    }

    #[test]
    fn totals_sum_all_categories() {
        let mut e = EnergyIntegrator::default();
        e.add_active(1.0, 0.1);
        e.add_idle(2.0, 0.2);
        e.add_standby(3.0, 0.3);
        e.add_spin_up(4.0, 0.4);
        e.add_spin_down(5.0, 0.5);
        e.add_transition(6.0, 0.6);
        let b = e.breakdown();
        assert!((b.total_j() - 21.0).abs() < 1e-12);
        assert!((b.total_secs() - 2.1).abs() < 1e-12);
    }

    #[test]
    fn merged_adds_elementwise() {
        let mut a = EnergyIntegrator::default();
        a.add_active(1.0, 1.0);
        a.add_idle(2.0, 2.0);
        let mut b = EnergyIntegrator::default();
        b.add_active(10.0, 10.0);
        b.add_standby(5.0, 5.0);
        let m = a.breakdown().merged(&b.breakdown());
        assert!((m.active_j - 11.0).abs() < 1e-12);
        assert!((m.idle_j - 2.0).abs() < 1e-12);
        assert!((m.standby_j - 5.0).abs() < 1e-12);
        assert!((m.total_secs() - 18.0).abs() < 1e-12);
    }

    #[test]
    fn transition_seconds_pool_spin_and_shift_time() {
        let mut e = EnergyIntegrator::default();
        e.add_spin_up(1.0, 10.9);
        e.add_spin_down(1.0, 1.5);
        e.add_transition(1.0, 0.3);
        assert!((e.breakdown().transition_secs - 12.7).abs() < 1e-12);
    }
}
