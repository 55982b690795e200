//! Power-management policies.

use sdpm_trace::PowerAction;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Reactive TPM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TpmConfig {
    /// Idleness threshold in seconds after which the disk spins down.
    /// `None` selects the break-even time (the classic "2-competitive"
    /// fixed threshold).
    pub threshold_secs: Option<f64>,
}

/// Reactive DRPM configuration (the window heuristic of Gurumurthi et al.
/// \[10\], as the paper parameterizes it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrpmConfig {
    /// Response-time observation window, in requests (paper: 30).
    pub window: usize,
    /// Upper tolerance on the window's mean service slowdown (observed /
    /// full-speed): exceeding it makes the controller raise the disk's
    /// speed.
    pub upper_tolerance: f64,
    /// Lower tolerance: a window mean below it lets the disk keep
    /// drifting down.
    pub lower_tolerance: f64,
    /// Seconds of continuous idleness after which an idle disk drifts one
    /// RPM level down (repeating while it stays idle).
    pub idle_drift_secs: f64,
}

impl Default for DrpmConfig {
    fn default() -> Self {
        DrpmConfig {
            window: 30,
            upper_tolerance: 1.3,
            lower_tolerance: 1.1,
            idle_drift_secs: 0.055,
        }
    }
}

/// Compiler-directed execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirectiveConfig {
    /// Application-side overhead of one power-management call (`Tm` in the
    /// paper's pre-activation formula (1)), charged as compute time.
    pub overhead_secs: f64,
}

impl Default for DirectiveConfig {
    fn default() -> Self {
        DirectiveConfig {
            overhead_secs: 50e-6,
        }
    }
}

/// Epoch-based online adaptive power management — the 8th scheme, only
/// meaningful under contention (shared-pool mixes, [`crate::mix`]).
///
/// Per disk, an EWMA of observed idle-gap lengths predicts the next gap.
/// When the prediction clears `margin × break-even`, the disk spins down
/// *immediately* at idle start (no 2-competitive wait); otherwise it
/// stays up. A feedback loop closes each `epoch_secs`: epochs dominated
/// by mispredicted spin-downs (demand wakes inside the break-even
/// window) grow the margin, epochs that left long idles unexploited
/// shrink it — the idle-prediction-with-feedback shape of online disk
/// energy managers (arXiv 1703.02591) and runtime slack reclaimers
/// (COUNTDOWN, arXiv 1806.07258), here driving the spindle instead of
/// DVFS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Feedback epoch length, seconds (> 0; an infinite epoch never
    /// closes, so the margin never moves).
    pub epoch_secs: f64,
    /// EWMA smoothing factor in `(0, 1]`; 1 tracks only the last gap.
    pub ewma_alpha: f64,
    /// Initial spin-down margin: predicted idle must exceed
    /// `margin × break-even` before the policy sleeps the disk
    /// (positive and finite).
    pub margin: f64,
    /// Multiplier applied to the margin after a misfire-dominated epoch
    /// (must be > 1).
    pub margin_grow: f64,
    /// Multiplier applied after an epoch with unexploited long idles
    /// (must be in `(0, 1)`).
    pub margin_shrink: f64,
}

impl AdaptiveConfig {
    /// Clamp range for the feedback margin; keeps a pathological epoch
    /// history from pinning the policy permanently asleep or awake.
    pub const MARGIN_RANGE: (f64, f64) = (0.25, 8.0);

    /// Checks each field against the range its doc states (NaN is in
    /// none), naming the first field out of range.
    pub(crate) fn check(&self) -> Result<(), String> {
        let fields = [
            ("epoch_secs", self.epoch_secs, self.epoch_secs > 0.0, "> 0"),
            (
                "ewma_alpha",
                self.ewma_alpha,
                self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
                "in (0, 1]",
            ),
            (
                "margin",
                self.margin,
                self.margin > 0.0 && self.margin.is_finite(),
                "positive and finite",
            ),
            (
                "margin_grow",
                self.margin_grow,
                self.margin_grow > 1.0,
                "> 1",
            ),
            (
                "margin_shrink",
                self.margin_shrink,
                self.margin_shrink > 0.0 && self.margin_shrink < 1.0,
                "in (0, 1)",
            ),
        ];
        match fields.into_iter().find(|&(_, _, ok, _)| !ok) {
            Some((name, value, _, range)) => Err(format!(
                "adaptive policy {name} must be {range}, got {value}"
            )),
            None => Ok(()),
        }
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            epoch_secs: 30.0,
            ewma_alpha: 0.5,
            margin: 1.5,
            margin_grow: 2.0,
            margin_shrink: 0.5,
        }
    }
}

/// A timed oracle action on one disk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledAction {
    /// Absolute simulated time the action fires.
    pub at: f64,
    /// What to do.
    pub action: PowerAction,
}

/// Power-management policy to simulate under.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// No power management: disks idle at full speed between requests.
    Base,
    /// Traditional (reactive) spin-down power management.
    Tpm(TpmConfig),
    /// Oracle TPM: spins down exactly the gaps that pay off, with perfect
    /// pre-activation. Not implementable; an upper bound (Section 4.2).
    IdealTpm,
    /// Reactive DRPM.
    Drpm(DrpmConfig),
    /// Oracle DRPM: optimal speed per idle gap, perfect pre-activation.
    IdealDrpm,
    /// Execute the `Power` events embedded in the trace by the compiler
    /// (CMTPM / CMDRPM, depending on which calls the compiler inserted).
    Directive(DirectiveConfig),
    /// Replay a precomputed per-disk action schedule: what the oracle
    /// policies lower to, once [`crate::oracle`] has built the schedule
    /// from a clean Base run's gaps. Shared, so a kept schedule replays
    /// in place.
    Schedule(Arc<[Vec<ScheduledAction>]>),
}

impl Policy {
    /// Short display name matching the paper's scheme labels.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Base => "Base",
            Policy::Tpm(_) => "TPM",
            Policy::IdealTpm => "ITPM",
            Policy::Drpm(_) => "DRPM",
            Policy::IdealDrpm => "IDRPM",
            Policy::Directive(_) => "CM",
            Policy::Schedule(_) => "Schedule",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let d = DrpmConfig::default();
        assert_eq!(d.window, 30);
        assert!(d.upper_tolerance > d.lower_tolerance);
        let t = TpmConfig::default();
        assert!(t.threshold_secs.is_none());
    }

    #[test]
    fn labels_are_paper_scheme_names() {
        assert_eq!(Policy::Base.label(), "Base");
        assert_eq!(Policy::Tpm(TpmConfig::default()).label(), "TPM");
        assert_eq!(Policy::IdealTpm.label(), "ITPM");
        assert_eq!(Policy::Drpm(DrpmConfig::default()).label(), "DRPM");
        assert_eq!(Policy::IdealDrpm.label(), "IDRPM");
    }
}
