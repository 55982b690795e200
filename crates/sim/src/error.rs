//! Typed simulation errors.
//!
//! The engine historically `expect()`ed its way through untrusted input:
//! a corrupted trace, an out-of-pool disk id, or a power-state call the
//! policy did not anticipate aborted the whole process. Every such
//! condition now flows through [`SimError`], returned by
//! [`crate::Engine::events`] and [`crate::Engine::runs`]; the panicking
//! shorthands ([`crate::simulate`], [`crate::simulate_source`]) panic
//! with the same messages, so their `#[should_panic]` tests observe
//! identical behavior.

use sdpm_disk::PowerError;
use sdpm_layout::DiskId;

/// Why a simulation could not run to completion.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The trace was generated against a different pool size than the
    /// engine simulates.
    PoolMismatch {
        /// Pool size the trace was generated for.
        trace: u32,
        /// Pool size the engine simulates.
        pool: u32,
    },
    /// An event named a disk outside the pool (a corrupted or hand-built
    /// trace that skipped [`sdpm_trace::Trace::validate`], or a run
    /// record's template).
    DiskOutOfRange {
        /// The offending disk id.
        disk: u32,
        /// Pool size the engine simulates.
        pool: u32,
    },
    /// A power-state machine call failed where the engine's sequencing
    /// invariants said it could not — reachable only via malformed
    /// input (e.g. out-of-order arrivals from a corrupted trace).
    Power {
        /// The machine call that failed.
        op: &'static str,
        /// Disk the call targeted.
        disk: u32,
        /// Simulation time of the call.
        at: f64,
        /// The underlying state-machine error.
        source: PowerError,
    },
    /// A materialized trace failed [`sdpm_trace::Trace::validate`].
    InvalidTrace(String),
    /// Disk parameters failed [`sdpm_disk::DiskParams::validate`].
    InvalidParams(String),
    /// A run record failed [`sdpm_trace::Run::validate`] (its expansion
    /// would be degenerate or overflow).
    InvalidRun(String),
    /// [`crate::Engine::stream`] was asked to play an oracle policy (named
    /// by its label), whose clean Base pass needs the whole trace before
    /// the first measured event.
    OracleStream(&'static str),
}

impl SimError {
    /// A [`SimError::Power`] from an engine machine-call site.
    #[must_use]
    pub(crate) fn power(op: &'static str, disk: DiskId, at: f64, source: PowerError) -> Self {
        SimError::Power {
            op,
            disk: disk.0,
            at,
            source,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Wording matches the historical assert/expect messages: the
            // infallible entry points panic with `Display`, and callers
            // match on these substrings.
            SimError::PoolMismatch { trace, pool } => {
                write!(
                    f,
                    "trace generated for a {trace}-disk pool, simulating {pool}"
                )
            }
            SimError::DiskOutOfRange { disk, pool } => {
                write!(f, "event names disk {disk} outside the {pool}-disk pool")
            }
            SimError::Power {
                op,
                disk,
                at,
                source,
            } => {
                write!(f, "{op} failed on disk {disk} at t={at}: {source}")
            }
            SimError::InvalidTrace(why) => write!(f, "simulate requires a valid trace: {why}"),
            SimError::InvalidParams(why) => {
                write!(f, "simulate requires valid DiskParams: {why}")
            }
            SimError::InvalidRun(why) => write!(f, "invalid run record: {why}"),
            SimError::OracleStream(policy) => write!(
                f,
                "{policy} plays a clean Base pass over the whole trace first, so it cannot stream"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Power { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_legacy_panic_substrings() {
        // Callers (and #[should_panic] expectations) match on these.
        let pm = SimError::PoolMismatch { trace: 4, pool: 2 };
        assert!(pm.to_string().contains("pool"));
        let it = SimError::InvalidTrace("x".into());
        assert!(it.to_string().contains("valid trace"));
        let ip = SimError::InvalidParams("y".into());
        assert!(ip.to_string().contains("valid DiskParams"));
    }

    #[test]
    fn power_errors_carry_their_source() {
        let e = SimError::power("begin_service", DiskId(3), 1.5, PowerError::BadLevel);
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("begin_service"));
        assert!(e.to_string().contains("disk 3"));
    }
}
