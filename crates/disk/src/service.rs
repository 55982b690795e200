//! Request service-time model.
//!
//! A request's service time decomposes the classic way:
//!
//! ```text
//! service = seek + rotational latency + transfer
//! ```
//!
//! Seek time is spindle-speed independent; rotational latency (half a
//! revolution on average) scales as `1/rpm`; and, because areal density is
//! fixed, the media transfer rate scales linearly with `rpm`, so transfer
//! time also scales as `1/rpm`. This matches how DRPM models reduced-speed
//! service: a request served at 7,200 RPM on a 15,000 RPM disk takes
//! roughly twice as long in its rotational and media components.
//!
//! Sequential accesses within an open stream skip the seek component: the
//! trace generator marks requests that continue the previous request's
//! block range, mirroring how a striped sequential scan behaves.

use crate::rpm::{RpmLadder, RpmLevel};
use serde::{Deserialize, Serialize};

/// The slice of request information the service model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceRequest {
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// True if this request continues the preceding request's block range
    /// on the same disk (no seek, no extra rotational positioning).
    pub sequential: bool,
}

/// Service time of `req` at spindle speed `level`, in seconds, on the
/// disk model `ladder` was built from.
///
/// Zero-byte requests are legal (a pure metadata touch) and cost only the
/// positioning components. The level's positioning time and transfer
/// rate come from the ladder's cache, so a call does one division.
#[must_use]
#[inline]
pub fn service_time_secs(ladder: &RpmLadder, level: RpmLevel, req: ServiceRequest) -> f64 {
    let c = ladder.consts(level);
    let positioning = if req.sequential {
        0.0
    } else {
        c.positioning_secs
    };
    let transfer = req.size_bytes as f64 / c.transfer_bps;
    positioning + transfer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ultrastar36z15, DiskParams};

    fn setup() -> (DiskParams, RpmLadder) {
        let p = ultrastar36z15();
        let l = RpmLadder::new(&p);
        (p, l)
    }

    #[test]
    fn full_speed_random_request_matches_datasheet_components() {
        let (_, l) = setup();
        let req = ServiceRequest {
            size_bytes: 55 * 1024 * 1024, // exactly one second of media time
            sequential: false,
        };
        let t = service_time_secs(&l, l.max_level(), req);
        assert!((t - (0.0034 + 0.002 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn sequential_requests_skip_positioning() {
        let (_, l) = setup();
        let seq = ServiceRequest {
            size_bytes: 64 * 1024,
            sequential: true,
        };
        let rnd = ServiceRequest {
            size_bytes: 64 * 1024,
            sequential: false,
        };
        let ts = service_time_secs(&l, l.max_level(), seq);
        let tr = service_time_secs(&l, l.max_level(), rnd);
        assert!((tr - ts - (0.0034 + 0.002)).abs() < 1e-9);
    }

    #[test]
    fn half_speed_doubles_rotation_and_transfer() {
        let (p, l) = setup();
        // 7,800 RPM does not exist on the ladder; use 7,800's neighbors.
        // Level with rpm 7800 exists? 3000 + k*1200: 3000,4200,...,7800 yes.
        let half_ish = l.level_of_rpm(7_800).expect("7800 on ladder");
        let req = ServiceRequest {
            size_bytes: 1024 * 1024,
            sequential: false,
        };
        let t_full = service_time_secs(&l, l.max_level(), req);
        let t_slow = service_time_secs(&l, half_ish, req);
        let ratio = 15_000.0 / 7_800.0;
        let expected = p.avg_seek_secs
            + p.avg_rotation_secs * ratio
            + (t_full - p.avg_seek_secs - p.avg_rotation_secs) * ratio;
        assert!((t_slow - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_request_costs_positioning_only() {
        let (p, l) = setup();
        let req = ServiceRequest {
            size_bytes: 0,
            sequential: false,
        };
        let t = service_time_secs(&l, l.max_level(), req);
        assert!((t - (p.avg_seek_secs + p.avg_rotation_secs)).abs() < 1e-12);
        let seq = ServiceRequest {
            size_bytes: 0,
            sequential: true,
        };
        assert_eq!(service_time_secs(&l, l.max_level(), seq), 0.0);
    }

    #[test]
    fn service_time_monotonically_decreases_with_speed() {
        let (_, l) = setup();
        let req = ServiceRequest {
            size_bytes: 256 * 1024,
            sequential: false,
        };
        let mut prev = f64::INFINITY;
        for level in l.levels() {
            let t = service_time_secs(&l, level, req);
            assert!(t < prev, "faster spindle must not serve slower");
            prev = t;
        }
    }
}
