//! Multi-tenant event merging: K per-tenant timelines, one shared pool.
//!
//! The paper (and every layer built so far) assumes one program on a
//! private [`DiskPool`](sdpm_layout::DiskPool). The scenario layer
//! (`sdpm_core::scenario`) breaks that assumption: K *tenants* — each a
//! program with its own scheme and arrival offset — share one pool, and
//! their per-disk request streams interleave. This module owns the
//! interleaving itself:
//!
//! * [`TenantStream`] — one tenant's `Io`/`Power` events on the shared
//!   wall clock (its nominal timeline shifted by the tenant's arrival
//!   offset and compressed by the mix's load factor),
//! * [`TenantEvent`] — one merged event, stamped with its tenant,
//! * [`merge_tenants`] — the multi-way merge with the stable
//!   `(time, tenant, seq)` tiebreak.
//!
//! Determinism contract: the merge is a *function of the tenant streams
//! as sets*, not of their slice order. Feeding the same streams in any
//! order yields a byte-identical merged vector (`tests/props.rs` drives
//! this with random tenant orderings against a concatenate-and-sort
//! spec merge).

use crate::event::AppEvent;
use crate::trace::Trace;

/// One event of a tenant's timeline, stamped with its arrival time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Arrival time on the shared wall clock, seconds: the tenant's
    /// nominal (compute-only, stall-free) time, shifted and compressed
    /// by [`tenant_timeline`].
    pub at_secs: f64,
    /// Global event index in the tenant's source trace. Strictly
    /// increasing within a tenant stream.
    pub seq: u64,
    /// The event itself: `Io` or `Power` (never `Compute` — compute
    /// advances the timeline and belongs to no disk).
    pub event: AppEvent,
}

/// One event of a merged multi-tenant timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantEvent {
    /// Arrival time on the shared wall clock, seconds.
    pub at_secs: f64,
    /// Tenant the event belongs to (index into the mix's tenant table).
    pub tenant: u32,
    /// The event's `seq` within its tenant stream (global event index of
    /// the tenant's source trace). `(at_secs, tenant, seq)` is the total
    /// merge order.
    pub seq: u64,
    /// The event itself: `Io` or `Power`, never `Compute` (compute time
    /// is already folded into `at_secs`).
    pub event: AppEvent,
}

/// One tenant's event timeline, ready to merge.
///
/// Invariants (checked by the merge): `events` is sorted by
/// `(at_secs, seq)` with strictly increasing `seq`, and holds no
/// `Compute` events.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStream {
    /// Tenant id; the merge tiebreak uses this, not slice position, so
    /// reordering the input slice cannot change the result.
    pub tenant: u32,
    /// The tenant's `Io`/`Power` events on the shared wall clock.
    pub events: Vec<TimedEvent>,
}

/// Builds one tenant's wall-clock timeline from its (validated) trace:
/// walks the events accumulating nominal compute time `t` and stamps
/// each `Io`/`Power` event at `offset_secs + t / load_factor`.
///
/// `load_factor` > 1 compresses the tenant's arrivals (open-loop "the
/// offered load doubled" knob); 1.0 with a zero offset reproduces the
/// nominal timeline exactly (`0.0 + t / 1.0` is bitwise `t`), which is
/// what the degenerate single-tenant bit-exactness gate relies on. A
/// factor small enough that `t / load_factor` overflows stamps `+inf`,
/// which [`merge_tenants`] rejects.
///
/// # Panics
/// If `load_factor` is not finite and positive.
#[must_use]
pub fn tenant_timeline(
    trace: &Trace,
    tenant: u32,
    offset_secs: f64,
    load_factor: f64,
) -> TenantStream {
    assert!(
        load_factor.is_finite() && load_factor > 0.0,
        "load factor must be finite and positive, got {load_factor}"
    );
    let mut t = 0.0f64;
    let mut events = Vec::new();
    for (seq, event) in trace.events.iter().enumerate() {
        match event {
            AppEvent::Compute { secs, .. } => t += secs,
            AppEvent::Io(_) | AppEvent::Power { .. } => events.push(TimedEvent {
                at_secs: offset_secs + t / load_factor,
                seq: seq as u64,
                event: *event,
            }),
        }
    }
    TenantStream { tenant, events }
}

/// Total merge order: time, then tenant id, then per-tenant sequence.
/// Times are finite by construction, so `total_cmp` agrees with the
/// arithmetic order while staying total.
fn merge_key(at_secs: f64, tenant: u32, seq: u64) -> (u64, u32, u64) {
    // total_cmp's order on non-negative finite floats equals the order
    // of their IEEE-754 bit patterns; keying on the bits keeps the
    // comparator branch-free and obviously total.
    (at_secs.to_bits(), tenant, seq)
}

fn check_stream(s: &TenantStream) {
    for w in s.events.windows(2) {
        assert!(
            w[0].at_secs <= w[1].at_secs && w[0].seq < w[1].seq,
            "tenant {} stream is not sorted by (at_secs, seq)",
            s.tenant
        );
    }
    for e in &s.events {
        assert!(
            e.at_secs.is_finite() && e.at_secs >= 0.0,
            "tenant {} has a non-finite or negative timestamp",
            s.tenant
        );
        assert!(
            !matches!(e.event, AppEvent::Compute { .. }),
            "tenant {} stream carries a Compute event",
            s.tenant
        );
    }
}

/// Merges the tenant streams into one `(time, tenant, seq)`-ordered
/// stream in a single pass: each stream is already sorted, so the
/// smallest head among the streams is the next event overall. Tenant ids
/// are distinct, so no two keys tie and slice order cannot matter.
///
/// # Panics
/// If a stream violates the [`TenantStream`] invariants, or two streams
/// share a tenant id.
#[must_use]
pub fn merge_tenants(streams: &[TenantStream]) -> Vec<TenantEvent> {
    check_disjoint(streams);
    for s in streams {
        check_stream(s);
    }
    let mut heads = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity(streams.iter().map(|s| s.events.len()).sum());
    loop {
        let mut best: Option<(usize, (u64, u32, u64))> = None;
        for (i, s) in streams.iter().enumerate() {
            if let Some(e) = s.events.get(heads[i]) {
                let key = merge_key(e.at_secs, s.tenant, e.seq);
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((i, key));
                }
            }
        }
        let Some((i, _)) = best else { break };
        let e = &streams[i].events[heads[i]];
        out.push(TenantEvent {
            at_secs: e.at_secs,
            tenant: streams[i].tenant,
            seq: e.seq,
            event: e.event,
        });
        heads[i] += 1;
    }
    out
}

fn check_disjoint(streams: &[TenantStream]) {
    for (i, a) in streams.iter().enumerate() {
        for b in &streams[i + 1..] {
            assert!(
                a.tenant != b.tenant,
                "two streams share tenant id {}",
                a.tenant
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IoRequest, PowerAction, ReqKind};
    use sdpm_layout::DiskId;

    fn io(disk: u32) -> AppEvent {
        AppEvent::Io(IoRequest {
            disk: DiskId(disk),
            start_block: 0,
            size_bytes: 4096,
            kind: ReqKind::Read,
            sequential: false,
            nest: 0,
            iter: 0,
        })
    }

    fn stream(tenant: u32, times: &[f64]) -> TenantStream {
        TenantStream {
            tenant,
            events: times
                .iter()
                .enumerate()
                .map(|(i, &t)| TimedEvent {
                    at_secs: t,
                    seq: i as u64,
                    event: io(tenant % 2),
                })
                .collect(),
        }
    }

    #[test]
    fn merge_orders_by_time_then_tenant_then_seq() {
        let a = stream(0, &[1.0, 3.0, 3.0]);
        let b = stream(1, &[1.0, 2.0, 3.0]);
        let m = merge_tenants(&[a, b]);
        let order: Vec<(u32, u64)> = m.iter().map(|e| (e.tenant, e.seq)).collect();
        assert_eq!(
            order,
            vec![(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (1, 2)],
            "ties break by tenant, then seq"
        );
        for w in m.windows(2) {
            assert!(w[0].at_secs <= w[1].at_secs);
        }
    }

    #[test]
    fn merge_ignores_input_order() {
        let a = stream(0, &[0.5, 1.5, 2.5, 2.5, 9.0]);
        let b = stream(1, &[0.5, 0.5, 2.5, 8.0]);
        let c = stream(2, &[2.5]);
        let forward = merge_tenants(&[a.clone(), b.clone(), c.clone()]);
        let order: Vec<(u32, u64)> = forward.iter().map(|e| (e.tenant, e.seq)).collect();
        assert_eq!(
            order,
            vec![
                (0, 0),
                (1, 0),
                (1, 1),
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (2, 0),
                (1, 3),
                (0, 4)
            ]
        );
        assert_eq!(merge_tenants(&[c.clone(), a.clone(), b.clone()]), forward);
        assert_eq!(merge_tenants(&[b, c, a]), forward);
    }

    #[test]
    fn timeline_shifts_and_compresses() {
        let t = Trace {
            name: "t".into(),
            pool_size: 2,
            events: vec![
                AppEvent::Compute {
                    nest: 0,
                    first_iter: 0,
                    iters: 1,
                    secs: 4.0,
                },
                io(0),
                AppEvent::Power {
                    disk: DiskId(1),
                    action: PowerAction::SpinDown,
                },
            ],
        };
        let s = tenant_timeline(&t, 3, 10.0, 2.0);
        assert_eq!(s.tenant, 3);
        assert_eq!(s.events.len(), 2);
        assert!((s.events[0].at_secs - 12.0).abs() < 1e-12);
        assert_eq!(s.events[0].seq, 1);
        assert_eq!(s.events[1].seq, 2);
    }

    #[test]
    fn degenerate_timeline_is_bitwise_nominal() {
        let t = Trace {
            name: "t".into(),
            pool_size: 1,
            events: vec![
                AppEvent::Compute {
                    nest: 0,
                    first_iter: 0,
                    iters: 1,
                    secs: 0.1234567891,
                },
                io(0),
            ],
        };
        let s = tenant_timeline(&t, 0, 0.0, 1.0);
        assert_eq!(
            s.events[0].at_secs.to_bits(),
            0.1234567891f64.to_bits(),
            "offset 0 / load 1 must not perturb the nominal timeline"
        );
    }

    #[test]
    #[should_panic(expected = "share tenant id")]
    fn duplicate_tenant_ids_are_rejected() {
        let _ = merge_tenants(&[stream(1, &[0.0]), stream(1, &[1.0])]);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn unsorted_stream_is_rejected() {
        let mut s = stream(0, &[2.0, 1.0]);
        s.events[1].seq = 5;
        let _ = merge_tenants(&[s]);
    }
}
