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
//! * [`merge_tenants`] / [`merge_tenants_chunked`] — the multi-way merge
//!   with the stable `(time, tenant, seq)` tiebreak.
//!
//! Determinism contract: the merge is a *function of the tenant streams
//! as sets*, not of buffering. Feeding the same streams in any slice
//! order, through any chunk size, yields a byte-identical merged vector
//! (`tests/props.rs` drives this with random chunk boundaries and tenant
//! orderings against the single-pass reference merge below).

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
/// what the degenerate single-tenant bit-exactness gate relies on.
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

/// Single-pass reference merge: concatenate and stable-sort by
/// `(time, tenant, seq)`. The spec the chunked merge is tested against.
///
/// # Panics
/// If a stream violates the [`TenantStream`] invariants, or two streams
/// share a tenant id.
#[must_use]
pub fn merge_tenants(streams: &[TenantStream]) -> Vec<TenantEvent> {
    check_disjoint(streams);
    let mut out: Vec<TenantEvent> =
        Vec::with_capacity(streams.iter().map(|s| s.events.len()).sum());
    for s in streams {
        check_stream(s);
        out.extend(s.events.iter().map(|e| TenantEvent {
            at_secs: e.at_secs,
            tenant: s.tenant,
            seq: e.seq,
            event: e.event,
        }));
    }
    out.sort_by_key(|e| merge_key(e.at_secs, e.tenant, e.seq));
    out
}

/// K-way cursor merge that only ever inspects one bounded chunk of each
/// tenant's stream at a time — the shape a chunked
/// [`crate::stream::EventStream`] consumer sees. Byte-identical to
/// [`merge_tenants`] for every chunk size and input order, because
/// within a tenant the stream is already sorted: the head of each
/// tenant's current chunk *is* that tenant's global minimum, so chunk
/// boundaries cannot change which event wins a comparison.
///
/// # Panics
/// If `chunk` is zero, a stream violates the [`TenantStream`]
/// invariants, or two streams share a tenant id.
#[must_use]
pub fn merge_tenants_chunked(streams: &[TenantStream], chunk: usize) -> Vec<TenantEvent> {
    assert!(chunk > 0, "chunk size must be positive");
    check_disjoint(streams);
    for s in streams {
        check_stream(s);
    }
    // Tenant-id order, independent of slice order.
    let mut order: Vec<usize> = (0..streams.len()).collect();
    order.sort_by_key(|&i| streams[i].tenant);

    struct Cursor<'a> {
        stream: &'a TenantStream,
        /// Absolute position of the next unconsumed event.
        pos: usize,
        /// End of the currently visible chunk (exclusive).
        visible: usize,
    }
    let mut cursors: Vec<Cursor<'_>> = order
        .iter()
        .map(|&i| Cursor {
            stream: &streams[i],
            pos: 0,
            visible: chunk.min(streams[i].events.len()),
        })
        .collect();

    let total: usize = streams.iter().map(|s| s.events.len()).sum();
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<(usize, (u64, u32, u64))> = None;
        for (ci, c) in cursors.iter_mut().enumerate() {
            if c.pos >= c.visible {
                // Pull the next chunk into view (no-op when exhausted).
                c.visible = (c.pos + chunk).min(c.stream.events.len());
                if c.pos >= c.visible {
                    continue;
                }
            }
            let e = &c.stream.events[c.pos];
            let key = merge_key(e.at_secs, c.stream.tenant, e.seq);
            if best.is_none_or(|(_, k)| key < k) {
                best = Some((ci, key));
            }
        }
        let Some((ci, _)) = best else { break };
        let c = &mut cursors[ci];
        let e = &c.stream.events[c.pos];
        out.push(TenantEvent {
            at_secs: e.at_secs,
            tenant: c.stream.tenant,
            seq: e.seq,
            event: e.event,
        });
        c.pos += 1;
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
    fn chunked_merge_matches_reference_and_ignores_input_order() {
        let a = stream(0, &[0.5, 1.5, 2.5, 2.5, 9.0]);
        let b = stream(1, &[0.5, 0.5, 2.5, 8.0]);
        let c = stream(2, &[2.5]);
        let reference = merge_tenants(&[a.clone(), b.clone(), c.clone()]);
        for chunk in [1, 2, 3, 64] {
            let forward = merge_tenants_chunked(&[a.clone(), b.clone(), c.clone()], chunk);
            let shuffled = merge_tenants_chunked(&[c.clone(), a.clone(), b.clone()], chunk);
            assert_eq!(forward, reference, "chunk={chunk}");
            assert_eq!(shuffled, reference, "chunk={chunk}, shuffled input");
        }
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
