//! Multi-tenant event merging: K per-tenant timelines, one shared pool.
//!
//! The paper (and every layer built so far) assumes one program on a
//! private [`DiskPool`](sdpm_layout::DiskPool). The scenario layer
//! (`sdpm_core::scenario`) breaks that assumption: K *tenants* — each a
//! program with its own scheme and arrival offset — share one pool, and
//! their per-disk request streams interleave. This module owns the
//! interleaving itself:
//!
//! * [`TenantCursor`] — one tenant's `Io`/`Power` events read in place
//!   from its trace, each stamped with its time on the shared wall clock
//!   (the nominal timeline shifted by the tenant's arrival offset and
//!   compressed by the mix's load factor),
//! * [`TenantMerge`] — the lazy multi-way merge of such cursors with the
//!   stable `(time, tenant, seq)` tiebreak, yielding each event by
//!   reference ([`Merged`]); the shared-pool engine consumes it as it is
//!   produced, so a contended run copies no event,
//! * [`TenantStream`] / [`TenantEvent`] / [`merge_tenants`] — the same
//!   timelines and merge materialized: [`tenant_timeline`] collects a
//!   cursor, and [`merge_tenants`] checks the streams and collects a
//!   [`TenantMerge`] over them.
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

/// One timeline event by reference: `(at_secs, seq, event)`, the fields
/// of a [`TimedEvent`].
pub type Timed<'t> = (f64, u64, &'t AppEvent);

/// One merged event by reference: `(at_secs, tenant, seq, event)`, the
/// fields of a [`TenantEvent`].
pub type Merged<'t> = (f64, u32, u64, &'t AppEvent);

/// One tenant's wall-clock timeline, read in place from its (validated)
/// trace: walks the events accumulating nominal compute time `t` and
/// yields each `Io`/`Power` event, with its index in the trace as `seq`,
/// at `offset_secs + t / load_factor`.
///
/// `load_factor` > 1 compresses the tenant's arrivals (open-loop "the
/// offered load doubled" knob); 1.0 with a zero offset reproduces the
/// nominal timeline exactly (`0.0 + t / 1.0` is bitwise `t`), which is
/// what the degenerate single-tenant bit-exactness gate relies on. A
/// factor small enough that `t / load_factor` overflows stamps `+inf`.
/// Compute spans are finite and non-negative in a validated trace, so
/// the times never decrease and the last one is the largest.
#[derive(Debug, Clone)]
pub struct TenantCursor<'t> {
    events: std::iter::Enumerate<std::slice::Iter<'t, AppEvent>>,
    t: f64,
    offset_secs: f64,
    load_factor: f64,
}

impl<'t> TenantCursor<'t> {
    /// A cursor at the start of `trace`.
    ///
    /// # Panics
    /// If `load_factor` is not finite and positive.
    #[must_use]
    pub fn new(trace: &'t Trace, offset_secs: f64, load_factor: f64) -> Self {
        assert!(
            load_factor.is_finite() && load_factor > 0.0,
            "load factor must be finite and positive, got {load_factor}"
        );
        TenantCursor {
            events: trace.events.iter().enumerate(),
            t: 0.0,
            offset_secs,
            load_factor,
        }
    }
}

impl<'t> Iterator for TenantCursor<'t> {
    type Item = Timed<'t>;

    #[inline]
    fn next(&mut self) -> Option<Timed<'t>> {
        for (seq, event) in self.events.by_ref() {
            match event {
                AppEvent::Compute { secs, .. } => self.t += secs,
                AppEvent::Io(_) | AppEvent::Power { .. } => {
                    let at = self.offset_secs + self.t / self.load_factor;
                    return Some((at, seq as u64, event));
                }
            }
        }
        None
    }
}

/// Builds one tenant's wall-clock timeline from its (validated) trace:
/// the events of a [`TenantCursor`], copied into a [`TenantStream`]. A
/// timeline a tiny load factor stretches past `f64::MAX` carries `+inf`
/// stamps, which [`merge_tenants`] rejects.
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
    let events = TenantCursor::new(trace, offset_secs, load_factor)
        .map(|(at_secs, seq, event)| TimedEvent {
            at_secs,
            seq,
            event: *event,
        })
        .collect();
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

/// The lazy k-way merge of per-tenant timelines into one
/// `(time, tenant, seq)`-ordered stream of [`Merged`] items.
///
/// Each cursor is already sorted, so the smallest head among them is the
/// next event overall: a step costs one key comparison per tenant and
/// copies no event. A clone continues independently from the same
/// position, so a consumer that reads the stream twice clones the merge
/// before its first pass.
#[derive(Debug, Clone)]
pub struct TenantMerge<'t, C> {
    /// The cursors that have events left, each with its next one. Keys
    /// are distinct, so their order does not matter.
    lanes: Vec<Lane<'t, C>>,
}

/// One tenant's cursor and its next event, keyed.
#[derive(Debug, Clone)]
struct Lane<'t, C> {
    key: (u64, u32, u64),
    event: &'t AppEvent,
    cursor: C,
}

impl<'t, C: Iterator<Item = Timed<'t>>> TenantMerge<'t, C> {
    /// Merges `(tenant id, cursor)` pairs. The ids must be distinct, so
    /// no two keys tie and slice order cannot matter; each cursor must
    /// yield its events in `(at_secs, seq)` order with non-negative
    /// times (a [`TenantCursor`] over a validated trace does, with a
    /// non-negative offset). [`merge_tenants`] checks both.
    #[must_use]
    pub fn new(cursors: impl IntoIterator<Item = (u32, C)>) -> Self {
        let lanes = cursors
            .into_iter()
            .filter_map(|(tenant, mut cursor)| {
                let (at, seq, event) = cursor.next()?;
                let key = merge_key(at, tenant, seq);
                Some(Lane { key, event, cursor })
            })
            .collect();
        TenantMerge { lanes }
    }
}

impl<'t, C: Iterator<Item = Timed<'t>>> Iterator for TenantMerge<'t, C> {
    type Item = Merged<'t>;

    #[inline]
    fn next(&mut self) -> Option<Merged<'t>> {
        let (mut i, mut key) = (0, self.lanes.first()?.key);
        for (j, lane) in self.lanes.iter().enumerate().skip(1) {
            if lane.key < key {
                (i, key) = (j, lane.key);
            }
        }
        let (bits, tenant, seq) = key;
        let lane = &mut self.lanes[i];
        let event = lane.event;
        if let Some((at, next_seq, next)) = lane.cursor.next() {
            lane.key = merge_key(at, tenant, next_seq);
            lane.event = next;
        } else {
            self.lanes.swap_remove(i);
        }
        Some((f64::from_bits(bits), tenant, seq, event))
    }
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
/// stream in a single pass: a [`TenantMerge`] over the streams, collected.
/// Tenant ids are distinct, so no two keys tie and slice order cannot
/// matter.
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
    let mut out = Vec::with_capacity(streams.iter().map(|s| s.events.len()).sum());
    let merge = TenantMerge::new(streams.iter().map(|s| {
        let cursor = s.events.iter().map(|e| (e.at_secs, e.seq, &e.event));
        (s.tenant, cursor)
    }));
    out.extend(merge.map(|(at_secs, tenant, seq, event)| TenantEvent {
        at_secs,
        tenant,
        seq,
        event: *event,
    }));
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
