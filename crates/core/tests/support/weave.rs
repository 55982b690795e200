//! The directive weave's test reference, shared by `sdpm-core`'s property
//! tests and `sdpm-bench`'s all-kernel gate (which includes this file by
//! path): a weave written apart from `sdpm_core::insert`.

// Each including test crate uses only part of this module.
#![allow(dead_code)]

use sdpm_core::Pin;
use sdpm_disk::RpmLevel;
use sdpm_trace::{AppEvent, PowerAction, Trace};

/// `base` with the calls of `pins` woven in, as the weave is specified.
/// The pins are put in weave order here, whatever order they come in: by
/// event, "before the event" ahead of splits and splits by iteration,
/// then restores (`SpinUp`, `SetRpm(max)`) ahead of slow-downs, then by
/// disk, keeping the given order among equals. Each base event is
/// preceded by its "before" calls. A compute event is cut at each split
/// point that falls strictly inside what is left of it, the call going
/// between the halves; a split point outside it, or on any other event,
/// puts the call before what is left. Calls pinned past the last event
/// follow it.
pub fn reference_weave(base: &Trace, pins: &[Pin], max: RpmLevel) -> Vec<AppEvent> {
    let restore_last = |p: &Pin| match p.action() {
        PowerAction::SpinUp => false,
        PowerAction::SetRpm(l) => l != max,
        PowerAction::SpinDown => true,
    };
    let mut order = pins.to_vec();
    order.sort_by_key(|p| {
        (
            p.event_idx(),
            p.split_iter().is_some(),
            p.split_iter(),
            restore_last(p),
            p.disk(),
        )
    });
    let call = |p: &Pin| AppEvent::Power {
        disk: p.disk(),
        action: p.action(),
    };
    let mut out = Vec::new();
    let mut next = order.iter().peekable();
    for (i, e) in base.events.iter().enumerate() {
        let mut rest = *e;
        while let Some(p) = next.next_if(|p| p.event_idx() == i) {
            if let (
                Some(at),
                AppEvent::Compute {
                    first_iter, iters, ..
                },
            ) = (p.split_iter(), rest)
            {
                if first_iter < at && at < first_iter + iters {
                    let (left, right) = rest.split_compute(at);
                    out.push(left);
                    rest = right;
                }
            }
            out.push(call(p));
        }
        out.push(rest);
    }
    out.extend(next.map(call));
    out
}
