//! In-memory spans recorded around calls into each layer, for the
//! traced run.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! made), its parent, the job it belongs to, and the work counts known
//! from outside the call. Spans are kept in a `Vec` and written out as
//! JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Work counts attached to a span, read from the call's inputs and
/// outputs after the span has closed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Per-event trace events processed.
    pub events: u64,
    /// Run-compressed records processed or produced.
    pub records: u64,
    /// Power-management directives inserted.
    pub directives: u64,
    /// Disk requests simulated.
    pub requests: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.events += o.events;
        self.records += o.records;
        self.directives += o.directives;
        self.requests += o.requests;
    }
}

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    /// Scheme, kernel or mix the span concerns; empty when none.
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    pub counts: Counts,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, label: &'static str, job: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
            counts: Counts::default(),
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes every open span, as after a job that panicked.
    pub fn close_all(&mut self) {
        while let Some(id) = self.stack.last().copied() {
            self.exit(id);
        }
    }

    /// The spans as a JSON document.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!(
            "{{\"schema\":\"sdpm-benchmark-spans/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"job\":{},\"events\":{},\"records\":{},\"directives\":{},\"requests\":{}}}",
                sp.name,
                sp.label,
                sp.start_ns,
                sp.end_ns,
                parent,
                sp.job,
                sp.counts.events,
                sp.counts.records,
                sp.counts.directives,
                sp.counts.requests
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children are merged first, so
/// overlap is never subtracted twice.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start_ns, sp.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(sp, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = sp.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(sp.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            sp.dur_ns() - covered
        })
        .collect()
}

/// One layer's totals over the spans of some jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub counts: Counts,
}

/// Totals per `(span name, label)` over every span that has a job
/// span as its parent. Spans outside jobs (such as probes) are left out.
#[must_use]
pub fn layer_totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<_, LayerTotals> = BTreeMap::new();
    for (sp, self_ns) in spans.iter().zip(selfs) {
        let in_job = sp.parent.is_some_and(|p| spans[p].name == JOB);
        if in_job {
            let t = out.entry((sp.name, sp.label)).or_default();
            t.calls += 1;
            t.self_ns += self_ns;
            t.counts += sp.counts;
        }
    }
    out
}

/// Name of the span that wraps one job.
pub const JOB: &str = "job";

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: if parent.is_some() { "layer" } else { JOB },
            label: "",
            start_ns,
            end_ns,
            parent,
            job: 0,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            // Runs past the parent's end: only its covered part counts.
            span(90, 120, Some(0)),
            span(20, 35, Some(1)),
        ];
        let selfs = self_times(&spans);
        // Parent: covered [10, 60) ∪ [90, 100) = 60 of 100.
        assert_eq!(selfs[0], 40);
        // First child: its own child covers 15 of its 30.
        assert_eq!(selfs[1], 15);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 15);
    }

    #[test]
    fn layer_totals_skip_spans_outside_jobs() {
        let mut probe = span(200, 300, None);
        probe.name = "probe";
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            probe,
            span(210, 220, Some(2)),
        ];
        let totals = layer_totals(&spans);
        let t = totals[&("layer", "")];
        assert_eq!((t.calls, t.self_ns), (1, 30));
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut tr = Tracer::default();
        let job = tr.enter(JOB, "swim", 3);
        let inner = tr.enter("sim.engine", "Base", 3);
        tr.exit(inner);
        tr.exit(job);
        assert_eq!(tr.spans[inner].parent, Some(job));
        assert!(tr.spans[job].end_ns >= tr.spans[inner].end_ns);
        let json = tr.to_json("sim-warm", 0);
        let doc = crate::json::parse(&json).expect("span file is valid JSON");
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_array()).map(Vec::len),
            Some(2)
        );
    }
}
