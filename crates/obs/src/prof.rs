//! Host-side profiling spine: hierarchical wall-clock spans with a
//! thread-aware collector, per-stage throughput counters, and (behind
//! the `alloc-profile` feature) allocation accounting per span.
//!
//! Simulated time already has full coverage through [`crate::Event`];
//! this module covers the *host* cost of producing it — how long the
//! trace generator, the run compressor, the verifier, and the engine
//! loops actually take, and at what throughput. The two clocks meet in the
//! Chrome exporter: [`crate::ChromeTraceRecorder::attach_profile`]
//! renders the host span tree as its own process next to the sim-time
//! disk tracks.
//!
//! # Model
//!
//! * A **span** is an RAII guard ([`span`] → [`SpanGuard`]) around a
//!   region of host work. Spans nest per thread; the innermost open
//!   span on the current thread is the parent of a newly opened one.
//! * A **counter** ([`add`]) attributes a unit count (events, records)
//!   to the innermost open span of the current thread —
//!   throughput falls out as `counter / span wall time` at render time.
//! * Worker threads record into
//!   thread-local buffers that flush into the global collector when the
//!   thread exits; [`set_thread_label`] names the resulting track.
//! * [`take`] drains everything into a [`Profile`]: the raw per-thread
//!   tracks (for timeline export) plus one merged, deterministic span
//!   tree (aggregated by name path, children sorted by name — so the
//!   tree's *structure* is identical run to run even when worker
//!   threads race; only the measured times vary).
//!
//! Recording costs one relaxed atomic load when profiling is disabled
//! (the default). The `sdpm-trace`/`sdpm-sim`/`sdpm-core`/`sdpm-verify`
//! call sites additionally sit behind each crate's `obs` cargo feature
//! and compile away entirely when it is off.
//!
//! # Discipline
//!
//! Guards must drop in LIFO order on the thread that opened them (the
//! natural outcome of `let _g = prof::span(..)`). A guard dropped out
//! of order closes every span opened after it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::push_f64;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn collected() -> &'static Mutex<Vec<ThreadLog>> {
    static COLLECTED: OnceLock<Mutex<Vec<ThreadLog>>> = OnceLock::new();
    COLLECTED.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_collected() -> std::sync::MutexGuard<'static, Vec<ThreadLog>> {
    collected()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Turns the collector on (process-wide). Span/counter calls before
/// this (or after [`disable`]) are no-ops.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the collector off. Buffers are kept; [`take`] drains them.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the collector is currently recording.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One recorded span instance on one thread.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    depth: u32,
    start_us: f64,
    dur_us: f64,
    counters: Vec<(&'static str, u64)>,
    alloc_bytes: u64,
    alloc_count: u64,
    peak_bytes: u64,
    open: bool,
}

/// Everything one thread recorded.
#[derive(Debug, Default, Clone)]
struct ThreadLog {
    label: Option<String>,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    /// Counters added with no span open.
    orphan_counters: Vec<(&'static str, u64)>,
}

impl ThreadLog {
    fn add_counter(&mut self, name: &'static str, delta: u64) {
        let bucket = match self.stack.last() {
            Some(&i) => &mut self.spans[i].counters,
            None => &mut self.orphan_counters,
        };
        match bucket.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => bucket.push((name, delta)),
        }
    }
}

/// Flushes the thread's buffer into the global collector when the
/// thread exits (thread-local destructors run at exit).
struct TlsSlot(RefCell<ThreadLog>);

impl Drop for TlsSlot {
    fn drop(&mut self) {
        let log = self.0.borrow_mut();
        if !log.spans.is_empty() || !log.orphan_counters.is_empty() {
            lock_collected().push(log.clone());
        }
    }
}

thread_local! {
    static TLS: TlsSlot = TlsSlot(RefCell::new(ThreadLog::default()));
}

fn with_log<T>(f: impl FnOnce(&mut ThreadLog) -> T) -> Option<T> {
    TLS.try_with(|slot| f(&mut slot.0.borrow_mut())).ok()
}

/// Labels the current thread's track in the profile (e.g.
/// `"worker-3"`). The main measurement thread defaults to
/// `"main"`; unlabeled helper threads to `"thread"`.
pub fn set_thread_label(label: &str) {
    if !is_enabled() {
        return;
    }
    let _ = with_log(|log| log.label = Some(label.to_string()));
}

/// Opens a hierarchical wall-clock span. Close it by dropping the
/// guard; timing, allocation deltas, and child spans attach to it
/// while it is the innermost open span on this thread.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { idx: None };
    }
    let start_us = epoch().elapsed().as_secs_f64() * 1e6;
    let alloc = AllocSnapshot::begin();
    let idx = with_log(|log| {
        let parent = log.stack.last().copied();
        let depth = parent.map_or(0, |p| log.spans[p].depth + 1);
        let idx = log.spans.len();
        log.spans.push(SpanRec {
            name,
            parent,
            depth,
            start_us,
            dur_us: 0.0,
            counters: Vec::new(),
            alloc_bytes: 0,
            alloc_count: 0,
            peak_bytes: 0,
            open: true,
        });
        log.stack.push(idx);
        idx
    });
    SpanGuard {
        idx: idx.map(|i| (i, alloc)),
    }
}

/// Adds `delta` to the named throughput counter of the innermost open
/// span on this thread (no-op when profiling is disabled).
pub fn add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let _ = with_log(|log| log.add_counter(name, delta));
}

/// RAII guard for one open span; see [`span`].
pub struct SpanGuard {
    idx: Option<(usize, AllocSnapshot)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((idx, alloc)) = self.idx.take() else {
            return;
        };
        let end_us = epoch().elapsed().as_secs_f64() * 1e6;
        let (bytes, count, peak) = alloc.end();
        let _ = with_log(|log| {
            // Defensive: a guard dropped out of order closes everything
            // opened after it (with the same end time).
            while let Some(top) = log.stack.pop() {
                let s = &mut log.spans[top];
                s.open = false;
                s.dur_us = (end_us - s.start_us).max(0.0);
                if top == idx {
                    s.alloc_bytes = bytes;
                    s.alloc_count = count;
                    s.peak_bytes = peak;
                    break;
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Allocation accounting (feature `alloc-profile`)
// ---------------------------------------------------------------------------

/// Allocation totals bracket for one span; zeros when the counting
/// allocator is not installed.
#[cfg(feature = "alloc-profile")]
#[derive(Debug, Clone, Copy)]
struct AllocSnapshot {
    bytes: u64,
    count: u64,
    saved_peak: u64,
}

/// Stub bracket: the `alloc-profile` feature is off, so there is
/// nothing to measure.
#[cfg(not(feature = "alloc-profile"))]
#[derive(Debug, Clone, Copy)]
struct AllocSnapshot;

#[cfg(feature = "alloc-profile")]
mod alloc_impl {
    use super::AllocSnapshot;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    pub(super) static CUR: AtomicU64 = AtomicU64::new(0);
    pub(super) static PEAK: AtomicU64 = AtomicU64::new(0);
    pub(super) static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
    pub(super) static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);
    pub(super) static INSTALLED: AtomicBool = AtomicBool::new(false);

    /// A counting wrapper around the system allocator. Install it as
    /// the binary's `#[global_allocator]` to light up per-span
    /// allocation deltas and heap peaks.
    /// Overhead is a handful of relaxed atomics per allocation.
    pub struct CountingAlloc;

    fn on_alloc(size: usize) {
        INSTALLED.store(true, Ordering::Relaxed);
        TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        TOTAL_COUNT.fetch_add(1, Ordering::Relaxed);
        let cur = CUR.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(cur, Ordering::Relaxed);
    }

    // SAFETY: delegates every operation to `System`; the bookkeeping
    // uses only lock-free atomics (no allocation, no reentrancy).
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            CUR.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                CUR.fetch_sub(layout.size() as u64, Ordering::Relaxed);
                on_alloc(new_size);
            }
            p
        }
    }

    impl AllocSnapshot {
        pub(super) fn begin() -> AllocSnapshot {
            if !INSTALLED.load(Ordering::Relaxed) {
                return AllocSnapshot {
                    bytes: 0,
                    count: 0,
                    saved_peak: 0,
                };
            }
            // Stack discipline for per-span peaks: park the enclosing
            // span's peak candidate and restart the watermark at the
            // current live size. Concurrent spans on other threads share
            // the watermark, so under parallelism peaks are process-wide
            // approximations — documented, and exact in the common
            // single-measurement-thread case.
            let saved_peak = PEAK.swap(CUR.load(Ordering::Relaxed), Ordering::Relaxed);
            AllocSnapshot {
                bytes: TOTAL_BYTES.load(Ordering::Relaxed),
                count: TOTAL_COUNT.load(Ordering::Relaxed),
                saved_peak,
            }
        }

        pub(super) fn end(self) -> (u64, u64, u64) {
            if !INSTALLED.load(Ordering::Relaxed) {
                return (0, 0, 0);
            }
            let peak = PEAK.load(Ordering::Relaxed);
            PEAK.fetch_max(self.saved_peak, Ordering::Relaxed);
            (
                TOTAL_BYTES
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.bytes),
                TOTAL_COUNT
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.count),
                peak,
            )
        }
    }
}

#[cfg(feature = "alloc-profile")]
pub use alloc_impl::CountingAlloc;

#[cfg(not(feature = "alloc-profile"))]
impl AllocSnapshot {
    fn begin() -> AllocSnapshot {
        AllocSnapshot
    }

    fn end(self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
}

// ---------------------------------------------------------------------------
// Profile: the drained, merged result
// ---------------------------------------------------------------------------

/// One aggregated node of the merged span tree: every instance of the
/// same name path, across every thread, folded together.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub name: &'static str,
    /// Span instances folded into this node.
    pub calls: u64,
    /// Total wall time, microseconds (sum over instances).
    pub total_us: f64,
    /// Throughput counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Bytes allocated while the span was innermost-or-ancestor
    /// (0 without the `alloc-profile` allocator).
    pub alloc_bytes: u64,
    /// Allocation count (0 without the allocator).
    pub alloc_count: u64,
    /// Highest per-instance heap watermark observed (0 without the
    /// allocator).
    pub peak_bytes: u64,
    /// Children, sorted by name (deterministic even under thread races).
    pub children: Vec<Node>,
}

/// One thread's raw span timeline, for Chrome export.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSpan {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub depth: u32,
}

/// A named per-thread track of raw spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    pub label: String,
    pub spans: Vec<TrackSpan>,
}

/// The drained result of a profiling session; see [`take`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Merged span tree roots, sorted by name.
    pub roots: Vec<Node>,
    /// Counters recorded with no span open, sorted by name.
    pub orphan_counters: Vec<(&'static str, u64)>,
    /// Raw per-thread timelines, sorted by label (`main` first).
    pub tracks: Vec<Track>,
}

/// Drains every thread buffer collected so far (finished threads plus
/// the calling thread) into a merged [`Profile`] and clears the
/// collector. Leaves the enabled flag untouched.
#[must_use]
pub fn take() -> Profile {
    let mut logs: Vec<ThreadLog> = std::mem::take(&mut *lock_collected());
    if let Some(log) = with_log(|log| {
        let taken = std::mem::take(log);
        log.stack.clear();
        taken
    }) {
        if !log.spans.is_empty() || !log.orphan_counters.is_empty() {
            let mut main = log;
            if main.label.is_none() {
                main.label = Some("main".to_string());
            }
            logs.insert(0, main);
        }
    }
    build_profile(logs)
}

/// Intermediate aggregation node keyed by name (BTreeMap ⇒ children
/// sorted by name ⇒ deterministic merged structure).
#[derive(Default)]
struct Agg {
    calls: u64,
    total_us: f64,
    counters: BTreeMap<&'static str, u64>,
    alloc_bytes: u64,
    alloc_count: u64,
    peak_bytes: u64,
    children: BTreeMap<&'static str, Agg>,
}

fn build_profile(logs: Vec<ThreadLog>) -> Profile {
    let mut root = Agg::default();
    let mut orphans: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut tracks = Vec::new();

    for (i, log) in logs.iter().enumerate() {
        for (name, v) in &log.orphan_counters {
            *orphans.entry(name).or_insert(0) += v;
        }
        // Parent indices always precede children, so one forward pass
        // can aggregate by walking each span's ancestor path.
        for (si, s) in log.spans.iter().enumerate() {
            let mut path = Vec::with_capacity(s.depth as usize + 1);
            let mut cur = Some(si);
            while let Some(c) = cur {
                path.push(log.spans[c].name);
                cur = log.spans[c].parent;
            }
            path.reverse();
            let mut node = &mut root;
            for name in path {
                node = node.children.entry(name).or_default();
            }
            node.calls += 1;
            node.total_us += s.dur_us;
            node.alloc_bytes += s.alloc_bytes;
            node.alloc_count += s.alloc_count;
            node.peak_bytes = node.peak_bytes.max(s.peak_bytes);
            for (cn, cv) in &s.counters {
                *node.counters.entry(cn).or_insert(0) += cv;
            }
        }
        let label = log.label.clone().unwrap_or_else(|| {
            if i == 0 {
                "main".into()
            } else {
                "thread".into()
            }
        });
        if !log.spans.is_empty() {
            tracks.push(Track {
                label,
                spans: log
                    .spans
                    .iter()
                    .map(|s| TrackSpan {
                        name: s.name,
                        start_us: s.start_us,
                        dur_us: s.dur_us,
                        depth: s.depth,
                    })
                    .collect(),
            });
        }
    }

    fn freeze(name: &'static str, agg: Agg) -> Node {
        Node {
            name,
            calls: agg.calls,
            total_us: agg.total_us,
            counters: agg.counters.into_iter().collect(),
            alloc_bytes: agg.alloc_bytes,
            alloc_count: agg.alloc_count,
            peak_bytes: agg.peak_bytes,
            children: agg
                .children
                .into_iter()
                .map(|(n, a)| freeze(n, a))
                .collect(),
        }
    }

    tracks.sort_by(|a, b| {
        (a.label != "main")
            .cmp(&(b.label != "main"))
            .then_with(|| a.label.cmp(&b.label))
    });
    Profile {
        roots: root
            .children
            .into_iter()
            .map(|(n, a)| freeze(n, a))
            .collect(),
        orphan_counters: orphans.into_iter().collect(),
        tracks,
    }
}

impl Profile {
    /// Finds a merged node by slash-separated path (`"session.simulate/sim.simulate"`).
    #[must_use]
    pub fn node(&self, path: &str) -> Option<&Node> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut node = self.roots.iter().find(|n| n.name == first)?;
        for p in parts {
            node = node.children.iter().find(|n| n.name == p)?;
        }
        Some(node)
    }

    /// The deterministic JSON document. With `with_times` false every
    /// measured quantity (wall micros, allocation figures) is omitted,
    /// leaving only run-invariant structure — names, call counts,
    /// counters, track labels — so two runs of the same workload
    /// serialize to identical bytes.
    #[must_use]
    pub fn to_json(&self, with_times: bool) -> String {
        fn node_json(out: &mut String, n: &Node, with_times: bool) {
            out.push_str("{\"name\":");
            crate::json::push_escaped(out, n.name);
            let _ = std::fmt::Write::write_fmt(out, format_args!(",\"calls\":{}", n.calls));
            if with_times {
                out.push_str(",\"total_us\":");
                push_f64(out, round6(n.total_us));
                let _ = std::fmt::Write::write_fmt(
                    out,
                    format_args!(
                        ",\"alloc_bytes\":{},\"alloc_count\":{},\"peak_bytes\":{}",
                        n.alloc_bytes, n.alloc_count, n.peak_bytes
                    ),
                );
            }
            out.push_str(",\"counters\":{");
            for (i, (cn, cv)) in n.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                crate::json::push_escaped(out, cn);
                let _ = std::fmt::Write::write_fmt(out, format_args!(":{cv}"));
            }
            out.push_str("},\"children\":[");
            for (i, c) in n.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                node_json(out, c, with_times);
            }
            out.push_str("]}");
        }

        let mut out = String::from("{\n  \"schema\": \"sdpm-profile/v1\",\n  \"tracks\": [");
        for (i, t) in self.tracks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            crate::json::push_escaped(&mut out, &t.label);
        }
        out.push_str("],\n  \"orphan_counters\": {");
        for (i, (cn, cv)) in self.orphan_counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::push_escaped(&mut out, cn);
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!(":{cv}"));
        }
        out.push_str("},\n  \"spans\": [");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            node_json(&mut out, r, with_times);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Terminal rendering: an indented tree with wall time, calls, and
    /// per-counter throughput.
    #[must_use]
    pub fn render(&self) -> String {
        fn walk(out: &mut String, n: &Node, depth: usize) {
            let secs = n.total_us / 1e6;
            let mut line = format!(
                "{:indent$}{:<32} {:>10.3} ms  x{:<5}",
                "",
                n.name,
                n.total_us / 1e3,
                n.calls,
                indent = depth * 2
            );
            for (cn, cv) in &n.counters {
                let rate = if secs > 0.0 {
                    format!(" ({:.2e}/s)", *cv as f64 / secs)
                } else {
                    String::new()
                };
                line.push_str(&format!("  {cn}={cv}{rate}"));
            }
            if n.alloc_count > 0 {
                line.push_str(&format!(
                    "  alloc={} KiB/{} calls, peak={} KiB",
                    n.alloc_bytes / 1024,
                    n.alloc_count,
                    n.peak_bytes / 1024
                ));
            }
            line.push('\n');
            out.push_str(&line);
            for c in &n.children {
                walk(out, c, depth + 1);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            walk(&mut out, r, 0);
        }
        if !self.orphan_counters.is_empty() {
            out.push_str("(no open span)\n");
            for (cn, cv) in &self.orphan_counters {
                out.push_str(&format!("  {cn}={cv}\n"));
            }
        }
        out
    }
}

/// Rounds to microsecond precision ×1e-6 so JSON output does not carry
/// 17-digit float noise.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    // Prof state is process-global; tests in this module serialize on a
    // lock and fully drain between runs.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn exercise() -> Profile {
        enable();
        {
            let _a = span("outer");
            add("events", 10);
            {
                let _b = span("inner");
                add("events", 5);
                add("bytes", 100);
            }
            {
                let _b = span("inner");
                add("events", 7);
            }
        }
        let t = std::thread::Builder::new()
            .spawn(|| {
                set_thread_label("worker-0");
                let _w = span("worker");
                add("disks", 2);
            })
            .expect("spawn");
        t.join().expect("join");
        disable();
        take()
    }

    #[test]
    fn merges_nested_spans_and_counters() {
        let _g = locked();
        let _ = take();
        let p = exercise();
        let outer = p.node("outer").expect("outer span");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.counters, vec![("events", 10)]);
        let inner = p.node("outer/inner").expect("inner span");
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.counters, vec![("bytes", 100), ("events", 12)]);
        let worker = p.node("worker").expect("worker-thread span merged");
        assert_eq!(worker.counters, vec![("disks", 2)]);
        assert_eq!(p.tracks.len(), 2);
        assert_eq!(p.tracks[0].label, "main");
        assert_eq!(p.tracks[1].label, "worker-0");
    }

    #[test]
    fn structure_is_deterministic_across_runs() {
        let _g = locked();
        let _ = take();
        let a = exercise().to_json(false);
        let b = exercise().to_json(false);
        assert_eq!(a, b, "redacted profile JSON must be byte-identical");
        assert!(a.contains("\"schema\": \"sdpm-profile/v1\""));
        assert!(!a.contains("total_us"), "redacted form must omit times");
    }

    #[test]
    fn disabled_recording_is_empty_and_guard_is_inert() {
        let _g = locked();
        let _ = take();
        disable();
        {
            let _s = span("ignored");
            add("events", 1);
        }
        let p = take();
        assert!(p.roots.is_empty());
        assert!(p.tracks.is_empty());
    }

    #[test]
    fn out_of_order_drop_closes_descendants() {
        let _g = locked();
        let _ = take();
        enable();
        let a = span("a");
        let b = span("b");
        drop(a); // closes b too
        drop(b); // inert: already closed
        disable();
        let p = take();
        let a = p.node("a").expect("a recorded");
        assert_eq!(a.calls, 1);
        assert_eq!(p.node("a/b").expect("b nested under a").calls, 1);
    }
}
