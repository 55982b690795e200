//! The metric table: every metric's name, unit, direction and bound.
//! `BENCHMARK.json` lists the same table (a test keeps them equal).

use crate::inputs::{kernels, mixes};
use sdpm_core::Scheme;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which have no bound.
    pub bound: Option<f64>,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// The metrics a user of the pipeline sees, measured untraced.
#[must_use]
pub fn end_to_end() -> Vec<Metric> {
    vec![
        // Host speed on a shared 2-vCPU machine swings by 10-40% for
        // seconds at a time, which moves run medians by up to ~8%; the
        // timing bounds sit at three times that spread.
        metric("jobs_per_s", "1/s", Better::Higher, Some(0.25)),
        metric("job_s.p50", "s", Better::Lower, Some(0.25)),
        metric("job_s.p90", "s", Better::Lower, Some(0.25)),
        metric("setup_s", "s", Better::Lower, Some(0.25)),
        metric("peak_rss_mib", "MiB", Better::Lower, Some(0.10)),
    ]
}

/// Jobs that panicked or failed a check over jobs attempted. Printed
/// with the end-to-end metrics but kept out of `BENCHMARK.json`, which
/// admits no metric that is normally 0; any increase is a regression.
pub const FAILED_FRAC: &str = "failed_frac";

/// The per-layer metrics of the traced run. A layer a workload never
/// calls reads 0 there.
#[must_use]
pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut layer = |name: &str, stats: &[&str]| {
        for stat in stats {
            let (unit, better) = match *stat {
                "busy_s" => ("s", Better::Lower),
                "share" => ("frac", Better::Lower),
                "events_per_record" => ("ratio", Better::Higher),
                s if s.starts_with("ns_per_") => ("ns", Better::Lower),
                _ => ("count", Better::Lower),
            };
            out.push(metric(format!("{name}.{stat}"), unit, better, None));
        }
    };
    layer("trace.gen_walk", &["busy_s", "ns_per_event", "share"]);
    layer(
        "trace.gen_analytic",
        &["busy_s", "records", "ns_per_event", "share"],
    );
    layer("trace.lower", &["busy_s", "share"]);
    layer(
        "trace.compress",
        &["busy_s", "ns_per_event", "events_per_record", "share"],
    );
    layer(
        "core.insert",
        &["calls", "busy_s", "ns_per_event", "directives", "share"],
    );
    layer("trace.mix_merge", &["busy_s", "ns_per_event", "share"]);
    layer(
        "sim.mix",
        &["calls", "requests", "busy_s", "ns_per_request", "share"],
    );
    layer(
        "sim.engine",
        &["calls", "events", "busy_s", "ns_per_event", "share"],
    );
    layer(
        "sim.runs",
        &["calls", "records", "busy_s", "ns_per_record", "share"],
    );
    out.push(metric(
        "core.session.overhead_frac",
        "frac",
        Better::Lower,
        None,
    ));
    out.push(metric("core.scenario.timeline_s", "s", Better::Lower, None));
    for s in Scheme::all() {
        out.push(metric(
            format!("sim.engine.busy_s.{}", s.label()),
            "s",
            Better::Lower,
            None,
        ));
    }
    let ks = kernels(0);
    for k in &ks {
        out.push(metric(
            format!("kernel.{}.job_s", k.short()),
            "s",
            Better::Lower,
            None,
        ));
    }
    for m in mixes(0, &ks) {
        out.push(metric(
            format!("mix.{}.job_s", m.name),
            "s",
            Better::Lower,
            None,
        ));
    }
    out.push(metric("tracing_overhead_frac", "frac", Better::Lower, None));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::Workload;

    /// `BENCHMARK.json` at the repository root describes exactly this
    /// table and these workloads.
    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), want);
        for (key, table) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = doc.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (m, j) in table.iter().zip(listed) {
                assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name.as_str()));
                assert_eq!(
                    j.get("unit").and_then(Value::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    j.get("better").and_then(Value::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    j.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }
}
