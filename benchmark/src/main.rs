//! Standalone benchmark of the sdpm pipeline: four workloads that
//! separate its layers, timed from outside through each layer's public
//! API, in a build with no tracing features.
//!
//! ```text
//! sdpm-benchmark run     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! sdpm-benchmark run     --record-expected
//! sdpm-benchmark trace   [--workload NAME|all] [--seed N] [--seconds S]
//! sdpm-benchmark compare --parent FILE... --change FILE...
//! ```
//!
//! `run` prints every metric as `workload metric value unit`, then one
//! JSON result line. `--workload all` runs each workload in its own
//! child process, one at a time. `trace` (or `--trace 1`) repeats the
//! passes with spans on and prints the per-layer metrics instead.

mod check;
mod compare;
mod inputs;
mod json;
mod metrics;
mod run;
mod spans;
mod stats;
mod workload;

use check::{Expected, EXPECTED_PATH};
use json::Value;
use run::{Options, Outcome};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workload::{run_job, set_up, Inputs, Probe, State, Workload};

const USAGE: &str = "usage:
  sdpm-benchmark run     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
  sdpm-benchmark run     --record-expected
  sdpm-benchmark trace   [--workload NAME|all] [--seed N] [--seconds S]
  sdpm-benchmark compare --parent FILE... --change FILE...
workloads: suite-walk suite-runs sim-warm mix-frontier";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_cmd(rest, false),
        Some((cmd, rest)) if cmd == "trace" => run_cmd(rest, true),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        _ => Err("missing or unknown command".to_string()),
    };
    out.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn run_cmd(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = ("all".to_string(), 0, 10.0_f64, trace);
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-expected" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload.clone_from(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if record {
        record_expected()?;
        return Ok(ExitCode::SUCCESS);
    }
    if workload == "all" {
        return run_all(seed, seconds, trace);
    }
    let w = Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let outcome = run::run(&Options {
        workload: w,
        seed,
        seconds,
        trace,
    });
    print_outcome(w, &outcome);
    Ok(ExitCode::SUCCESS)
}

fn print_outcome(w: Workload, o: &Outcome) {
    for (name, value, unit) in &o.info {
        println!("{} {name} {value} {unit}", w.name());
    }
    for (m, value) in &o.metrics {
        println!("{} {} {value} {}", w.name(), m.name, m.unit);
    }
    if let Some(path) = &o.spans_file {
        eprintln!("{}: spans written to {path}", w.name());
    }
    let metrics = o
        .metrics
        .iter()
        .map(|(m, v)| (m.name.clone(), *v, m.unit.to_string()));
    println!(
        "{}",
        result_line(o.failed == 0, o.attempted, o.failed, metrics)
    );
}

/// The JSON result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, String)>,
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Runs every workload in its own child process, one after another, and
/// merges their result lines (metrics prefixed by workload).
fn run_all(seed: u64, seconds: f64, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["run", "--workload", w.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let text = text.trim_end();
        let (lines, last) = text.rsplit_once('\n').unwrap_or(("", text));
        println!("{lines}");
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let doc = json::parse(last)?;
        let count = |k: &str| doc.get(k).and_then(Value::as_f64).map_or(0, |v| v as u64);
        correct &= doc.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += count("attempted");
        failed += count("failed");
        for (name, m) in doc
            .get("metrics")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
            metrics.push((format!("{}.{name}", w.name()), value, unit.to_string()));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, metrics.into_iter())
    );
    Ok(ExitCode::SUCCESS)
}

/// Records the exact seed-0 results of all 42 kernel reports (per-event
/// path) and all 48 frontier cells into the expected file.
fn record_expected() -> Result<(), String> {
    let inputs = Inputs::new(Workload::MixFrontier, 0);
    let mut entries = Vec::new();
    for (w, mut state) in [
        (Workload::SuiteWalk, State::Fresh),
        (
            Workload::MixFrontier,
            set_up(Workload::MixFrontier, &inputs),
        ),
    ] {
        for job in 0..inputs.jobs(w) {
            let out = run_job(w, &inputs, &mut state, job, &mut Probe::new(None, 0))
                .map_err(|e| e.to_string())?;
            entries.extend(out.entries(&inputs, job));
        }
    }
    std::fs::write(EXPECTED_PATH, Expected { entries }.to_json())
        .map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
    println!("recorded {EXPECTED_PATH}");
    Ok(())
}
