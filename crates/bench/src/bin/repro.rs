//! Reproduction driver: regenerates every table and figure of the paper
//! as plain-text output.
//!
//! ```text
//! repro [table1|table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|fig13|all]
//! repro --trace-out run.json [--metrics-out run.jsonl] [--bench swim] [--scheme CMDRPM]
//! repro probe <events.jsonl> [top_k]
//! repro lint [benchmark|all] [--scheme S|all] [--json]
//! repro prove [benchmark|all] [--scheme S|all] [--json] [--out PATH]
//! repro profile [--bench swim] [--json PROFILE.json]
//!               [--trace-out profile_trace.json] [--redact-times]
//! repro faultsim [--seed N] [--rates 0,0.01,0.05] [--bench swim]
//! repro mix [--mix pair|quad|checkpoint|all] [--loads 1,2,4] [--seed N]
//!           [--json MIX.json] [--metrics-out mix.jsonl] [--detail] [--smoke]
//! ```
//!
//! With no argument, runs `all`. Output pairs each measured value with
//! the paper's reported value where the paper gives one; figures the
//! paper only shows as charts print our measured series (the shape
//! criteria live in EXPERIMENTS.md).
//!
//! `--trace-out` / `--metrics-out` run one instrumented scheme and write
//! a Chrome `trace_event` timeline (open in Perfetto or
//! `chrome://tracing`) and/or the raw JSONL event stream. `probe` reads
//! a stream back and prints the top-k longest idle gaps, the misfire
//! cause breakdown, and per-disk energy shares. `lint` runs the static
//! verifier (`sdpm-verify`) over pipeline-produced runs and transform
//! outputs, printing rustc-style diagnostics (or JSON lines with
//! `--json`) and exiting nonzero when any error is found.

use sdpm_bench::format::{norm, render_table};
use sdpm_bench::*;
use sdpm_disk::{tpm_break_even_secs, ultrastar36z15};

// This binary's `print!` and `println!`: the std macros panic when stdout
// closes early (`repro all | head -1`); these end the process quietly
// instead. Any other write error still panics, as the std macros do.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("probe") {
        probe_events_cmd(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("lint") {
        lint_cmd(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("prove") {
        prove_cmd(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("profile") {
        profile_cmd(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("faultsim") {
        faultsim_cmd(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("mix") {
        mix_cmd(&argv[1..]);
        return;
    }
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut bench_name = "swim".to_string();
    let mut scheme_label = "CMDRPM".to_string();
    let mut positional: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--trace-out" => trace_out = Some(val("--trace-out")),
            "--metrics-out" => metrics_out = Some(val("--metrics-out")),
            "--bench" => bench_name = val("--bench"),
            "--scheme" => scheme_label = val("--scheme"),
            _ => positional.push(a),
        }
    }
    if trace_out.is_some() || metrics_out.is_some() {
        instrumented_run(
            &bench_name,
            &scheme_label,
            trace_out.as_deref(),
            metrics_out.as_deref(),
        );
        return;
    }
    let arg = positional
        .into_iter()
        .next()
        .unwrap_or_else(|| "all".to_string());
    let known = [
        "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig13",
        "fig2", "ablate", "section2", "pdc", "timeline", "gaps", "all",
    ];
    if !known.contains(&arg.as_str()) {
        eprintln!("unknown experiment '{arg}'; one of: {}", known.join(" "));
        std::process::exit(2);
    }
    let want = |name: &str| arg == name || arg == "all";

    if want("table1") {
        table1_cmd();
    }
    if want("table2") {
        table2_cmd();
    }
    // Figs. 3 and 4 share one computation.
    if want("fig3") || want("fig4") {
        fig34_cmd(arg == "fig4", arg == "fig3");
    }
    if want("table3") {
        table3_cmd();
    }
    if want("fig5") || want("fig6") {
        fig56_cmd();
    }
    if want("fig7") || want("fig8") {
        fig78_cmd();
    }
    if want("fig13") {
        fig13_cmd();
    }
    if want("ablate") {
        ablate_cmd();
    }
    if want("section2") {
        section2_cmd();
    }
    if want("pdc") {
        pdc_cmd();
    }
    if want("timeline") {
        timeline_cmd();
    }
    if want("gaps") {
        gaps_cmd();
    }
    if want("fig2") {
        fig2_cmd();
    }
}

/// `repro profile`: runs the three-leg profiling driver (see
/// `sdpm_bench::profile`) and exports the span tree as a terminal
/// summary, a JSON profile (`--json`), and/or a Chrome trace with the
/// host-profiling tracks merged next to the sim-time tracks
/// (`--trace-out`). `--redact-times` drops wall times and allocation
/// figures from the JSON so two runs of the same build compare
/// byte-for-byte.
#[cfg(feature = "obs")]
fn profile_cmd(args: &[String]) {
    use sdpm_bench::profile::run_profile;

    let mut bench_arg = "swim".to_string();
    let mut json_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut redact = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--bench" => bench_arg = val("--bench"),
            "--json" => json_out = Some(val("--json")),
            "--trace-out" => trace_out = Some(val("--trace-out")),
            "--redact-times" => redact = true,
            other => bench_arg = other.to_string(),
        }
    }

    let all = suite();
    let Some(b) = all.iter().find(|b| {
        b.name
            .to_ascii_lowercase()
            .contains(&bench_arg.to_ascii_lowercase())
    }) else {
        let names: Vec<&str> = all.iter().map(|b| b.name).collect();
        eprintln!(
            "unknown benchmark '{bench_arg}'; one of: {}",
            names.join(" ")
        );
        std::process::exit(2);
    };

    let (profile, chrome) = run_profile(b);
    println!("== {} profile ==", b.name);
    print!("{}", profile.render());

    if let Some(path) = &json_out {
        std::fs::write(path, profile.to_json(!redact)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "wrote {path}{}",
            if redact { " (times redacted)" } else { "" }
        );
    }
    if let Some(path) = &trace_out {
        chrome.attach_profile(&profile);
        let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("create {path}: {e}");
            std::process::exit(2);
        });
        chrome.write_to(&mut f).unwrap_or_else(|e| {
            eprintln!("write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote Chrome trace to {path} (host tracks merged; open in Perfetto)");
    }
}

#[cfg(not(feature = "obs"))]
fn profile_cmd(_: &[String]) {
    eprintln!(
        "profile needs the `obs` feature (on by default; rebuild without --no-default-features)"
    );
    std::process::exit(2);
}

/// `repro faultsim [--seed N] [--rates 0,0.01,0.05] [--bench NAME]`:
/// the fault-injection sweep (see `sdpm_bench::faultsim`). Every scheme
/// × kernel cell runs at every rate; rate 0 must be bit-exact with the
/// clean run, nonzero rates must complete without panicking and
/// reproduce the same per-cause fault counts when re-run under the same
/// seed. Exits 1 when any cell fails.
fn faultsim_cmd(args: &[String]) {
    use sdpm_bench::faultsim::{run_fault_sweep, DEFAULT_RATES};

    let mut seed = 42u64;
    let mut rates: Vec<f64> = DEFAULT_RATES.to_vec();
    let mut bench_arg = String::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--seed" => {
                seed = val("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("--seed must be an integer: {e}");
                    std::process::exit(2);
                });
            }
            "--rates" => {
                let raw = val("--rates");
                rates = raw
                    .split(',')
                    .map(|r| {
                        r.trim().parse::<f64>().unwrap_or_else(|e| {
                            eprintln!("--rates must be comma-separated numbers: {e}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                if rates.is_empty() || rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
                    eprintln!("--rates must be probabilities in [0, 1]");
                    std::process::exit(2);
                }
            }
            "--bench" => bench_arg = val("--bench"),
            other => bench_arg = other.to_string(),
        }
    }

    let mut benches = suite();
    if !bench_arg.is_empty() {
        let needle = bench_arg.to_ascii_lowercase();
        benches.retain(|b| b.name.to_ascii_lowercase().contains(&needle));
        if benches.is_empty() {
            let names: Vec<&str> = suite().iter().map(|b| b.name).collect();
            eprintln!(
                "unknown benchmark '{bench_arg}'; one of: {}",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }

    let sweep = run_fault_sweep(&benches, seed, &rates);
    println!(
        "== Fault-injection sweep: {} kernels x 7 schemes x {} rates (seed {}) ==",
        benches.len(),
        rates.len(),
        seed
    );
    println!(
        "{}",
        render_table(
            &[
                "kernel".into(),
                "scheme".into(),
                "rate".into(),
                "faults".into(),
                "breakdown".into(),
                "energy J".into(),
                "exec s".into(),
                "stall s".into(),
                "pass".into(),
            ],
            &sweep.rows()
        )
    );
    println!(
        "total injected faults: {}; all cells passed: {}",
        sweep.faults_total(),
        if sweep.passed() { "yes" } else { "NO" }
    );
    if !sweep.passed() {
        std::process::exit(1);
    }
}

/// `repro mix`: the shared-pool contention/energy frontier (see
/// `sdpm_bench::mixbench`). Sweeps the named mixes over load factors ×
/// pool policies; `--detail` adds the per-tenant breakdown of every
/// cell, `--metrics-out` writes tenant-tagged JSONL that `repro probe`
/// can aggregate, and `--smoke` runs the CI property suite
/// (determinism, degenerate bit-exactness, adaptive-beats-TPM, clean
/// verification) and exits 1 on any failure.
fn mix_cmd(args: &[String]) {
    use sdpm_bench::mixbench::{
        all_mixes, default_policies, smoke, FrontierCell, MixFrontier, DEFAULT_LOADS,
    };

    let mut mix_arg = "all".to_string();
    let mut loads: Vec<f64> = DEFAULT_LOADS.to_vec();
    let mut seed = 0u64;
    let mut json_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut detail = false;
    let mut run_smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--mix" => mix_arg = val("--mix"),
            "--loads" => {
                let raw = val("--loads");
                loads = raw
                    .split(',')
                    .map(|l| {
                        l.trim().parse::<f64>().unwrap_or_else(|e| {
                            eprintln!("--loads must be comma-separated numbers: {e}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                if loads.is_empty() || loads.iter().any(|l| !l.is_finite() || *l <= 0.0) {
                    eprintln!("--loads must be positive load factors");
                    std::process::exit(2);
                }
            }
            "--seed" => {
                seed = val("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("--seed must be an integer: {e}");
                    std::process::exit(2);
                });
            }
            "--json" => json_out = Some(val("--json")),
            "--metrics-out" => metrics_out = Some(val("--metrics-out")),
            "--detail" => detail = true,
            "--smoke" => run_smoke = true,
            other => mix_arg = other.to_string(),
        }
    }

    if run_smoke {
        let s = smoke(seed);
        println!("== Mix smoke (seed {}) ==", s.seed);
        println!(
            "{}",
            render_table(&["check".into(), "pass".into(), "detail".into()], &s.rows())
        );
        println!(
            "{}",
            render_table(&MixFrontier::header(), &s.frontier.rows())
        );
        if let Some(path) = &json_out {
            std::fs::write(path, s.frontier.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            println!("wrote {path}");
        }
        println!(
            "all mix properties held: {}",
            if s.passed() { "yes" } else { "NO" }
        );
        if !s.passed() {
            std::process::exit(1);
        }
        return;
    }

    let mut mixes = all_mixes();
    if mix_arg != "all" {
        let needle = mix_arg.to_ascii_lowercase();
        mixes.retain(|m| m.name.to_ascii_lowercase().contains(&needle));
        if mixes.is_empty() {
            let names: Vec<&str> = all_mixes().iter().map(|m| m.name).collect();
            eprintln!("unknown mix '{mix_arg}'; one of: all {}", names.join(" "));
            std::process::exit(2);
        }
    }
    if seed != 0 {
        mixes = mixes
            .into_iter()
            .zip(0u64..)
            .map(|(m, i)| m.reseeded(seed + i))
            .collect();
    }

    let policies = default_policies();
    let mut cells = Vec::new();
    let mut metrics = String::new();
    let mut detail_blocks = String::new();
    for def in &mixes {
        for &lf in &loads {
            for policy in &policies {
                let r = def.session(lf).contended(policy).unwrap_or_else(|e| {
                    eprintln!("mix {} @ load {lf}: {e}", def.name);
                    std::process::exit(2);
                });
                cells.push(FrontierCell::from_report(def.name, lf, &r));
                for t in &r.per_tenant {
                    metrics.push_str(&format!(
                        "{{\"ev\": \"mix_tenant\", \"mix\": \"{}\", \"load\": {lf}, \
                         \"policy\": \"{}\", \"tenant\": {}, \"name\": \"{}\", \
                         \"requests\": {}, \"busy_s\": {}, \"active_j\": {}, \
                         \"mean_s\": {}, \"p99_s\": {}, \"max_s\": {}, \
                         \"misfires\": {}, \"cross_tenant\": {}}}\n",
                        def.name,
                        r.policy,
                        t.tenant,
                        t.name,
                        t.requests,
                        t.busy_secs,
                        t.active_j,
                        t.mean_response_secs,
                        t.p99_response_secs,
                        t.max_response_secs,
                        t.misfires.total(),
                        t.misfires.cross_tenant,
                    ));
                }
                if detail {
                    let rows: Vec<Vec<String>> = r
                        .per_tenant
                        .iter()
                        .map(|t| {
                            vec![
                                format!("{}#{}", t.name, t.tenant),
                                t.requests.to_string(),
                                format!("{:.1}", t.busy_secs),
                                format!("{:.1}", t.active_j),
                                format!("{:.4}", t.mean_response_secs),
                                format!("{:.4}", t.p99_response_secs),
                                format!("{:.4}", t.max_response_secs),
                                t.misfires.total().to_string(),
                                t.misfires.cross_tenant.to_string(),
                            ]
                        })
                        .collect();
                    detail_blocks.push_str(&format!(
                        "-- {} @ load {lf:.1} under {} --\n{}",
                        def.name,
                        r.policy,
                        render_table(
                            &[
                                "tenant".into(),
                                "reqs".into(),
                                "busy s".into(),
                                "active J".into(),
                                "mean s".into(),
                                "p99 s".into(),
                                "max s".into(),
                                "misfires".into(),
                                "xtenant".into(),
                            ],
                            &rows
                        )
                    ));
                }
            }
        }
    }
    let frontier = MixFrontier { cells };

    println!(
        "== Mix frontier: {} mixes x {} loads x {} policies ==",
        mixes.len(),
        loads.len(),
        policies.len()
    );
    println!("{}", render_table(&MixFrontier::header(), &frontier.rows()));
    if detail {
        print!("{detail_blocks}");
    }
    if let Some(path) = &json_out {
        std::fs::write(path, frontier.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_out {
        std::fs::write(path, &metrics).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote tenant-tagged metrics to {path} (aggregate with `repro probe {path}`)");
    }
}

/// Runs the static verifier over pipeline runs and transform outputs:
/// `repro lint [benchmark|all] [--scheme S|all] [--json]`. Exits 1 when
/// any check reports an error.
fn lint_cmd(args: &[String]) {
    use sdpm_bench::lint::{lint_benchmark, LintReport};
    use sdpm_core::Scheme;
    use sdpm_verify::{render_human_all, render_json_all};

    let mut bench_arg = "all".to_string();
    let mut scheme_arg = "all".to_string();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--scheme" => {
                scheme_arg = it
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("--scheme needs a value");
                        std::process::exit(2);
                    })
                    .clone();
            }
            other => bench_arg = other.to_string(),
        }
    }

    let all = suite();
    let benches: Vec<_> = if bench_arg == "all" {
        all.iter().collect()
    } else {
        let Some(b) = all.iter().find(|b| {
            b.name
                .to_ascii_lowercase()
                .contains(&bench_arg.to_ascii_lowercase())
        }) else {
            let names: Vec<&str> = all.iter().map(|b| b.name).collect();
            eprintln!(
                "unknown benchmark '{bench_arg}'; one of: all {}",
                names.join(" ")
            );
            std::process::exit(2);
        };
        vec![b]
    };
    let schemes: Vec<Scheme> = if scheme_arg == "all" {
        Scheme::all().to_vec()
    } else {
        let Some(s) = Scheme::all()
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(&scheme_arg))
        else {
            eprintln!(
                "unknown scheme '{scheme_arg}'; one of: all Base TPM ITPM DRPM IDRPM CMTPM CMDRPM"
            );
            std::process::exit(2);
        };
        vec![s]
    };

    let reports: Vec<LintReport> = benches
        .iter()
        .flat_map(|b| lint_benchmark(b, &schemes))
        .collect();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for r in &reports {
        let (e, w) = r.tally();
        errors += e;
        warnings += w;
        if json {
            if !r.diags.is_empty() {
                println!("{}", render_json_all(&r.diags));
            }
            continue;
        }
        if r.diags.is_empty() {
            println!("lint: {} {} ... ok", r.bench, r.subject);
        } else {
            println!("lint: {} {}", r.bench, r.subject);
            println!("{}", render_human_all(&r.diags));
        }
    }
    if !json {
        println!(
            "lint: {} check(s), {} error(s), {} warning(s)",
            reports.len(),
            errors,
            warnings
        );
    }
    if errors > 0 {
        std::process::exit(1);
    }
}

/// Runs the symbolic directive-safety prover over the scheme × kernel
/// matrix: `repro prove [benchmark|all] [--scheme S|all] [--json]
/// [--out PATH]`. Every cell must end `Proved` or `Refuted` with a
/// replay-confirmed counterexample; `Unknown` verdicts (and any
/// symbolic/dynamic disagreement on proved CM cells) exit nonzero.
/// `--out` writes the matrix as JSON lines regardless of the terminal
/// format, for archiving as a CI artifact.
fn prove_cmd(args: &[String]) {
    use sdpm_bench::prove::{crossvalidate, prove_benchmark, ProveReport};
    use sdpm_core::Scheme;
    use sdpm_verify::symbolic::Verdict;

    let mut bench_arg = "all".to_string();
    let mut scheme_arg = "all".to_string();
    let mut json = false;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--json" => json = true,
            "--out" => out_path = Some(val("--out")),
            "--scheme" => scheme_arg = val("--scheme"),
            other => bench_arg = other.to_string(),
        }
    }

    let all = suite();
    let benches: Vec<_> = if bench_arg == "all" {
        all.iter().collect()
    } else {
        let Some(b) = all.iter().find(|b| {
            b.name
                .to_ascii_lowercase()
                .contains(&bench_arg.to_ascii_lowercase())
        }) else {
            let names: Vec<&str> = all.iter().map(|b| b.name).collect();
            eprintln!(
                "unknown benchmark '{bench_arg}'; one of: all {}",
                names.join(" ")
            );
            std::process::exit(2);
        };
        vec![b]
    };
    let schemes: Vec<Scheme> = if scheme_arg == "all" {
        Scheme::all().to_vec()
    } else {
        let Some(s) = Scheme::all()
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(&scheme_arg))
        else {
            eprintln!(
                "unknown scheme '{scheme_arg}'; one of: all Base TPM ITPM DRPM IDRPM CMTPM CMDRPM"
            );
            std::process::exit(2);
        };
        vec![s]
    };

    let mut reports: Vec<ProveReport> = Vec::new();
    let mut disagreements: Vec<String> = Vec::new();
    for b in &benches {
        let rs = prove_benchmark(b, &schemes);
        disagreements.extend(crossvalidate(b, &rs));
        reports.extend(rs);
    }

    let mut failed = 0usize;
    if json {
        for r in &reports {
            println!("{}", r.to_json());
        }
        failed = reports.iter().filter(|r| !r.passed()).count();
    } else {
        let rows: Vec<Vec<String>> = reports
            .iter()
            .map(|r| {
                if !r.passed() {
                    failed += 1;
                }
                let detail = match &r.verdict {
                    Verdict::Proved { obligations, .. } => {
                        format!("{} obligation(s)", obligations.len())
                    }
                    Verdict::Refuted { counterexample, .. } => counterexample.description.clone(),
                    Verdict::Unknown { reason, .. } => reason.clone(),
                };
                vec![
                    r.bench.to_string(),
                    r.variant.to_string(),
                    r.scheme.label().to_string(),
                    r.status().to_string(),
                    detail,
                ]
            })
            .collect();
        println!("== Symbolic directive-safety proofs ==");
        println!(
            "{}",
            render_table(
                &[
                    "kernel".into(),
                    "variant".into(),
                    "scheme".into(),
                    "verdict".into(),
                    "detail".into(),
                ],
                &rows
            )
        );
        println!(
            "prove: {} cell(s), {} failed, {} symbolic/dynamic disagreement(s)",
            reports.len(),
            failed,
            disagreements.len()
        );
    }
    for d in &disagreements {
        eprintln!("prove: DISAGREEMENT {d}");
    }
    if let Some(path) = &out_path {
        let mut text = String::new();
        for r in &reports {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        if !json {
            println!("wrote {path}");
        }
    }
    if failed > 0 || !disagreements.is_empty() {
        std::process::exit(1);
    }
}

/// Runs one scheme with recorders attached and writes the requested
/// artifacts, then prints a metrics digest.
#[cfg(feature = "obs")]
fn instrumented_run(bench: &str, scheme: &str, trace_out: Option<&str>, metrics_out: Option<&str>) {
    use sdpm_core::{run_scheme_with_recorder, Scheme};
    use sdpm_obs::{ChromeTraceRecorder, FanoutRecorder, JsonlRecorder, MetricsRecorder, Recorder};

    let all = suite();
    let Some(b) = all.iter().find(|b| {
        b.name
            .to_ascii_lowercase()
            .contains(&bench.to_ascii_lowercase())
    }) else {
        let names: Vec<&str> = all.iter().map(|b| b.name).collect();
        eprintln!("unknown benchmark '{bench}'; one of: {}", names.join(" "));
        std::process::exit(2);
    };
    let Some(scheme) = Scheme::all()
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(scheme))
    else {
        eprintln!("unknown scheme '{scheme}'; one of: Base TPM ITPM DRPM IDRPM CMTPM CMDRPM");
        std::process::exit(2);
    };
    let cfg = config_for(b);

    let metrics = MetricsRecorder::new();
    let chrome = ChromeTraceRecorder::new();
    let jsonl = JsonlRecorder::new(Vec::new());
    let mut tee = FanoutRecorder::new(vec![&metrics as &dyn Recorder]);
    if trace_out.is_some() {
        tee.push(&chrome);
    }
    if metrics_out.is_some() {
        tee.push(&jsonl);
    }
    let report = run_scheme_with_recorder(&b.program, scheme, &cfg, &tee);

    if let Some(path) = trace_out {
        let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
        chrome
            .write_to(&mut f)
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, jsonl.into_inner()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote JSONL event stream to {path}");
    }

    let m = metrics.snapshot();
    println!("== {} {} instrumented run ==", b.name, scheme.label());
    let mut rows = vec![
        vec!["exec (s)".to_string(), format!("{:.3}", report.exec_secs)],
        vec![
            "energy (J)".into(),
            format!("{:.1}", report.total_energy_j()),
        ],
        vec!["requests".into(), m.requests.to_string()],
        vec!["bytes".into(), m.bytes.to_string()],
        vec!["idle gaps".into(), m.gap_count.to_string()],
        vec!["standby gaps".into(), m.standby_gaps.to_string()],
        vec!["spin-downs".into(), m.spin_downs.to_string()],
        vec!["spin-ups".into(), m.spin_ups.to_string()],
        vec!["RPM shifts".into(), m.rpm_shifts.to_string()],
        vec!["directives issued".into(), m.directives_issued.to_string()],
        vec!["stall (s)".into(), format!("{:.3}", m.stall_secs)],
    ];
    for (cause, n) in &m.misfires {
        rows.push(vec![format!("misfire: {cause}"), n.to_string()]);
    }
    println!(
        "{}",
        render_table(&["metric".into(), "value".into()], &rows)
    );
    println!("gap-length histogram (s): {}", m.gap_hist.render());
    println!("slowdown histogram (x):   {}", m.slowdown_hist.render());
}

#[cfg(not(feature = "obs"))]
fn instrumented_run(_: &str, _: &str, _: Option<&str>, _: Option<&str>) {
    eprintln!("--trace-out/--metrics-out need the `obs` feature (on by default; rebuild without --no-default-features)");
    std::process::exit(2);
}

/// Reads a JSONL event stream back and prints the top-k longest idle
/// gaps, the misfire-cause breakdown, and per-disk energy shares.
#[cfg(feature = "obs")]
fn probe_events_cmd(args: &[String]) {
    use sdpm_obs::json::Value;
    use std::collections::BTreeMap;

    let Some(path) = args.first() else {
        eprintln!("usage: repro probe <events.jsonl> [top_k]");
        std::process::exit(2);
    };
    let top_k: usize = args
        .get(1)
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("top_k must be an integer, got '{s}'");
                std::process::exit(2);
            })
        })
        .unwrap_or(10);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("read {path}: {e}");
        std::process::exit(2);
    });

    // (length, disk, opened) per closed gap; misfire counts by cause;
    // injected-fault counts by kind; joules by disk.
    let mut gaps: Vec<(f64, u64, f64)> = Vec::new();
    let mut misfires: BTreeMap<String, u64> = BTreeMap::new();
    let mut faults: BTreeMap<String, u64> = BTreeMap::new();
    let mut energy: BTreeMap<u64, f64> = BTreeMap::new();
    // Tenant-tagged aggregates, keyed by (tenant id, name): requests,
    // busy seconds, request-weighted mean numerator, worst p99, worst
    // max, misfires, cross-tenant vetoes. Populated only when the
    // stream carries mix events (`repro mix --metrics-out`).
    #[allow(clippy::type_complexity)]
    let mut tenants: BTreeMap<(u64, String), (u64, f64, f64, f64, f64, u64, u64)> = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line).unwrap_or_else(|e| {
            eprintln!("{path}:{}: bad JSON: {e}", ln + 1);
            std::process::exit(2);
        });
        let field = |k: &str| v.get(k).and_then(Value::as_f64);
        match v.get("ev").and_then(Value::as_str) {
            Some("gap_close") => {
                if let (Some(t), Some(opened), Some(d)) = (
                    field("t"),
                    field("opened"),
                    v.get("disk").and_then(Value::as_u64),
                ) {
                    gaps.push((t - opened, d, opened));
                }
            }
            Some("directive_misfire") => {
                if let Some(cause) = v.get("cause").and_then(Value::as_str) {
                    *misfires.entry(cause.to_string()).or_insert(0) += 1;
                }
            }
            Some("fault_injected") => {
                if let Some(kind) = v.get("kind").and_then(Value::as_str) {
                    *faults.entry(kind.to_string()).or_insert(0) += 1;
                }
            }
            Some("disk_energy") => {
                if let (Some(d), Some(j)) = (v.get("disk").and_then(Value::as_u64), field("joules"))
                {
                    *energy.entry(d).or_insert(0.0) += j;
                }
            }
            Some("mix_tenant") => {
                if let (Some(t), Some(name), Some(reqs)) = (
                    v.get("tenant").and_then(Value::as_u64),
                    v.get("name").and_then(Value::as_str),
                    v.get("requests").and_then(Value::as_u64),
                ) {
                    let slot = tenants
                        .entry((t, name.to_string()))
                        .or_insert((0, 0.0, 0.0, 0.0, 0.0, 0, 0));
                    slot.0 += reqs;
                    slot.1 += field("busy_s").unwrap_or(0.0);
                    slot.2 += field("mean_s").unwrap_or(0.0) * reqs as f64;
                    slot.3 = slot.3.max(field("p99_s").unwrap_or(0.0));
                    slot.4 = slot.4.max(field("max_s").unwrap_or(0.0));
                    slot.5 += v.get("misfires").and_then(Value::as_u64).unwrap_or(0);
                    slot.6 += v.get("cross_tenant").and_then(Value::as_u64).unwrap_or(0);
                }
            }
            _ => {}
        }
    }

    println!("== probe: {path} ==");
    gaps.sort_by(|a, b| b.0.total_cmp(&a.0));
    let rows: Vec<Vec<String>> = gaps
        .iter()
        .take(top_k)
        .map(|(len, d, opened)| {
            vec![
                format!("disk{d}"),
                format!("{opened:.3}"),
                format!("{:.3}", opened + len),
                format!("{len:.3}"),
            ]
        })
        .collect();
    println!(
        "-- top {} longest idle gaps (of {}) --",
        rows.len(),
        gaps.len()
    );
    println!(
        "{}",
        render_table(
            &[
                "disk".into(),
                "open s".into(),
                "close s".into(),
                "length s".into()
            ],
            &rows
        )
    );

    println!("-- directive misfires --");
    if misfires.is_empty() {
        println!("(none)\n");
    } else {
        let rows: Vec<Vec<String>> = misfires
            .iter()
            .map(|(c, n)| vec![c.clone(), n.to_string()])
            .collect();
        println!("{}", render_table(&["cause".into(), "count".into()], &rows));
    }

    println!("-- injected faults --");
    if faults.is_empty() {
        println!("(none)\n");
    } else {
        let total: u64 = faults.values().sum();
        let rows: Vec<Vec<String>> = faults
            .iter()
            .map(|(k, n)| vec![k.clone(), n.to_string()])
            .collect();
        println!("{}", render_table(&["kind".into(), "count".into()], &rows));
        println!("total: {total}");
    }

    println!("-- per-disk energy shares --");
    let total: f64 = energy.values().sum();
    if total <= 0.0 {
        println!("(no disk_energy events)");
    } else {
        let rows: Vec<Vec<String>> = energy
            .iter()
            .map(|(d, j)| {
                vec![
                    format!("disk{d}"),
                    format!("{j:.1}"),
                    format!("{:.1}%", j / total * 100.0),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["disk".into(), "J".into(), "share".into()], &rows)
        );
        println!("total: {total:.1} J");
    }

    if !tenants.is_empty() {
        println!("-- per-tenant breakdown (aggregated over mix cells) --");
        let rows: Vec<Vec<String>> = tenants
            .iter()
            .map(
                |((t, name), (reqs, busy, mean_num, p99, max, mis, cross))| {
                    let mean = if *reqs > 0 {
                        mean_num / *reqs as f64
                    } else {
                        0.0
                    };
                    vec![
                        format!("{name}#{t}"),
                        reqs.to_string(),
                        format!("{busy:.1}"),
                        format!("{mean:.4}"),
                        format!("{p99:.4}"),
                        format!("{max:.4}"),
                        mis.to_string(),
                        cross.to_string(),
                    ]
                },
            )
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "tenant".into(),
                    "reqs".into(),
                    "busy s".into(),
                    "mean s".into(),
                    "worst p99 s".into(),
                    "max s".into(),
                    "misfires".into(),
                    "xtenant".into(),
                ],
                &rows
            )
        );
    }
}

#[cfg(not(feature = "obs"))]
fn probe_events_cmd(_: &[String]) {
    eprintln!(
        "probe needs the `obs` feature (on by default; rebuild without --no-default-features)"
    );
    std::process::exit(2);
}

/// The paper's Fig. 2 worked example, end to end: the code fragment, the
/// disk layouts, the derived DAPs, and the compiler-modified code with
/// the inserted spin_down/spin_up calls.
fn fig2_cmd() {
    use sdpm_core::{build_dap, insert_directives, CmMode, DapState, NoiseModel};
    use sdpm_ir::Program;
    use sdpm_ir::{
        disk_activity, render_program, AffineExpr, ArrayRef, LoopDim, LoopNest, Statement,
    };
    use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};
    use sdpm_trace::{generate, AppEvent, TraceGenConfig};

    // Fig. 2(b): U1 of size 4S striped (0, 4, S); U2 of size 2S on disk 2
    // (layout (2, 1, S)). S = 512 KiB so the idle periods are visible.
    let s_bytes: u64 = 512 * 1024;
    let elems = s_bytes / 8;
    let u1 = ArrayFile {
        name: "U1".into(),
        dims: vec![4 * elems],
        element_bytes: 8,
        order: StorageOrder::RowMajor,
        striping: Striping {
            start_disk: DiskId(0),
            stripe_factor: 4,
            stripe_bytes: s_bytes,
        },
        base_block: 0,
    };
    let u2 = ArrayFile {
        name: "U2".into(),
        dims: vec![2 * elems],
        element_bytes: 8,
        order: StorageOrder::RowMajor,
        striping: Striping {
            start_disk: DiskId(2),
            stripe_factor: 1,
            stripe_bytes: s_bytes,
        },
        base_block: 1_000_000,
    };
    // Fig. 2(a): nest 1 reads U1[i] and U2[i] for i in 0..2S elements;
    // nest 2 computes; nest 3 rereads U1's second half.
    let nest1 = LoopNest {
        label: "Nest1".into(),
        loops: vec![LoopDim::simple(2 * elems)],
        stmts: vec![Statement {
            label: "S1".into(),
            refs: vec![
                ArrayRef::read(0, vec![AffineExpr::var(1, 0)]),
                ArrayRef::read(1, vec![AffineExpr::var(1, 0)]),
            ],
        }],
        cycles_per_iter: 120.0,
    };
    let nest2 = LoopNest {
        label: "Nest2".into(),
        loops: vec![LoopDim::simple(100_000)],
        stmts: vec![],
        cycles_per_iter: 20.0 / 100_000.0 * Program::PAPER_CLOCK_HZ,
    };
    let nest3 = LoopNest {
        label: "Nest3".into(),
        loops: vec![LoopDim::simple(2 * elems)],
        stmts: vec![Statement {
            label: "S2".into(),
            refs: vec![ArrayRef::read(
                0,
                vec![AffineExpr::var(1, 0).shifted(2 * elems as i64)],
            )],
        }],
        cycles_per_iter: 120.0,
    };
    let program = Program {
        name: "figure2".into(),
        arrays: vec![u1, u2],
        nests: vec![nest1, nest2, nest3],
        clock_hz: Program::PAPER_CLOCK_HZ,
    };
    let pool = DiskPool::new(4);
    program.validate(pool).unwrap();

    println!("== Figure 2(a): the code fragment ==");
    println!("{}", render_program(&program));

    println!("== Figure 2(c): the derived DAPs ==");
    let dap = build_dap(&disk_activity(&program, pool));
    for (d, entries) in dap.per_disk.iter().enumerate() {
        println!("disk{d}:");
        if entries.is_empty() {
            println!("  < Nest 1, iteration 0, idle >   (idle for the whole program)");
        }
        for e in entries {
            println!(
                "  < {}, iteration {}, {} >",
                program.nests[e.nest].label,
                e.iter,
                match e.state {
                    DapState::Active => "active",
                    DapState::Idle => "idle",
                }
            );
        }
    }
    println!();

    println!("== Figure 2(d): the compiler-modified event stream (TPM calls) ==");
    let trace = generate(
        &program,
        pool,
        TraceGenConfig {
            io_chunk_bytes: 64 * 1024,
            detect_sequential: false,
        },
    );
    let out = insert_directives(
        &trace,
        &ultrastar36z15(),
        &NoiseModel::exact(),
        CmMode::Tpm,
        50e-6,
    );
    let mut shown_io = 0u32;
    for e in &out.trace.events {
        match e {
            AppEvent::Power { disk, action } => println!("  {action:?}({disk})"),
            AppEvent::Io(r) if shown_io < 3 => {
                println!(
                    "  io({}, block {}, {} B) ...",
                    r.disk, r.start_block, r.size_bytes
                );
                shown_io += 1;
            }
            _ => {}
        }
    }
    println!(
        "  ({} I/O requests elided; {} power-management calls inserted)\n",
        out.trace.stats().requests,
        out.inserted
    );
}

fn gaps_cmd() {
    println!("== Idle-gap distribution under Base (why TPM cannot act) ==");
    let rows: Vec<Vec<String>> = gap_distributions(&suite())
        .iter()
        .map(|g| {
            vec![
                g.name.to_string(),
                g.gaps.to_string(),
                format!("{:.3}", g.p50),
                format!("{:.3}", g.p90),
                format!("{:.3}", g.p99),
                format!("{:.2}", g.max),
                format!("{:.1}%", (g.idle_time_above_break_even * 100.0).abs()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark".into(),
                "gaps".into(),
                "p50 s".into(),
                "p90 s".into(),
                "p99 s".into(),
                "max s".into(),
                "idle time > break-even".into(),
            ],
            &rows
        )
    );
    println!(
        "Virtually no idle time clears the 15.2 s TPM break-even, but nearly all of it \
         is\nlong enough for millisecond-scale RPM shifts — the paper's whole premise \
         in one table.\n"
    );
}

fn section2_cmd() {
    println!("== Section 2 study: TPM on a laptop disk vs the server disk (checkpoint loop, 6 s intervals) ==");
    for (model, rows) in section2_laptop_vs_server() {
        println!("-- {model} --");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.scheme.clone(), norm(r.norm_energy), norm(r.norm_time)])
            .collect();
        println!(
            "{}",
            render_table(
                &["scheme".into(), "norm energy".into(), "norm time".into()],
                &table
            )
        );
    }
    println!(
        "On the laptop disk the 6 s windows clear the ~4 s break-even: the oracle and \
         compiler\nversions save ~10%, while fixed-threshold reactive TPM *thrashes* — \
         each serial wake-up\nstretches the other disks' gaps past the threshold, so \
         they spin down again mid-dump.\nOn the server disk (15.2 s break-even) all \
         three are no-ops. Proactive knowledge is\nwhat makes TPM usable at all — the \
         paper's Section 2 point, sharpened.\n"
    );
}

fn pdc_cmd() {
    println!("== PDC baseline study (mesa): concentration vs compiler direction ==");
    let rows: Vec<Vec<String>> = pdc_study()
        .iter()
        .map(|(label, cmtpm, cmdrpm, resp_ms)| {
            vec![
                label.clone(),
                norm(*cmtpm),
                norm(*cmdrpm),
                format!("{resp_ms:.2}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "layout".into(),
                "CMTPM E".into(),
                "CMDRPM E".into(),
                "open-loop resp (ms)".into(),
            ],
            &rows
        )
    );
    println!(
        "PDC buys TPM-family idleness by piling the hot data on few disks; the \
         open-loop\nresponse time shows what that concentration costs.\n"
    );
}

fn timeline_cmd() {
    use sdpm_bench::format::disk_timeline;
    use sdpm_core::{run_scheme, Scheme};
    let bench = sdpm_workloads::swim();
    let cfg = config_for(&bench);
    for scheme in [Scheme::Base, Scheme::CmDrpm] {
        let r = run_scheme(&bench.program, scheme, &cfg);
        println!(
            "== {} disk-state timeline ({}) ==",
            bench.name,
            scheme.label()
        );
        println!("{}", disk_timeline(&r, 96));
    }
}

fn ablate_cmd() {
    use sdpm_bench::ablations::*;
    println!("== Ablation: RPM step-transition time (swim) ==");
    let rows: Vec<Vec<String>> = ablate_transition_step(&[0.5, 2.0, 10.0, 50.0, 100.0, 200.0])
        .iter()
        .map(|r| {
            std::iter::once(r.x.clone())
                .chain(r.values.iter().map(|v| norm(*v)))
                .collect()
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "step".into(),
                "DRPM".into(),
                "IDRPM".into(),
                "CMDRPM".into()
            ],
            &rows
        )
    );

    println!("== Ablation: reactive DRPM window size (swim) ==");
    let rows: Vec<Vec<String>> = ablate_window(&[5, 15, 30, 60, 120])
        .iter()
        .map(|r| {
            std::iter::once(r.x.clone())
                .chain(r.values.iter().map(|v| norm(*v)))
                .collect()
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["window".into(), "DRPM energy".into(), "DRPM time".into()],
            &rows
        )
    );

    println!("== Ablation: estimation noise (swim) ==");
    let rows: Vec<Vec<String>> = ablate_noise(&[0.0, 0.05, 0.1, 0.2, 0.4])
        .iter()
        .map(|r| {
            std::iter::once(r.x.clone())
                .chain(r.values.iter().map(|v| format!("{v:.3}")))
                .collect()
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "jitter".into(),
                "CMDRPM energy".into(),
                "CMDRPM time".into(),
                "mispredict %".into(),
            ],
            &rows
        )
    );

    println!("== Ablation: tiling scope (mesa, CMDRPM) — the paper's future work ==");
    let rows: Vec<Vec<String>> = ablate_tiling_scope()
        .iter()
        .map(|r| {
            std::iter::once(r.x.clone())
                .chain(r.values.iter().map(|v| norm(*v)))
                .collect()
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["scope".into(), "norm energy".into(), "norm time".into()],
            &rows
        )
    );

    println!("== Ablation: pre-activation (swim, CMDRPM) ==");
    let rows: Vec<Vec<String>> = ablate_preactivation()
        .iter()
        .map(|r| {
            std::iter::once(r.x.clone())
                .chain(r.values.iter().map(|v| format!("{v:.3}")))
                .collect()
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "variant".into(),
                "norm energy".into(),
                "norm time".into(),
                "stall s".into(),
            ],
            &rows
        )
    );
}

fn table1_cmd() {
    let p = ultrastar36z15();
    println!("== Table 1: default simulation parameters ==");
    let rows = vec![
        vec!["Disk Model".to_string(), p.model.clone()],
        vec!["RPM".into(), p.rpm_max.to_string()],
        vec![
            "Average seek time".into(),
            format!("{} msec", p.avg_seek_secs * 1e3),
        ],
        vec![
            "Average rotation time".into(),
            format!("{} msec", p.avg_rotation_secs * 1e3),
        ],
        vec![
            "Internal transfer rate".into(),
            format!("{:.0} MB/sec", p.transfer_rate_bps / (1024.0 * 1024.0)),
        ],
        vec!["Power (active)".into(), format!("{} W", p.active_power_w)],
        vec!["Power (idle)".into(), format!("{} W", p.idle_power_w)],
        vec!["Power (standby)".into(), format!("{} W", p.standby_power_w)],
        vec![
            "Energy (spin down)".into(),
            format!("{} J / {} sec", p.spin_down_energy_j, p.spin_down_secs),
        ],
        vec![
            "Energy (spin up)".into(),
            format!("{} J / {} sec", p.spin_up_energy_j, p.spin_up_secs),
        ],
        vec![
            "RPM range / step".into(),
            format!("{}..{} / {}", p.rpm_min, p.rpm_max, p.rpm_step),
        ],
        vec![
            "RPM step transition".into(),
            format!(
                "{} ms (model decision, see DESIGN.md)",
                p.rpm_transition_secs_per_step * 1e3
            ),
        ],
        vec!["DRPM window size".into(), p.drpm_window.to_string()],
        vec![
            "TPM break-even (derived)".into(),
            format!("{:.2} sec", tpm_break_even_secs(&p)),
        ],
        vec![
            "Striping".into(),
            "64 KB stripe, factor 8, starting disk 0".into(),
        ],
    ];
    println!(
        "{}",
        render_table(&["parameter".into(), "value".into()], &rows)
    );
}

fn table2_cmd() {
    println!("== Table 2: benchmarks and their characteristics (measured vs paper) ==");
    let checks = table2(&suite());
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:.1}/{:.1}", c.measured.data_mb, c.paper.data_mb),
                format!("{}/{}", c.measured.requests, c.paper.requests),
                format!(
                    "{:.0}/{:.0}",
                    c.measured.base_energy_j, c.paper.base_energy_j
                ),
                format!("{:.0}/{:.0}", c.measured.exec_ms, c.paper.exec_ms),
                format!("{:.2}%", c.worst_rel_err() * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark".into(),
                "MB (ours/paper)".into(),
                "reqs (ours/paper)".into(),
                "base J (ours/paper)".into(),
                "exec ms (ours/paper)".into(),
                "worst err".into(),
            ],
            &rows
        )
    );
}

fn fig34_cmd(only_fig4: bool, only_fig3: bool) {
    // A scheme absent from the rows prints as "n/a" rather than NaN.
    let avg = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), norm);
    let results = fig3_fig4(&suite());
    let schemes = ["Base", "TPM", "ITPM", "DRPM", "IDRPM", "CMTPM", "CMDRPM"];
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(schemes.iter().map(|s| s.to_string()))
        .collect();
    if !only_fig4 {
        println!("== Figure 3: normalized energy consumption ==");
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|b| {
                std::iter::once(b.name.to_string())
                    .chain(b.rows.iter().map(|r| norm(r.norm_energy)))
                    .collect()
            })
            .collect();
        println!("{}", render_table(&header, &rows));
        println!(
            "averages: DRPM {} (paper ~0.74)  IDRPM {} (paper ~0.49)  CMDRPM {} (paper ~0.54)\n",
            avg(average_norm_energy(&results, "DRPM")),
            avg(average_norm_energy(&results, "IDRPM")),
            avg(average_norm_energy(&results, "CMDRPM")),
        );
    }
    if !only_fig3 {
        println!("== Figure 4: normalized execution time ==");
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|b| {
                std::iter::once(b.name.to_string())
                    .chain(b.rows.iter().map(|r| norm(r.norm_time)))
                    .collect()
            })
            .collect();
        println!("{}", render_table(&header, &rows));
        println!(
            "averages: DRPM {} (paper ~1.159)  IDRPM {}  CMDRPM {} (paper ~1.0)\n",
            avg(average_norm_time(&results, "DRPM")),
            avg(average_norm_time(&results, "IDRPM")),
            avg(average_norm_time(&results, "CMDRPM")),
        );
    }
}

fn table3_cmd() {
    println!("== Table 3: percentage of mispredicted disk speeds (CMDRPM) ==");
    let rows: Vec<Vec<String>> = table3(&suite())
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:.2}", c.measured_pct),
                format!("{:.2}", c.paper_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["benchmark".into(), "measured %".into(), "paper %".into()],
            &rows
        )
    );
}

fn sweep_table(points: &[SweepPoint], xlabel: &str, energy: bool) -> String {
    let schemes: Vec<String> = points[0].rows.iter().map(|r| r.scheme.clone()).collect();
    let header: Vec<String> = std::iter::once(xlabel.to_string())
        .chain(schemes.iter().cloned())
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            std::iter::once(p.x.to_string())
                .chain(
                    p.rows
                        .iter()
                        .map(|r| norm(if energy { r.norm_energy } else { r.norm_time })),
                )
                .collect()
        })
        .collect();
    render_table(&header, &rows)
}

fn fig56_cmd() {
    let sizes: Vec<u64> = [16, 32, 64, 128, 256].iter().map(|k| k * 1024u64).collect();
    let points = fig5_fig6_stripe_size(&sizes);
    println!("== Figure 5: swim normalized energy vs stripe size (bytes) ==");
    println!("{}", sweep_table(&points, "stripe", true));
    println!("== Figure 6: swim normalized execution time vs stripe size (bytes) ==");
    println!("{}", sweep_table(&points, "stripe", false));
}

fn fig78_cmd() {
    let factors = [2u32, 4, 8, 16];
    let points = fig7_fig8_stripe_factor(&factors);
    println!("== Figure 7: swim normalized energy vs stripe factor ==");
    println!("{}", sweep_table(&points, "disks", true));
    println!("== Figure 8: swim normalized execution time vs stripe factor ==");
    println!("{}", sweep_table(&points, "disks", false));
}

fn fig13_cmd() {
    println!("== Figure 13: normalized energy with code transformations ==");
    let results = fig13(&suite());
    let header: Vec<String> = vec![
        "benchmark".into(),
        "scheme".into(),
        "none".into(),
        "LF".into(),
        "TL".into(),
        "LF+DL".into(),
        "TL+DL".into(),
    ];
    let mut rows = Vec::new();
    for b in &results {
        let cmtpm: Vec<String> = b
            .versions
            .iter()
            .map(|v| norm(v.cmtpm_norm_energy))
            .collect();
        let cmdrpm: Vec<String> = b
            .versions
            .iter()
            .map(|v| norm(v.cmdrpm_norm_energy))
            .collect();
        rows.push(
            std::iter::once(b.name.to_string())
                .chain(std::iter::once("CMTPM".to_string()))
                .chain(cmtpm)
                .collect(),
        );
        rows.push(
            std::iter::once(String::new())
                .chain(std::iter::once("CMDRPM".to_string()))
                .chain(cmdrpm)
                .collect(),
        );
    }
    println!("{}", render_table(&header, &rows));
    let lfdl_avg: f64 = results
        .iter()
        .map(|b| b.versions[3].cmtpm_norm_energy)
        .sum::<f64>()
        / results.len() as f64;
    println!(
        "CMTPM with LF+DL average: {} (paper: transforms make TPM viable, ~0.69)\n",
        norm(lfdl_avg)
    );
}
