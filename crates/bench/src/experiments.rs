//! Experiment drivers: one function per table/figure of the paper.
//!
//! Every driver is deterministic (fixed seeds flow from the workload
//! definitions) and returns structured results; the `repro` binary is a
//! thin shell around these functions.
//! Independent benchmark runs execute in parallel via std scoped
//! threads.

use sdpm_core::{run_scheme, NoiseModel, PipelineConfig, Scheme, Session};
use sdpm_disk::{ultrastar36z15, RpmLadder};
use sdpm_ir::Program;
use sdpm_layout::Striping;
use sdpm_sim::{simulate_mix, MixPolicy, SimReport};
use sdpm_trace::{merge_tenants, tenant_timeline};
use sdpm_workloads::{all_benchmarks, swim, Benchmark, Table2Row};
use sdpm_xform::Transform;
use serde::{Deserialize, Serialize};

/// Pipeline configuration for one benchmark (Table 1 defaults + the
/// benchmark's calibrated generator and noise settings).
#[must_use]
pub fn config_for(bench: &Benchmark) -> PipelineConfig {
    PipelineConfig {
        gen: bench.gen,
        noise: NoiseModel {
            spread: bench.noise_spread,
            gap_jitter: bench.noise_jitter,
            seed: bench.noise_seed,
        },
        ..PipelineConfig::default()
    }
}

/// A copy of `program` with every array re-striped to `striping` (the
/// Figs. 5-8 sensitivity knobs).
#[must_use]
pub fn with_striping(program: &Program, striping: Striping) -> Program {
    let mut p = program.clone();
    for a in &mut p.arrays {
        a.striping = striping;
    }
    p
}

// ---------------------------------------------------------------- Table 2

/// Measured-vs-paper comparison for one benchmark's base run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Check {
    pub name: &'static str,
    /// Measured base run, in Table 2's units.
    pub measured: Table2Row,
    /// The paper's row.
    pub paper: Table2Row,
}

impl Table2Check {
    /// Worst relative error across the four columns.
    #[must_use]
    pub fn worst_rel_err(&self) -> f64 {
        [
            (self.measured.data_mb, self.paper.data_mb),
            (self.measured.requests as f64, self.paper.requests as f64),
            (self.measured.base_energy_j, self.paper.base_energy_j),
            (self.measured.exec_ms, self.paper.exec_ms),
        ]
        .iter()
        .map(|(m, p)| ((m - p) / p).abs())
        .fold(0.0, f64::max)
    }
}

/// Runs every benchmark's base configuration and compares against
/// Table 2.
#[must_use]
pub fn table2(benches: &[Benchmark]) -> Vec<Table2Check> {
    parallel_map(benches, |bench| {
        let report = run_scheme(&bench.program, Scheme::Base, &config_for(bench));
        Table2Check {
            name: bench.name,
            measured: Table2Row {
                data_mb: bench.program.total_data_bytes() as f64 / (1024.0 * 1024.0),
                requests: report.requests,
                base_energy_j: report.total_energy_j(),
                exec_ms: report.exec_secs * 1e3,
            },
            paper: bench.table2,
        }
    })
}

// ----------------------------------------------------------- Figures 3/4

/// One scheme's outcome, normalized to the same benchmark's base run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeRow {
    pub scheme: String,
    pub norm_energy: f64,
    pub norm_time: f64,
    /// Raw joules, for debugging and the EXPERIMENTS.md record.
    pub energy_j: f64,
    pub exec_secs: f64,
}

/// Fig. 3 + Fig. 4 data for one benchmark: all seven schemes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkSchemes {
    pub name: &'static str,
    pub rows: Vec<SchemeRow>,
}

fn scheme_rows(program: &Program, cfg: &PipelineConfig, schemes: &[Scheme]) -> Vec<SchemeRow> {
    let mut session = Session::new(program, cfg);
    let base = session.run(Scheme::Base);
    schemes
        .iter()
        .map(|&s| {
            let r = if s == Scheme::Base {
                base.clone()
            } else {
                session.run(s)
            };
            SchemeRow {
                scheme: s.label().to_string(),
                norm_energy: r.normalized_energy(&base),
                norm_time: r.normalized_time(&base),
                energy_j: r.total_energy_j(),
                exec_secs: r.exec_secs,
            }
        })
        .collect()
}

/// Runs all seven schemes over all benchmarks (Figs. 3 and 4 share this
/// computation: Fig. 3 reads `norm_energy`, Fig. 4 reads `norm_time`).
#[must_use]
pub fn fig3_fig4(benches: &[Benchmark]) -> Vec<BenchmarkSchemes> {
    parallel_map(benches, |bench| BenchmarkSchemes {
        name: bench.name,
        rows: scheme_rows(&bench.program, &config_for(bench), &Scheme::all()),
    })
}

// -------------------------------------------------------------- Table 3

/// Mispredicted-disk-speed percentage of CMDRPM vs the per-gap optimum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Check {
    pub name: &'static str,
    /// Measured misprediction percentage.
    pub measured_pct: f64,
    /// The paper's Table 3 value.
    pub paper_pct: f64,
}

/// The paper's Table 3 row for a benchmark name.
#[must_use]
pub fn paper_table3(name: &str) -> f64 {
    match name {
        "168.wupwise" => 6.78,
        "171.swim" => 5.14,
        "172.mgrid" => 13.02,
        "173.applu" => 18.97,
        "177.mesa" => 27.35,
        "178.galgel" => 15.9,
        _ => f64::NAN,
    }
}

/// Runs CMDRPM on every benchmark and measures Table 3.
#[must_use]
pub fn table3(benches: &[Benchmark]) -> Vec<Table3Check> {
    let ladder = RpmLadder::new(&ultrastar36z15());
    parallel_map(benches, |bench| {
        let r = run_scheme(&bench.program, Scheme::CmDrpm, &config_for(bench));
        Table3Check {
            name: bench.name,
            measured_pct: r.mispredicted_speed_fraction(&ladder) * 100.0,
            paper_pct: paper_table3(bench.name),
        }
    })
}

// ------------------------------------------------------ Figures 5/6/7/8

/// One point of a sensitivity sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept value (stripe bytes for Figs. 5/6, stripe factor for
    /// Figs. 7/8).
    pub x: u64,
    pub rows: Vec<SchemeRow>,
}

/// The schemes the paper plots in the sensitivity figures.
#[must_use]
pub fn sensitivity_schemes() -> Vec<Scheme> {
    vec![Scheme::Drpm, Scheme::IDrpm, Scheme::CmDrpm]
}

/// Figs. 5 and 6: swim under different stripe sizes (all other
/// parameters at Table 1 defaults).
#[must_use]
pub fn fig5_fig6_stripe_size(sizes: &[u64]) -> Vec<SweepPoint> {
    let bench = swim();
    let cfg = config_for(&bench);
    parallel_map(sizes, |&bytes| {
        let striping = Striping {
            stripe_bytes: bytes,
            ..Striping::default_paper()
        };
        let program = with_striping(&bench.program, striping);
        SweepPoint {
            x: bytes,
            rows: scheme_rows(&program, &cfg, &sensitivity_schemes()),
        }
    })
}

/// Figs. 7 and 8: swim under different stripe factors, with the pool
/// sized to the factor (the paper's "number of disks").
#[must_use]
pub fn fig7_fig8_stripe_factor(factors: &[u32]) -> Vec<SweepPoint> {
    let bench = swim();
    parallel_map(factors, |&factor| {
        let striping = Striping {
            stripe_factor: factor,
            ..Striping::default_paper()
        };
        let program = with_striping(&bench.program, striping);
        let cfg = PipelineConfig {
            disks: factor,
            ..config_for(&bench)
        };
        SweepPoint {
            x: u64::from(factor),
            rows: scheme_rows(&program, &cfg, &sensitivity_schemes()),
        }
    })
}

// ------------------------------------------------------------- Figure 13

/// One benchmark's Fig. 13 outcomes: for each transformation version,
/// the TPM-family and DRPM-family compiler-managed energies normalized
/// to the *untransformed* base run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13Row {
    pub name: &'static str,
    /// `(transform label, CMTPM norm energy, CMDRPM norm energy)` per
    /// version, preceded by the untransformed ("none") reference.
    pub versions: Vec<Fig13Version>,
}

/// One transformation version's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13Version {
    pub transform: String,
    pub cmtpm_norm_energy: f64,
    pub cmdrpm_norm_energy: f64,
}

/// Runs the Section 6 evaluation: every benchmark under LF / TL /
/// LF+DL / TL+DL, measuring CMTPM and CMDRPM against the untransformed
/// base.
#[must_use]
pub fn fig13(benches: &[Benchmark]) -> Vec<Fig13Row> {
    parallel_map(benches, |bench| {
        let cfg = config_for(bench);
        let pool = sdpm_layout::DiskPool::new(cfg.disks);
        let base = run_scheme(&bench.program, Scheme::Base, &cfg);
        let mut versions = Vec::new();
        let mut eval = |label: &str, program: &Program| {
            let mut session = Session::new(program, &cfg);
            let cmtpm = session.run(Scheme::CmTpm);
            let cmdrpm = session.run(Scheme::CmDrpm);
            versions.push(Fig13Version {
                transform: label.to_string(),
                cmtpm_norm_energy: cmtpm.normalized_energy(&base),
                cmdrpm_norm_energy: cmdrpm.normalized_energy(&base),
            });
        };
        eval("none", &bench.program);
        for t in Transform::all() {
            let transformed = t.apply(&bench.program, pool);
            eval(t.label(), &transformed);
        }
        Fig13Row {
            name: bench.name,
            versions,
        }
    })
}

// ------------------------------------------------------------- plumbing

/// Maps `f` over `items` on a scoped worker pool, preserving order.
///
/// Workers are capped at the machine's available parallelism and pull
/// item indices from a shared counter, so a long list cannot fan out
/// into one thread per item. A panic in `f` is re-raised on the calling
/// thread with its original payload.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len())
        .max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            let local = h
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in local {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// Convenience: the standard six-benchmark suite.
#[must_use]
pub fn suite() -> Vec<Benchmark> {
    all_benchmarks()
}

/// Average of a scheme's normalized energy across benchmark rows — the
/// paper's "on average" statements. `None` when no row matches `scheme`
/// (a mistyped label used to surface as `NaN` here).
#[must_use]
pub fn average_norm_energy(results: &[BenchmarkSchemes], scheme: &str) -> Option<f64> {
    average_of(results, scheme, |r| r.norm_energy)
}

/// Average normalized execution time for a scheme; `None` when no row
/// matches.
#[must_use]
pub fn average_norm_time(results: &[BenchmarkSchemes], scheme: &str) -> Option<f64> {
    average_of(results, scheme, |r| r.norm_time)
}

fn average_of(
    results: &[BenchmarkSchemes],
    scheme: &str,
    field: impl Fn(&SchemeRow) -> f64,
) -> Option<f64> {
    let vals: Vec<f64> = results
        .iter()
        .flat_map(|b| b.rows.iter())
        .filter(|r| r.scheme == scheme)
        .map(field)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// A `SimReport` pass-through used by the ablation benches.
#[must_use]
pub fn run_one(program: &Program, scheme: Scheme, cfg: &PipelineConfig) -> SimReport {
    run_scheme(program, scheme, cfg)
}

// ------------------------------------------------- beyond-the-paper studies

/// Section 2 demonstration: a workload with ~6 s idle windows (a
/// checkpointing solver) on a laptop-class disk and on the paper's server
/// disk, under the TPM family. The laptop disk breaks even after ~2.3 s
/// of idleness, so TPM exploits the windows there; the server disk's
/// 15.2 s break-even makes every TPM variant a no-op on the very same
/// workload — exactly the Section 2 motivation for DRPM.
#[must_use]
pub fn section2_laptop_vs_server() -> Vec<(String, Vec<SchemeRow>)> {
    let program = sdpm_workloads::synth::checkpoint_loop(16, 6, 6.0);
    let models = [
        ("laptop 2.5in".to_string(), sdpm_disk::laptop_disk()),
        ("Ultrastar 36Z15".to_string(), ultrastar36z15()),
    ];
    models
        .into_iter()
        .map(|(label, params)| {
            let cfg = PipelineConfig {
                params,
                ..PipelineConfig::default()
            };
            let rows = scheme_rows(&program, &cfg, &[Scheme::Tpm, Scheme::ITpm, Scheme::CmTpm]);
            (label, rows)
        })
        .collect()
}

/// PDC baseline study: concentrate popular arrays on few disks (the
/// reactive data-placement alternative the paper cites as \[16\]) and
/// measure (a) closed-loop energy under TPM/CMDRPM and (b) the open-loop
/// response-time cost of the concentration.
#[must_use]
pub fn pdc_study() -> Vec<(String, f64, f64, f64)> {
    let bench = mesa_like();
    let cfg = config_for(&bench);
    let pool = sdpm_layout::DiskPool::new(cfg.disks);
    let pdc = sdpm_xform::pdc_layout(&bench.program, pool);
    let base = run_scheme(&bench.program, Scheme::Base, &cfg);
    [("original", &bench.program), ("PDC", &pdc.program)]
        .into_iter()
        .map(|(label, program)| {
            let mut session = Session::new(program, &cfg);
            let cmtpm = session.run(Scheme::CmTpm).normalized_energy(&base);
            let cmdrpm = session.run(Scheme::CmDrpm).normalized_energy(&base);
            // Open loop: the base trace's requests arrive at their nominal
            // times, one tenant on an unmanaged full-speed pool.
            let arrivals = merge_tenants(&[tenant_timeline(session.base_trace(), 0, 0.0, 1.0)]);
            let open = simulate_mix(&arrivals, &[label], &cfg.params, pool, &MixPolicy::Base)
                .unwrap_or_else(|e| panic!("PDC open-loop replay: {e}"));
            (
                label.to_string(),
                cmtpm,
                cmdrpm,
                open.mean_response_secs * 1e3,
            )
        })
        .collect()
}

/// The PDC study's workload: mesa, whose three arrays have distinct
/// access frequencies.
fn mesa_like() -> Benchmark {
    sdpm_workloads::mesa()
}

/// Per-benchmark idle-gap distribution under the Base policy: the
/// quantitative form of the paper's "the idle times exhibited by the
/// benchmarks are much smaller [than the break-even]" observation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GapDistribution {
    pub name: &'static str,
    /// Number of per-disk idle gaps observed.
    pub gaps: u64,
    /// Quantiles of gap length, seconds.
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
    /// Fraction of total idle *time* spent in gaps longer than the TPM
    /// break-even (the only idleness TPM could ever exploit).
    pub idle_time_above_break_even: f64,
}

/// Computes [`GapDistribution`] for every benchmark.
#[must_use]
pub fn gap_distributions(benches: &[Benchmark]) -> Vec<GapDistribution> {
    let break_even = sdpm_disk::tpm_break_even_secs(&ultrastar36z15());
    parallel_map(benches, |bench| {
        let r = run_scheme(&bench.program, Scheme::Base, &config_for(bench));
        let mut lens: Vec<f64> = r
            .per_disk
            .iter()
            .flat_map(|d| d.gaps.iter().map(sdpm_sim::GapRecord::len_secs))
            .collect();
        lens.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| -> f64 {
            if lens.is_empty() {
                0.0
            } else {
                lens[((lens.len() - 1) as f64 * p) as usize]
            }
        };
        let total: f64 = lens.iter().sum();
        let above: f64 = lens.iter().filter(|&&l| l > break_even).sum();
        GapDistribution {
            name: bench.name,
            gaps: lens.len() as u64,
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
            max: lens.last().copied().unwrap_or(0.0),
            idle_time_above_break_even: if total > 0.0 { above / total } else { 0.0 },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the `repro pdc` table at the precision it prints: normalized
    /// CM energies to three decimals, open-loop mean response (ms) to two.
    #[test]
    fn pdc_study_reproduces_the_printed_table() {
        let rows: Vec<(String, String, String, String)> = pdc_study()
            .into_iter()
            .map(|(label, cmtpm, cmdrpm, resp_ms)| {
                (
                    label,
                    format!("{cmtpm:.3}"),
                    format!("{cmdrpm:.3}"),
                    format!("{resp_ms:.2}"),
                )
            })
            .collect();
        let expect = |l: &str, a: &str, b: &str, r: &str| {
            (l.to_string(), a.to_string(), b.to_string(), r.to_string())
        };
        assert_eq!(
            rows,
            vec![
                expect("original", "1.000", "0.539", "8.72"),
                expect("PDC", "0.557", "0.392", "1396.85"),
            ]
        );
    }
}
