//! Seeded workload inputs: the six Table 2 kernels with their pipeline
//! configurations, and the four named shared-pool mixes.
//!
//! The benchmark keeps its own copies of the kernel configuration and
//! of the mix definitions (rather than importing them from `repro`), so
//! an edit to the CLI harness cannot silently change what a workload
//! measures. The program under test only ever receives the generated
//! `Program`, `PipelineConfig` and `Mix` values.

use sdpm_core::{ArrivalProcess, Mix, MixSession, NoiseModel, PipelineConfig, Scheme, Tenant};
use sdpm_ir::Program;
use sdpm_sim::{AdaptiveConfig, DirectiveConfig, MixPolicy, TpmConfig};
use sdpm_workloads::synth::checkpoint_loop;
use sdpm_workloads::{all_benchmarks, Benchmark, Table2Row};

/// Load factors every mix is swept over.
pub const LOADS: [f64; 3] = [1.0, 2.0, 4.0];

/// The four pool policies of the contention frontier.
#[must_use]
pub fn policies() -> [MixPolicy; 4] {
    [
        MixPolicy::Base,
        MixPolicy::Tpm(TpmConfig::default()),
        MixPolicy::Adaptive(AdaptiveConfig::default()),
        MixPolicy::Directive(DirectiveConfig::default()),
    ]
}

/// One Table 2 kernel with the configuration every run of it uses.
#[derive(Debug)]
pub struct Kernel {
    /// Specfp2000 name, e.g. `171.swim`.
    pub name: &'static str,
    pub program: Program,
    pub cfg: PipelineConfig,
    pub table2: Table2Row,
}

impl Kernel {
    /// The name without its SPEC number (`swim`), used in metric names.
    #[must_use]
    pub fn short(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(_, s)| s)
    }
}

/// Table 1 defaults plus the kernel's calibrated generator and noise
/// settings; only the noise seed follows the benchmark seed.
fn config_for(bench: &Benchmark, noise_seed: u64) -> PipelineConfig {
    PipelineConfig {
        gen: bench.gen,
        noise: NoiseModel {
            spread: bench.noise_spread,
            gap_jitter: bench.noise_jitter,
            seed: noise_seed,
        },
        ..PipelineConfig::default()
    }
}

/// The six kernels. Seed 0 keeps every calibrated noise seed, so its
/// results equal the published experiment record; any other seed draws
/// kernel `i`'s estimator seed as `splitmix64(seed, i)`, which moves the
/// compiler-managed schemes' directive placement.
#[must_use]
pub fn kernels(seed: u64) -> Vec<Kernel> {
    all_benchmarks()
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let noise_seed = if seed == 0 {
                b.noise_seed
            } else {
                splitmix64(seed, i as u64)
            };
            Kernel {
                name: b.name,
                cfg: config_for(&b, noise_seed),
                program: b.program,
                table2: b.table2,
            }
        })
        .collect()
}

/// One tenant of a named mix, owning its program and configuration.
#[derive(Debug)]
pub struct TenantDef {
    pub name: String,
    pub program: Program,
    pub cfg: PipelineConfig,
    pub scheme: Scheme,
}

/// A named shared-pool scenario.
#[derive(Debug)]
pub struct MixDef {
    pub name: &'static str,
    pub arrivals: ArrivalProcess,
    pub seed: u64,
    pub tenants: Vec<TenantDef>,
}

impl MixDef {
    /// A fresh session over this mix at `load_factor`.
    #[must_use]
    pub fn session(&self, load_factor: f64) -> MixSession<'_> {
        MixSession::new(Mix {
            tenants: self
                .tenants
                .iter()
                .map(|t| Tenant {
                    name: t.name.clone(),
                    program: &t.program,
                    cfg: &t.cfg,
                    scheme: t.scheme,
                })
                .collect(),
            arrivals: self.arrivals,
            seed: self.seed,
            load_factor,
        })
    }

    /// Tenant display names, in tenant order.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }
}

/// The four named mixes, in frontier order: `pair` and `quad` over the
/// seeded kernels, `checkpoint` and `guard` over a synthetic
/// checkpointing solver. Seed 0 keeps the calibrated arrival seeds; any
/// other seed draws each stochastic mix's arrival seed as
/// `splitmix64(seed, 100 + mix index)`.
#[must_use]
pub fn mixes(seed: u64, kernels: &[Kernel]) -> Vec<MixDef> {
    let kernel = |short: &str, scheme| {
        let k = kernels
            .iter()
            .find(|k| k.short() == short)
            .expect("mixes draw on the six Table 2 kernels");
        TenantDef {
            name: k.name.to_string(),
            program: k.program.clone(),
            cfg: k.cfg.clone(),
            scheme,
        }
    };
    let solver = checkpoint_loop(2, 12, 60.0);
    let checkpoint = |name: &str, scheme| TenantDef {
        name: name.to_string(),
        program: solver.clone(),
        cfg: PipelineConfig::default(),
        scheme,
    };
    let defs = [
        MixDef {
            name: "pair",
            arrivals: ArrivalProcess::Poisson {
                mean_gap_secs: 30.0,
            },
            seed: 11,
            tenants: vec![kernel("swim", Scheme::CmTpm), kernel("mgrid", Scheme::Base)],
        },
        MixDef {
            name: "quad",
            arrivals: ArrivalProcess::Bursty {
                burst: 2,
                gap_secs: 240.0,
                spread_secs: 3.0,
            },
            seed: 12,
            tenants: vec![
                kernel("swim", Scheme::CmTpm),
                kernel("mgrid", Scheme::Base),
                kernel("applu", Scheme::CmTpm),
                kernel("mesa", Scheme::Base),
            ],
        },
        MixDef {
            name: "checkpoint",
            arrivals: ArrivalProcess::Fixed { stagger_secs: 27.0 },
            seed: 13,
            tenants: vec![
                checkpoint("ckpt#0", Scheme::Base),
                checkpoint("ckpt#1", Scheme::Base),
            ],
        },
        MixDef {
            name: "guard",
            arrivals: ArrivalProcess::Poisson {
                mean_gap_secs: 20.0,
            },
            seed: 14,
            tenants: vec![
                checkpoint("cm#0", Scheme::CmTpm),
                checkpoint("cm#1", Scheme::CmTpm),
            ],
        },
    ];
    defs.into_iter()
        .enumerate()
        .map(|(i, mut def)| {
            if seed != 0 && def.arrivals.is_stochastic() {
                def.seed = splitmix64(seed, 100 + i as u64);
            }
            def
        })
        .collect()
}

/// One output of splitmix64 (Steele et al.) for stream `stream` of
/// `seed`: platform-independent and cheap.
#[must_use]
pub fn splitmix64(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The job order of pass `pass`: `0..n` shuffled (Fisher–Yates) by a
/// stream derived from `seed` and the pass index.
#[must_use]
pub fn job_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let base = splitmix64(seed, 1_000_000 + pass);
    for i in (1..n).rev() {
        let j = (splitmix64(base, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_shuffle_is_deterministic_and_a_permutation() {
        for pass in 0..20 {
            let a = job_order(7, pass, 48);
            assert_eq!(a, job_order(7, pass, 48));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..48).collect::<Vec<_>>());
        }
        assert_ne!(job_order(7, 0, 48), job_order(8, 0, 48));
        assert_ne!(job_order(7, 0, 48), job_order(7, 1, 48));
    }

    #[test]
    fn seed_zero_keeps_calibrated_seeds() {
        let calibrated: Vec<u64> = all_benchmarks().iter().map(|b| b.noise_seed).collect();
        let seeded: Vec<u64> = kernels(0).iter().map(|k| k.cfg.noise.seed).collect();
        assert_eq!(seeded, calibrated);
        let moved: Vec<u64> = kernels(1).iter().map(|k| k.cfg.noise.seed).collect();
        assert!(moved.iter().zip(&calibrated).all(|(a, b)| a != b));
        let arrivals: Vec<u64> = mixes(0, &kernels(0)).iter().map(|m| m.seed).collect();
        assert_eq!(arrivals, [11, 12, 13, 14]);
        let reseeded = mixes(5, &kernels(5));
        assert_eq!(reseeded[2].seed, 13, "fixed arrivals ignore the seed");
        assert_ne!(reseeded[0].seed, 11);
    }
}
