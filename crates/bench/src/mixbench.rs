//! `repro mix`: shared-pool multi-program contention benchmarks.
//!
//! Sweeps the named [`MixDef`]s over a grid of load factors × pool
//! policies and records the **contention/energy frontier**: for every
//! cell, disk-subsystem energy against mean/p99/max response time and
//! the misfire tally (including the cross-tenant vetoes unique to
//! shared pools). The frontier is where the scenario engine's claim
//! lives — the epoch-based adaptive policy only distinguishes itself
//! from classic TPM once several tenants interleave on one pool.
//!
//! [`smoke`] is the CI face of the harness. It checks the five
//! properties the scenario layer promises:
//!
//! 1. **Determinism** — every mix × load × policy cell re-run under the
//!    same seed reproduces the identical [`MixReport`] (energy compared
//!    on raw bits).
//! 2. **Degenerate bit-exactness** — a single-tenant mix at load factor
//!    1 with zero arrival offset runs the *identical* code path as
//!    [`Session::run`], for all seven schemes on every kernel.
//! 3. **Contention win** — on at least one contended mix the adaptive
//!    policy spends less energy than TPM at no p99 cost.
//! 4. **Verification** — no mix in the suite draws an `SDPM-Exxx`
//!    diagnostic from the shared-pool checker ([`verify_mix_session`]);
//!    stochastic mixes degrade to the expected `SDPM-W003` warning.
//! 5. **Both entry points** — every cell's [`MixSession::contended`]
//!    report, merged lazily from the tenants' traces, equals
//!    [`simulate_mix`] over [`merge_tenants`] of
//!    [`MixSession::tenant_streams`], the materialized path, bit for bit.

use crate::config_for;
use sdpm_core::{ArrivalProcess, Mix, MixSession, PipelineConfig, Scheme, Session, Tenant};
use sdpm_ir::Program;
use sdpm_layout::DiskPool;
use sdpm_sim::{
    simulate_mix, AdaptiveConfig, DirectiveConfig, MixPolicy, MixReport, SimError, TpmConfig,
};
use sdpm_trace::merge_tenants;
use sdpm_verify::{verify_mix_session, Severity};
use sdpm_workloads::synth::checkpoint_loop;
use sdpm_workloads::{applu, mesa, mgrid, swim, Benchmark};

/// Schema tag stamped into the frontier JSON.
pub const SCHEMA: &str = "sdpm-mix/v1";

/// Load factors swept when the CLI does not override them: nominal
/// timing, doubled, and quadrupled offered load.
pub const DEFAULT_LOADS: [f64; 3] = [1.0, 2.0, 4.0];

/// The four pool policies every frontier cell is evaluated under.
#[must_use]
pub fn default_policies() -> Vec<MixPolicy> {
    vec![
        MixPolicy::Base,
        MixPolicy::Tpm(TpmConfig::default()),
        MixPolicy::Adaptive(AdaptiveConfig::default()),
        MixPolicy::Directive(DirectiveConfig::default()),
    ]
}

/// One tenant of a named mix, owning its program and configuration so
/// the borrowing [`MixSession`] can be rebuilt per load factor.
#[derive(Debug, Clone)]
pub struct MixTenantDef {
    pub name: String,
    pub program: Program,
    pub cfg: PipelineConfig,
    pub scheme: Scheme,
}

/// A named, seeded scenario: tenants plus an arrival process.
#[derive(Debug, Clone)]
pub struct MixDef {
    pub name: &'static str,
    pub arrivals: ArrivalProcess,
    pub seed: u64,
    pub tenants: Vec<MixTenantDef>,
}

impl MixDef {
    /// A fresh [`MixSession`] over this definition at `load_factor`.
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

    /// The tenants' display names, in tenant-id order.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }

    /// The same mix under a different arrival seed.
    #[must_use]
    pub fn reseeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn bench_tenant(b: &Benchmark, scheme: Scheme) -> MixTenantDef {
    MixTenantDef {
        name: b.name.to_string(),
        cfg: config_for(b),
        program: b.program.clone(),
        scheme,
    }
}

/// Two SPEC kernels under Poisson arrivals: one compiler-managed, one
/// unmanaged — the minimal mix where a directive can penalize a
/// co-tenant.
#[must_use]
pub fn pair_mix() -> MixDef {
    MixDef {
        name: "pair",
        arrivals: ArrivalProcess::Poisson {
            mean_gap_secs: 30.0,
        },
        seed: 11,
        tenants: vec![
            bench_tenant(&swim(), Scheme::CmTpm),
            bench_tenant(&mgrid(), Scheme::Base),
        ],
    }
}

/// Four SPEC kernels arriving in two bursts: the crowded pool.
#[must_use]
pub fn quad_mix() -> MixDef {
    MixDef {
        name: "quad",
        arrivals: ArrivalProcess::Bursty {
            burst: 2,
            gap_secs: 240.0,
            spread_secs: 3.0,
        },
        seed: 12,
        tenants: vec![
            bench_tenant(&swim(), Scheme::CmTpm),
            bench_tenant(&mgrid(), Scheme::Base),
            bench_tenant(&applu(), Scheme::CmTpm),
            bench_tenant(&mesa(), Scheme::Base),
        ],
    }
}

/// Two interleaved checkpointing solvers with fixed staggered starts:
/// long, regular idle gaps on every disk — the regime where the
/// adaptive policy's idle prediction pays and the fixed arrivals keep
/// the mix statically verifiable.
#[must_use]
pub fn checkpoint_mix() -> MixDef {
    let program = checkpoint_loop(2, 12, 60.0);
    let cfg = PipelineConfig::default();
    let tenant = |name: &str| MixTenantDef {
        name: name.to_string(),
        program: program.clone(),
        cfg: cfg.clone(),
        scheme: Scheme::Base,
    };
    MixDef {
        name: "checkpoint",
        arrivals: ArrivalProcess::Fixed { stagger_secs: 27.0 },
        seed: 13,
        tenants: vec![tenant("ckpt#0"), tenant("ckpt#1")],
    }
}

/// Two *compiler-managed* checkpointing solvers under Poisson arrivals:
/// each tenant's trace carries spin-down directives proven safe for its
/// own long gaps, but a co-tenant lands inside them — the mix that
/// exercises the runtime's cross-tenant veto. Stochastic arrivals mean
/// the static checker degrades to `SDPM-W003` (the proof does not cover
/// the interleaving); the veto is the runtime's answer.
#[must_use]
pub fn guard_mix() -> MixDef {
    let program = checkpoint_loop(2, 12, 60.0);
    let cfg = PipelineConfig::default();
    let tenant = |name: &str| MixTenantDef {
        name: name.to_string(),
        program: program.clone(),
        cfg: cfg.clone(),
        scheme: Scheme::CmTpm,
    };
    MixDef {
        name: "guard",
        arrivals: ArrivalProcess::Poisson {
            mean_gap_secs: 20.0,
        },
        seed: 14,
        tenants: vec![tenant("cm#0"), tenant("cm#1")],
    }
}

/// Every named mix, in frontier order.
#[must_use]
pub fn all_mixes() -> Vec<MixDef> {
    vec![pair_mix(), quad_mix(), checkpoint_mix(), guard_mix()]
}

/// One mix × load × policy measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierCell {
    pub mix: String,
    pub load_factor: f64,
    pub policy: String,
    pub energy_j: f64,
    pub mean_response_secs: f64,
    pub p99_response_secs: f64,
    pub max_response_secs: f64,
    pub makespan_secs: f64,
    pub requests: u64,
    pub misfires: u64,
    pub cross_tenant: u64,
}

impl FrontierCell {
    /// Flattens a [`MixReport`] into its frontier row.
    #[must_use]
    pub fn from_report(mix: &str, load_factor: f64, r: &MixReport) -> Self {
        FrontierCell {
            mix: mix.to_string(),
            load_factor,
            policy: r.policy.clone(),
            energy_j: r.total_energy_j(),
            mean_response_secs: r.mean_response_secs,
            p99_response_secs: r.p99_response_secs,
            max_response_secs: r.max_response_secs,
            makespan_secs: r.makespan_secs,
            requests: r.requests,
            misfires: r.misfires.total(),
            cross_tenant: r.misfires.cross_tenant,
        }
    }
}

/// The contention/energy frontier: every cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MixFrontier {
    pub cells: Vec<FrontierCell>,
}

impl MixFrontier {
    /// Human-readable rows, one per cell (frontier table order).
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.cells
            .iter()
            .map(|c| {
                vec![
                    c.mix.clone(),
                    format!("{:.1}", c.load_factor),
                    c.policy.clone(),
                    format!("{:.1}", c.energy_j),
                    format!("{:.4}", c.mean_response_secs),
                    format!("{:.4}", c.p99_response_secs),
                    format!("{:.4}", c.max_response_secs),
                    format!("{}", c.requests),
                    format!("{}", c.misfires),
                    format!("{}", c.cross_tenant),
                ]
            })
            .collect()
    }

    /// Frontier-table header matching [`MixFrontier::rows`].
    #[must_use]
    pub fn header() -> Vec<String> {
        [
            "mix", "load", "policy", "energy J", "mean s", "p99 s", "max s", "reqs", "misfires",
            "xtenant",
        ]
        .iter()
        .map(ToString::to_string)
        .collect()
    }

    /// Hand-assembled JSON document (`sdpm-mix/v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{{\"schema\":\"{SCHEMA}\",\"cells\":["));
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"mix\":\"{}\",\"load\":{},\"policy\":\"{}\",\"energy_j\":{},\
                 \"mean_s\":{},\"p99_s\":{},\"max_s\":{},\"makespan_s\":{},\
                 \"requests\":{},\"misfires\":{},\"cross_tenant\":{}}}",
                c.mix,
                c.load_factor,
                c.policy,
                c.energy_j,
                c.mean_response_secs,
                c.p99_response_secs,
                c.max_response_secs,
                c.makespan_secs,
                c.requests,
                c.misfires,
                c.cross_tenant,
            ));
        }
        s.push_str("]}");
        s
    }

    /// The cell for `(mix, load, policy)`, if swept.
    #[must_use]
    pub fn cell(&self, mix: &str, load: f64, policy: &str) -> Option<&FrontierCell> {
        self.cells
            .iter()
            .find(|c| c.mix == mix && c.load_factor == load && c.policy == policy)
    }
}

/// Sweeps `mixes` × `loads` × `policies` and collects the frontier.
///
/// # Panics
/// If a cell fails to simulate — the named mixes are constructed valid,
/// so a failure is a harness bug, not a measurement.
#[must_use]
pub fn run_frontier(mixes: &[MixDef], loads: &[f64], policies: &[MixPolicy]) -> MixFrontier {
    let mut cells = Vec::new();
    for def in mixes {
        for &lf in loads {
            for policy in policies {
                let r = def
                    .session(lf)
                    .contended(policy)
                    .unwrap_or_else(|e| panic!("mix {} @ load {lf}: {e}", def.name));
                cells.push(FrontierCell::from_report(def.name, lf, &r));
            }
        }
    }
    MixFrontier { cells }
}

/// One named property check of the smoke suite.
#[derive(Debug, Clone)]
pub struct SmokeCheck {
    pub name: &'static str,
    pub passed: bool,
    /// What was checked (or what failed).
    pub detail: String,
}

/// The CI smoke record: the frontier plus the five property checks.
#[derive(Debug, Clone)]
pub struct MixSmoke {
    pub seed: u64,
    pub checks: Vec<SmokeCheck>,
    pub frontier: MixFrontier,
}

impl MixSmoke {
    /// Every property holds.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Human-readable rows, one per check.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.checks
            .iter()
            .map(|c| {
                vec![
                    c.name.to_string(),
                    if c.passed { "yes" } else { "NO" }.to_string(),
                    c.detail.clone(),
                ]
            })
            .collect()
    }
}

/// Both runs simulated, to the same report with the same energy bits.
fn same_cell(a: &Result<MixReport, SimError>, b: &Result<MixReport, SimError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y && x.total_energy_j().to_bits() == y.total_energy_j().to_bits(),
        _ => false,
    }
}

/// Runs the smoke suite. `seed` re-seeds every stochastic mix (the named
/// defaults use their built-in seeds when `seed` is 0, matching the
/// published frontier).
#[must_use]
pub fn smoke(seed: u64) -> MixSmoke {
    let mixes: Vec<MixDef> = all_mixes()
        .into_iter()
        .zip(0u64..)
        .map(|(d, i)| if seed == 0 { d } else { d.reseeded(seed + i) })
        .collect();
    let policies = default_policies();
    let mut checks = Vec::new();

    // 1. Determinism: identical double runs for every cell.
    let frontier = run_frontier(&mixes, &DEFAULT_LOADS, &policies);
    let mut det_fail = String::new();
    'det: for def in &mixes {
        for &lf in &DEFAULT_LOADS {
            for policy in &policies {
                let a = def.session(lf).contended(policy);
                let b = def.session(lf).contended(policy);
                if !same_cell(&a, &b) {
                    det_fail = format!("{} @ load {lf} under {}", def.name, policy.label());
                    break 'det;
                }
            }
        }
    }
    checks.push(SmokeCheck {
        name: "determinism",
        passed: det_fail.is_empty(),
        detail: if det_fail.is_empty() {
            format!(
                "{} cells bit-identical on re-run",
                mixes.len() * DEFAULT_LOADS.len() * policies.len()
            )
        } else {
            det_fail
        },
    });

    // 2. Degenerate bit-exactness vs the single-program pipeline.
    let mut deg_fail = String::new();
    let mut deg_cells = 0usize;
    'deg: for b in crate::suite() {
        let cfg = config_for(&b);
        let mut solo = Session::new(&b.program, &cfg);
        for scheme in Scheme::all() {
            let want = solo.run(scheme);
            let def = MixDef {
                name: "degenerate",
                arrivals: ArrivalProcess::Fixed { stagger_secs: 0.0 },
                seed: 0,
                tenants: vec![MixTenantDef {
                    name: b.name.to_string(),
                    program: b.program.clone(),
                    cfg: cfg.clone(),
                    scheme,
                }],
            };
            let got = def.session(1.0).run_tenant(0);
            let exact = want == got
                && want.total_energy_j().to_bits() == got.total_energy_j().to_bits()
                && want.exec_secs.to_bits() == got.exec_secs.to_bits();
            if !exact {
                deg_fail = format!("{} under {}", b.name, scheme.label());
                break 'deg;
            }
            deg_cells += 1;
        }
    }
    checks.push(SmokeCheck {
        name: "degenerate-bit-exact",
        passed: deg_fail.is_empty(),
        detail: if deg_fail.is_empty() {
            format!("{deg_cells} scheme x kernel cells match Session::run bitwise")
        } else {
            deg_fail
        },
    });

    // 3. Adaptive beats TPM somewhere on the frontier, at no p99 cost.
    let win = frontier.cells.iter().find(|a| {
        a.policy == "ADAPT"
            && frontier
                .cell(&a.mix, a.load_factor, "TPM")
                .is_some_and(|t| {
                    a.energy_j < t.energy_j && a.p99_response_secs <= t.p99_response_secs + 1e-9
                })
    });
    checks.push(SmokeCheck {
        name: "adaptive-beats-tpm",
        passed: win.is_some(),
        detail: match win {
            Some(c) => format!(
                "mix {} @ load {:.1}: {:.1} J vs TPM {:.1} J",
                c.mix,
                c.load_factor,
                c.energy_j,
                frontier
                    .cell(&c.mix, c.load_factor, "TPM")
                    .map_or(f64::NAN, |t| t.energy_j),
            ),
            None => "no cell where ADAPT saves energy at p99 <= TPM".to_string(),
        },
    });

    // 4. The shared-pool checker draws no SDPM-Exxx on any mix.
    let mut verify_fail = String::new();
    let mut warned = 0usize;
    'ver: for def in &mixes {
        for &lf in &DEFAULT_LOADS {
            let mut session = def.session(lf);
            let diags = verify_mix_session(&mut session);
            warned += diags
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count();
            if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
                verify_fail = format!("{} @ load {lf}: {}", def.name, d.code.as_str());
                break 'ver;
            }
        }
    }
    checks.push(SmokeCheck {
        name: "verify-clean",
        passed: verify_fail.is_empty(),
        detail: if verify_fail.is_empty() {
            format!("0 errors, {warned} contention warnings (expected on stochastic mixes)")
        } else {
            verify_fail
        },
    });

    // 5. The lazy merge and the materialized path give the same cells.
    let mut paths_fail = String::new();
    'paths: for def in &mixes {
        let names = def.tenant_names();
        let cfg = &def.tenants[0].cfg;
        for &lf in &DEFAULT_LOADS {
            let mut session = def.session(lf);
            let merged = merge_tenants(&session.tenant_streams());
            for policy in &policies {
                let lazy = session.contended(policy);
                let materialized = simulate_mix(
                    &merged,
                    &names,
                    &cfg.params,
                    DiskPool::new(cfg.disks),
                    policy,
                );
                if !same_cell(&lazy, &materialized) {
                    paths_fail = format!("{} @ load {lf} under {}", def.name, policy.label());
                    break 'paths;
                }
            }
        }
    }
    checks.push(SmokeCheck {
        name: "lazy-equals-materialized",
        passed: paths_fail.is_empty(),
        detail: if paths_fail.is_empty() {
            format!(
                "{} cells: contended == simulate_mix(merge_tenants(tenant_streams))",
                mixes.len() * DEFAULT_LOADS.len() * policies.len()
            )
        } else {
            paths_fail
        },
    });

    MixSmoke {
        seed,
        checks,
        frontier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_trace::{AppEvent, TenantEvent, Trace};

    /// Every frontier cell's contended report equals `simulate_mix` over
    /// a stream merged here, independently of `sdpm_trace::mix`: each
    /// tenant's trace (from a session of its own) walked by hand onto the
    /// wall clock, the timelines concatenated and stable-sorted by
    /// `(time bits, tenant, seq)`.
    #[test]
    fn every_frontier_cell_matches_a_hand_merged_stream() {
        let mut cells = 0;
        for def in all_mixes() {
            let traces: Vec<Trace> = (def.tenants.iter())
                .map(|t| {
                    Session::new(&t.program, &t.cfg)
                        .scheme_trace(t.scheme)
                        .clone()
                })
                .collect();
            let names = def.tenant_names();
            let cfg = &def.tenants[0].cfg;
            for &lf in &DEFAULT_LOADS {
                let mut session = def.session(lf);
                let mut merged = Vec::new();
                for ((trace, offset), tenant) in traces.iter().zip(session.offsets()).zip(0u32..) {
                    let mut t = 0.0f64;
                    for (event, seq) in trace.events.iter().zip(0u64..) {
                        match event {
                            AppEvent::Compute { secs, .. } => t += secs,
                            _ => merged.push(TenantEvent {
                                at_secs: offset + t / lf,
                                tenant,
                                seq,
                                event: *event,
                            }),
                        }
                    }
                }
                merged.sort_by_key(|e| (e.at_secs.to_bits(), e.tenant, e.seq));
                for policy in default_policies() {
                    let label = format!("{} @ load {lf} under {}", def.name, policy.label());
                    let got = session.contended(&policy).expect(&label);
                    let want = simulate_mix(
                        &merged,
                        &names,
                        &cfg.params,
                        DiskPool::new(cfg.disks),
                        &policy,
                    )
                    .expect(&label);
                    // `assert!`: a cell's `Debug` text lists every gap.
                    assert!(got == want, "{label}: reports differ");
                    assert_eq!(
                        got.total_energy_j().to_bits(),
                        want.total_energy_j().to_bits(),
                        "{label}"
                    );
                    assert!(got.requests > 0, "{label}");
                    cells += 1;
                }
            }
        }
        assert_eq!(cells, 48);
    }

    #[test]
    fn frontier_covers_the_grid_and_serializes() {
        let mixes = vec![checkpoint_mix()];
        let loads = [1.0, 2.0];
        let f = run_frontier(&mixes, &loads, &default_policies());
        assert_eq!(f.cells.len(), loads.len() * 4);
        assert!(f.cells.iter().all(|c| c.requests > 0));
        assert!(f.cells.iter().all(|c| c.energy_j > 0.0));
        #[cfg(feature = "obs")]
        {
            let json = f.to_json();
            let v = sdpm_obs::json::Value::parse(&json).expect("frontier JSON parses");
            assert_eq!(
                v.get("schema").and_then(|s| s.as_str()),
                Some(SCHEMA),
                "{json}"
            );
            assert_eq!(
                v.get("cells").and_then(|c| c.as_array()).map(<[_]>::len),
                Some(f.cells.len())
            );
        }
    }

    #[test]
    fn checkpoint_mix_rewards_the_adaptive_policy() {
        let def = checkpoint_mix();
        let tpm = def
            .session(1.0)
            .contended(&MixPolicy::Tpm(TpmConfig::default()))
            .expect("tpm simulates");
        let adapt = def
            .session(1.0)
            .contended(&MixPolicy::Adaptive(AdaptiveConfig::default()))
            .expect("adaptive simulates");
        assert!(
            adapt.total_energy_j() < tpm.total_energy_j(),
            "adaptive {} must beat TPM {}",
            adapt.total_energy_j(),
            tpm.total_energy_j()
        );
        assert!(adapt.p99_response_secs <= tpm.p99_response_secs + 1e-9);
    }

    #[test]
    fn mixes_are_contended_and_deterministic() {
        for def in all_mixes() {
            let a = def.session(2.0).contended(&MixPolicy::Base).expect("runs");
            let b = def.session(2.0).contended(&MixPolicy::Base).expect("runs");
            assert_eq!(a, b, "{} not deterministic", def.name);
            assert!(a.requests > 0, "{} issues no requests", def.name);
            assert_eq!(a.per_tenant.len(), def.tenants.len());
        }
    }

    #[test]
    fn guard_mix_exercises_the_cross_tenant_veto() {
        let def = guard_mix();
        let veto: u64 = DEFAULT_LOADS
            .iter()
            .map(|&lf| {
                def.session(lf)
                    .contended(&MixPolicy::Directive(DirectiveConfig::default()))
                    .expect("guard mix simulates")
                    .misfires
                    .cross_tenant
            })
            .sum();
        assert!(veto > 0, "no load factor triggered a cross-tenant veto");
    }

    /// `repro mix --mix pair --loads 1e-12`: the timeline stretches past
    /// 3e13 s, and the adaptive policy closes the epochs of each long
    /// silence in one step, so every policy finishes.
    #[test]
    fn pair_mix_at_a_tiny_load_finishes() {
        let def = pair_mix();
        for policy in default_policies() {
            let r = def.session(1e-12).contended(&policy);
            let r = r.unwrap_or_else(|e| panic!("{}: {e}", policy.label()));
            assert!(r.requests > 0, "{}", policy.label());
        }
    }

    /// At load 1e-20 the events fall past 1e17 s, where even a 1.5 s
    /// spin-down rounds away: every policy rejects the input instead of
    /// failing inside the power-state machine.
    #[test]
    fn pair_mix_past_the_clock_resolution_is_an_invalid_trace() {
        let def = pair_mix();
        for policy in default_policies() {
            let err = def.session(1e-20).contended(&policy).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidTrace(m) if m.contains("shortest power transition")),
                "{}: {err}",
                policy.label()
            );
        }
    }

    #[test]
    fn reseeding_moves_stochastic_arrivals_only() {
        let a = pair_mix().session(1.0).offsets();
        let b = pair_mix().reseeded(99).session(1.0).offsets();
        assert!(a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits()));
        let c = checkpoint_mix().session(1.0).offsets();
        let d = checkpoint_mix().reseeded(99).session(1.0).offsets();
        assert_eq!(c, d, "Fixed arrivals must ignore the seed");
    }
}
