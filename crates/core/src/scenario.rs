//! Shared-pool multi-program scenarios: tenants, arrival processes, and
//! the [`MixSession`] that drives them.
//!
//! The rest of the pipeline assumes exactly one program owns the pool —
//! [`Session`] caches one trace, the engine replays one blocking
//! application, `verify` proves one program's directives safe. A
//! *scenario* lifts that assumption: K [`Tenant`]s (each a program +
//! scheme pair) share one disk pool, their request streams shifted by an
//! [`ArrivalProcess`] and compressed by a load factor, merged on one
//! wall clock and played open-loop through the shared-pool engine. A
//! contended run reads each tenant's cached trace in place: a
//! [`sdpm_trace::TenantMerge`] of per-tenant cursors feeds
//! [`sdpm_sim::simulate_mix_merged`] as it merges, so no timeline or
//! merged stream is built. [`MixSession::tenant_streams`] materializes
//! the same timelines for [`sdpm_trace::merge_tenants`] and
//! [`sdpm_sim::simulate_mix`], which give the same reports.
//!
//! Two disciplines, one cache:
//!
//! * **Solo** ([`MixSession::run_tenant`]) — each tenant's closed-loop
//!   run, delegated verbatim to a per-`(program, cfg)` [`Session`]. A
//!   degenerate mix (one tenant, zero offset, load factor 1) therefore
//!   runs the *identical* code path as [`Session::run`]: bit-exactness
//!   with the single-program pipeline is structural, not numerical.
//! * **Contended** ([`MixSession::contended`]) — the merged open-loop
//!   replay against the shared pool, where policies and tenants
//!   interact (queueing, stolen idle gaps, cross-tenant directive
//!   vetoes).
//!
//! All randomness (Poisson, bursty, long-tailed arrivals) flows from one
//! `u64` seed through a splitmix64 stream — identical seeds give
//! bit-identical scenarios on every platform.

use crate::pipeline::{PipelineConfig, Scheme};
use crate::session::Session;
use sdpm_ir::Program;
use sdpm_layout::DiskPool;
use sdpm_sim::{simulate_mix_merged, MixPolicy, MixReport, SimError, SimReport};
use sdpm_trace::mix::{tenant_timeline, TenantCursor, TenantMerge, TenantStream};
use sdpm_trace::Trace;

/// One program in a shared-pool scenario.
#[derive(Debug, Clone)]
pub struct Tenant<'a> {
    /// Display name (mix-report rows).
    pub name: String,
    /// The tenant's program.
    pub program: &'a Program,
    /// Pipeline configuration. All tenants of one mix must agree on the
    /// disk model and pool size ([`MixSession::contended`] checks).
    pub cfg: &'a PipelineConfig,
    /// Which scheme's trace the tenant contributes: CM schemes
    /// contribute their instrumented (directive-carrying) trace, all
    /// others the base trace.
    pub scheme: Scheme,
}

/// When each tenant's stream starts, relative to the scenario origin.
///
/// Stochastic variants draw from a seeded splitmix64 stream — the same
/// `(process, seed, tenant count)` triple always produces the same
/// offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Tenant `k` starts at `k × stagger_secs`. `stagger_secs = 0` is
    /// the degenerate all-at-once scenario (and, with one tenant, the
    /// bit-exact single-program case).
    Fixed {
        /// Per-tenant start spacing, seconds.
        stagger_secs: f64,
    },
    /// Open-loop Poisson arrivals: i.i.d. exponential gaps between
    /// consecutive tenant starts.
    Poisson {
        /// Mean gap between tenant starts, seconds.
        mean_gap_secs: f64,
    },
    /// Bursts of `burst` tenants start (nearly) together, bursts spaced
    /// `gap_secs` apart, with uniform jitter in `[0, spread_secs)`
    /// inside each burst.
    Bursty {
        /// Tenants per burst.
        burst: u32,
        /// Gap between bursts, seconds.
        gap_secs: f64,
        /// Within-burst uniform jitter bound, seconds.
        spread_secs: f64,
    },
    /// Long-tailed (Pareto) gaps between consecutive tenant starts:
    /// most tenants arrive close together, a few arrive much later.
    LongTail {
        /// Pareto scale, seconds (the typical gap).
        scale_secs: f64,
        /// Pareto tail index; smaller is heavier (must be > 0).
        shape: f64,
    },
}

impl ArrivalProcess {
    /// Whether the process draws randomness (anything but `Fixed`).
    /// Stochastic mixes cannot be covered by the static directive
    /// safety argument — verification degrades to a warning
    /// (`SDPM-W003`) instead of a proof.
    #[must_use]
    pub fn is_stochastic(&self) -> bool {
        !matches!(self, ArrivalProcess::Fixed { .. })
    }

    /// The start offset of each of `k` tenants, in tenant order.
    /// Deterministic in `(self, seed, k)`.
    #[must_use]
    pub fn offsets(&self, seed: u64, k: usize) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        match *self {
            ArrivalProcess::Fixed { stagger_secs } => {
                (0..k).map(|i| i as f64 * stagger_secs).collect()
            }
            ArrivalProcess::Poisson { mean_gap_secs } => {
                let mut t = 0.0;
                (0..k)
                    .map(|i| {
                        if i > 0 {
                            t += -mean_gap_secs * (1.0 - rng.unit_f64()).ln();
                        }
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Bursty {
                burst,
                gap_secs,
                spread_secs,
            } => {
                let per = burst.max(1) as usize;
                (0..k)
                    .map(|i| (i / per) as f64 * gap_secs + rng.unit_f64() * spread_secs)
                    .collect()
            }
            ArrivalProcess::LongTail { scale_secs, shape } => {
                let mut t = 0.0;
                (0..k)
                    .map(|i| {
                        if i > 0 {
                            // Pareto(Lomax) gap: scale * ((1-u)^(-1/shape) - 1).
                            let u = rng.unit_f64();
                            t += scale_secs * ((1.0 - u).powf(-1.0 / shape) - 1.0);
                        }
                        t
                    })
                    .collect()
            }
        }
    }
}

/// A K-tenant shared-pool scenario.
#[derive(Debug, Clone)]
pub struct Mix<'a> {
    /// The tenants, in tenant-id order.
    pub tenants: Vec<Tenant<'a>>,
    /// How tenant starts are spread over time.
    pub arrivals: ArrivalProcess,
    /// Seed for the arrival process (unused by `Fixed`).
    pub seed: u64,
    /// Time-compression factor applied to every tenant's nominal
    /// timeline: factor `f` squeezes inter-request gaps by `1/f`, so
    /// `f > 1` raises offered load. Factor 1 is the nominal timeline
    /// (bitwise, for the degenerate bit-exactness guarantee).
    pub load_factor: f64,
}

/// Session-per-tenant driver for a [`Mix`], with trace generation cached
/// per distinct `(program, cfg)` pair — two tenants running the same
/// kernel under the same configuration share one generation, mirroring
/// what [`Session`] does for schemes.
#[derive(Debug)]
pub struct MixSession<'a> {
    mix: Mix<'a>,
    sessions: Vec<Session<'a>>,
    /// `session_of[t]` indexes `sessions` for tenant `t`.
    session_of: Vec<usize>,
    /// Tenant `t`'s nominal time at its last `Io`/`Power` event (`None`
    /// if it has none); empty until the first contended run fills it.
    ends: Vec<Option<f64>>,
}

impl<'a> MixSession<'a> {
    /// Builds the session table for `mix`.
    ///
    /// # Panics
    /// If the mix has no tenants or a non-finite/non-positive load
    /// factor.
    #[must_use]
    pub fn new(mix: Mix<'a>) -> Self {
        assert!(!mix.tenants.is_empty(), "a mix needs at least one tenant");
        assert!(
            mix.load_factor.is_finite() && mix.load_factor > 0.0,
            "load factor must be finite and positive, got {}",
            mix.load_factor
        );
        let mut sessions: Vec<Session<'a>> = Vec::new();
        let mut keys: Vec<(*const Program, *const PipelineConfig)> = Vec::new();
        let session_of = mix
            .tenants
            .iter()
            .map(|t| {
                let key = (std::ptr::from_ref(t.program), std::ptr::from_ref(t.cfg));
                keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                    keys.push(key);
                    sessions.push(Session::new(t.program, t.cfg));
                    sessions.len() - 1
                })
            })
            .collect();
        MixSession {
            mix,
            sessions,
            session_of,
            ends: Vec::new(),
        }
    }

    /// The scenario description.
    #[must_use]
    pub fn mix(&self) -> &Mix<'a> {
        &self.mix
    }

    /// How many distinct `(program, cfg)` sessions back the tenants —
    /// the cache-sharing probe (`<= tenants`).
    #[must_use]
    pub fn distinct_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Each tenant's start offset under the mix's arrival process.
    #[must_use]
    pub fn offsets(&self) -> Vec<f64> {
        self.mix
            .arrivals
            .offsets(self.mix.seed, self.mix.tenants.len())
    }

    /// Tenant `t`'s *solo* closed-loop run — delegated verbatim to the
    /// underlying [`Session::run`], so it is bit-identical to the
    /// single-program pipeline by construction.
    ///
    /// # Panics
    /// If `t` is out of range.
    #[must_use]
    pub fn run_tenant(&mut self, t: usize) -> SimReport {
        let scheme = self.mix.tenants[t].scheme;
        self.sessions[self.session_of[t]].run(scheme)
    }

    /// Each tenant's open-loop stream: the scheme-appropriate cached
    /// trace (instrumented for CM schemes, base otherwise) projected
    /// onto the shared wall clock with the tenant's arrival offset and
    /// the mix's load factor.
    ///
    /// # Panics
    /// If a tenant's trace fails generation-time validation.
    #[must_use]
    pub fn tenant_streams(&mut self) -> Vec<TenantStream> {
        let offsets = self.offsets();
        let mut out = Vec::with_capacity(self.mix.tenants.len());
        for (t, offset) in offsets.iter().enumerate() {
            let scheme = self.mix.tenants[t].scheme;
            let trace = self.sessions[self.session_of[t]].scheme_trace(scheme);
            out.push(tenant_timeline(
                trace,
                t as u32,
                *offset,
                self.mix.load_factor,
            ));
        }
        out
    }

    /// Runs the contended scenario: all tenants' timelines, read in place
    /// from their cached traces and merged as the engine consumes them,
    /// against the shared pool under `policy`. The report equals
    /// [`sdpm_sim::simulate_mix`] over [`sdpm_trace::merge_tenants`] of
    /// [`MixSession::tenant_streams`], bit for bit.
    ///
    /// # Errors
    /// [`SimError::InvalidParams`] when the tenants disagree on the disk
    /// model or pool size (a mix shares physical disks; there is no
    /// per-tenant hardware), [`SimError::InvalidTrace`] when a tenant's
    /// timeline overflows at the mix's load factor, plus anything
    /// [`simulate_mix_merged`] reports.
    pub fn contended(&mut self, policy: &MixPolicy) -> Result<MixReport, SimError> {
        let first = self.mix.tenants[0].cfg;
        for t in &self.mix.tenants[1..] {
            if t.cfg.disks != first.disks {
                return Err(SimError::InvalidParams(format!(
                    "tenants disagree on pool size: {} vs {}",
                    t.cfg.disks, first.disks
                )));
            }
            if t.cfg.params != first.params {
                return Err(SimError::InvalidParams(format!(
                    "tenants disagree on the disk model: {} vs {}",
                    t.cfg.params.model, first.params.model
                )));
            }
        }
        if self.ends.is_empty() {
            for t in 0..self.mix.tenants.len() {
                let scheme = self.mix.tenants[t].scheme;
                let trace = self.sessions[self.session_of[t]].scheme_trace(scheme);
                self.ends.push(nominal_end(trace));
            }
        }
        let tenants: Vec<(&str, &Trace, Option<f64>)> = (self.mix.tenants.iter().enumerate())
            .map(|(t, tenant)| {
                let trace = self.sessions[self.session_of[t]]
                    .cached_trace(tenant.scheme)
                    .expect("cached with the ends");
                (tenant.name.as_str(), trace, self.ends[t])
            })
            .collect();
        let offsets = self.offsets();
        simulate_traces(&tenants, &offsets, self.mix.load_factor, first, policy)
    }
}

/// A trace's nominal (offset 0, load factor 1) time at its last
/// `Io`/`Power` event, or `None` if it has none.
fn nominal_end(trace: &Trace) -> Option<f64> {
    TenantCursor::new(trace, 0.0, 1.0)
        .last()
        .map(|(at, _, _)| at)
}

/// The contended run over the tenants' traces, given as `(name, trace,
/// nominal end)` in tenant-id order, each shifted by its offset and
/// compressed by `load`: the timelines are checked, then read in place
/// and merged as the engine consumes them.
fn simulate_traces(
    tenants: &[(&str, &Trace, Option<f64>)],
    offsets: &[f64],
    load: f64,
    cfg: &PipelineConfig,
    policy: &MixPolicy,
) -> Result<MixReport, SimError> {
    // A tiny load factor stretches `t / load_factor` past f64::MAX. A
    // tenant's times never decrease, so its last one decides.
    let overflow = tenants
        .iter()
        .zip(offsets)
        .position(|(&(_, _, end), offset)| {
            end.is_some_and(|end| !(offset + end / load).is_finite())
        });
    if let Some(t) = overflow {
        return Err(SimError::InvalidTrace(format!(
            "tenant {t}'s timeline is not finite at load factor {load:e}"
        )));
    }
    let names: Vec<&str> = tenants.iter().map(|&(name, _, _)| name).collect();
    let merge = TenantMerge::new(
        tenants
            .iter()
            .zip(offsets)
            .zip(0u32..)
            .map(|((&(_, trace, _), &offset), t)| (t, TenantCursor::new(trace, offset, load))),
    );
    simulate_mix_merged(merge, &names, &cfg.params, DiskPool::new(cfg.disks), policy)
}

/// splitmix64 (Steele et al.): tiny, seedable, platform-independent.
/// Kept local so scenarios need no RNG dependency and stay reproducible
/// byte-for-byte from the seed alone.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdpm_disk::RpmLevel;
    use sdpm_layout::DiskId;
    use sdpm_sim::{simulate_mix, AdaptiveConfig, DirectiveConfig, TpmConfig};
    use sdpm_trace::{AppEvent, IoRequest, PowerAction, ReqKind, TenantEvent};
    use sdpm_workloads::synth::checkpoint_loop;

    fn degenerate_mix<'a>(p: &'a Program, cfg: &'a PipelineConfig, scheme: Scheme) -> Mix<'a> {
        Mix {
            tenants: vec![Tenant {
                name: "solo".into(),
                program: p,
                cfg,
                scheme,
            }],
            arrivals: ArrivalProcess::Fixed { stagger_secs: 0.0 },
            seed: 0,
            load_factor: 1.0,
        }
    }

    #[test]
    fn degenerate_mix_is_bit_exact_with_session_for_all_schemes() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        for scheme in Scheme::all() {
            let mut solo = Session::new(&p, &cfg);
            let want = solo.run(scheme);
            let mut mix = MixSession::new(degenerate_mix(&p, &cfg, scheme));
            let got = mix.run_tenant(0);
            assert_eq!(want, got, "{}: degenerate mix drifted", scheme.label());
            assert_eq!(
                want.total_energy_j().to_bits(),
                got.total_energy_j().to_bits(),
                "{}: energy bits drifted",
                scheme.label()
            );
            assert_eq!(
                want.exec_secs.to_bits(),
                got.exec_secs.to_bits(),
                "{}: exec bits drifted",
                scheme.label()
            );
        }
    }

    #[test]
    fn degenerate_stream_matches_nominal_timeline_bitwise() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut mix = MixSession::new(degenerate_mix(&p, &cfg, Scheme::Base));
        let streams = mix.tenant_streams();
        // Reference: hand-walked nominal timeline of the base trace.
        let mut t = 0.0f64;
        let mut want = Vec::new();
        for e in &mix.sessions[0].base_trace().events {
            match e {
                sdpm_trace::AppEvent::Compute { secs, .. } => t += secs,
                _ => want.push(t),
            }
        }
        assert!(!want.is_empty());
        assert_eq!(streams[0].events.len(), want.len());
        for (got, w) in streams[0].events.iter().zip(&want) {
            assert_eq!(got.at_secs.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn same_program_tenants_share_one_session_and_one_generation() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let tenant = |name: &str| Tenant {
            name: name.into(),
            program: &p,
            cfg: &cfg,
            scheme: Scheme::Base,
        };
        let mut mix = MixSession::new(Mix {
            tenants: vec![tenant("a"), tenant("b"), tenant("c")],
            arrivals: ArrivalProcess::Fixed { stagger_secs: 5.0 },
            seed: 1,
            load_factor: 2.0,
        });
        assert_eq!(mix.distinct_sessions(), 1);
        let _ = mix.tenant_streams();
        assert_eq!(mix.sessions[0].generations(), 1);
    }

    #[test]
    fn arrival_processes_are_seed_deterministic_and_sorted_enough() {
        let k = 6;
        for proc in [
            ArrivalProcess::Fixed { stagger_secs: 3.0 },
            ArrivalProcess::Poisson { mean_gap_secs: 2.0 },
            ArrivalProcess::Bursty {
                burst: 2,
                gap_secs: 10.0,
                spread_secs: 1.0,
            },
            ArrivalProcess::LongTail {
                scale_secs: 1.0,
                shape: 1.5,
            },
        ] {
            let a = proc.offsets(42, k);
            let b = proc.offsets(42, k);
            assert_eq!(a.len(), k);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{proc:?} not deterministic");
            }
            assert!(a.iter().all(|o| o.is_finite() && *o >= 0.0), "{proc:?}");
            let c = proc.offsets(43, k);
            if proc.is_stochastic() {
                assert!(
                    a.iter().zip(&c).any(|(x, y)| x.to_bits() != y.to_bits()),
                    "{proc:?} ignored its seed"
                );
            } else {
                assert_eq!(a, c, "Fixed must ignore the seed");
            }
        }
    }

    #[test]
    fn contended_mix_runs_all_policies_deterministically() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let tenant = |name: &str, scheme| Tenant {
            name: name.into(),
            program: &p,
            cfg: &cfg,
            scheme,
        };
        let build = || {
            MixSession::new(Mix {
                tenants: vec![tenant("a", Scheme::CmTpm), tenant("b", Scheme::Base)],
                arrivals: ArrivalProcess::Fixed { stagger_secs: 2.0 },
                seed: 7,
                load_factor: 2.0,
            })
        };
        for policy in [
            MixPolicy::Base,
            MixPolicy::Tpm(TpmConfig::default()),
            MixPolicy::Adaptive(AdaptiveConfig::default()),
            MixPolicy::Directive(sdpm_sim::DirectiveConfig::default()),
        ] {
            let a = build().contended(&policy).expect("mix simulates");
            let b = build().contended(&policy).expect("mix simulates");
            assert_eq!(a, b, "{} mix not deterministic", policy.label());
            assert_eq!(a.per_tenant.len(), 2);
            assert!(a.requests > 0);
        }
    }

    #[test]
    fn overflowing_timeline_is_an_error_not_a_panic() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut mix = MixSession::new(Mix {
            load_factor: 1e-310,
            ..degenerate_mix(&p, &cfg, Scheme::Base)
        });
        match mix.contended(&MixPolicy::Base) {
            Err(SimError::InvalidTrace(m)) => {
                assert!(
                    m.contains("tenant 0") && m.contains("load factor 1e-310"),
                    "{m}"
                );
            }
            other => panic!("expected InvalidTrace, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_pool_sizes_are_rejected() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg_a = PipelineConfig::default();
        let cfg_b = PipelineConfig {
            disks: cfg_a.disks + 4,
            ..PipelineConfig::default()
        };
        let mut mix = MixSession::new(Mix {
            tenants: vec![
                Tenant {
                    name: "a".into(),
                    program: &p,
                    cfg: &cfg_a,
                    scheme: Scheme::Base,
                },
                Tenant {
                    name: "b".into(),
                    program: &p,
                    cfg: &cfg_b,
                    scheme: Scheme::Base,
                },
            ],
            arrivals: ArrivalProcess::Fixed { stagger_secs: 0.0 },
            seed: 0,
            load_factor: 1.0,
        });
        assert!(matches!(
            mix.contended(&MixPolicy::Base),
            Err(SimError::InvalidParams(_))
        ));
    }

    /// A validated 2-disk trace from `(kind, disk, x)` draws: compute
    /// spans of a few lengths, zero and past the TPM break-even included,
    /// so tenants' times tie and gaps invite spin-downs; requests; and
    /// power calls, off-ladder RPM levels included.
    fn drawn_trace(draws: &[(u8, u8, u8)]) -> Trace {
        let events = (draws.iter().zip(0u64..))
            .map(|(&(kind, disk, x), i)| {
                let disk = DiskId(u32::from(disk % 2));
                match kind % 4 {
                    0 | 1 => AppEvent::Compute {
                        nest: 0,
                        first_iter: i,
                        iters: 1,
                        secs: [0.0, 0.0, 0.5, 1.0, 7.25, 40.0][usize::from(x % 6)],
                    },
                    2 => AppEvent::Io(IoRequest {
                        disk,
                        start_block: i * 8,
                        size_bytes: 4096 << (x % 6),
                        kind: ReqKind::Read,
                        sequential: x % 2 == 0,
                        nest: 0,
                        iter: i,
                    }),
                    _ => AppEvent::Power {
                        disk,
                        action: match x % 3 {
                            0 => PowerAction::SpinDown,
                            1 => PowerAction::SpinUp,
                            _ => PowerAction::SetRpm(RpmLevel(x % 13)),
                        },
                    },
                }
            })
            .collect();
        let trace = Trace {
            name: "drawn".into(),
            pool_size: 2,
            events,
        };
        assert_eq!(trace.validate(), Ok(()));
        trace
    }

    /// What a contended run must return: each tenant's timeline walked by
    /// hand, concatenated in tenant order (so the first non-finite time
    /// names the first tenant that has one), stable-sorted by
    /// `(time bits, tenant, seq)`, checked for the one malformation such
    /// timelines can carry, a time too late for the shortest transition
    /// it can start to advance the clock, and simulated as a vector.
    fn hand_merged(
        traces: &[Trace],
        offsets: &[f64],
        load: f64,
        cfg: &PipelineConfig,
        policy: &MixPolicy,
    ) -> Result<MixReport, SimError> {
        let mut merged = Vec::new();
        for ((trace, &offset), tenant) in traces.iter().zip(offsets).zip(0u32..) {
            let mut t = 0.0f64;
            for (event, seq) in trace.events.iter().zip(0u64..) {
                match event {
                    AppEvent::Compute { secs, .. } => t += secs,
                    _ => merged.push(TenantEvent {
                        at_secs: offset + t / load,
                        tenant,
                        seq,
                        event: *event,
                    }),
                }
            }
        }
        if let Some(e) = merged.iter().find(|e| !e.at_secs.is_finite()) {
            return Err(SimError::InvalidTrace(format!(
                "tenant {}'s timeline is not finite at load factor {load:e}",
                e.tenant
            )));
        }
        merged.sort_by_key(|e| (e.at_secs.to_bits(), e.tenant, e.seq));
        let p = &cfg.params;
        let spin = p.spin_up_secs.min(p.spin_down_secs);
        for e in &merged {
            let shortest = match (e.event, policy) {
                (
                    AppEvent::Power {
                        action: PowerAction::SetRpm(_),
                        ..
                    },
                    MixPolicy::Directive(_),
                ) => spin.min(p.rpm_transition_secs_per_step),
                _ => spin,
            };
            if e.at_secs + shortest == e.at_secs {
                return Err(SimError::InvalidTrace(format!(
                    "event time {} s is too late for the shortest power transition \
                     ({shortest} s) to advance the clock",
                    e.at_secs
                )));
            }
        }
        let names: Vec<String> = (0..traces.len()).map(|t| format!("t{t}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        simulate_mix(
            &merged,
            &names,
            &cfg.params,
            DiskPool::new(cfg.disks),
            policy,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A contended run over random tenants' traces (1–4 tenants, tied
        /// and zero-length compute spans, power calls, random offsets,
        /// load factors that overflow the timeline or put events past
        /// the clock's resolution) returns what simulating a hand-merged
        /// vector returns, report or error, bit for bit, under every
        /// pool policy.
        #[test]
        fn contended_runs_match_a_hand_merged_stream(
            draws in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0u8..2, any::<u8>()), 0..40),
                1..5,
            ),
            offset_picks in proptest::collection::vec(0usize..5, 4),
            load_pick in 0usize..8,
        ) {
            let cfg = PipelineConfig {
                disks: 2,
                ..PipelineConfig::default()
            };
            let traces: Vec<Trace> = draws.iter().map(|d| drawn_trace(d)).collect();
            let offsets: Vec<f64> = offset_picks[..traces.len()]
                .iter()
                .map(|&i| [0.0, 0.0, 1.0, 2.5, 17.0][i])
                .collect();
            let load = [1.0, 1.0, 2.0, 0.5, 3.7, 1e-12, 1e-20, 1e-310][load_pick];
            let names: Vec<String> = (0..traces.len()).map(|t| format!("t{t}")).collect();
            let tenants: Vec<(&str, &Trace, Option<f64>)> = (names.iter().zip(&traces))
                .map(|(name, trace)| (name.as_str(), trace, nominal_end(trace)))
                .collect();
            for policy in [
                MixPolicy::Base,
                MixPolicy::Tpm(TpmConfig::default()),
                MixPolicy::Adaptive(AdaptiveConfig::default()),
                MixPolicy::Directive(DirectiveConfig::default()),
            ] {
                let got = simulate_traces(&tenants, &offsets, load, &cfg, &policy);
                let want = hand_merged(&traces, &offsets, load, &cfg, &policy);
                prop_assert_eq!(&got, &want, "{} at load {:e}", policy.label(), load);
                prop_assert_eq!(
                    got.map(|r| r.total_energy_j().to_bits()),
                    want.map(|r| r.total_energy_j().to_bits())
                );
            }
        }
    }
}
