//! Closed-form proof obligations for directive safety.
//!
//! Each obligation states one inequality (or structural invariant) that,
//! if it holds over the entire parameter domain, guarantees the
//! corresponding `SDPM-E0xx` diagnostic can never fire on any trace the
//! inserter produces for this program — for *any* noise seed. The
//! obligations mirror the inserter's decision procedure
//! (`sdpm_core::insert`) and the dynamic checker's rules
//! (`crate::directive`) point for point:
//!
//! | Obligation | Refutes as | Replays as |
//! |---|---|---|
//! | pre-activation lead (formula (1)) | `SDPM-S001` | `SDPM-E003` |
//! | access-free exploited windows | `SDPM-S002` | `SDPM-E001` |
//! | wake transition fits the gap | `SDPM-S003` | `SDPM-E003` |
//! | TPM break-even boundary | `SDPM-S004` | `SDPM-E004` |
//! | DRPM ladder/profit legality | `SDPM-S005` | `SDPM-E005` |
//!
//! The pipeline's own placement policy discharges all five — that is the
//! point: the inserter is safe *by construction*, and the prover turns
//! the construction into checked inequalities. Refutations arise when a
//! [`PlacementPolicy`](super::PlacementPolicy) override perturbs the
//! rules (a short lead factor, a scaled exploit threshold, a biased RPM
//! level, window encroachment); each refutation carries a witness gap
//! length from the violated inequality, which the counterexample
//! synthesizer turns into a concrete trace.

use super::gaps::GapBound;
use super::ProverConfig;
use crate::diag::Code;
use sdpm_core::CmMode;
use sdpm_disk::{best_rpm_for_gap, breakeven::tpm_break_even_secs, RpmLadder};

/// Outcome of discharging one obligation.
#[derive(Debug, Clone, PartialEq)]
pub enum ObStatus {
    /// The inequality holds over the whole parameter domain.
    Proved,
    /// The inequality fails; `witness_gap_secs` is a gap length at which
    /// the violation manifests (feeds counterexample synthesis).
    Refuted { witness_gap_secs: f64 },
}

/// One discharged proof obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct Obligation {
    /// Diagnostic code a refutation carries (`SDPM-S001..S005`).
    pub code: Code,
    /// Short rule name, e.g. `"lead-fits-formula-1"`.
    pub name: &'static str,
    /// The closed-form statement that was checked, with the concrete
    /// parameter values substituted in.
    pub statement: String,
    pub status: ObStatus,
}

impl Obligation {
    /// True when the obligation was discharged as proved.
    #[must_use]
    pub fn proved(&self) -> bool {
        matches!(self.status, ObStatus::Proved)
    }
}

/// Classification of one gap over the estimate interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exploit {
    /// Exploited for every draw in the domain.
    Always,
    /// Exploited for no draw.
    Never,
    /// The estimate interval straddles the decision boundary: whether a
    /// directive appears depends on the seed. Legal either way — the
    /// inserter and checker judge the same per-draw estimate — but
    /// reported in the domain description.
    SeedDependent,
}

/// Discharges every obligation for one CM mode against the program's
/// symbolic gaps. Returns the obligations plus a human-readable
/// description of the parameter domain they quantify over.
#[must_use]
pub fn discharge(mode: CmMode, cfg: &ProverConfig, gaps: &[GapBound]) -> (Vec<Obligation>, String) {
    let ladder = RpmLadder::new(&cfg.params);
    let max = ladder.max_level();
    let tm = cfg.overhead_secs;
    let pol = &cfg.policy;
    let pool = f64::from(cfg.pool);

    // The inserter's exploit threshold: the gap length above which it
    // inserts a directive pair (scaled by the policy knob).
    let be = tpm_break_even_secs(&cfg.params);
    let tpm_thr = (cfg.params.spin_down_secs + cfg.params.spin_up_secs).max(be);
    // DRPM profit floor (see `sdpm_core::insert`): four call-costs, each
    // stalling the whole pool for Tm.
    let min_saved_j = 4.0 * (2.0 * tm * cfg.params.idle_power_w * pool);
    // Smallest gap the DRPM decision can exploit: scan upward until the
    // decision procedure first fires (monotone in the gap length).
    let drpm_thr = {
        let mut lo = 0.0f64;
        let mut hi = 3600.0f64;
        let exploits = |g: f64| {
            let c = best_rpm_for_gap(&ladder, g);
            c.level < max && c.saved_j() > min_saved_j
        };
        if exploits(hi) {
            for _ in 0..64 {
                let mid = 0.5 * (lo + hi);
                if exploits(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        } else {
            f64::INFINITY
        }
    };
    let thr = match mode {
        CmMode::Tpm => tpm_thr * pol.exploit_threshold_scale,
        CmMode::Drpm => drpm_thr * pol.exploit_threshold_scale,
    };

    // Trailing gaps (no next access) get a down directive with no
    // pre-activation, but the same threshold governs whether it appears,
    // so they classify like interior gaps.
    let classify = |g: &GapBound| -> Exploit {
        if g.est.always_at_least(thr) {
            Exploit::Always
        } else if g.est.always_below(thr) {
            Exploit::Never
        } else {
            Exploit::SeedDependent
        }
    };
    let mut always = 0usize;
    let mut never = 0usize;
    let mut seed_dep = 0usize;
    let mut exploitable: Vec<&GapBound> = Vec::new();
    for g in gaps {
        match classify(g) {
            Exploit::Always => {
                always += 1;
                exploitable.push(g);
            }
            Exploit::Never => never += 1,
            Exploit::SeedDependent => {
                seed_dep += 1;
                exploitable.push(g);
            }
        }
    }
    // Witness gap for policy-level refutations: a gap length every
    // obligation agrees is exploited. Prefer a real gap's low end.
    let canonical_gap = exploitable
        .iter()
        .map(|g| g.est.lo.max(thr))
        .fold(f64::NAN, f64::min)
        .max(thr * 1.5)
        .max(thr + 1.0);

    let mut obs = Vec::new();

    // S001 — pre-activation lead. The inserter places the wake call
    // `lead_factor * Tsu + Tm` before the gap's end; formula (1) demands
    // `Tsu + Tm`. Closed form: (1 - lead_factor) * Tsu <= EPS, checked
    // at the largest wake transition the mode can need.
    let tsu_max = match mode {
        CmMode::Tpm => cfg.params.spin_up_secs,
        CmMode::Drpm => ladder.transition_secs(sdpm_disk::RpmLevel(0), max),
    };
    let lead_deficit = (1.0 - pol.lead_factor) * tsu_max;
    let lead_ok = lead_deficit <= crate::directive::EPS_SECS;
    obs.push(Obligation {
        code: Code::SymbolicShortLead,
        name: "lead-fits-formula-1",
        statement: format!(
            "(1 - lead_factor) * Tsu <= eps: (1 - {:.3}) * {:.3} s = {:.3e} s <= {:.0e} s",
            pol.lead_factor,
            tsu_max,
            lead_deficit,
            crate::directive::EPS_SECS,
        ),
        status: if lead_ok || exploitable.is_empty() {
            ObStatus::Proved
        } else {
            ObStatus::Refuted {
                witness_gap_secs: canonical_gap.max(2.0 * (tsu_max + tm)),
            }
        },
    });

    // S002 — exploited windows are access-free. The windows
    // over-approximate access, so every symbolic gap interior is
    // access-free by construction; the inserter additionally places the
    // pair strictly inside a trace-level inter-request gap. Refuted only
    // when the policy encroaches into a neighboring window.
    obs.push(Obligation {
        code: Code::SymbolicAccessWhileDown,
        name: "exploited-window-access-free",
        statement: format!(
            "window_encroach_iters == 0 (gap interiors are access-free by window \
             maximality; {} exploitable gap(s) checked)",
            exploitable.len()
        ),
        status: if pol.window_encroach_iters == 0 || exploitable.is_empty() {
            ObStatus::Proved
        } else {
            ObStatus::Refuted {
                witness_gap_secs: canonical_gap,
            }
        },
    });

    // S003 — the wake transition completes before the first access. An
    // exploited gap satisfies est >= thr (per-draw, by the inserter's own
    // skip rule); safety needs est >= Tsu + Tm.
    let (need, fits, statement) = match mode {
        CmMode::Tpm => {
            let need = cfg.params.spin_up_secs + tm;
            (
                need,
                thr + crate::directive::EPS_SECS >= need,
                format!(
                    "exploit threshold >= Tsu + Tm: {:.3} s >= {:.3} s + {:.1e} s",
                    thr, cfg.params.spin_up_secs, tm
                ),
            )
        }
        CmMode::Drpm => {
            // Feasibility from `best_rpm_for_gap` gives the gap two
            // transitions' room; the wake lead additionally needs Tm,
            // covered when Tm fits inside one ladder step.
            let step = cfg.params.rpm_transition_secs_per_step;
            (
                2.0 * step + tm,
                tm <= step,
                format!("Tm <= one ladder step: {:.1e} s <= {:.1e} s", tm, step),
            )
        }
    };
    obs.push(Obligation {
        code: Code::SymbolicSpinUpUnfinished,
        name: "wake-completes-before-access",
        statement,
        status: if fits || exploitable.is_empty() {
            ObStatus::Proved
        } else {
            // A gap the decision exploits but the wake cannot fit:
            // between the exploit threshold and the required lead.
            ObStatus::Refuted {
                witness_gap_secs: 0.5 * (thr + need.max(thr)),
            }
        },
    });

    // S004 / S005 — boundary legality: the inserter's exploit predicate
    // must agree with the checker's break-even rules. The pipeline uses
    // the same procedure on both sides, so agreement reduces to the
    // policy not scaling the threshold (and, for DRPM, not biasing the
    // chosen level off the checker's optimum).
    match mode {
        CmMode::Tpm => {
            let agrees = pol.exploit_threshold_scale >= 1.0;
            obs.push(Obligation {
                code: Code::SymbolicTpmBoundary,
                name: "tpm-break-even-boundary",
                statement: format!(
                    "scaled threshold >= break-even: {:.3} s >= max({:.3} s, {:.3} s) \
                     [gaps: {always} always, {never} never, {seed_dep} seed-dependent]",
                    thr,
                    cfg.params.spin_down_secs + cfg.params.spin_up_secs,
                    be,
                ),
                status: if agrees || exploitable.is_empty() {
                    ObStatus::Proved
                } else {
                    // A gap above the scaled threshold but below the true
                    // break-even: exploited yet unprofitable.
                    ObStatus::Refuted {
                        witness_gap_secs: 0.5 * (thr + tpm_thr),
                    }
                },
            });
        }
        CmMode::Drpm => {
            let unbiased = pol.level_bias == 0;
            let scale_ok = pol.exploit_threshold_scale >= 1.0;
            obs.push(Obligation {
                code: Code::SymbolicDrpmBoundary,
                name: "drpm-ladder-profit-boundary",
                statement: format!(
                    "level_bias == 0 and scaled threshold >= decision threshold \
                     ({:.3} s >= {:.3} s); profit floor {:.3} J \
                     [gaps: {always} always, {never} never, {seed_dep} seed-dependent]",
                    thr, drpm_thr, min_saved_j,
                ),
                status: if (unbiased && scale_ok) || exploitable.is_empty() {
                    ObStatus::Proved
                } else {
                    ObStatus::Refuted {
                        witness_gap_secs: if unbiased {
                            0.5 * (thr + drpm_thr)
                        } else {
                            canonical_gap
                        },
                    }
                },
            });
        }
    }

    let inexact = gaps.iter().filter(|g| !g.exact).count();
    let domain = format!(
        "nest noise factor in [{:.3}, {:.3}], gap jitter in [{:.3}, {:.3}], \
         Tm = {:.1e} s, Tsu(max) = {:.3} s, exploit threshold = {:.3} s, \
         {} gap(s) over {} disk(s): {always} always-exploited, {never} never, \
         {seed_dep} seed-dependent{}",
        cfg.noise_factor().lo,
        cfg.noise_factor().hi,
        cfg.jitter().lo,
        cfg.jitter().hi,
        tm,
        tsu_max,
        thr,
        gaps.len(),
        cfg.pool,
        if inexact == 0 {
            String::new()
        } else {
            format!("; {inexact} gap boundary(ies) widened by inexact windows")
        },
    );
    (obs, domain)
}
