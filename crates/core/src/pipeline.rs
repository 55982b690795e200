//! End-to-end pipeline: program -> (transform) -> trace -> instrumentation
//! -> simulation, for the paper's seven schemes (Section 4.2).

use crate::estimate::NoiseModel;
use crate::session::Session;
use sdpm_disk::DiskParams;
use sdpm_ir::Program;
use sdpm_sim::{DrpmConfig, SimReport, TpmConfig};
use sdpm_trace::TraceGenConfig;
use serde::{Deserialize, Serialize};

/// The seven evaluated schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// No power management (the normalization baseline).
    Base,
    /// Reactive traditional power management.
    Tpm,
    /// Oracle TPM.
    ITpm,
    /// Reactive dynamic RPM.
    Drpm,
    /// Oracle DRPM.
    IDrpm,
    /// Compiler-managed TPM (this paper).
    CmTpm,
    /// Compiler-managed DRPM (this paper).
    CmDrpm,
}

impl Scheme {
    /// The paper's scheme label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Base => "Base",
            Scheme::Tpm => "TPM",
            Scheme::ITpm => "ITPM",
            Scheme::Drpm => "DRPM",
            Scheme::IDrpm => "IDRPM",
            Scheme::CmTpm => "CMTPM",
            Scheme::CmDrpm => "CMDRPM",
        }
    }

    /// All schemes, in the paper's presentation order.
    #[must_use]
    pub fn all() -> [Scheme; 7] {
        [
            Scheme::Base,
            Scheme::Tpm,
            Scheme::ITpm,
            Scheme::Drpm,
            Scheme::IDrpm,
            Scheme::CmTpm,
            Scheme::CmDrpm,
        ]
    }
}

/// Everything the pipeline needs besides the program itself. Defaults
/// reproduce Table 1's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Disk model (Table 1's Ultrastar 36Z15 by default).
    pub params: DiskParams,
    /// Disk pool size (Table 1 default: 8).
    pub disks: u32,
    /// Trace-generator configuration.
    pub gen: TraceGenConfig,
    /// Compiler cycle-estimation noise.
    pub noise: NoiseModel,
    /// Reactive DRPM controller parameters.
    pub drpm: DrpmConfig,
    /// Reactive TPM parameters.
    pub tpm: TpmConfig,
    /// Power-management call overhead `Tm`, seconds.
    pub overhead_secs: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            params: sdpm_disk::ultrastar36z15(),
            disks: 8,
            gen: TraceGenConfig::default(),
            noise: NoiseModel::default(),
            drpm: DrpmConfig::default(),
            tpm: TpmConfig::default(),
            overhead_secs: 50e-6,
        }
    }
}

/// Runs one scheme on `program` and reports. The report's `policy` field
/// carries the scheme label.
///
/// Each call opens a single-use [`Session`]; when running several
/// schemes over the same `(program, cfg)` pair, share one session
/// instead (or use [`run_all_schemes`]) so the trace is generated once.
#[must_use]
pub fn run_scheme(program: &Program, scheme: Scheme, cfg: &PipelineConfig) -> SimReport {
    Session::new(program, cfg).run(scheme)
}

/// One scheme run with the intermediate artifacts the independent checker
/// (`sdpm-verify`) needs: the exact trace the simulator consumed and, for
/// CM schemes, the insertion outcome (decisions + timeline noise factors).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeArtifacts {
    pub scheme: Scheme,
    /// The trace the simulator consumed (instrumented for CM schemes,
    /// the raw generated trace otherwise).
    pub trace: sdpm_trace::Trace,
    /// The instrumentation outcome (`Some` for CM schemes only).
    pub insertion: Option<crate::insert::InsertOutcome>,
    pub report: SimReport,
}

/// Like [`run_scheme`], but keeps the pipeline's intermediate artifacts
/// so they can be checked after the fact.
#[must_use]
pub fn run_scheme_with_artifacts(
    program: &Program,
    scheme: Scheme,
    cfg: &PipelineConfig,
) -> SchemeArtifacts {
    Session::new(program, cfg).run_with_artifacts(scheme)
}

/// Like [`run_scheme`], but streams pipeline phase spans and the
/// simulator's event sequence into `rec`.
///
/// Phases emitted: `dap-construction` (trace generation), for CM schemes
/// `break-even-thresholding` (the gap decisions) and `directive-insertion`
/// (their weave order), and `simulation`.
#[cfg(feature = "obs")]
#[must_use]
pub fn run_scheme_with_recorder(
    program: &Program,
    scheme: Scheme,
    cfg: &PipelineConfig,
    rec: &dyn sdpm_obs::Recorder,
) -> SimReport {
    Session::new(program, cfg).run_with_recorder(scheme, rec)
}

/// Runs all seven schemes, in order, sharing one [`Session`] so the
/// trace is generated exactly once.
#[must_use]
pub fn run_all_schemes(program: &Program, cfg: &PipelineConfig) -> Vec<(Scheme, SimReport)> {
    let mut session = Session::new(program, cfg);
    Scheme::all()
        .into_iter()
        .map(|s| (s, session.run(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, DiskId, StorageOrder, Striping};

    /// An I/O + compute + I/O phased program over 4 disks, with the
    /// compute phase sized to `compute_secs`.
    fn phased(compute_secs: f64) -> Program {
        let a = ArrayFile {
            name: "A".into(),
            dims: vec![64 * 1024],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 64 * 1024,
            },
            base_block: 0,
        };
        let scan = |label: &str| LoopNest {
            label: label.into(),
            loops: vec![LoopDim::simple(64 * 1024)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
            }],
            cycles_per_iter: 75.0, // 0.1 us per element
        };
        let compute_iters = 100_000u64;
        let compute = LoopNest {
            label: "fft".into(),
            loops: vec![LoopDim::simple(compute_iters)],
            stmts: vec![],
            cycles_per_iter: compute_secs / compute_iters as f64 * 750.0e6,
        };
        Program {
            name: "phased".into(),
            arrays: vec![a],
            nests: vec![scan("read"), compute, scan("reread")],
            clock_hz: Program::PAPER_CLOCK_HZ,
        }
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            disks: 4,
            ..Default::default()
        }
    }

    #[test]
    fn scheme_ordering_matches_the_paper_shape() {
        let p = phased(10.0);
        let cfg = cfg();
        let base = run_scheme(&p, Scheme::Base, &cfg);
        let tpm = run_scheme(&p, Scheme::Tpm, &cfg);
        let itpm = run_scheme(&p, Scheme::ITpm, &cfg);
        let drpm = run_scheme(&p, Scheme::Drpm, &cfg);
        let idrpm = run_scheme(&p, Scheme::IDrpm, &cfg);
        let cmdrpm = run_scheme(&p, Scheme::CmDrpm, &cfg);
        // TPM family: the 10 s gaps are below break-even -> ~no savings,
        // no penalty.
        assert!(tpm.normalized_energy(&base) > 0.99);
        assert!(itpm.normalized_energy(&base) > 0.99);
        // DRPM family: all three save; the oracle lower-bounds CM, and CM
        // with exact-ish noise tracks it closely. (Reactive DRPM's energy
        // relative to the oracle is workload-dependent — with one long
        // gap and almost no I/O it can even win by never paying the
        // return transition; the paper-shape comparison lives in the
        // workload-level tests.)
        let e_drpm = drpm.normalized_energy(&base);
        let e_idrpm = idrpm.normalized_energy(&base);
        let e_cm = cmdrpm.normalized_energy(&base);
        assert!(e_idrpm < 0.9, "ideal must save on 10 s gaps: {e_idrpm}");
        assert!(e_drpm < 0.9, "reactive must save on 10 s gaps: {e_drpm}");
        assert!(
            e_idrpm <= e_cm + 1e-9,
            "ideal is a lower bound: {e_idrpm} vs {e_cm}"
        );
        assert!(
            e_cm < e_idrpm + 0.12,
            "CM stays close to the oracle: {e_cm} vs {e_idrpm}"
        );
        // Performance: ideal and CM near 1.0, reactive pays.
        assert!(idrpm.normalized_time(&base) < 1.001);
        assert!(cmdrpm.normalized_time(&base) < 1.02);
        assert!(drpm.normalized_time(&base) >= idrpm.normalized_time(&base) - 1e-9);
    }

    #[test]
    fn cm_scheme_report_carries_scheme_label() {
        let p = phased(5.0);
        let r = run_scheme(&p, Scheme::CmDrpm, &cfg());
        assert_eq!(r.policy, "CMDRPM");
    }

    #[test]
    fn run_all_produces_seven_reports() {
        let p = phased(5.0);
        let all = run_all_schemes(&p, &cfg());
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].0, Scheme::Base);
        // Determinism: same config, same numbers.
        let again = run_all_schemes(&p, &cfg());
        for ((_, a), (_, b)) in all.iter().zip(&again) {
            assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
            assert_eq!(a.exec_secs.to_bits(), b.exec_secs.to_bits());
        }
    }

    #[test]
    fn mispredictions_increase_with_noise() {
        let p = phased(8.0);
        let ladder = sdpm_disk::RpmLadder::new(&sdpm_disk::ultrastar36z15());
        let mut quiet_cfg = cfg();
        quiet_cfg.noise = NoiseModel::exact();
        let quiet = run_scheme(&p, Scheme::CmDrpm, &quiet_cfg);
        let mut loud_cfg = cfg();
        loud_cfg.noise = NoiseModel {
            spread: 0.3,
            gap_jitter: 0.6,
            seed: 7,
        };
        let loud = run_scheme(&p, Scheme::CmDrpm, &loud_cfg);
        let fq = quiet.mispredicted_speed_fraction(&ladder);
        let fl = loud.mispredicted_speed_fraction(&ladder);
        assert!(
            fq <= fl + 1e-9,
            "noise must not reduce mispredictions: {fq} vs {fl}"
        );
    }
}
