//! End-to-end integration: the full compiler -> trace -> simulator
//! pipeline on real benchmark models, checking the paper's headline
//! qualitative claims.

use sdpm_bench::{config_for, parallel_map, run_one, suite};
use sdpm_core::{run_all_schemes, NoiseModel, Scheme};
use sdpm_disk::{ultrastar36z15, RpmLadder};
use sdpm_workloads::{galgel, swim};

#[test]
fn every_kernel_reproduces_the_paper_scheme_ordering() {
    let kernels = suite();
    let runs = parallel_map(&kernels, |b| run_all_schemes(&b.program, &config_for(b)));
    for (bench, all) in kernels.iter().zip(&runs) {
        let name = bench.name;
        let get = |s: Scheme| all.iter().find(|(k, _)| *k == s).map(|(_, r)| r).unwrap();
        let e = |s: Scheme| get(s).total_energy_j();
        let t = |s: Scheme| get(s).exec_secs;
        let base_t = t(Scheme::Base);
        // The oracles never stall the application.
        for oracle in [Scheme::ITpm, Scheme::IDrpm] {
            assert!(
                (t(oracle) - base_t).abs() <= 1e-9 * base_t,
                "{name}: {oracle:?} time {} vs Base {base_t}",
                t(oracle)
            );
        }
        // Each oracle lower-bounds its reactive scheme.
        assert!(e(Scheme::ITpm) <= e(Scheme::Tpm), "{name}: ITPM > TPM");
        assert!(e(Scheme::IDrpm) <= e(Scheme::Drpm), "{name}: IDRPM > DRPM");
        // CMDRPM tracks the DRPM oracle and barely slows the program.
        assert!(
            e(Scheme::CmDrpm) <= e(Scheme::IDrpm) + 0.05 * e(Scheme::Base),
            "{name}: CMDRPM {} J vs IDRPM {} J",
            e(Scheme::CmDrpm),
            e(Scheme::IDrpm)
        );
        assert!(
            t(Scheme::CmDrpm) <= 1.02 * base_t,
            "{name}: CMDRPM time {} vs Base {base_t}",
            t(Scheme::CmDrpm)
        );
        // Figure 3: the TPM family saves nothing on the untransformed
        // codes, whose idle periods sit below the TPM break-even.
        let base = get(Scheme::Base);
        let norm = |s: Scheme| get(s).normalized_energy(base);
        for (scheme, tol) in [
            (Scheme::Tpm, 1e-6),
            (Scheme::ITpm, 1e-6),
            (Scheme::CmTpm, 0.01),
        ] {
            assert!(
                (norm(scheme) - 1.0).abs() < tol,
                "{name}: {scheme:?} normalized energy {}",
                norm(scheme)
            );
        }
        // The DRPM family: reactive DRPM saves energy but pays in time,
        // and the oracle lower-bounds CMDRPM.
        let (e_i, e_cm, e_d) = (
            norm(Scheme::IDrpm),
            norm(Scheme::CmDrpm),
            norm(Scheme::Drpm),
        );
        assert!(e_d < 1.0, "{name}: reactive DRPM must save energy, {e_d}");
        // Figure 4: DRPM runs more than 5% slower than Base on every
        // kernel but wupwise, whose 1.035 is the smallest slowdown.
        let slowdown = get(Scheme::Drpm).normalized_time(base);
        let min_slowdown = if name == "168.wupwise" { 1.03 } else { 1.05 };
        assert!(slowdown > min_slowdown, "{name}: DRPM time {slowdown}");
        // Figure 3: the oracle saves over 45% on every kernel but wupwise
        // (0.558) and mgrid (0.586), which still save over 40%.
        let max_idrpm = if matches!(name, "168.wupwise" | "172.mgrid") {
            0.60
        } else {
            0.55
        };
        assert!(e_i < max_idrpm, "{name}: IDRPM normalized energy {e_i}");
        assert!(e_i <= e_cm + 1e-9, "{name}: IDRPM {e_i} vs CMDRPM {e_cm}");
        // CMDRPM beats reactive DRPM on every kernel but mgrid, where
        // reactive DRPM nearly ties the oracle (0.590 vs IDRPM 0.586) and
        // CMDRPM sits at 0.626: EXPERIMENTS.md's Figure 3 verdict records
        // the exception.
        if name != "172.mgrid" {
            assert!(e_cm < e_d, "{name}: CMDRPM {e_cm} must beat DRPM {e_d}");
        }
    }
}

#[test]
fn swim_reproduces_the_paper_scheme_ordering() {
    let bench = swim();
    let cfg = config_for(&bench);
    let all = run_all_schemes(&bench.program, &cfg);
    let get = |s: Scheme| all.iter().find(|(k, _)| *k == s).map(|(_, r)| r).unwrap();
    let base = get(Scheme::Base);
    // TPM family does nothing on the untransformed code.
    assert!((get(Scheme::Tpm).normalized_energy(base) - 1.0).abs() < 1e-6);
    assert!((get(Scheme::ITpm).normalized_energy(base) - 1.0).abs() < 1e-6);
    assert!((get(Scheme::CmTpm).normalized_energy(base) - 1.0).abs() < 0.01);
    // DRPM family ordering: IDRPM <= CMDRPM < DRPM < Base.
    let e_i = get(Scheme::IDrpm).normalized_energy(base);
    let e_cm = get(Scheme::CmDrpm).normalized_energy(base);
    let e_d = get(Scheme::Drpm).normalized_energy(base);
    assert!(
        e_i <= e_cm + 1e-9,
        "IDRPM {e_i} must lower-bound CMDRPM {e_cm}"
    );
    assert!(e_cm < e_d, "CMDRPM {e_cm} must beat reactive DRPM {e_d}");
    assert!(e_d < 1.0, "reactive DRPM must save energy");
    assert!(e_i < 0.55, "swim's idle structure allows deep savings");
    // Reactive DRPM pays in performance.
    assert!(get(Scheme::Drpm).normalized_time(base) > 1.05);
}

#[test]
fn cmdrpm_misprediction_is_small_but_nonzero_with_noise() {
    let bench = swim();
    let cfg = config_for(&bench);
    let r = run_one(&bench.program, Scheme::CmDrpm, &cfg);
    let ladder = RpmLadder::new(&ultrastar36z15());
    let pct = r.mispredicted_speed_fraction(&ladder) * 100.0;
    assert!(pct > 0.5 && pct < 20.0, "swim misprediction {pct}%");
}

#[test]
fn zero_noise_cm_tracks_the_oracle_closely() {
    let bench = galgel();
    let mut cfg = config_for(&bench);
    cfg.noise = NoiseModel::exact();
    let base = run_one(&bench.program, Scheme::Base, &cfg);
    let idrpm = run_one(&bench.program, Scheme::IDrpm, &cfg);
    let cm = run_one(&bench.program, Scheme::CmDrpm, &cfg);
    let gap = cm.normalized_energy(&base) - idrpm.normalized_energy(&base);
    assert!(
        (0.0..0.05).contains(&gap),
        "CM must sit within 5 points of the oracle, gap {gap}"
    );
    assert!(cm.stall_secs < 0.05 * base.exec_secs);
    assert_eq!(cm.misfire_causes.total(), 0);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let bench = galgel();
    let cfg = config_for(&bench);
    let a = run_one(&bench.program, Scheme::CmDrpm, &cfg);
    let b = run_one(&bench.program, Scheme::CmDrpm, &cfg);
    assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
    assert_eq!(a.exec_secs.to_bits(), b.exec_secs.to_bits());
    assert_eq!(a.misfire_causes, b.misfire_causes);
}

#[test]
fn energy_ledger_balances_across_all_schemes() {
    let bench = galgel();
    let cfg = config_for(&bench);
    for (scheme, r) in run_all_schemes(&bench.program, &cfg) {
        for (i, d) in r.per_disk.iter().enumerate() {
            let accounted = d.energy.total_secs();
            assert!(
                (accounted - r.exec_secs).abs() < 1e-3,
                "{:?} disk {i}: accounted {accounted} vs exec {}",
                scheme,
                r.exec_secs
            );
        }
        assert!(r.total_energy_j() > 0.0);
    }
}
