//! Output checks behind `failed_frac`. None of them is timed.
//!
//! * [`paper_rules`]: properties the paper's results have, checked on
//!   every seed.
//! * [`same_reports`]/[`same_cell`]: bit-for-bit agreement between two
//!   paths or two passes.
//! * [`Expected`]: the exact results of seed 0, recorded once in
//!   `expected/seed0.json`; only a change that deliberately alters
//!   simulated results may re-record it.

use crate::inputs::Kernel;
use crate::json::{self, Value};
use sdpm_core::Scheme;
use sdpm_sim::{MixReport, SimPath, SimReport};
use std::fmt::Write as _;

/// The expected-results file, compiled in so a run reads no file.
const EXPECTED_SEED0: &str = include_str!("../expected/seed0.json");

/// Where `run --record-expected` writes.
pub const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/seed0.json");

/// Violations of the paper's result shape for one kernel's seven
/// reports (in [`Scheme::all`] order):
/// * Base within 0.5% of Table 2 on requests, energy and time;
/// * ITPM and IDRPM take Base's execution time, within 1e-9 relative;
/// * each oracle spends no more energy than its reactive scheme;
/// * CMDRPM spends at most IDRPM's energy plus 5% of Base's, and takes
///   at most 2% longer than Base.
#[must_use]
pub fn paper_rules(k: &Kernel, r: &[SimReport]) -> Vec<String> {
    let [base, tpm, itpm, drpm, idrpm, _cmtpm, cmdrpm] = r else {
        return vec![format!("{}: expected 7 reports, got {}", k.name, r.len())];
    };
    let e = SimReport::total_energy_j;
    let mut bad = Vec::new();
    let mut rule = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: {what}", k.name));
        }
    };
    let near = |m: f64, p: f64| ((m - p) / p).abs() <= 0.005;
    rule(
        near(base.requests as f64, k.table2.requests as f64),
        format!(
            "Base requests {} vs Table 2 {}",
            base.requests, k.table2.requests
        ),
    );
    rule(
        near(e(base), k.table2.base_energy_j),
        format!(
            "Base energy {} J vs Table 2 {} J",
            e(base),
            k.table2.base_energy_j
        ),
    );
    rule(
        near(base.exec_secs * 1e3, k.table2.exec_ms),
        format!(
            "Base time {} s vs Table 2 {} ms",
            base.exec_secs, k.table2.exec_ms
        ),
    );
    for oracle in [itpm, idrpm] {
        rule(
            (oracle.exec_secs - base.exec_secs).abs() <= 1e-9 * base.exec_secs,
            format!(
                "{} time {} s differs from Base {} s",
                oracle.policy, oracle.exec_secs, base.exec_secs
            ),
        );
    }
    rule(
        e(itpm) <= e(tpm),
        format!("E(ITPM) {} > E(TPM) {}", e(itpm), e(tpm)),
    );
    rule(
        e(idrpm) <= e(drpm),
        format!("E(IDRPM) {} > E(DRPM) {}", e(idrpm), e(drpm)),
    );
    rule(
        e(cmdrpm) <= e(idrpm) + 0.05 * e(base),
        format!(
            "E(CMDRPM) {} > E(IDRPM) {} + 5% of Base {}",
            e(cmdrpm),
            e(idrpm),
            e(base)
        ),
    );
    rule(
        cmdrpm.exec_secs <= 1.02 * base.exec_secs,
        format!(
            "CMDRPM time {} s > 1.02 x Base {} s",
            cmdrpm.exec_secs, base.exec_secs
        ),
    );
    bad
}

/// Whether two report lists agree bit for bit on every result field.
/// `SimReport` equality covers every field but the engine path; the
/// explicit bit comparisons also separate `0.0` from `-0.0`.
#[must_use]
pub fn same_reports(a: &[SimReport], b: &[SimReport]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x == y
                && x.exec_secs.to_bits() == y.exec_secs.to_bits()
                && x.total_energy_j().to_bits() == y.total_energy_j().to_bits()
        })
}

/// [`same_reports`] for one frontier cell.
#[must_use]
pub fn same_cell(a: &MixReport, b: &MixReport) -> bool {
    a == b
        && a.total_energy_j().to_bits() == b.total_energy_j().to_bits()
        && a.p99_response_secs.to_bits() == b.p99_response_secs.to_bits()
        && a.makespan_secs.to_bits() == b.makespan_secs.to_bits()
}

/// FNV-1a over the report's `Debug` text, which prints every float
/// exactly (shortest round-trip form), so any bit of any result field
/// moves it. The engine path is metadata and is blanked first.
#[must_use]
pub fn report_digest(r: &SimReport) -> u64 {
    let mut r = r.clone();
    r.sim_path = SimPath::default();
    fnv1a(format!("{r:?}").as_bytes())
}

/// [`report_digest`] for one frontier cell.
#[must_use]
pub fn cell_digest(r: &MixReport) -> u64 {
    fnv1a(format!("{r:?}").as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One recorded result: a key naming it, a few headline floats as raw
/// bits (readable in a diff), and the digest of the whole result.
#[derive(Debug, PartialEq)]
pub struct Entry {
    pub key: String,
    pub fields: Vec<(&'static str, u64)>,
    pub digest: u64,
}

/// The key of one kernel report.
#[must_use]
pub fn report_key(kernel: &str, scheme: Scheme) -> String {
    format!("{kernel}/{}", scheme.label())
}

/// The key of one frontier cell.
#[must_use]
pub fn cell_key(mix: &str, load: f64, policy: &str) -> String {
    format!("{mix}/x{load}/{policy}")
}

impl Entry {
    #[must_use]
    pub fn of_report(key: String, r: &SimReport) -> Self {
        Entry {
            key,
            fields: vec![
                ("exec_secs", r.exec_secs.to_bits()),
                ("energy_j", r.total_energy_j().to_bits()),
                ("requests", r.requests),
            ],
            digest: report_digest(r),
        }
    }

    #[must_use]
    pub fn of_cell(key: String, r: &MixReport) -> Self {
        Entry {
            key,
            fields: vec![
                ("energy_j", r.total_energy_j().to_bits()),
                ("p99_s", r.p99_response_secs.to_bits()),
                ("makespan_s", r.makespan_secs.to_bits()),
                ("requests", r.requests),
            ],
            digest: cell_digest(r),
        }
    }
}

/// The seed-0 results every seed-0 run must reproduce exactly.
#[derive(Debug)]
pub struct Expected {
    pub entries: Vec<Entry>,
}

impl Expected {
    /// The compiled-in expected file.
    ///
    /// # Errors
    /// If the file is malformed.
    pub fn seed0() -> Result<Self, String> {
        Self::parse(EXPECTED_SEED0)
    }

    /// # Errors
    /// If `text` is not an expected-results document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let rows = doc
            .get("results")
            .and_then(Value::as_array)
            .ok_or("expected file: missing \"results\"")?;
        let hex = |v: &Value| {
            v.as_str()
                .and_then(|s| s.strip_prefix("0x"))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        let entries = rows
            .iter()
            .map(|row| {
                let obj = row
                    .as_object()
                    .ok_or("expected file: a result is not an object")?;
                let key = obj
                    .get("key")
                    .and_then(Value::as_str)
                    .ok_or("expected file: missing key")?;
                let mut e = Entry {
                    key: key.to_string(),
                    fields: Vec::new(),
                    digest: obj
                        .get("digest")
                        .and_then(hex)
                        .ok_or("expected file: bad digest")?,
                };
                for name in ["exec_secs", "energy_j", "p99_s", "makespan_s", "requests"] {
                    if let Some(v) = obj.get(name) {
                        e.fields
                            .push((name, hex(v).ok_or("expected file: bad field")?));
                    }
                }
                Ok(e)
            })
            .collect::<Result<Vec<_>, &str>>()?;
        Ok(Expected { entries })
    }

    /// The document [`Expected::parse`] reads.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from(
            "{\n  \"schema\": \"sdpm-benchmark-expected/v1\",\n  \"seed\": 0,\n  \"results\": [\n",
        );
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(s, "    {{\"key\": \"{}\"", e.key);
            for (name, bits) in &e.fields {
                let _ = write!(s, ", \"{name}\": \"{bits:#018x}\"");
            }
            let _ = write!(s, ", \"digest\": \"{:#018x}\"}}", e.digest);
            s.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Mismatches between `got` and the recorded entry with its key.
    #[must_use]
    pub fn check(&self, got: &Entry) -> Option<String> {
        let Some(want) = self.entries.iter().find(|e| e.key == got.key) else {
            return Some(format!("{}: no expected result recorded", got.key));
        };
        (want != got).then(|| {
            format!(
                "{}: differs from expected/seed0.json: got {got:?}, want {want:?}",
                got.key
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::kernels;
    use sdpm_core::Session;

    fn swim_reports() -> (Kernel, Vec<SimReport>) {
        let k = kernels(0)
            .into_iter()
            .find(|k| k.short() == "swim")
            .unwrap();
        let mut s = Session::new(&k.program, &k.cfg);
        let reports = Scheme::all()
            .iter()
            .map(|&sc| s.run_compressed(sc))
            .collect();
        (k, reports)
    }

    #[test]
    fn one_ulp_of_energy_fails_every_check() {
        let (k, reports) = swim_reports();
        assert!(paper_rules(&k, &reports).is_empty());
        let mut off = reports.clone();
        off[0].energy.idle_j = off[0].energy.idle_j.next_up();
        assert!(!same_reports(&reports, &off));
        let key = report_key(k.name, Scheme::Base);
        let expected = Expected {
            entries: vec![Entry::of_report(key.clone(), &reports[0])],
        };
        assert_eq!(
            expected.check(&Entry::of_report(key.clone(), &reports[0])),
            None
        );
        assert!(expected.check(&Entry::of_report(key, &off[0])).is_some());
    }

    #[test]
    fn paper_rules_flag_a_slow_cm_scheme() {
        let (k, mut reports) = swim_reports();
        reports[6].exec_secs = reports[0].exec_secs * 1.03;
        assert_eq!(paper_rules(&k, &reports).len(), 1);
    }

    #[test]
    fn expected_file_round_trips_and_covers_every_result() {
        let (k, reports) = swim_reports();
        let expected = Expected {
            entries: vec![Entry::of_report(
                report_key(k.name, Scheme::Tpm),
                &reports[1],
            )],
        };
        let back = Expected::parse(&expected.to_json()).unwrap();
        assert_eq!(back.entries, expected.entries);
        // The committed file holds all 42 kernel reports and 48 cells.
        assert_eq!(Expected::seed0().unwrap().entries.len(), 42 + 48);
    }
}
