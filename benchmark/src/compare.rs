//! `compare`: parent against change over alternating pairs of runs.
//!
//! Each result file is the standard output of one `run` (single
//! workload or `all`); its `workload metric value unit` lines are read.
//! Pair `i` is the `i`-th parent file with the `i`-th change file. For
//! each workload × metric the verdict follows the gain rule: the change
//! *improved* a metric only if it wins at least nine tenths of the pairs
//! and the medians differ by more than the parent's interquartile
//! distance; it is *worse* if its median is worse than the parent's by
//! more than the metric's bound; where the parent's own spread exceeds
//! the bound the metric is *unresolved*, unless every change run beats
//! every parent run.

use crate::metrics::{end_to_end, per_layer, Better, FAILED_FRAC};
use crate::stats::quartiles;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Fewest pairs a comparison accepts.
const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Worse,
    Unresolved,
    /// A per-layer metric that did not improve: it has no bound.
    NoBound,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "no-bound",
        }
    }
}

/// The verdict on one metric, and the fraction of pairs the change won
/// (ties count for neither side).
#[must_use]
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: Option<f64>,
) -> (f64, Verdict) {
    // Signed so that a positive difference is a gain.
    let sign = if better == Better::Higher { 1.0 } else { -1.0 };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let win_frac = wins as f64 / parent.len().max(1) as f64;
    let (Some((q1, pm, q3)), Some((_, cm, _))) = (quartiles(parent), quartiles(change)) else {
        return (win_frac, Verdict::Unresolved);
    };
    let gain = sign * (cm - pm);
    if win_frac >= 0.9 && gain > q3 - q1 {
        return (win_frac, Verdict::Improved);
    }
    let Some(bound) = bound else {
        return (win_frac, Verdict::NoBound);
    };
    let worst = |xs: &[f64]| xs.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let best = |xs: &[f64]| {
        xs.iter()
            .map(|x| sign * x)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    if bound == 0.0 {
        // Any increase is a regression.
        let v = if worst(change) < worst(parent) {
            Verdict::Worse
        } else {
            Verdict::WithinBound
        };
        return (win_frac, v);
    }
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    let all_better = worst(change) > best(parent);
    let v = if (q3 - q1) / scale > bound && !all_better {
        Verdict::Unresolved
    } else if -gain / scale > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (win_frac, v)
}

type Results = BTreeMap<(String, String), f64>;

/// The `workload metric value unit` lines of one result file.
fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let [w, metric, value, _unit] = line.split_whitespace().collect::<Vec<_>>()[..] else {
                return None;
            };
            Workload::parse(w)?;
            Some(((w.to_string(), metric.to_string()), value.parse().ok()?))
        })
        .collect())
}

/// `compare --parent FILE... --change FILE...`
///
/// # Errors
/// On unequal or too few files, or an unreadable file.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side = None;
    for a in args {
        match a.as_str() {
            "--parent" => side = Some(true),
            "--change" => side = Some(false),
            path => match side {
                Some(true) => parent.push(read_results(path)?),
                Some(false) => change.push(read_results(path)?),
                None => return Err(format!("compare: {path} before --parent/--change")),
            },
        }
    }
    if parent.len() != change.len() || parent.len() < MIN_PAIRS {
        return Err(format!(
            "compare needs at least {MIN_PAIRS} parent/change pairs (got {} parent, {} change files)",
            parent.len(),
            change.len()
        ));
    }
    let mut table: BTreeMap<String, (Better, Option<f64>)> = end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|m| (m.name, (m.better, m.bound)))
        .collect();
    table.insert(FAILED_FRAC.to_string(), (Better::Lower, Some(0.0)));
    println!("workload metric parent_median [q1 q3] change_median [q1 q3] win_frac verdict");
    let mut worse = false;
    for key in parent[0].keys() {
        let Some(&(better, bound)) = table.get(&key.1) else {
            continue;
        };
        let p: Vec<f64> = parent.iter().filter_map(|r| r.get(key).copied()).collect();
        let c: Vec<f64> = change.iter().filter_map(|r| r.get(key).copied()).collect();
        if p.len() != parent.len() || c.len() != change.len() {
            println!("{} {} missing in some files", key.0, key.1);
            continue;
        }
        let (win, v) = verdict(&p, &c, better, bound);
        worse |= v == Verdict::Worse;
        let (pq1, pm, pq3) = quartiles(&p).unwrap_or_default();
        let (cq1, cm, cq3) = quartiles(&c).unwrap_or_default();
        println!(
            "{} {} {pm} [{pq1} {pq3}] {cm} [{cq1} {cq3}] {win} {}",
            key.0,
            key.1,
            v.as_str()
        );
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_gain_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let lower = |c: &[f64]| verdict(&parent, c, Better::Lower, Some(0.1)).1;
        assert_eq!(lower(&faster), Verdict::Improved);
        assert_eq!(lower(&slower), Verdict::Worse);
        assert_eq!(lower(&same), Verdict::WithinBound);
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, Some(0.1)).1,
            Verdict::Worse
        );
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { 2.0 })
            .collect();
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, Some(0.1)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&parent, &same, Better::Lower, None).1,
            Verdict::NoBound
        );
        let zeros = [0.0; 10];
        let mut one_failure = zeros;
        one_failure[3] = 0.01;
        assert_eq!(
            verdict(&zeros, &one_failure, Better::Lower, Some(0.0)).1,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&zeros, &zeros, Better::Lower, Some(0.0)).1,
            Verdict::WithinBound
        );
    }
}
