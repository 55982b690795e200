//! Rustc-style structured diagnostics.
//!
//! Every finding the checkers produce is a [`Diagnostic`]: a severity, a
//! stable error code (`SDPM-Exxx` / `SDPM-Wxxx`), a one-line message, a
//! list of labeled [`Span`]s pointing into the artifact being checked
//! (trace events, plan decisions, loop nests, arrays), and an optional
//! fix hint. Two renderers are provided: a human one shaped like rustc's
//! output and a JSON-lines one for tooling.

use sdpm_obs::json::push_escaped;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Note,
    /// Suspicious but not a safety violation.
    Warning,
    /// A violated invariant; `repro lint` exits nonzero.
    Error,
}

impl Severity {
    /// The rustc-style label (`error`, `warning`, `note`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable error codes. The numeric ranges partition by checker:
/// `E0xx` directive safety, `E1xx` transform legality, `E2xx`/`W0xx`
/// replay cross-checks. Codes are append-only; never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// SDPM-E001: I/O serviced on a disk commanded to standby.
    IoWhileDown,
    /// SDPM-E002: I/O serviced on a disk commanded below full speed.
    IoWhileSlow,
    /// SDPM-E003: pre-activation lead shorter than formula (1)'s
    /// `Tsu + Tm` bound on the estimated timeline.
    ShortLead,
    /// SDPM-E004: power-down on a gap that does not pay (below the TPM
    /// break-even threshold, an RPM dwell that cannot fit the gap, or a
    /// non-optimal level for the estimated gap).
    GapBelowThreshold,
    /// SDPM-E005: `set_RPM` to a level off the disk's RPM ladder.
    OffLadderRpm,
    /// SDPM-E006: ill-formed directive pairing (double spin-down,
    /// spin-up without a spin-down, restore on a full-speed disk, or
    /// TPM/DRPM mode mixing on one disk).
    IllFormedPairing,
    /// SDPM-E007: the trace's directives diverge from the insertion
    /// plan's decisions.
    PlanDivergence,
    /// SDPM-E008: malformed trace (validation failure / non-monotone
    /// stream).
    MalformedTrace,
    /// SDPM-E101: fission emitted parts in an order that runs a
    /// dependence backward.
    FissionOrderViolation,
    /// SDPM-E102: fission separated statements of one dependence SCC.
    FissionCouplingSplit,
    /// SDPM-E103: fission changed a nest's body (statements, loops, or
    /// cycle budget not preserved).
    FissionBodyChanged,
    /// SDPM-E104: tiling transposed an array without a strict innermost-
    /// stride improvement (or missed/duplicated a justified transpose).
    TilingUnjustifiedTranspose,
    /// SDPM-E105: tiling changed a nest's iteration space.
    TilingIterationSpaceChanged,
    /// SDPM-E201: replayed energy/time disagrees with the `SimReport`.
    ReplayEnergyMismatch,
    /// SDPM-E202: replayed misfire causes disagree with the `SimReport`.
    ReplayMisfireMismatch,
    /// SDPM-W001: the replay predicts directive misfires (the inserter's
    /// timeline estimate diverged from the simulated run).
    ReplayMisfires,
    /// SDPM-W002: the report was produced under fault injection, so the
    /// fault-free replay cannot meaningfully cross-check it.
    ReplayUnderFaults,
    /// SDPM-E009: in a shared-pool mix, a co-tenant access lands inside
    /// an idle window another tenant's directives exploit — the
    /// single-program safety proof does not transfer to the mix.
    CrossTenantAccess,
    /// SDPM-W003: the mix draws stochastic arrival offsets, so the
    /// static window argument cannot certify directive safety; only the
    /// runtime cross-tenant guard protects co-tenants.
    UnverifiableUnderContention,
    /// SDPM-S001: the symbolic prover refuted the pre-activation lead
    /// obligation — for some parameters in the domain the placement rule
    /// yields a lead below formula (1)'s `Tsu + Tm`.
    SymbolicShortLead,
    /// SDPM-S002: the symbolic prover found a possible access inside an
    /// idle window the inserter would exploit.
    SymbolicAccessWhileDown,
    /// SDPM-S003: the symbolic prover refuted the spin-up-completes
    /// obligation — for some parameters an exploited gap cannot fit the
    /// wake transition plus the call overhead.
    SymbolicSpinUpUnfinished,
    /// SDPM-S004: the symbolic prover refuted TPM boundary legality —
    /// the exploit predicate fires on a gap below the break-even
    /// threshold somewhere in the parameter domain.
    SymbolicTpmBoundary,
    /// SDPM-S005: the symbolic prover refuted DRPM boundary legality —
    /// an off-ladder level, an infeasible transition, or a choice below
    /// the profit floor somewhere in the parameter domain.
    SymbolicDrpmBoundary,
}

impl Code {
    /// The stable code string, e.g. `SDPM-E003`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::IoWhileDown => "SDPM-E001",
            Code::IoWhileSlow => "SDPM-E002",
            Code::ShortLead => "SDPM-E003",
            Code::GapBelowThreshold => "SDPM-E004",
            Code::OffLadderRpm => "SDPM-E005",
            Code::IllFormedPairing => "SDPM-E006",
            Code::PlanDivergence => "SDPM-E007",
            Code::MalformedTrace => "SDPM-E008",
            Code::FissionOrderViolation => "SDPM-E101",
            Code::FissionCouplingSplit => "SDPM-E102",
            Code::FissionBodyChanged => "SDPM-E103",
            Code::TilingUnjustifiedTranspose => "SDPM-E104",
            Code::TilingIterationSpaceChanged => "SDPM-E105",
            Code::ReplayEnergyMismatch => "SDPM-E201",
            Code::ReplayMisfireMismatch => "SDPM-E202",
            Code::ReplayMisfires => "SDPM-W001",
            Code::ReplayUnderFaults => "SDPM-W002",
            Code::CrossTenantAccess => "SDPM-E009",
            Code::UnverifiableUnderContention => "SDPM-W003",
            Code::SymbolicShortLead => "SDPM-S001",
            Code::SymbolicAccessWhileDown => "SDPM-S002",
            Code::SymbolicSpinUpUnfinished => "SDPM-S003",
            Code::SymbolicTpmBoundary => "SDPM-S004",
            Code::SymbolicDrpmBoundary => "SDPM-S005",
        }
    }

    /// Short title for the error-code table.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            Code::IoWhileDown => "I/O on a disk commanded to standby",
            Code::IoWhileSlow => "I/O on a disk commanded below full speed",
            Code::ShortLead => "pre-activation lead below the formula (1) bound",
            Code::GapBelowThreshold => "power-down on a gap that does not pay",
            Code::OffLadderRpm => "set_RPM level off the ladder",
            Code::IllFormedPairing => "ill-formed directive pairing",
            Code::PlanDivergence => "trace diverges from the insertion plan",
            Code::MalformedTrace => "malformed trace",
            Code::FissionOrderViolation => "fission runs a dependence backward",
            Code::FissionCouplingSplit => "fission separates a dependence cycle",
            Code::FissionBodyChanged => "fission altered a nest body",
            Code::TilingUnjustifiedTranspose => "unjustified layout transpose",
            Code::TilingIterationSpaceChanged => "tiling altered an iteration space",
            Code::ReplayEnergyMismatch => "replay energy/time mismatch",
            Code::ReplayMisfireMismatch => "replay misfire mismatch",
            Code::ReplayMisfires => "replay predicts directive misfires",
            Code::ReplayUnderFaults => "report produced under fault injection",
            Code::CrossTenantAccess => "co-tenant access inside an exploited idle window",
            Code::UnverifiableUnderContention => {
                "stochastic mix defeats static window verification"
            }
            Code::SymbolicShortLead => "refuted: pre-activation lead obligation",
            Code::SymbolicAccessWhileDown => "refuted: access-free idle window obligation",
            Code::SymbolicSpinUpUnfinished => "refuted: spin-up-completes obligation",
            Code::SymbolicTpmBoundary => "refuted: TPM break-even boundary obligation",
            Code::SymbolicDrpmBoundary => "refuted: DRPM ladder/profit obligation",
        }
    }

    /// The severity a finding with this code carries.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::ReplayMisfires | Code::ReplayUnderFaults | Code::UnverifiableUnderContention => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

/// Where in the checked artifact a finding points.
#[derive(Debug, Clone, PartialEq)]
pub enum Span {
    /// An event of the (instrumented) trace, with its time on the
    /// compiler's estimated timeline.
    TraceEvent { index: usize, t_est: f64 },
    /// A decision of the insertion plan.
    Decision { index: usize },
    /// A loop nest, by label.
    Nest { label: String },
    /// An array, by name.
    Array { name: String },
    /// The run as a whole (replay cross-checks).
    Run,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::TraceEvent { index, t_est } => write!(f, "trace[{index}] @ {t_est:.3}s"),
            Span::Decision { index } => write!(f, "plan.decisions[{index}]"),
            Span::Nest { label } => write!(f, "nest `{label}`"),
            Span::Array { name } => write!(f, "array `{name}`"),
            Span::Run => write!(f, "run"),
        }
    }
}

/// One labeled span of a diagnostic. The first label is primary.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    pub span: Span,
    pub note: String,
}

/// A structured finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub code: Code,
    /// One-line statement of what is wrong (no span info; that lives in
    /// `labels`).
    pub message: String,
    /// Labeled spans; the first is the primary location.
    pub labels: Vec<Label>,
    /// Actionable fix hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// New diagnostic with the code's default severity.
    #[must_use]
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: code.severity(),
            code,
            message: message.into(),
            labels: Vec::new(),
            help: None,
        }
    }

    /// Appends a labeled span (builder style).
    #[must_use]
    pub fn label(mut self, span: Span, note: impl Into<String>) -> Self {
        self.labels.push(Label {
            span,
            note: note.into(),
        });
        self
    }

    /// Sets the fix hint (builder style).
    #[must_use]
    pub fn help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

/// True if any finding is an error.
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// `(errors, warnings)` counts.
#[must_use]
pub fn tally(diags: &[Diagnostic]) -> (usize, usize) {
    let e = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let w = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    (e, w)
}

/// Renders one diagnostic in rustc's shape:
///
/// ```text
/// error[SDPM-E003]: pre-activation lead 3.2 s is below the bound 10.9 s
///   --> trace[1042] @ 812.400s: spin_up pre-activation issued here
///    = note: protected request at trace[1061] @ 815.600s arrives here
///    = help: issue the pre-activation at least 7.700 s earlier
/// ```
#[must_use]
pub fn render_human(d: &Diagnostic) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{}[{}]: {}\n",
        d.severity.label(),
        d.code.as_str(),
        d.message
    ));
    let mut labels = d.labels.iter();
    if let Some(primary) = labels.next() {
        out.push_str(&format!("  --> {}: {}\n", primary.span, primary.note));
    }
    for l in labels {
        out.push_str(&format!("   = note: {} — {}\n", l.span, l.note));
    }
    if let Some(h) = &d.help {
        out.push_str(&format!("   = help: {h}\n"));
    }
    out
}

/// Renders all diagnostics plus a summary line.
#[must_use]
pub fn render_human_all(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render_human(d));
    }
    let (e, w) = tally(diags);
    out.push_str(&format!("{e} error(s), {w} warning(s)\n"));
    out
}

fn push_span_json(out: &mut String, s: &Span) {
    match s {
        Span::TraceEvent { index, t_est } => {
            out.push_str(&format!(
                "{{\"kind\":\"trace_event\",\"index\":{index},\"t_est\":{t_est}}}"
            ));
        }
        Span::Decision { index } => {
            out.push_str(&format!("{{\"kind\":\"decision\",\"index\":{index}}}"));
        }
        Span::Nest { label } => {
            out.push_str("{\"kind\":\"nest\",\"label\":");
            push_escaped(out, label);
            out.push('}');
        }
        Span::Array { name } => {
            out.push_str("{\"kind\":\"array\",\"name\":");
            push_escaped(out, name);
            out.push('}');
        }
        Span::Run => out.push_str("{\"kind\":\"run\"}"),
    }
}

/// Renders one diagnostic as a single JSON object (no trailing newline).
#[must_use]
pub fn render_json(d: &Diagnostic) -> String {
    let mut out = String::new();
    out.push_str("{\"severity\":");
    push_escaped(&mut out, d.severity.label());
    out.push_str(",\"code\":");
    push_escaped(&mut out, d.code.as_str());
    out.push_str(",\"message\":");
    push_escaped(&mut out, &d.message);
    out.push_str(",\"labels\":[");
    for (i, l) in d.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"span\":");
        push_span_json(&mut out, &l.span);
        out.push_str(",\"note\":");
        push_escaped(&mut out, &l.note);
        out.push('}');
    }
    out.push(']');
    if let Some(h) = &d.help {
        out.push_str(",\"help\":");
        push_escaped(&mut out, h);
    }
    out.push('}');
    out
}

/// Renders diagnostics as JSON lines (one object per line).
#[must_use]
pub fn render_json_all(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render_json(d));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new(Code::ShortLead, "lead 3.2 s below bound 10.9 s")
            .label(
                Span::TraceEvent {
                    index: 42,
                    t_est: 12.5,
                },
                "pre-activation issued here",
            )
            .label(
                Span::TraceEvent {
                    index: 50,
                    t_est: 15.7,
                },
                "protected request arrives here",
            )
            .help("issue the pre-activation at least 7.7 s earlier")
    }

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::IoWhileDown.as_str(), "SDPM-E001");
        assert_eq!(Code::MalformedTrace.as_str(), "SDPM-E008");
        assert_eq!(Code::FissionOrderViolation.as_str(), "SDPM-E101");
        assert_eq!(Code::ReplayMisfires.as_str(), "SDPM-W001");
        assert_eq!(Code::ReplayMisfires.severity(), Severity::Warning);
        assert_eq!(Code::IoWhileDown.severity(), Severity::Error);
    }

    #[test]
    fn human_rendering_has_rustc_shape() {
        let text = render_human(&sample());
        assert!(text.starts_with("error[SDPM-E003]: lead"));
        assert!(text.contains("--> trace[42] @ 12.500s: pre-activation"));
        assert!(text.contains("= note: trace[50] @ 15.700s"));
        assert!(text.contains("= help: issue the pre-activation"));
    }

    #[test]
    fn json_rendering_is_one_escaped_object() {
        let d = Diagnostic::new(Code::OffLadderRpm, "level \"99\" off\nladder");
        let j = render_json(&d);
        assert!(j.contains("\"code\":\"SDPM-E005\""));
        assert!(j.contains("level \\\"99\\\" off\\nladder"));
        assert!(!j.contains('\n'));
        // Every escape the renderer makes, byte for byte.
        let d = Diagnostic::new(Code::OffLadderRpm, "q\"b\\n\nr\rt\tc\u{1}.");
        assert_eq!(
            render_json(&d),
            r#"{"severity":"error","code":"SDPM-E005","message":"q\"b\\n\nr\rt\tc\u0001.","labels":[]}"#
        );
    }

    #[test]
    fn tally_counts_by_severity() {
        let diags = vec![
            Diagnostic::new(Code::IoWhileDown, "a"),
            Diagnostic::new(Code::ReplayMisfires, "b"),
            Diagnostic::new(Code::IoWhileSlow, "c"),
        ];
        assert_eq!(tally(&diags), (2, 1));
        assert!(has_errors(&diags));
        assert!(!has_errors(&diags[1..2]));
    }
}
