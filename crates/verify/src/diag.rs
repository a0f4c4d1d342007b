//! The diagnostics engine: stable lint codes, severities, source spans,
//! and human/JSON renderers — the `rustc`-style reporting layer shared by
//! every analysis pass.

use std::fmt;

use pipemap_ir::{NodeId, SourceSpan};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never affects exit status.
    Info,
    /// Suspicious but legal; the artifact is usable.
    Warning,
    /// A violated invariant; the artifact must not be trusted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable lint codes. The numeric ranges partition by pass:
///
/// * `P00xx` — IR well-formedness,
/// * `P01xx` — schedule & cover legality,
/// * `P02xx` — structural netlist (Verilog) lint,
/// * `P03xx` — differential flow checks,
/// * `P04xx` — dataflow-analysis and simplification audit,
/// * `P05xx` — MILP structural-analysis certificate audit,
/// * `P06xx` — priority-cut pruning certificate audit.
///
/// Codes are append-only: a released code never changes meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    // ---- P00xx: IR well-formedness ----
    /// Node width outside `1..=64`.
    BadWidth,
    /// Wrong number of inputs for the operation.
    BadArity,
    /// Port references a node id outside the graph.
    DanglingPort,
    /// An `Output` marker is consumed as data.
    OutputHasConsumer,
    /// Input/output widths inconsistent for the operation.
    WidthMismatch,
    /// `Load` references an unknown or empty memory.
    BadMemoryRef,
    /// Distance-0 (combinational) cycle.
    CombinationalCycle,
    /// Node cannot reach any primary output.
    DeadNode,
    /// Primary input has no consumers.
    UnusedInput,
    /// Graph has no primary outputs.
    NoOutputs,
    /// Memory length is not a power of two (modulo indexing costs logic).
    NonPow2Memory,
    /// The `.pmir` document failed to parse.
    ParseError,

    // ---- P01xx: schedule & cover legality ----
    /// A consumed signal's producer is not a signal-producing root (Eq. 2).
    MissingRoot,
    /// A primary output's source is not a root (Eq. 3).
    OutputNotRoot,
    /// Dependence violated modulo II (Eq. 7).
    DependenceViolated,
    /// Critical path exceeds the target period (Eqs. 8–9).
    CycleTimeExceeded,
    /// Modulo resource class oversubscribed (Eq. 14).
    ResourceOversubscribed,
    /// A selected cut exceeds the device's K.
    CutNotKFeasible,
    /// A selected cut's cone crosses a register or unmappable node.
    ConeInconsistent,
    /// Reported QoR disagrees with an independent recount.
    QorMismatch,
    /// Schedule/cover vectors do not match the graph's node count.
    ScheduleSizeMismatch,
    /// Intra-cycle start time is NaN, negative, or past the period.
    InvalidStartTime,

    // ---- P02xx: structural netlist lint ----
    /// A net has more than one driver.
    MultiplyDrivenNet,
    /// An identifier is used but never declared.
    UndeclaredIdentifier,
    /// A declared net is never read and is not a port.
    UnusedNet,
    /// Direct copy between nets of different widths.
    NetWidthMismatch,
    /// `begin`/`end` imbalance.
    BeginEndImbalance,
    /// `module`/`endmodule` missing.
    MissingModule,
    /// Combinational loop through continuous assignments.
    CombinationalNetLoop,

    // ---- P03xx: differential flow checks ----
    /// A flow's implementation failed legality verification.
    FlowIllegal,
    /// Two flows (or a flow and the reference interpreter) disagree.
    FlowsDiverge,
    /// Mapping-aware result is worse than the heuristic at the same II.
    ObjectiveRegression,

    // ---- P04xx: dataflow-analysis & simplification audit ----
    /// An analysis fact (known bit or range) is contradicted by simulation.
    FactUnsound,
    /// A rewrite's justification does not re-derive from the original graph.
    JustificationInvalid,
    /// The simplified graph disagrees with the original on some output.
    SimplifyDiverged,
    /// A primary output bit is proven constant (likely over-width or a bug).
    ConstantOutputBit,
    /// A primary input bit can never influence any output.
    DeadInputBit,

    // ---- P05xx: MILP structural-analysis certificate audit ----
    /// A certified fixing's implication chain does not replay to the
    /// recorded contradiction.
    FixingUnjustified,
    /// A certified implication's chain does not pin its target.
    ImplicationUnsound,
    /// A clique edge's witness does not prove the pair conflicting.
    CliqueEdgeUnjustified,
    /// A cover cut's members do not exceed the witness row's capacity.
    CoverNotViolated,
    // P0505 (symmetry-orbit witness) is retired with the solver's
    // symmetry detection; the number is not reused.
    /// An implication cut does not match its implication's linear
    /// expansion (or the implication itself is unsound).
    ImplicationCutMismatch,

    // ---- P06xx: priority-cut pruning certificate audit ----
    /// A cut missing from the pruned database has neither a certificate
    /// nor a ranked-out record.
    CutPruneUncertified,
    /// A dominance certificate fails re-derivation: the retained cut is
    /// absent, not a subset, deeper, or names a different root.
    CutDominanceInvalid,
    /// A dead-root certificate contradicts the liveness facts.
    CutLivenessInvalid,
    /// A node lost cover feasibility: its pruned cut set is empty or no
    /// longer starts with the unit cut.
    CutCoverInfeasible,
    /// The pruned database is malformed: duplicate cuts, cuts absent
    /// from the raw pool, caps exceeded, or rank-outs without a binding
    /// cap.
    CutSetMalformed,
    /// Pruned and unpruned cover MILPs disagree on the optimum even
    /// though every drop was certified.
    CutObjectiveDrift,

    // ---- P07xx: Gomory cut certificate audit ----
    /// The multiplier list of a Gomory certificate is malformed:
    /// out-of-range row index, non-finite value, or not strictly
    /// ascending.
    GomoryMultipliersMalformed,
    /// The shift list of a Gomory certificate is malformed: unsorted,
    /// duplicated, out-of-range, or a column with significant
    /// aggregated coefficient carries no shift.
    GomoryShiftsMalformed,
    /// A shift references an unusable bound: infinite, or a slack side
    /// inconsistent with the row's sense.
    GomoryBoundUnusable,
    /// A shift claims integer treatment for a column or slack whose
    /// integrality cannot be proven from the model.
    GomoryIntegralityUnproven,
    /// The recombined fractional part f0 is outside the safe interval,
    /// so the GMI derivation is numerically degenerate.
    GomoryFractionalityDegenerate,
    /// The independently re-derived cut disagrees with the shipped
    /// coefficients or right-hand side.
    GomoryCutMismatch,

    // ---- P08xx: incremental re-solve audit ----
    /// An incrementally re-solved model's status diverges from a
    /// from-scratch solve of the identical model and options.
    ResolveStatusDiverged,
    /// An incrementally re-solved model's objective diverges from a
    /// from-scratch solve beyond tolerance.
    ResolveObjectiveDiverged,
    /// The incremental result's assignment fails independent
    /// re-verification (row/bound feasibility or integrality) or does
    /// not reconcile with the from-scratch assignment as a tied optimum.
    ResolveAssignmentInvalid,
    /// Incremental and from-scratch solves returned different members of
    /// a tied optimal set; both re-verified feasible (informational).
    ResolveTiedOptima,
    /// The re-solve engine's counters are internally inconsistent.
    ResolveStatsInconsistent,
}

impl Code {
    /// Every code, in `P`-number order — the registry rendered into docs
    /// and `pipemap lint --codes`.
    pub const ALL: &'static [Code] = &[
        Code::BadWidth,
        Code::BadArity,
        Code::DanglingPort,
        Code::OutputHasConsumer,
        Code::WidthMismatch,
        Code::BadMemoryRef,
        Code::CombinationalCycle,
        Code::DeadNode,
        Code::UnusedInput,
        Code::NoOutputs,
        Code::NonPow2Memory,
        Code::ParseError,
        Code::MissingRoot,
        Code::OutputNotRoot,
        Code::DependenceViolated,
        Code::CycleTimeExceeded,
        Code::ResourceOversubscribed,
        Code::CutNotKFeasible,
        Code::ConeInconsistent,
        Code::QorMismatch,
        Code::ScheduleSizeMismatch,
        Code::InvalidStartTime,
        Code::MultiplyDrivenNet,
        Code::UndeclaredIdentifier,
        Code::UnusedNet,
        Code::NetWidthMismatch,
        Code::BeginEndImbalance,
        Code::MissingModule,
        Code::CombinationalNetLoop,
        Code::FlowIllegal,
        Code::FlowsDiverge,
        Code::ObjectiveRegression,
        Code::FactUnsound,
        Code::JustificationInvalid,
        Code::SimplifyDiverged,
        Code::ConstantOutputBit,
        Code::DeadInputBit,
        Code::FixingUnjustified,
        Code::ImplicationUnsound,
        Code::CliqueEdgeUnjustified,
        Code::CoverNotViolated,
        Code::ImplicationCutMismatch,
        Code::CutPruneUncertified,
        Code::CutDominanceInvalid,
        Code::CutLivenessInvalid,
        Code::CutCoverInfeasible,
        Code::CutSetMalformed,
        Code::CutObjectiveDrift,
        Code::GomoryMultipliersMalformed,
        Code::GomoryShiftsMalformed,
        Code::GomoryBoundUnusable,
        Code::GomoryIntegralityUnproven,
        Code::GomoryFractionalityDegenerate,
        Code::GomoryCutMismatch,
        Code::ResolveStatusDiverged,
        Code::ResolveObjectiveDiverged,
        Code::ResolveAssignmentInvalid,
        Code::ResolveTiedOptima,
        Code::ResolveStatsInconsistent,
    ];

    /// The stable `P0xxx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::BadWidth => "P0001",
            Code::BadArity => "P0002",
            Code::DanglingPort => "P0003",
            Code::OutputHasConsumer => "P0004",
            Code::WidthMismatch => "P0005",
            Code::BadMemoryRef => "P0006",
            Code::CombinationalCycle => "P0007",
            Code::DeadNode => "P0008",
            Code::UnusedInput => "P0009",
            Code::NoOutputs => "P0010",
            Code::NonPow2Memory => "P0011",
            Code::ParseError => "P0012",
            Code::MissingRoot => "P0101",
            Code::OutputNotRoot => "P0102",
            Code::DependenceViolated => "P0103",
            Code::CycleTimeExceeded => "P0104",
            Code::ResourceOversubscribed => "P0105",
            Code::CutNotKFeasible => "P0106",
            Code::ConeInconsistent => "P0107",
            Code::QorMismatch => "P0108",
            Code::ScheduleSizeMismatch => "P0109",
            Code::InvalidStartTime => "P0110",
            Code::MultiplyDrivenNet => "P0201",
            Code::UndeclaredIdentifier => "P0202",
            Code::UnusedNet => "P0203",
            Code::NetWidthMismatch => "P0204",
            Code::BeginEndImbalance => "P0205",
            Code::MissingModule => "P0206",
            Code::CombinationalNetLoop => "P0207",
            Code::FlowIllegal => "P0301",
            Code::FlowsDiverge => "P0302",
            Code::ObjectiveRegression => "P0303",
            Code::FactUnsound => "P0401",
            Code::JustificationInvalid => "P0402",
            Code::SimplifyDiverged => "P0403",
            Code::ConstantOutputBit => "P0404",
            Code::DeadInputBit => "P0405",
            Code::FixingUnjustified => "P0501",
            Code::ImplicationUnsound => "P0502",
            Code::CliqueEdgeUnjustified => "P0503",
            Code::CoverNotViolated => "P0504",
            Code::ImplicationCutMismatch => "P0506",
            Code::CutPruneUncertified => "P0601",
            Code::CutDominanceInvalid => "P0602",
            Code::CutLivenessInvalid => "P0603",
            Code::CutCoverInfeasible => "P0604",
            Code::CutSetMalformed => "P0605",
            Code::CutObjectiveDrift => "P0606",
            Code::GomoryMultipliersMalformed => "P0701",
            Code::GomoryShiftsMalformed => "P0702",
            Code::GomoryBoundUnusable => "P0703",
            Code::GomoryIntegralityUnproven => "P0704",
            Code::GomoryFractionalityDegenerate => "P0705",
            Code::GomoryCutMismatch => "P0706",
            Code::ResolveStatusDiverged => "P0801",
            Code::ResolveObjectiveDiverged => "P0802",
            Code::ResolveAssignmentInvalid => "P0803",
            Code::ResolveTiedOptima => "P0804",
            Code::ResolveStatsInconsistent => "P0805",
        }
    }

    /// Default severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::DeadNode | Code::UnusedInput | Code::NoOutputs | Code::UnusedNet => {
                Severity::Warning
            }
            Code::ObjectiveRegression => Severity::Warning,
            Code::ConstantOutputBit | Code::DeadInputBit => Severity::Warning,
            Code::NonPow2Memory => Severity::Info,
            Code::ResolveTiedOptima => Severity::Info,
            _ => Severity::Error,
        }
    }

    /// One-line summary used in the code registry.
    pub fn summary(self) -> &'static str {
        match self {
            Code::BadWidth => "node width outside 1..=64",
            Code::BadArity => "wrong number of operands for the operation",
            Code::DanglingPort => "operand references a node outside the graph",
            Code::OutputHasConsumer => "output marker consumed as data",
            Code::WidthMismatch => "operand/result widths inconsistent",
            Code::BadMemoryRef => "load from an unknown or empty memory",
            Code::CombinationalCycle => "distance-0 combinational cycle",
            Code::DeadNode => "node unreachable from every primary output",
            Code::UnusedInput => "primary input has no consumers",
            Code::NoOutputs => "graph has no primary outputs",
            Code::NonPow2Memory => "memory length not a power of two",
            Code::ParseError => "the .pmir document failed to parse",
            Code::MissingRoot => "consumed signal's producer is not a mapped root (Eq. 2)",
            Code::OutputNotRoot => "primary output fed by a non-root (Eq. 3)",
            Code::DependenceViolated => "dependence violated modulo II (Eq. 7)",
            Code::CycleTimeExceeded => "critical path exceeds target period (Eqs. 8-9)",
            Code::ResourceOversubscribed => "modulo resource oversubscribed (Eq. 14)",
            Code::CutNotKFeasible => "selected cut exceeds the device's K",
            Code::ConeInconsistent => "cone crosses a register or unmappable node",
            Code::QorMismatch => "QoR report disagrees with independent recount",
            Code::ScheduleSizeMismatch => "schedule/cover size differs from node count",
            Code::InvalidStartTime => "intra-cycle start time NaN, negative, or past period",
            Code::MultiplyDrivenNet => "net driven by more than one assignment",
            Code::UndeclaredIdentifier => "identifier used but never declared",
            Code::UnusedNet => "declared net never read",
            Code::NetWidthMismatch => "direct copy between nets of different widths",
            Code::BeginEndImbalance => "begin/end blocks do not balance",
            Code::MissingModule => "module/endmodule missing",
            Code::CombinationalNetLoop => "combinational loop through continuous assignments",
            Code::FlowIllegal => "flow produced an illegal implementation",
            Code::FlowsDiverge => "flow outputs diverge from the reference model",
            Code::ObjectiveRegression => "mapping-aware flow worse than heuristic at same II",
            Code::FactUnsound => "analysis fact contradicted by simulation",
            Code::JustificationInvalid => "rewrite justification fails independent re-derivation",
            Code::SimplifyDiverged => "simplified graph diverges from the original",
            Code::ConstantOutputBit => "primary output bit proven constant",
            Code::DeadInputBit => "primary input bit cannot influence any output",
            Code::FixingUnjustified => "fixing chain fails independent replay",
            Code::ImplicationUnsound => "implication chain does not pin its target",
            Code::CliqueEdgeUnjustified => "clique edge witness proves no conflict",
            Code::CoverNotViolated => "cover members do not exceed row capacity",
            Code::ImplicationCutMismatch => "implication cut does not match its certificate",
            Code::CutPruneUncertified => "pruned cut has no certificate or ranked-out record",
            Code::CutDominanceInvalid => "dominance certificate fails re-derivation",
            Code::CutLivenessInvalid => "dead-root certificate contradicts liveness facts",
            Code::CutCoverInfeasible => "node lost cover feasibility after pruning",
            Code::CutSetMalformed => "pruned cut database malformed",
            Code::CutObjectiveDrift => "pruned and unpruned cover optima disagree",
            Code::GomoryMultipliersMalformed => "Gomory multiplier list malformed",
            Code::GomoryShiftsMalformed => "Gomory shift list malformed or incomplete",
            Code::GomoryBoundUnusable => "Gomory shift references an unusable bound",
            Code::GomoryIntegralityUnproven => "Gomory integer treatment unproven",
            Code::GomoryFractionalityDegenerate => "Gomory fractional part degenerate",
            Code::GomoryCutMismatch => "Gomory cut fails independent re-derivation",
            Code::ResolveStatusDiverged => "incremental re-solve status diverges from cold",
            Code::ResolveObjectiveDiverged => "incremental re-solve objective diverges from cold",
            Code::ResolveAssignmentInvalid => "incremental assignment fails re-verification",
            Code::ResolveTiedOptima => "incremental and cold solves picked different tied optima",
            Code::ResolveStatsInconsistent => "re-solve counters inconsistent",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One reported finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: Code,
    /// Severity (usually [`Code::severity`], overridable per finding).
    pub severity: Severity,
    /// Human-readable description of this particular instance.
    pub message: String,
    /// The IR node the finding anchors to, when applicable.
    pub node: Option<NodeId>,
    /// Source location in the `.pmir` (or generated Verilog) text.
    pub span: Option<SourceSpan>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no location.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            node: None,
            span: None,
        }
    }

    /// Attach the offending node.
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Attach a source span.
    pub fn with_span(mut self, span: SourceSpan) -> Self {
        self.span = Some(span);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(s) = self.span {
            write!(f, " (at {s})")?;
        }
        Ok(())
    }
}

/// An ordered collection of findings produced by one or more passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    diags: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Append one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Append every finding of another collection.
    pub fn merge(&mut self, other: Diagnostics) {
        self.diags.extend(other.diags);
    }

    /// The findings, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// `true` when nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of error-level findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-level findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == s).count()
    }

    /// `true` if any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// `true` if some finding carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// The distinct codes present, in `P`-number order.
    pub fn codes(&self) -> Vec<Code> {
        let mut present: Vec<Code> = Code::ALL
            .iter()
            .copied()
            .filter(|c| self.has_code(*c))
            .collect();
        present.dedup();
        present
    }

    /// Sort findings: errors first, then by source position, then code.
    pub fn sort(&mut self) {
        self.diags.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| {
                    let ka = a.span.map(|s| (s.line, s.col)).unwrap_or((usize::MAX, 0));
                    let kb = b.span.map(|s| (s.line, s.col)).unwrap_or((usize::MAX, 0));
                    ka.cmp(&kb)
                })
                .then_with(|| a.code.as_str().cmp(b.code.as_str()))
        });
    }

    /// Render a compiler-style report. `source` names the artifact (file
    /// path, module name…) and prefixes every span.
    pub fn render_human(&self, source: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diags {
            match d.span {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{source}:{}:{}: {}[{}]: {}",
                        s.line, s.col, d.severity, d.code, d.message
                    );
                }
                None => {
                    let _ = writeln!(out, "{source}: {}[{}]: {}", d.severity, d.code, d.message);
                }
            }
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} finding(s) total",
            self.error_count(),
            self.warning_count(),
            self.len()
        );
        out
    }

    /// Render the findings as a JSON array (no external dependencies;
    /// strings are escaped per RFC 8259).
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"severity\":\"");
            out.push_str(&d.severity.to_string());
            out.push_str("\",\"message\":\"");
            out.push_str(&json_escape(&d.message));
            out.push('"');
            if let Some(n) = d.node {
                out.push_str(&format!(",\"node\":{}", n.0));
            }
            if let Some(s) = d.span {
                out.push_str(&format!(
                    ",\"line\":{},\"col\":{},\"len\":{}",
                    s.line, s.col, s.len
                ));
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Diagnostics {
            diags: iter.into_iter().collect(),
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(strs, sorted, "registry must be unique and in P-order");
        assert!(strs.len() >= 10);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn render_human_includes_span() {
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::new(Code::BadWidth, "width 99 out of range").with_span(SourceSpan {
                line: 3,
                col: 5,
                len: 1,
            }),
        );
        let r = ds.render_human("demo.pmir");
        assert!(r.contains("demo.pmir:3:5"), "{r}");
        assert!(r.contains("P0001"), "{r}");
        assert!(r.contains("1 error(s)"), "{r}");
    }

    #[test]
    fn render_json_escapes() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new(Code::ParseError, "bad \"quote\"\nline"));
        let j = ds.render_json();
        assert!(j.contains("\\\"quote\\\""), "{j}");
        assert!(j.contains("\\n"), "{j}");
        assert!(j.starts_with('[') && j.ends_with(']'));
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new(Code::DeadNode, "warn"));
        ds.push(Diagnostic::new(Code::BadWidth, "err"));
        ds.sort();
        assert_eq!(ds.iter().next().unwrap().code, Code::BadWidth);
    }
}
