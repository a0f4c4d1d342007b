//! Static structural analysis of MILP models: probing, a conflict graph
//! with a clique table, and certified cutting planes.
//!
//! The scheduling MILPs the paper's formulation emits are dominated by
//! binary cut-selection variables tied together by "choose exactly one
//! cut per root" assignment rows and cone-overlap packing rows — exactly
//! the set-packing structure where *static* model analysis pays off
//! before (and during) branch and bound:
//!
//! * [`analyze`] **probes** each binary variable: tentatively fix it to
//!   0 and to 1, propagate activity-based bound implications to
//!   quiescence, and harvest certified [`Fixing`]s (one polarity is
//!   infeasible) and [`Implication`]s (another binary gets pinned),
//! * the probing implications plus pairwise-infeasible row terms form a
//!   **conflict graph**, condensed into a table of [`Clique`]s (every
//!   pair of members carries an [`EdgeWitness`]),
//! * [`root_cut_loop`] separates violated **clique cuts** and **cover
//!   cuts** against the root LP relaxation, with activity-based aging of
//!   the pool; every emitted [`CertifiedCut`] carries a
//!   machine-checkable [`CutProof`].
//!
//! Every artifact is a *certificate*: a replayable implication chain or
//! a clique membership proof. The `pipemap-verify` crate re-derives all
//! of them independently (its `P05xx` pass), so solver aggressiveness
//! never outruns soundness. All of the analysis is deterministic — same
//! model in, same certificates out — which the parallel search's
//! determinism contract relies on.

mod clique;
mod cutloop;
mod gomory;
mod probe;

pub(crate) use cutloop::root_cut_loop_in;
pub use cutloop::{
    implication_expression, root_cut_loop, CertifiedCut, CutLoopConfig, CutLoopOutcome,
    CutLoopStats, CutProof,
};
pub use gomory::GomoryShift;

use crate::model::{Model, VarKind};

/// One bound change of a replayable propagation chain.
///
/// Replay semantics: under the working bounds produced by the chain's
/// prefix, row `row` implies a bound on column `col` (the activity
/// argument of presolve's implied-bound tightening); `value` must be no
/// stronger than that implied bound. Integer columns round the implied
/// bound inward before the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropStep {
    /// Row the bound was derived from.
    pub row: usize,
    /// Column whose bound moved.
    pub col: usize,
    /// `true` when the upper bound moved down, `false` when the lower
    /// bound moved up.
    pub upper: bool,
    /// The new bound value.
    pub value: f64,
}

/// Where a probe's contradiction surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// The row cannot be satisfied by any point inside the working
    /// bounds (its minimum activity already exceeds a `≤` rhs, or its
    /// maximum activity cannot reach a `≥` rhs).
    RowInfeasible {
        /// The offending row.
        row: usize,
    },
    /// A column's working bounds crossed.
    BoundsCrossed {
        /// The offending column.
        col: usize,
    },
}

/// A replayable derivation: tentatively fix `col` to `value`, then apply
/// `steps` in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbeChain {
    /// The probed column.
    pub col: usize,
    /// The tentative value.
    pub value: f64,
    /// Bound propagations derived from the tentative fixing.
    pub steps: Vec<PropStep>,
}

/// A certified variable fixing: probing `col` at `1 - value` propagates
/// into a contradiction, so every integer-feasible point has
/// `x[col] = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fixing {
    /// The fixed column.
    pub col: usize,
    /// The only integer-feasible value.
    pub value: f64,
    /// The chain probing the opposite polarity.
    pub chain: ProbeChain,
    /// The contradiction the chain ends in.
    pub conflict: Conflict,
}

/// A certified implication between binary columns: if `col` takes
/// `value`, then `target` is forced to `target_value` in every
/// integer-feasible point.
#[derive(Debug, Clone, PartialEq)]
pub struct Implication {
    /// The antecedent column.
    pub col: usize,
    /// The antecedent value (`true` = 1).
    pub value: bool,
    /// The consequent column.
    pub target: usize,
    /// The value the consequent is forced to.
    pub target_value: f64,
    /// Replayable derivation; its final working bounds pin `target`.
    pub chain: ProbeChain,
}

/// A certified proof that the model has no integer-feasible point: both
/// polarities of one binary column propagate into contradictions.
#[derive(Debug, Clone, PartialEq)]
pub struct InfeasibilityProof {
    /// The doubly-conflicting column.
    pub col: usize,
    /// Chain and contradiction when probing `col = 0`.
    pub down: (ProbeChain, Conflict),
    /// Chain and contradiction when probing `col = 1`.
    pub up: (ProbeChain, Conflict),
}

/// Why two binary columns cannot both be 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeWitness {
    /// Setting both endpoints to 1 exceeds this row's rhs (in its `≤`
    /// normalization) even with every remaining term at its minimum
    /// activity.
    Row {
        /// The witness row.
        row: usize,
    },
    /// Index into [`StructuralAnalysis::implications`] of an
    /// `x = 1 ⇒ y = 0` implication between the endpoints.
    Implication {
        /// The witness implication.
        index: usize,
    },
}

/// A set of pairwise-conflicting binary columns: `Σ members ≤ 1` holds
/// for every integer-feasible point.
#[derive(Debug, Clone, PartialEq)]
pub struct Clique {
    /// Member columns, ascending.
    pub members: Vec<usize>,
    /// One witness per member pair `(a, b)` with `a < b`.
    pub edges: Vec<(usize, usize, EdgeWitness)>,
}

/// Knobs for [`analyze`].
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Probe binary variables for fixings and implications.
    pub probing: bool,
    /// Build the conflict graph and clique table.
    pub cliques: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            probing: true,
            cliques: true,
        }
    }
}

/// Everything the static pass learned about a model, with certificates.
#[derive(Debug, Clone, Default)]
pub struct StructuralAnalysis {
    /// Certified variable fixings (probing one polarity conflicts).
    pub fixings: Vec<Fixing>,
    /// Certified implications between binary columns.
    pub implications: Vec<Implication>,
    /// The clique table over the conflict graph.
    pub cliques: Vec<Clique>,
    /// Set when probing proved the whole model integer-infeasible.
    pub infeasible: Option<Box<InfeasibilityProof>>,
    /// Number of binary columns probed.
    pub probed: usize,
}

/// Columns that are free binaries under the model's current bounds.
pub(crate) fn binary_mask(model: &Model) -> Vec<bool> {
    model
        .cols
        .iter()
        .map(|c| c.kind == VarKind::Integer && c.lb == 0.0 && c.ub == 1.0)
        .collect()
}

/// Run the static structural analysis on a model.
///
/// Deterministic: the same model and config always produce the same
/// certificates, in the same order.
pub fn analyze(model: &Model, cfg: &AnalysisConfig) -> StructuralAnalysis {
    let mut out = StructuralAnalysis::default();
    let binary = binary_mask(model);

    if cfg.probing {
        probe::run_probing(model, &binary, &mut out);
    }
    if out.infeasible.is_some() {
        return out;
    }
    if cfg.cliques {
        out.cliques = clique::build_cliques(model, &binary, &out.implications);
    }
    out
}
