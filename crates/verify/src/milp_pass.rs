//! MILP structural-analysis certificate audit (`P05xx`).
//!
//! `pipemap-milp`'s static analysis ships every conclusion with a
//! certificate: fixings and implications carry replayable propagation
//! chains, clique edges carry a witness row or implication, cover cuts
//! name their witness row and members. This pass re-derives all of them
//! **independently** — using only the model's public accessors, never the
//! solver's own propagation code — so a bug in the analysis cannot
//! silently vouch for itself.
//!
//! * [`check_milp_analysis`] audits a [`StructuralAnalysis`]: every
//!   fixing/implication chain is replayed step by step from the model's
//!   pristine bounds (`P0501`, `P0502`) and every clique edge witness is
//!   re-checked (`P0503`).
//! * [`check_certified_cuts`] audits a cut pool: clique cuts must match
//!   their embedded (re-verified) clique inequality, cover cuts must
//!   genuinely exceed their witness row's capacity (`P0504`),
//!   implication cuts must match the linear expansion of a sound,
//!   replayable implication (`P0506`), and Gomory cuts must survive a
//!   full independent replay of their derivation certificate —
//!   aggregation multipliers, bound shifts, GMI rounding, and
//!   back-substitution (`P0701`–`P0706`).

use crate::diag::{Code, Diagnostic, Diagnostics};
use pipemap_milp::analysis::{
    implication_expression, CertifiedCut, Clique, Conflict, CutProof, EdgeWitness, GomoryShift,
    Implication, ProbeChain, StructuralAnalysis,
};
use pipemap_milp::{Model, RowId, Sense, VarId, VarKind};
use std::collections::BTreeSet;

/// Slack allowed when comparing a claimed bound against the re-derived
/// implied bound (matches the solver's recording tolerance).
const STEP_TOL: f64 = 1e-6;
/// Violation margin a contradiction or conflict edge must clear.
const VIOL_TOL: f64 = 1e-6;
/// Bound width below which a column counts as pinned.
const PIN_TOL: f64 = 1e-6;

fn is_binary(model: &Model, j: usize) -> bool {
    let v = VarId::from_index(j);
    model.var_kind(v) == VarKind::Integer && model.bounds(v) == (0.0, 1.0)
}

/// Minimum and maximum activity of a row's terms under working bounds,
/// excluding the columns in `skip`.
fn activity(model: &Model, ri: usize, lb: &[f64], ub: &[f64], skip: &[usize]) -> (f64, f64) {
    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    for &(v, a) in model.row_coeffs(RowId::from_index(ri)) {
        let j = v.index();
        if skip.contains(&j) {
            continue;
        }
        if a > 0.0 {
            lo += a * lb[j];
            hi += a * ub[j];
        } else {
            lo += a * ub[j];
            hi += a * lb[j];
        }
    }
    (lo, hi)
}

/// Replay a probe chain from the model's pristine bounds, checking that
/// every step is justified by its recorded row under the working bounds
/// of the chain's prefix. On success returns the final working bounds.
fn replay(model: &Model, chain: &ProbeChain) -> Result<(Vec<f64>, Vec<f64>), String> {
    let n = model.num_vars();
    if chain.col >= n {
        return Err(format!("probed column x{} out of range", chain.col));
    }
    let mut lb: Vec<f64> = (0..n)
        .map(|j| model.bounds(VarId::from_index(j)).0)
        .collect();
    let mut ub: Vec<f64> = (0..n)
        .map(|j| model.bounds(VarId::from_index(j)).1)
        .collect();
    if chain.value < lb[chain.col] - STEP_TOL || chain.value > ub[chain.col] + STEP_TOL {
        return Err(format!(
            "tentative value {} outside x{}'s bounds",
            chain.value, chain.col
        ));
    }
    lb[chain.col] = chain.value;
    ub[chain.col] = chain.value;

    for (si, step) in chain.steps.iter().enumerate() {
        if step.row >= model.num_rows() || step.col >= n {
            return Err(format!("step {si} references row/column out of range"));
        }
        let rid = RowId::from_index(step.row);
        let a = model
            .row_coeffs(rid)
            .iter()
            .find(|&&(v, _)| v.index() == step.col)
            .map(|&(_, a)| a)
            .unwrap_or(0.0);
        if a.abs() < 1e-9 {
            return Err(format!(
                "step {si}: row r{} has no x{} term",
                step.row, step.col
            ));
        }
        let (rlo, rhi) = activity(model, step.row, &lb, &ub, &[step.col]);
        let sense = model.row_sense(rid);
        let rhs = model.row_rhs(rid);
        let le_like = matches!(sense, Sense::Le | Sense::Eq);
        let ge_like = matches!(sense, Sense::Ge | Sense::Eq);

        // Strongest bound on step.col this row can justify.
        let mut implied: Option<f64> = None;
        let mut consider = |b: f64| {
            implied = Some(match implied {
                None => b,
                Some(prev) if step.upper => prev.min(b),
                Some(prev) => prev.max(b),
            });
        };
        if le_like && rlo.is_finite() {
            let b = (rhs - rlo) / a;
            if (a > 0.0) == step.upper {
                consider(b);
            }
        }
        if ge_like && rhi.is_finite() {
            let b = (rhs - rhi) / a;
            if (a < 0.0) == step.upper {
                consider(b);
            }
        }
        let Some(mut implied) = implied else {
            return Err(format!(
                "step {si}: row r{} implies no {} bound on x{}",
                step.row,
                if step.upper { "upper" } else { "lower" },
                step.col
            ));
        };
        if model.var_kind(VarId::from_index(step.col)) == VarKind::Integer && implied.is_finite() {
            implied = if step.upper {
                (implied + 1e-6).floor()
            } else {
                (implied - 1e-6).ceil()
            };
        }
        let sound = if step.upper {
            step.value >= implied - STEP_TOL
        } else {
            step.value <= implied + STEP_TOL
        };
        if !sound {
            return Err(format!(
                "step {si}: claimed {} bound {} on x{} stronger than implied {}",
                if step.upper { "upper" } else { "lower" },
                step.value,
                step.col,
                implied
            ));
        }
        if step.upper {
            ub[step.col] = ub[step.col].min(step.value);
        } else {
            lb[step.col] = lb[step.col].max(step.value);
        }
    }
    Ok((lb, ub))
}

/// Check that the recorded contradiction actually holds under the
/// replayed final bounds.
fn conflict_holds(model: &Model, lb: &[f64], ub: &[f64], conflict: Conflict) -> Result<(), String> {
    match conflict {
        Conflict::RowInfeasible { row } => {
            if row >= model.num_rows() {
                return Err(format!("conflict row r{row} out of range"));
            }
            let (minact, maxact) = activity(model, row, lb, ub, &[]);
            let rid = RowId::from_index(row);
            let rhs = model.row_rhs(rid);
            let infeasible = match model.row_sense(rid) {
                Sense::Le => minact > rhs + VIOL_TOL,
                Sense::Ge => maxact < rhs - VIOL_TOL,
                Sense::Eq => minact > rhs + VIOL_TOL || maxact < rhs - VIOL_TOL,
            };
            if infeasible {
                Ok(())
            } else {
                Err(format!("row r{row} is satisfiable under the final bounds"))
            }
        }
        Conflict::BoundsCrossed { col } => {
            if col >= model.num_vars() {
                return Err(format!("conflict column x{col} out of range"));
            }
            if lb[col] > ub[col] + VIOL_TOL {
                Ok(())
            } else {
                Err(format!("x{col}'s bounds do not cross"))
            }
        }
    }
}

/// Replay a chain that must end in the given contradiction.
fn check_refutation(model: &Model, chain: &ProbeChain, conflict: Conflict) -> Result<(), String> {
    let (lb, ub) = replay(model, chain)?;
    conflict_holds(model, &lb, &ub, conflict)
}

/// Check one clique-edge witness: the pair `(a, b)` (both binary) cannot
/// both be 1.
fn edge_justified(
    model: &Model,
    analysis: &StructuralAnalysis,
    a: usize,
    b: usize,
    witness: EdgeWitness,
) -> Result<(), String> {
    if a >= model.num_vars() || b >= model.num_vars() || a == b {
        return Err(format!("edge endpoints x{a}, x{b} invalid"));
    }
    if !is_binary(model, a) || !is_binary(model, b) {
        return Err(format!("edge endpoints x{a}, x{b} are not both binary"));
    }
    match witness {
        EdgeWitness::Row { row } => {
            if row >= model.num_rows() {
                return Err(format!("witness row r{row} out of range"));
            }
            let rid = RowId::from_index(row);
            let s = if model.row_sense(rid) == Sense::Ge {
                -1.0
            } else {
                1.0
            };
            let coeff = |j: usize| {
                model
                    .row_coeffs(rid)
                    .iter()
                    .find(|&&(v, _)| v.index() == j)
                    .map(|&(_, c)| s * c)
                    .unwrap_or(0.0)
            };
            let (ca, cb) = (coeff(a), coeff(b));
            if ca.abs() < 1e-9 || cb.abs() < 1e-9 {
                return Err(format!("row r{row} misses an endpoint term"));
            }
            // Minimum activity of the remaining terms, in ≤-normalization,
            // under the model's pristine bounds.
            let mut minact = 0.0f64;
            for &(v, c) in model.row_coeffs(rid) {
                let j = v.index();
                if j == a || j == b {
                    continue;
                }
                let c = s * c;
                let (l, u) = model.bounds(v);
                minact += if c > 0.0 { c * l } else { c * u };
            }
            let rhs = s * model.row_rhs(rid);
            if ca + cb + minact > rhs + VIOL_TOL {
                Ok(())
            } else {
                Err(format!(
                    "row r{row} admits x{a} = x{b} = 1 (activity {} ≤ rhs {})",
                    ca + cb + minact,
                    rhs
                ))
            }
        }
        EdgeWitness::Implication { index } => {
            let Some(imp) = analysis.implications.get(index) else {
                return Err(format!("implication witness #{index} out of range"));
            };
            let pair_matches =
                (imp.col == a && imp.target == b) || (imp.col == b && imp.target == a);
            if !pair_matches || !imp.value || imp.target_value.abs() > PIN_TOL {
                return Err(format!(
                    "implication #{index} is not `x = 1 ⇒ y = 0` over the pair"
                ));
            }
            // The chain itself is audited by `check_milp_analysis`; here the
            // shape suffices.
            Ok(())
        }
    }
}

/// Re-verify a clique: members ascending, every pair witnessed, every
/// witness justified. Returns the failures as messages.
fn clique_failures(model: &Model, analysis: &StructuralAnalysis, cl: &Clique) -> Vec<String> {
    let mut errs = Vec::new();
    if cl.members.len() < 2 {
        errs.push("clique has fewer than two members".to_string());
        return errs;
    }
    if cl.members.windows(2).any(|w| w[0] >= w[1]) {
        errs.push("clique members are not strictly ascending".to_string());
    }
    let mut witnessed: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &(a, b, w) in &cl.edges {
        if !cl.members.contains(&a) || !cl.members.contains(&b) {
            errs.push(format!("edge (x{a}, x{b}) endpoints outside the clique"));
            continue;
        }
        if let Err(e) = edge_justified(model, analysis, a, b, w) {
            errs.push(format!("edge (x{a}, x{b}): {e}"));
        }
        witnessed.insert((a.min(b), a.max(b)));
    }
    for (i, &a) in cl.members.iter().enumerate() {
        for &b in &cl.members[i + 1..] {
            if !witnessed.contains(&(a.min(b), a.max(b))) {
                errs.push(format!("pair (x{a}, x{b}) has no witness"));
            }
        }
    }
    errs
}

/// Independently re-derive one implication: its chain must probe the
/// antecedent, both endpoints must be binary columns, and replaying the
/// chain from pristine bounds must pin the target to the claimed value.
fn implication_sound(model: &Model, imp: &Implication) -> Result<(), String> {
    if imp.chain.col != imp.col || (imp.chain.value - (imp.value as u8 as f64)).abs() > PIN_TOL {
        return Err("chain does not probe the antecedent".to_string());
    }
    if imp.col >= model.num_vars() || !is_binary(model, imp.col) {
        return Err("antecedent is not a binary column".to_string());
    }
    if imp.target >= model.num_vars() || !is_binary(model, imp.target) {
        return Err("target is not a binary column".to_string());
    }
    let (lb, ub) = replay(model, &imp.chain)?;
    if lb[imp.target] < imp.target_value - PIN_TOL || ub[imp.target] > imp.target_value + PIN_TOL {
        return Err(format!(
            "final bounds [{}, {}] do not pin the target",
            lb[imp.target], ub[imp.target]
        ));
    }
    Ok(())
}

/// Emits `P0501` (fixing or infeasibility chain fails replay), `P0502`
/// (implication chain unsound), and `P0503` (clique edge unjustified).
/// An empty, error-free result means every fixing, implication, and
/// clique was independently re-derived.
pub fn check_milp_analysis(model: &Model, analysis: &StructuralAnalysis) -> Diagnostics {
    let mut diags = Diagnostics::new();

    for (fi, f) in analysis.fixings.iter().enumerate() {
        let mut fail = |why: String| {
            diags.push(Diagnostic::new(
                Code::FixingUnjustified,
                format!("fixing #{fi} (x{} = {}): {why}", f.col, f.value),
            ));
        };
        if f.chain.col != f.col || (f.chain.value - (1.0 - f.value)).abs() > PIN_TOL {
            fail("chain does not probe the opposite polarity".to_string());
            continue;
        }
        if !is_binary(model, f.col) {
            fail("fixed column is not binary".to_string());
            continue;
        }
        if let Err(e) = check_refutation(model, &f.chain, f.conflict) {
            fail(e);
        }
    }

    if let Some(proof) = &analysis.infeasible {
        for (name, (chain, conflict), want) in [("down", &proof.down, 0.0), ("up", &proof.up, 1.0)]
        {
            if chain.col != proof.col || (chain.value - want).abs() > PIN_TOL {
                diags.push(Diagnostic::new(
                    Code::FixingUnjustified,
                    format!(
                        "infeasibility proof: {name} chain does not probe x{} = {want}",
                        proof.col
                    ),
                ));
            } else if let Err(e) = check_refutation(model, chain, *conflict) {
                diags.push(Diagnostic::new(
                    Code::FixingUnjustified,
                    format!("infeasibility proof ({name} chain of x{}): {e}", proof.col),
                ));
            }
        }
    }

    for (ii, imp) in analysis.implications.iter().enumerate() {
        if let Err(why) = implication_sound(model, imp) {
            diags.push(Diagnostic::new(
                Code::ImplicationUnsound,
                format!(
                    "implication #{ii} (x{} = {} ⇒ x{} = {}): {why}",
                    imp.col, imp.value as u8, imp.target, imp.target_value
                ),
            ));
        }
    }

    for (ci, cl) in analysis.cliques.iter().enumerate() {
        for why in clique_failures(model, analysis, cl) {
            diags.push(Diagnostic::new(
                Code::CliqueEdgeUnjustified,
                format!("clique #{ci}: {why}"),
            ));
        }
    }

    diags
}

/// Is `v` integral to the Gomory derivation's tolerance?
fn gmi_is_int(v: f64) -> bool {
    (v - v.round()).abs() <= 1e-9
}

/// Is a row's slack integral at every integer-feasible point? Requires
/// an integral rhs, integral coefficients, and integer-kind variables —
/// re-derived here from the model's public accessors, independent of
/// the separator's own classification.
fn gmi_row_integral(model: &Model, ri: usize) -> bool {
    let rid = RowId::from_index(ri);
    gmi_is_int(model.row_rhs(rid))
        && model
            .row_coeffs(rid)
            .iter()
            .all(|&(v, c)| gmi_is_int(c) && model.var_kind(v) == VarKind::Integer)
}

/// Coefficient threshold below which an aggregated column may go
/// unshifted without invalidating a Gomory certificate.
const GMI_ALPHA_TOL: f64 = 1e-7;
/// Relative tolerance when comparing the re-derived cut against the
/// shipped one (the separator's own safety margin is `1e-9`-relative).
const GMI_CMP_TOL: f64 = 1e-6;

/// Independently replay one Gomory certificate from the model alone.
///
/// The certificate supplies only the aggregation multipliers and, per
/// aggregated column, *which bound side* it was shifted onto and whether
/// integer rounding was claimed. Everything else — bound values
/// (model bounds with the certified fixings baked in, exactly as the cut
/// loop applies them), slack bounds, integrality, the GMI coefficients,
/// and the back-substituted inequality — is re-derived here. Returns the
/// first failure as `(code, message)`.
fn audit_gomory(
    model: &Model,
    analysis: &StructuralAnalysis,
    cut: &CertifiedCut,
    multipliers: &[(usize, f64)],
    shifts: &[GomoryShift],
) -> Result<(), (Code, String)> {
    let n = model.num_vars();
    let m = model.num_rows();

    // P0701: multiplier list shape.
    if multipliers.is_empty() {
        return Err((
            Code::GomoryMultipliersMalformed,
            "multiplier list is empty".to_string(),
        ));
    }
    if multipliers.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err((
            Code::GomoryMultipliersMalformed,
            "multiplier rows are not strictly ascending".to_string(),
        ));
    }
    for &(ri, v) in multipliers {
        if ri >= m {
            return Err((
                Code::GomoryMultipliersMalformed,
                format!("multiplier row r{ri} out of range"),
            ));
        }
        if !v.is_finite() {
            return Err((
                Code::GomoryMultipliersMalformed,
                format!("multiplier of r{ri} is not finite"),
            ));
        }
    }

    // Effective structural bounds: pristine model bounds with the
    // certified fixings applied in order, mirroring the cut loop. The
    // fixings themselves are audited separately by `check_milp_analysis`.
    let mut lb: Vec<f64> = (0..n)
        .map(|j| model.bounds(VarId::from_index(j)).0)
        .collect();
    let mut ub: Vec<f64> = (0..n)
        .map(|j| model.bounds(VarId::from_index(j)).1)
        .collect();
    for f in &analysis.fixings {
        if f.col < n {
            lb[f.col] = lb[f.col].max(f.value);
            ub[f.col] = ub[f.col].min(f.value);
        }
    }

    // Aggregated row over the extended columns (n structural + m
    // slacks): α = ρᵀ[A | I], β₀ = ρᵀb. Scattering multipliers in
    // ascending-row order accumulates each structural column's terms in
    // the same order the separator summed them.
    let mut alpha = vec![0.0f64; n + m];
    let mut beta = 0.0f64;
    for &(ri, v) in multipliers {
        let rid = RowId::from_index(ri);
        for &(var, a) in model.row_coeffs(rid) {
            alpha[var.index()] += v * a;
        }
        alpha[n + ri] = v;
        beta += v * model.row_rhs(rid);
    }
    if !beta.is_finite() {
        return Err((
            Code::GomoryMultipliersMalformed,
            "aggregated right-hand side is not finite".to_string(),
        ));
    }

    // P0702: shift list shape and completeness — every aggregated
    // column with a significant coefficient must carry a shift.
    if shifts.windows(2).any(|w| w[0].index >= w[1].index) {
        return Err((
            Code::GomoryShiftsMalformed,
            "shift indices are not strictly ascending".to_string(),
        ));
    }
    if let Some(s) = shifts.iter().find(|s| s.index >= n + m) {
        return Err((
            Code::GomoryShiftsMalformed,
            format!("shift index {} out of range", s.index),
        ));
    }
    let mut shifted = vec![false; n + m];
    for s in shifts {
        shifted[s.index] = true;
    }
    for (j, &a) in alpha.iter().enumerate() {
        if a.abs() > GMI_ALPHA_TOL && !shifted[j] {
            return Err((
                Code::GomoryShiftsMalformed,
                format!("aggregated column {j} (coefficient {a}) has no shift"),
            ));
        }
    }

    // Replay the shifts: move every listed column onto its recorded
    // bound side, re-deriving the bound value and integrality claim.
    let mut abar: Vec<f64> = Vec::with_capacity(shifts.len());
    for s in shifts {
        let a = alpha[s.index];
        let (lo, hi) = if s.index < n {
            (lb[s.index], ub[s.index])
        } else {
            // Slack bounds follow the row sense: `a·x + s = b` with
            // s ≥ 0 for ≤-rows, s ≤ 0 for ≥-rows, s = 0 for equalities.
            match model.row_sense(RowId::from_index(s.index - n)) {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            }
        };
        let bound = if s.upper { hi } else { lo };
        if !bound.is_finite() {
            return Err((
                Code::GomoryBoundUnusable,
                format!(
                    "shift of column {} onto its {} bound, which is not finite",
                    s.index,
                    if s.upper { "upper" } else { "lower" }
                ),
            ));
        }
        if s.integer {
            let provable = if s.index < n {
                model.var_kind(VarId::from_index(s.index)) == VarKind::Integer && gmi_is_int(bound)
            } else {
                gmi_row_integral(model, s.index - n)
            };
            if !provable {
                return Err((
                    Code::GomoryIntegralityUnproven,
                    format!("integer treatment of column {} is not provable", s.index),
                ));
            }
        }
        beta -= a * bound;
        abar.push(if s.upper { -a } else { a });
    }

    // P0705: the recombined fractional part must be usable.
    let f0 = beta - beta.floor();
    if !f0.is_finite() || !(1e-6..=1.0 - 1e-6).contains(&f0) {
        return Err((
            Code::GomoryFractionalityDegenerate,
            format!("recombined fractional part f0 = {f0} is degenerate"),
        ));
    }
    let one_minus = 1.0 - f0;

    // GMI rounding in the shifted space, then back-substitution to a
    // structural `≥` inequality — step for step the separator's own
    // derivation, but from independently re-derived data.
    let gamma: Vec<f64> = abar
        .iter()
        .zip(shifts)
        .map(|(&ab, s)| {
            if s.integer {
                let fj = ab - ab.floor();
                if fj <= f0 {
                    fj
                } else {
                    f0 * (1.0 - fj) / one_minus
                }
            } else if ab >= 0.0 {
                ab
            } else {
                -f0 * ab / one_minus
            }
        })
        .collect();
    let mut cx = vec![0.0f64; n];
    let mut r = f0;
    for (s, &g) in shifts.iter().zip(&gamma) {
        if g == 0.0 {
            continue;
        }
        if s.index < n {
            let bound = if s.upper { ub[s.index] } else { lb[s.index] };
            if s.upper {
                cx[s.index] -= g;
                r -= g * bound;
            } else {
                cx[s.index] += g;
                r += g * bound;
            }
        } else {
            let rid = RowId::from_index(s.index - n);
            let sign = if s.upper { 1.0 } else { -1.0 };
            for &(v, c) in model.row_coeffs(rid) {
                cx[v.index()] += sign * g * c;
            }
            r += sign * g * model.row_rhs(rid);
        }
    }

    // P0706: the shipped `≤` cut must match the negated re-derivation.
    let mut dense = vec![0.0f64; n];
    for &(j, c) in &cut.coeffs {
        if j >= n {
            return Err((
                Code::GomoryCutMismatch,
                format!("shipped coefficient column {j} out of range"),
            ));
        }
        dense[j] += c;
    }
    for (j, &c) in cx.iter().enumerate() {
        let want = -c;
        if (dense[j] - want).abs() > GMI_CMP_TOL * (1.0 + want.abs()) {
            return Err((
                Code::GomoryCutMismatch,
                format!(
                    "coefficient of x{j} is {} but re-derivation gives {want}",
                    dense[j]
                ),
            ));
        }
    }
    let want_rhs = -r;
    if (cut.rhs - want_rhs).abs() > GMI_CMP_TOL * (1.0 + want_rhs.abs()) {
        return Err((
            Code::GomoryCutMismatch,
            format!(
                "right-hand side is {} but re-derivation gives {want_rhs}",
                cut.rhs
            ),
        ));
    }
    Ok(())
}

/// Audit a certified cut pool against its model.
///
/// Clique cuts must equal their embedded clique's inequality (the clique
/// itself is re-verified; failures emit `P0503`), cover cuts must name
/// members whose literals genuinely exceed the witness row's capacity
/// with the cut matching the literal expansion (`P0504`), implication
/// cuts must expand a sound, independently replayed implication
/// (`P0506`), and Gomory cuts must survive the full certificate replay
/// of the Gomory audit (`P0701`–`P0706`).
pub fn check_certified_cuts(
    model: &Model,
    analysis: &StructuralAnalysis,
    cuts: &[CertifiedCut],
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for (ki, cut) in cuts.iter().enumerate() {
        match &cut.proof {
            CutProof::Clique { clique } => {
                for why in clique_failures(model, analysis, clique) {
                    diags.push(Diagnostic::new(
                        Code::CliqueEdgeUnjustified,
                        format!("cut #{ki}: {why}"),
                    ));
                }
                let want: Vec<(usize, f64)> = clique.members.iter().map(|&j| (j, 1.0)).collect();
                if cut.coeffs != want || cut.rhs != 1.0 {
                    diags.push(Diagnostic::new(
                        Code::CliqueEdgeUnjustified,
                        format!("cut #{ki}: coefficients differ from the clique inequality"),
                    ));
                }
            }
            CutProof::Cover { row, members } => {
                let mut fail = |why: String| {
                    diags.push(Diagnostic::new(
                        Code::CoverNotViolated,
                        format!("cut #{ki} (cover on r{row}): {why}"),
                    ));
                };
                if *row >= model.num_rows() {
                    fail("witness row out of range".to_string());
                    continue;
                }
                if members.is_empty() || members.windows(2).any(|w| w[0] >= w[1]) {
                    fail("members are not strictly ascending".to_string());
                    continue;
                }
                let rid = RowId::from_index(*row);
                let s = if model.row_sense(rid) == Sense::Ge {
                    -1.0
                } else {
                    1.0
                };
                let rhs = s * model.row_rhs(rid);
                // Re-derive: minimum activity of the whole row plus the
                // gain from forcing every member literal to 1 must exceed
                // the capacity.
                let mut base = 0.0f64;
                let mut gain = 0.0f64;
                let mut expansion: Vec<(usize, f64)> = Vec::new();
                let mut negs = 0usize;
                let mut bad = None;
                for &j in members {
                    if j >= model.num_vars() || !is_binary(model, j) {
                        bad = Some(format!("member x{j} is not a binary column"));
                        break;
                    }
                    let c = model
                        .row_coeffs(rid)
                        .iter()
                        .find(|&&(v, _)| v.index() == j)
                        .map(|&(_, a)| s * a)
                        .unwrap_or(0.0);
                    if c.abs() < 1e-9 {
                        bad = Some(format!("member x{j} has no term in the witness row"));
                        break;
                    }
                    gain += c.abs();
                    if c > 0.0 {
                        expansion.push((j, 1.0));
                    } else {
                        expansion.push((j, -1.0));
                        negs += 1;
                    }
                }
                if let Some(why) = bad {
                    fail(why);
                    continue;
                }
                for &(v, a) in model.row_coeffs(rid) {
                    let c = s * a;
                    let (l, u) = model.bounds(v);
                    base += if c > 0.0 { c * l } else { c * u };
                }
                if !base.is_finite() {
                    fail("witness row's minimum activity is unbounded".to_string());
                    continue;
                }
                if base + gain <= rhs + VIOL_TOL {
                    fail(format!(
                        "members at 1 reach activity {} ≤ rhs {}",
                        base + gain,
                        rhs
                    ));
                    continue;
                }
                let want_rhs = members.len() as f64 - 1.0 - negs as f64;
                if cut.coeffs != expansion || cut.rhs != want_rhs {
                    fail("cut differs from the members' literal expansion".to_string());
                }
            }
            CutProof::Implication { implication } => {
                let mut fail = |why: String| {
                    diags.push(Diagnostic::new(
                        Code::ImplicationCutMismatch,
                        format!(
                            "cut #{ki} (implication x{} = {} ⇒ x{} = {}): {why}",
                            implication.col,
                            implication.value as u8,
                            implication.target,
                            implication.target_value
                        ),
                    ));
                };
                if let Err(e) = implication_sound(model, implication) {
                    fail(e);
                    continue;
                }
                let (coeffs, rhs) = implication_expression(implication);
                if cut.coeffs != coeffs || cut.rhs != rhs {
                    fail("cut differs from the implication's linear expansion".to_string());
                }
            }
            CutProof::Gomory {
                multipliers,
                shifts,
            } => {
                if let Err((code, why)) = audit_gomory(model, analysis, cut, multipliers, shifts) {
                    diags.push(Diagnostic::new(code, format!("cut #{ki} (gomory): {why}")));
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_milp::analysis::{
        analyze, root_cut_loop, AnalysisConfig, CutLoopConfig, Fixing, Implication, PropStep,
    };
    use pipemap_milp::LinExpr;

    /// A set-packing model with symmetric binaries and a conflicting pair.
    fn packing_model() -> Model {
        let mut m = Model::new("packing");
        let x: Vec<VarId> = (0..4).map(|_| m.add_binary(-1.0)).collect();
        // x0 + x1 + x2 ≤ 1 (clique), x2 + x3 ≤ 1.
        m.add_constraint(
            LinExpr::term(1.0, x[0]) + LinExpr::term(1.0, x[1]) + LinExpr::term(1.0, x[2]),
            Sense::Le,
            1.0,
        );
        m.add_constraint(
            LinExpr::term(1.0, x[2]) + LinExpr::term(1.0, x[3]),
            Sense::Le,
            1.0,
        );
        m
    }

    #[test]
    fn genuine_analysis_is_clean() {
        let m = packing_model();
        let sa = analyze(&m, &AnalysisConfig::default());
        let diags = check_milp_analysis(&m, &sa);
        assert!(diags.is_empty(), "{}", diags.render_human("packing"));
        let out = root_cut_loop(&m, &sa, &CutLoopConfig::default(), None);
        let diags = check_certified_cuts(&m, &sa, &out.cuts);
        assert!(diags.is_empty(), "{}", diags.render_human("packing"));
    }

    #[test]
    fn genuine_fixing_replays() {
        // x0 = 1 forced: x0 ≥ 1 − x1 and x1 = 0 via x1 ≤ 0.
        let mut m = Model::new("forced");
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.add_constraint(LinExpr::term(1.0, b), Sense::Le, 0.0);
        m.add_constraint(
            LinExpr::term(1.0, a) + LinExpr::term(1.0, b),
            Sense::Ge,
            1.0,
        );
        let sa = analyze(&m, &AnalysisConfig::default());
        assert!(!sa.fixings.is_empty());
        let diags = check_milp_analysis(&m, &sa);
        assert!(diags.is_empty(), "{}", diags.render_human("forced"));
    }

    #[test]
    fn tampered_fixing_fires_p0501() {
        let m = packing_model();
        let mut sa = analyze(&m, &AnalysisConfig::default());
        // Claim x3 = 1 with a chain that derives nothing.
        sa.fixings.push(Fixing {
            col: 3,
            value: 1.0,
            chain: ProbeChain {
                col: 3,
                value: 0.0,
                steps: vec![],
            },
            conflict: Conflict::RowInfeasible { row: 0 },
        });
        let diags = check_milp_analysis(&m, &sa);
        assert!(diags.has_code(Code::FixingUnjustified));
    }

    #[test]
    fn tampered_implication_fires_p0502() {
        let m = packing_model();
        let mut sa = analyze(&m, &AnalysisConfig::default());
        sa.implications.push(Implication {
            col: 0,
            value: true,
            target: 3,
            target_value: 0.0,
            chain: ProbeChain {
                col: 0,
                value: 1.0,
                steps: vec![],
            },
        });
        let diags = check_milp_analysis(&m, &sa);
        assert!(diags.has_code(Code::ImplicationUnsound));
    }

    #[test]
    fn overstated_step_fires_p0501() {
        let mut m = Model::new("weak");
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        // x0 + x1 ≤ 2 implies nothing; a step claiming x1 ≤ 0 from it is
        // stronger than the row justifies.
        let r = m.add_constraint(
            LinExpr::term(1.0, a) + LinExpr::term(1.0, b),
            Sense::Le,
            2.0,
        );
        let mut sa = StructuralAnalysis::default();
        sa.fixings.push(Fixing {
            col: 1,
            value: 0.0,
            chain: ProbeChain {
                col: 1,
                value: 1.0,
                steps: vec![PropStep {
                    row: r.index(),
                    col: 0,
                    upper: true,
                    value: 0.0,
                }],
            },
            conflict: Conflict::BoundsCrossed { col: 0 },
        });
        let diags = check_milp_analysis(&m, &sa);
        assert!(diags.has_code(Code::FixingUnjustified));
    }

    #[test]
    fn tampered_clique_fires_p0503() {
        let m = packing_model();
        let mut sa = analyze(&m, &AnalysisConfig::default());
        // x0 and x3 never conflict; row 1 does not cover the pair.
        sa.cliques.push(Clique {
            members: vec![0, 3],
            edges: vec![(0, 3, EdgeWitness::Row { row: 1 })],
        });
        let diags = check_milp_analysis(&m, &sa);
        assert!(diags.has_code(Code::CliqueEdgeUnjustified));
    }

    #[test]
    fn bogus_cover_fires_p0504() {
        let m = packing_model();
        let sa = analyze(&m, &AnalysisConfig::default());
        // {x2} alone cannot exceed x2 + x3 ≤ 1.
        let cut = CertifiedCut {
            coeffs: vec![(2, 1.0)],
            rhs: 0.0,
            proof: CutProof::Cover {
                row: 1,
                members: vec![2],
            },
        };
        let diags = check_certified_cuts(&m, &sa, &[cut]);
        assert!(diags.has_code(Code::CoverNotViolated));
    }

    #[test]
    fn implication_cuts_audit_genuine_and_tampered_p0506() {
        let m = packing_model();
        let sa = analyze(&m, &AnalysisConfig::default());
        let imp = sa
            .implications
            .iter()
            .find(|i| i.value)
            .expect("probing x=1 in a packing row pins a neighbor");
        let (coeffs, rhs) = implication_expression(imp);
        let genuine = CertifiedCut {
            coeffs: coeffs.clone(),
            rhs,
            proof: CutProof::Implication {
                implication: imp.clone(),
            },
        };
        assert!(!check_certified_cuts(&m, &sa, &[genuine]).has_errors());

        // Claim the opposite consequent: the replay no longer pins it.
        let mut lied = imp.clone();
        lied.target_value = 1.0 - lied.target_value;
        let (coeffs, rhs) = implication_expression(&lied);
        let cut = CertifiedCut {
            coeffs,
            rhs,
            proof: CutProof::Implication { implication: lied },
        };
        let diags = check_certified_cuts(&m, &sa, &[cut]);
        assert!(diags.has_code(Code::ImplicationCutMismatch));
    }

    /// `min −x₂ s.t. 3x₁ + 2x₂ ≤ 6, −3x₁ + 2x₂ ≤ 0` over integers in
    /// [0, 3]: the LP optimum (1, 1.5) is fractional, so the cut loop
    /// ships Gomory cuts.
    fn gomory_model() -> Model {
        let mut m = Model::new("gmi");
        let x1 = m.add_integer(0.0, 3.0, 0.0);
        let x2 = m.add_integer(0.0, 3.0, -1.0);
        m.add_constraint(
            LinExpr::term(3.0, x1) + LinExpr::term(2.0, x2),
            Sense::Le,
            6.0,
        );
        m.add_constraint(
            LinExpr::term(-3.0, x1) + LinExpr::term(2.0, x2),
            Sense::Le,
            0.0,
        );
        m
    }

    fn gomory_cuts(m: &Model) -> (StructuralAnalysis, Vec<CertifiedCut>, usize) {
        let sa = analyze(m, &AnalysisConfig::default());
        let out = root_cut_loop(
            m,
            &sa,
            &CutLoopConfig {
                gomory: true,
                ..CutLoopConfig::default()
            },
            None,
        );
        let gi = out
            .cuts
            .iter()
            .position(|c| matches!(c.proof, CutProof::Gomory { .. }))
            .expect("cut loop ships a gomory cut");
        (sa, out.cuts, gi)
    }

    #[test]
    fn genuine_gomory_certificates_audit_clean() {
        let m = gomory_model();
        let (sa, cuts, _) = gomory_cuts(&m);
        let diags = check_certified_cuts(&m, &sa, &cuts);
        assert!(diags.is_empty(), "{}", diags.render_human("gomory"));
    }

    #[test]
    fn tampered_gomory_multipliers_fire_p0701() {
        let m = gomory_model();
        let (sa, mut cuts, gi) = gomory_cuts(&m);
        if let CutProof::Gomory { multipliers, .. } = &mut cuts[gi].proof {
            multipliers.push((1000, 0.5));
        }
        let diags = check_certified_cuts(&m, &sa, &cuts);
        assert!(diags.has_code(Code::GomoryMultipliersMalformed));
    }

    #[test]
    fn missing_gomory_shift_fires_p0702() {
        let m = gomory_model();
        let (sa, mut cuts, gi) = gomory_cuts(&m);
        if let CutProof::Gomory { shifts, .. } = &mut cuts[gi].proof {
            shifts.clear();
        }
        let diags = check_certified_cuts(&m, &sa, &cuts);
        assert!(diags.has_code(Code::GomoryShiftsMalformed));
    }

    #[test]
    fn tampered_gomory_rhs_fires_p0706() {
        let m = gomory_model();
        let (sa, mut cuts, gi) = gomory_cuts(&m);
        cuts[gi].rhs += 0.5;
        let diags = check_certified_cuts(&m, &sa, &cuts);
        assert!(diags.has_code(Code::GomoryCutMismatch));
    }

    #[test]
    fn tampered_gomory_shift_side_fires_p0703() {
        let m = gomory_model();
        let n = m.num_vars();
        let (sa, mut cuts, gi) = gomory_cuts(&m);
        if let CutProof::Gomory { shifts, .. } = &mut cuts[gi].proof {
            // A `≤`-row slack lives in [0, ∞): pointing its shift at the
            // upper bound references +∞, which no replay can use.
            let s = shifts
                .iter_mut()
                .find(|s| s.index >= n)
                .expect("an aggregated slack is shifted");
            assert!(!s.upper);
            s.upper = true;
        }
        let diags = check_certified_cuts(&m, &sa, &cuts);
        assert!(
            diags.has_code(Code::GomoryBoundUnusable),
            "{}",
            diags.render_human("gomory")
        );
    }

    #[test]
    fn bogus_gomory_integer_claim_fires_p0704() {
        // One integer column, one continuous: the shipped certificate
        // must mark the continuous column's shift non-integer, and
        // claiming otherwise is caught.
        let mut m = Model::new("mixed");
        let x = m.add_integer(0.0, 10.0, -3.0);
        let y = m.add_continuous(0.0, 10.0, -1.0);
        m.add_constraint(
            LinExpr::term(2.0, x) + LinExpr::term(1.0, y),
            Sense::Le,
            7.0,
        );
        let (sa, mut cuts, gi) = gomory_cuts(&m);
        assert!(check_certified_cuts(&m, &sa, &cuts).is_empty());
        if let CutProof::Gomory { shifts, .. } = &mut cuts[gi].proof {
            let s = shifts
                .iter_mut()
                .find(|s| s.index == y.index())
                .expect("continuous column is shifted");
            assert!(!s.integer);
            s.integer = true;
        }
        let diags = check_certified_cuts(&m, &sa, &cuts);
        assert!(diags.has_code(Code::GomoryIntegralityUnproven));
        let _ = x;
    }
}
