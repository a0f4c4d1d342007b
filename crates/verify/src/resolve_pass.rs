//! P08xx: incremental re-solve audit.
//!
//! The re-solve engine ([`pipemap_milp::ResolveContext`]) promises that
//! an incrementally re-optimized model is indistinguishable — in status
//! and objective — from throwing the edited model at the solver cold,
//! and that whatever assignment it returns is a genuine feasible point.
//! This pass confronts a context with that promise from the outside:
//!
//! * the last incremental result is re-checked against a from-scratch
//!   solve of the *identical* model and options
//!   ([`ResolveContext::audit`]), reporting status, objective, and
//!   assignment divergences as diagnostics instead of booleans;
//! * the incremental assignment is independently re-verified against
//!   the context's current model (row feasibility and integrality),
//!   without trusting the audit's own feasibility check;
//! * the counters are checked for internal consistency, since a
//!   miscounting harness would silently misreport how solves were served
//!   in benchmark artifacts.

use pipemap_milp::{MilpError, ResolveContext, SolverOptions, VarId, VarKind};

use crate::diag::{Code, Diagnostic, Diagnostics};

/// Integrality tolerance for the independent assignment recheck (same
/// as the solver's own).
const INT_TOL: f64 = 1e-6;

/// Audit a re-solve context's last result against a fresh solve and the
/// engine's own bookkeeping (`P08xx`). A context that has not solved
/// anything yet yields no diagnostics.
///
/// The from-scratch comparator re-solves the context's current model,
/// so this pass costs another full MILP solve — it is a verification
/// path, not something to run per sweep point in production.
///
/// # Errors
///
/// Propagates [`MilpError`] when the comparator solve itself fails
/// numerically; that is an infrastructure failure, not a finding.
pub fn check_resolve(cx: &ResolveContext, opts: &SolverOptions) -> Result<Diagnostics, MilpError> {
    let mut diags = Diagnostics::new();
    let Some(last) = cx.last_result() else {
        return Ok(diags);
    };
    let last = last.clone();

    // Independent feasibility/integrality recheck of the incremental
    // assignment against the *current* model (not the audit's copy of
    // the logic — a bug there must not hide a bad assignment here).
    if last.status.has_solution() {
        let model = cx.model();
        if last.values.len() != model.num_vars() {
            diags.push(Diagnostic::new(
                Code::ResolveAssignmentInvalid,
                format!(
                    "incremental assignment has {} values for a model with {} columns",
                    last.values.len(),
                    model.num_vars()
                ),
            ));
        } else {
            if let Some(row) = model.check_feasible(&last.values, INT_TOL) {
                diags.push(Diagnostic::new(
                    Code::ResolveAssignmentInvalid,
                    format!("incremental assignment violates row/bound #{}", row.index()),
                ));
            }
            for j in 0..model.num_vars() {
                let v = VarId::from_index(j);
                if model.var_kind(v) == VarKind::Integer {
                    let x = last.values[j];
                    if (x - x.round()).abs() > INT_TOL {
                        diags.push(Diagnostic::new(
                            Code::ResolveAssignmentInvalid,
                            format!("integer column x{j} holds fractional value {x}"),
                        ));
                        break;
                    }
                }
            }
        }
    }

    // From-scratch comparison on the identical model and options.
    let audit = cx.audit(opts)?;
    if !audit.status_match {
        diags.push(Diagnostic::new(
            Code::ResolveStatusDiverged,
            format!(
                "incremental status {} vs from-scratch {}",
                last.status, audit.cold.status
            ),
        ));
    }
    if !audit.objective_match {
        diags.push(Diagnostic::new(
            Code::ResolveObjectiveDiverged,
            format!(
                "incremental objective {} vs from-scratch {}",
                last.objective, audit.cold.objective
            ),
        ));
    }
    if !audit.values_match && !audit.tied_optima && audit.objective_match && audit.status_match {
        // Status and objective agree, yet the assignments differ and at
        // least one failed the tied-optima feasibility re-verification.
        diags.push(Diagnostic::new(
            Code::ResolveAssignmentInvalid,
            "assignments diverge and do not re-verify as tied optima",
        ));
    }
    if audit.tied_optima {
        diags.push(Diagnostic::new(
            Code::ResolveTiedOptima,
            if audit.budget_capped {
                "both searches stopped at their budget with different feasible \
                 incumbents (objectives incomparable, both re-verified)"
            } else {
                "incremental and from-scratch solves returned different members \
                 of a tied optimal set (both re-verified feasible)"
            },
        ));
    }

    // Counter consistency: cached, incumbent-seeded and cold solves are
    // disjoint classes (a caller-seeded solve is in none of them), so
    // together they never exceed the solves dispatched.
    let s = cx.stats();
    let classified = s.cached_results + s.incumbent_seeds + s.cold_solves;
    if classified > s.solves {
        diags.push(Diagnostic::new(
            Code::ResolveStatsInconsistent,
            format!(
                "cached_results {} + incumbent_seeds {} + cold_solves {} exceed total solves {}",
                s.cached_results, s.incumbent_seeds, s.cold_solves, s.solves
            ),
        ));
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_milp::{LinExpr, Model, Sense};

    fn knapsack() -> Model {
        // max 5a + 4b + 3c s.t. 2a + 3b + 4c <= 5, binary.
        let mut m = Model::new("vknap");
        let a = m.add_binary(-5.0);
        let b = m.add_binary(-4.0);
        let c = m.add_binary(-3.0);
        m.add_constraint(
            LinExpr::from(a) * 2.0 + LinExpr::from(b) * 3.0 + LinExpr::from(c) * 4.0,
            Sense::Le,
            5.0,
        );
        m
    }

    #[test]
    fn clean_context_yields_no_diagnostics() {
        let opts = SolverOptions::default();
        let mut cx = ResolveContext::new(knapsack());
        cx.solve(&opts).unwrap();
        // Walk an edit and a re-solve, then audit the final state.
        cx.set_objective_coeff(VarId::from_index(2), -6.0);
        cx.solve(&opts).unwrap();
        let diags = check_resolve(&cx, &opts).unwrap();
        assert!(!diags.has_errors(), "{diags:?}");
    }

    /// A solve whose caller passes its own starting incumbent is neither
    /// seeded by the context nor cold — every decompose refinement solve
    /// looks like this — and must not read as a bookkeeping error.
    #[test]
    fn caller_seeded_context_yields_no_errors() {
        let opts = SolverOptions {
            initial_solution: Some(vec![1.0, 1.0, 0.0]),
            ..SolverOptions::default()
        };
        let mut cx = ResolveContext::new(knapsack());
        cx.solve(&opts).unwrap();
        let s = cx.stats();
        assert_eq!(
            (s.solves, s.cold_solves, s.incumbent_seeds, s.cached_results),
            (1, 0, 0, 0)
        );
        let diags = check_resolve(&cx, &opts).unwrap();
        assert!(!diags.has_errors(), "{diags:?}");
    }

    #[test]
    fn unsolved_context_is_silent() {
        let cx = ResolveContext::new(knapsack());
        let diags = check_resolve(&cx, &SolverOptions::default()).unwrap();
        assert!(diags.is_empty());
    }
}
