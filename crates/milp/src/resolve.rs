//! Incremental re-solve: an editable model that remembers its last
//! result.
//!
//! [`ResolveContext`] wraps a [`Model`] and keeps the result of its last
//! solve — nothing else. The next solve uses that result in one of two
//! ways:
//!
//! - **cached proof**: when no edit changed the model since and the prior
//!   status is proved (optimal, infeasible or unbounded), the result is
//!   returned without touching the solver;
//! - **incumbent seed**: otherwise the prior assignment, when there is
//!   one, enters the next solve as its starting incumbent. The solver
//!   re-validates it against the edited model and drops it when an edit
//!   made it infeasible.
//!
//! No solver state — basis, LU factors, search tree — moves between
//! solves: presolve rewrites the scheduling models, so a basis saved in
//! one solve's index space would not fit the next. Edits are bound,
//! objective and integrality changes; setting a value the model already
//! has is not an edit, so a caller replaying an unchanged query gets the
//! cached proof.
//!
//! Context solves run the caller's options as given: a context solve,
//! its audit and a plain [`Model::solve`] all run the same solver. The
//! determinism contract is inherited from the solver: a context solve
//! returns the status and objective of a from-scratch solve of the
//! edited model with the same options, which [`ResolveContext::audit`]
//! re-checks on demand.

use pipemap_obs as obs;

use crate::model::{Model, VarId, VarKind};
use crate::{MilpError, MilpResult, SolverOptions, Status};

/// How the context's solves were served. `cached_results`,
/// `incumbent_seeds` and `cold_solves` count disjoint classes; a solve
/// whose caller passed its own `initial_solution` is in none of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Solves dispatched through the context (cached returns included).
    pub solves: usize,
    /// Solves answered from the cached result without touching the
    /// solver (unedited model, proved status).
    pub cached_results: usize,
    /// Solves that ran with no incumbent from the context or the caller.
    pub cold_solves: usize,
    /// Solves that carried the prior solution in as a starting incumbent.
    pub incumbent_seeds: usize,
    /// Always 0: a context carries no basis between solves. Kept for
    /// readers that report it.
    pub warm_hits: usize,
}

impl ResolveStats {
    /// Accumulate another context's counters into this one — for
    /// harnesses that drive several contexts (one per structural sweep
    /// point) and report a single set of totals.
    pub fn merge(&mut self, other: &ResolveStats) {
        self.solves += other.solves;
        self.cached_results += other.cached_results;
        self.cold_solves += other.cold_solves;
        self.incumbent_seeds += other.incumbent_seeds;
        self.warm_hits += other.warm_hits;
    }
}

/// Outcome of [`ResolveContext::audit`]: the incremental result checked
/// against a from-scratch solve of the identical model and options.
///
/// A seeded re-solve starts from the prior assignment, which can be a
/// *different member* of a set of tied optima than the one a cold search
/// finds, and the seed can win the tie. That divergence is benign (both
/// assignments are feasible points of the identical model with the
/// identical objective) and is reported as
/// [`ResolveAudit::tied_optima`] rather than a failure;
/// what the engine guarantees — and [`ResolveAudit::ok`] enforces — is
/// that status and objective are indistinguishable from a from-scratch
/// solve and the returned assignment is genuinely feasible.
#[derive(Debug, Clone)]
pub struct ResolveAudit {
    /// Statuses agree, or differ only because one side proved optimality
    /// while the other stopped at a time/node limit with the same
    /// incumbent objective (a budget artifact, not a divergence).
    pub status_match: bool,
    /// Objectives agree to `1e-6` (or are both non-finite). When both
    /// searches stopped at their budget ([`ResolveAudit::budget_capped`])
    /// neither objective is the optimum and the comparison does not bind:
    /// the incumbents are artifacts of what each budget bought, so this
    /// reports `true` as long as both assignments re-verify feasible.
    pub objective_match: bool,
    /// Both searches hit their time/node budget: the determinism
    /// contract binds completed searches, so objective and assignment
    /// comparisons degrade to feasibility checks on this audit.
    pub budget_capped: bool,
    /// Returned assignments agree element-wise to `1e-6`.
    pub values_match: bool,
    /// Assignments differ but both re-verify as feasible points of the
    /// model: two members of a tied optimal set (matching objectives),
    /// or two budget-capped incumbents — not a soundness failure.
    pub tied_optima: bool,
    /// The from-scratch result the context was checked against.
    pub cold: MilpResult,
}

impl ResolveAudit {
    /// `true` when the incremental solve is indistinguishable from cold
    /// up to tied optima: same status, same objective, and — when the
    /// assignments differ — both independently re-verified feasible.
    pub fn ok(&self) -> bool {
        self.status_match && self.objective_match && (self.values_match || self.tied_optima)
    }
}

/// An editable MILP model whose solves reuse the previous solve's result:
/// as a cached proof when nothing changed, else as an incumbent seed. See
/// the module docs.
#[derive(Debug)]
pub struct ResolveContext {
    base: Model,
    model: Model,
    /// The last solve's result.
    saved: Option<MilpResult>,
    /// An edit changed the model since the last solve.
    edited: bool,
    stats: ResolveStats,
}

impl ResolveContext {
    /// Wrap a model for incremental re-solving. The model is also kept
    /// as the *base* snapshot that [`ResolveContext::restore_bounds`]
    /// and friends roll edits back to.
    pub fn new(model: Model) -> Self {
        ResolveContext {
            base: model.clone(),
            model,
            saved: None,
            edited: false,
            stats: ResolveStats::default(),
        }
    }

    /// The current (edited) model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Result of the most recent solve, if any.
    pub fn last_result(&self) -> Option<&MilpResult> {
        self.saved.as_ref()
    }

    /// Counters accumulated over this context's lifetime.
    pub fn stats(&self) -> ResolveStats {
        self.stats
    }

    // --- edits -----------------------------------------------------------

    /// Change a variable's bounds.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        if self.model.bounds(v) != (lb, ub) {
            self.model.set_bounds(v, lb, ub);
            self.edited = true;
        }
    }

    /// Change a variable's objective weight.
    pub fn set_objective_coeff(&mut self, v: VarId, obj: f64) {
        if self.model.objective_coeff(v) != obj {
            self.model.set_objective_coeff(v, obj);
            self.edited = true;
        }
    }

    /// Make an integer variable continuous.
    pub fn relax_integrality(&mut self, v: VarId) {
        if self.model.var_kind(v) != VarKind::Continuous {
            self.model.relax_integrality(v);
            self.edited = true;
        }
    }

    /// Roll every variable's bounds back to the base snapshot.
    pub fn restore_bounds(&mut self) {
        for j in 0..self.base.num_vars() {
            let v = VarId::from_index(j);
            let (lb, ub) = self.base.bounds(v);
            self.set_bounds(v, lb, ub);
        }
    }

    /// Roll every variable's objective weight back to the base snapshot.
    pub fn restore_objective(&mut self) {
        for j in 0..self.base.num_vars() {
            let v = VarId::from_index(j);
            self.set_objective_coeff(v, self.base.objective_coeff(v));
        }
    }

    /// Roll every variable's kind back to the base snapshot.
    pub fn restore_kinds(&mut self) {
        for j in 0..self.base.num_vars() {
            let v = VarId::from_index(j);
            let want = self.base.var_kind(v);
            if self.model.var_kind(v) != want {
                self.model.set_var_kind(v, want);
                self.edited = true;
            }
        }
    }

    // --- solving ---------------------------------------------------------

    /// Solve the current model: return the cached result when it still
    /// answers the query, else solve with the prior assignment as the
    /// starting incumbent (see the module docs).
    ///
    /// # Errors
    ///
    /// [`MilpError`] only on unrecoverable numerical failure, exactly as
    /// [`Model::solve`]; the edited model is kept.
    pub fn solve(&mut self, opts: &SolverOptions) -> Result<MilpResult, MilpError> {
        let span = obs::enabled().then(|| obs::span("resolve-solve"));
        self.stats.solves += 1;

        // A proved status is a fact about the unedited model.
        if let Some(r) = self.saved.as_ref().filter(|r| {
            !self.edited
                && matches!(
                    r.status,
                    Status::Optimal | Status::Infeasible | Status::Unbounded
                )
        }) {
            self.stats.cached_results += 1;
            obs::instant("resolve-cached");
            Self::emit_stats(&self.stats);
            drop(span);
            return Ok(r.clone());
        }

        let mut ropts = opts.clone();
        if ropts.initial_solution.is_none() {
            match &self.saved {
                Some(r) if r.status.has_solution() => {
                    ropts.initial_solution = Some(r.values.clone());
                    self.stats.incumbent_seeds += 1;
                }
                _ => self.stats.cold_solves += 1,
            }
        }
        self.saved = None;
        self.edited = false;
        let result = self.model.solve(&ropts);
        drop(span);
        let result = result?;
        self.saved = Some(result.clone());
        Self::emit_stats(&self.stats);
        Ok(result)
    }

    /// Emit the cumulative counters as a `resolve-stats` instant so the
    /// flight recorder can report how solves were served (cached /
    /// incumbent-seeded / cold) without access to the context.
    fn emit_stats(s: &ResolveStats) {
        if !obs::enabled() {
            return;
        }
        obs::instant_with(
            "resolve-stats",
            vec![
                ("solves", s.solves.into()),
                ("cached_results", s.cached_results.into()),
                ("cold_solves", s.cold_solves.into()),
                ("incumbent_seeds", s.incumbent_seeds.into()),
            ],
        );
    }

    /// Re-check the last incremental result against a from-scratch solve
    /// of the identical model and options. Expensive — this is
    /// the verification path, not the fast path.
    ///
    /// # Errors
    ///
    /// [`MilpError`] if the from-scratch solve itself fails numerically.
    ///
    /// # Panics
    ///
    /// Panics if no solve has completed on this context yet.
    pub fn audit(&self, opts: &SolverOptions) -> Result<ResolveAudit, MilpError> {
        let last = self
            .saved
            .as_ref()
            .expect("audit requires a completed solve");
        let cold = self.model.solve(opts)?;
        let objs_eq = (last.objective - cold.objective).abs() <= 1e-6
            || (!last.objective.is_finite()
                && !cold.objective.is_finite()
                && last.objective == cold.objective);
        let vals_eq = last.values.len() == cold.values.len()
            && last
                .values
                .iter()
                .zip(&cold.values)
                .all(|(a, b)| (a - b).abs() <= 1e-6);
        // One side proving optimality while the other stops at a limit with
        // the same incumbent objective is a budget artifact of the audit's
        // cold comparator, not a correctness divergence.
        let limit_hit = |s: Status| matches!(s, Status::TimedOut | Status::Feasible);
        let status_eq = last.status == cold.status
            || (objs_eq
                && ((last.status == Status::Optimal && limit_hit(cold.status))
                    || (cold.status == Status::Optimal && limit_hit(last.status))));
        // When *both* searches hit their budget neither objective is the
        // optimum — the incumbents are artifacts of what each budget
        // bought (the warm side inherits the prior point's incumbent, the
        // cold side starts empty), so the comparison degrades to
        // feasibility: accept as long as both assignments re-verify.
        let both_capped = limit_hit(last.status) && limit_hit(cold.status);
        // Divergent assignments are only acceptable when both re-verify as
        // feasible points of the model: tied optima on completed
        // searches, arbitrary incumbents on budget-capped ones.
        let both_feasible = !last.status.has_solution()
            || (self.model.check_feasible(&last.values, 1e-6).is_none()
                && self.model.check_feasible(&cold.values, 1e-6).is_none());
        let tied = !vals_eq && (objs_eq || both_capped) && status_eq && both_feasible;
        Ok(ResolveAudit {
            status_match: status_eq,
            objective_match: objs_eq || (both_capped && both_feasible),
            budget_capped: both_capped,
            values_match: vals_eq,
            tied_optima: tied,
            cold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    fn knapsack() -> Model {
        let mut m = Model::new("knap");
        let a = m.add_binary(-5.0);
        let b = m.add_binary(-4.0);
        let c = m.add_binary(-3.0);
        let mut w = LinExpr::new();
        w.add_term(2.0, a);
        w.add_term(3.0, b);
        w.add_term(1.0, c);
        m.add_constraint(w, Sense::Le, 3.0);
        m
    }

    /// Duplicated items make interchangeable columns, and the fractional
    /// root needs a search tree.
    fn twin_knapsack() -> Model {
        let mut m = Model::new("twins");
        let mut w = LinExpr::new();
        for (value, weight) in [
            (10.0, 4.0),
            (10.0, 4.0),
            (10.0, 4.0),
            (7.0, 3.0),
            (7.0, 3.0),
        ] {
            w.add_term(weight, m.add_binary(-value));
        }
        m.add_constraint(w, Sense::Le, 10.0);
        m
    }

    #[test]
    fn first_context_solve_equals_a_plain_solve() {
        let m = twin_knapsack();
        let opts = SolverOptions::default();
        let plain = m.solve(&opts).unwrap();
        let first = ResolveContext::new(m).solve(&opts).unwrap();
        assert_eq!(first.status, plain.status);
        assert_eq!(first.objective, plain.objective);
        assert_eq!(first.values, plain.values);
        assert_eq!(first.nodes, plain.nodes);
        assert_eq!(first.lp_iterations, plain.lp_iterations);
        let (mut a, mut b) = (first.stats, plain.stats);
        a.convergence.clear();
        b.convergence.clear();
        assert_eq!(a, b);
        assert!(plain.nodes > 1, "the model needs a search tree");
    }

    #[test]
    fn cached_result_on_unedited_resolve() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        let r1 = cx.solve(&opts).unwrap();
        assert_eq!(r1.status, Status::Optimal);
        let r2 = cx.solve(&opts).unwrap();
        assert_eq!(r2.objective, r1.objective);
        assert_eq!(cx.stats().cached_results, 1);
    }

    #[test]
    fn objective_delta_matches_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        cx.solve(&opts).unwrap();
        cx.set_objective_coeff(VarId::from_index(1), -9.0);
        let inc = cx.solve(&opts).unwrap();
        let audit = cx.audit(&opts).unwrap();
        assert!(audit.ok(), "incremental {inc:?} vs cold {:?}", audit.cold);
        assert_eq!(cx.stats().incumbent_seeds, 1);
    }

    #[test]
    fn bound_delta_matches_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        let r1 = cx.solve(&opts).unwrap();
        assert_eq!(r1.objective.round(), -8.0); // a + c
        cx.set_bounds(VarId::from_index(0), 0.0, 0.0); // forbid a
        let r2 = cx.solve(&opts).unwrap();
        assert_eq!(r2.objective.round(), -4.0); // b (b + c exceeds capacity)
        assert!(cx.audit(&opts).unwrap().ok());
        // Roll back and get the original answer again.
        cx.restore_bounds();
        let r3 = cx.solve(&opts).unwrap();
        assert_eq!(r3.objective.round(), -8.0);
    }

    #[test]
    fn integrality_toggle_matches_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        cx.solve(&opts).unwrap();
        cx.relax_integrality(VarId::from_index(1));
        let r = cx.solve(&opts).unwrap();
        assert!(cx.audit(&opts).unwrap().ok());
        // a + c already fill the capacity exactly; relaxing b changes
        // nothing, which is exactly what must round-trip.
        assert_eq!(r.objective.round(), -8.0);
        cx.restore_kinds();
        let r2 = cx.solve(&opts).unwrap();
        assert_eq!(r2.objective.round(), -8.0);
    }
}
