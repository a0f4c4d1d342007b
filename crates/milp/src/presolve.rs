//! Presolve: shrink a model before the root LP solve.
//!
//! The scheduling MILPs the paper's formulation emits are full of
//! structure a solver can exploit *before* simplex ever runs: singleton
//! rows that are really just bounds, variables whose bounds cross into a
//! fixed point, rows made redundant by activity bounds, and `≤`-rows over
//! binaries whose coefficients can be strengthened without changing the
//! integer-feasible set. Every reduction here preserves the set of
//! mixed-integer feasible points exactly (LP-only points may be cut — that
//! is the point of coefficient strengthening), so the reduced model's
//! optimum maps back to the original via [`Reduction::restore`].

use crate::model::{LinExpr, Model, Sense, VarId, VarKind};
use crate::SolverStats;

/// Tolerance below which a bound improvement is not worth recording.
const TIGHTEN_TOL: f64 = 1e-7;
/// Violations larger than this prove infeasibility.
const INFEAS_TOL: f64 = 1e-6;
/// Maximum fixpoint rounds.
const MAX_ROUNDS: usize = 10;

/// Outcome of presolving a model.
#[derive(Debug)]
pub(crate) enum PresolveOutcome {
    /// The model shrank (possibly by nothing); solve the reduction.
    Reduced(Box<Reduction>),
    /// Presolve proved the model has no mixed-integer feasible point.
    Infeasible,
}

/// A presolved model plus the bookkeeping to map solutions back.
#[derive(Debug, Clone)]
pub(crate) struct Reduction {
    /// The reduced model (same objective up to [`Reduction::obj_offset`]).
    pub model: Model,
    /// Constant objective contribution of the fixed variables.
    pub obj_offset: f64,
    /// Old column index → reduced column index (`None` when fixed).
    keep: Vec<Option<usize>>,
    /// Old column index → fixed value (meaningful where `keep` is `None`).
    fixed_vals: Vec<f64>,
    /// Reduction counters (folded into [`SolverStats`]).
    pub rows_removed: usize,
    /// Number of variables substituted out.
    pub cols_fixed: usize,
    /// Number of bound tightenings applied.
    pub bounds_tightened: usize,
    /// Number of coefficients strengthened.
    pub coeffs_reduced: usize,
}

impl Reduction {
    /// Expand a reduced-space assignment to the original column space.
    pub fn restore(&self, reduced: &[f64]) -> Vec<f64> {
        self.keep
            .iter()
            .enumerate()
            .map(|(old, k)| match k {
                Some(new) => reduced[*new],
                None => self.fixed_vals[old],
            })
            .collect()
    }

    /// Project an original-space assignment into the reduced space;
    /// `None` when it disagrees with a fixed variable (the point is not
    /// feasible in the reduction).
    pub fn project(&self, original: &[f64]) -> Option<Vec<f64>> {
        let mut out = vec![0.0; self.model.num_vars()];
        for (old, k) in self.keep.iter().enumerate() {
            match k {
                Some(new) => out[*new] = original[old],
                None => {
                    if (original[old] - self.fixed_vals[old]).abs() > 1e-6 {
                        return None;
                    }
                }
            }
        }
        Some(out)
    }

    /// Fold the reduction counters into a [`SolverStats`].
    pub fn fill_stats(&self, stats: &mut SolverStats) {
        stats.presolve_rows_removed = self.rows_removed;
        stats.presolve_cols_fixed = self.cols_fixed;
        stats.presolve_bounds_tightened = self.bounds_tightened;
        stats.presolve_coeffs_reduced = self.coeffs_reduced;
    }
}

/// The identity reduction: presolve disabled.
pub(crate) fn identity(model: &Model) -> Reduction {
    Reduction {
        model: model.clone(),
        obj_offset: 0.0,
        keep: (0..model.num_vars()).map(Some).collect(),
        fixed_vals: vec![0.0; model.num_vars()],
        rows_removed: 0,
        cols_fixed: 0,
        bounds_tightened: 0,
        coeffs_reduced: 0,
    }
}

#[derive(Debug, Clone)]
struct WCol {
    lb: f64,
    ub: f64,
    obj: f64,
    kind: VarKind,
    fixed: bool,
}

#[derive(Debug, Clone)]
struct WRow {
    coeffs: Vec<(usize, f64)>,
    sense: Sense,
    rhs: f64,
    alive: bool,
}

/// Activity bounds of a row's terms, excluding column `skip` (pass
/// `usize::MAX` to include everything). Returns `(min, max)`; infinite
/// when an unbounded variable participates.
fn activity(row: &WRow, cols: &[WCol], skip: usize) -> (f64, f64) {
    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    for &(j, a) in &row.coeffs {
        if j == skip {
            continue;
        }
        let c = &cols[j];
        if a > 0.0 {
            lo += a * c.lb;
            hi += a * c.ub;
        } else {
            lo += a * c.ub;
            hi += a * c.lb;
        }
    }
    (lo, hi)
}

/// Presolve `model`. Reductions iterate to a fixpoint (bounded rounds);
/// the result is deterministic — same model in, same reduction out — which
/// the parallel search's determinism contract relies on.
pub(crate) fn presolve(model: &Model) -> PresolveOutcome {
    let n = model.num_vars();
    let mut cols: Vec<WCol> = model
        .cols
        .iter()
        .map(|c| WCol {
            lb: c.lb,
            ub: c.ub,
            obj: c.obj,
            kind: c.kind,
            fixed: false,
        })
        .collect();
    let mut rows: Vec<WRow> = model
        .rows
        .iter()
        .map(|r| WRow {
            coeffs: r.coeffs.iter().map(|&(v, a)| (v.index(), a)).collect(),
            sense: r.sense,
            rhs: r.rhs,
            alive: true,
        })
        .collect();

    let mut rows_removed = 0usize;
    let mut bounds_tightened = 0usize;
    let mut coeffs_reduced = 0usize;

    // Round integer bounds inward once up front.
    for c in cols.iter_mut() {
        if c.kind == VarKind::Integer {
            let lb = (c.lb - 1e-6).ceil();
            let ub = (c.ub + 1e-6).floor();
            if lb > c.lb + 1e-9 || ub < c.ub - 1e-9 {
                bounds_tightened += 1;
            }
            if lb > ub + 1e-9 {
                return PresolveOutcome::Infeasible;
            }
            c.lb = lb;
            c.ub = ub;
        }
    }

    for _round in 0..MAX_ROUNDS {
        let mut changed = false;

        for r in rows.iter_mut() {
            if !r.alive {
                continue;
            }
            // Drop terms on fixed columns (substituted into the rhs).
            let mut rhs = r.rhs;
            r.coeffs.retain(|&(j, a)| {
                if cols[j].fixed {
                    rhs -= a * cols[j].lb;
                    false
                } else {
                    true
                }
            });
            r.rhs = rhs;

            // Constant row: consistency check, then remove.
            if r.coeffs.is_empty() {
                let ok = match r.sense {
                    Sense::Le => 0.0 <= rhs + INFEAS_TOL,
                    Sense::Ge => 0.0 >= rhs - INFEAS_TOL,
                    Sense::Eq => rhs.abs() <= INFEAS_TOL,
                };
                if !ok {
                    return PresolveOutcome::Infeasible;
                }
                r.alive = false;
                rows_removed += 1;
                changed = true;
                continue;
            }

            // Singleton row: fold into the variable's bounds.
            if r.coeffs.len() == 1 {
                let (j, a) = r.coeffs[0];
                if a.abs() > 1e-9 {
                    let v = rhs / a;
                    let (mut new_lb, mut new_ub) = (cols[j].lb, cols[j].ub);
                    match (r.sense, a > 0.0) {
                        (Sense::Le, true) | (Sense::Ge, false) => new_ub = new_ub.min(v),
                        (Sense::Le, false) | (Sense::Ge, true) => new_lb = new_lb.max(v),
                        (Sense::Eq, _) => {
                            new_lb = new_lb.max(v);
                            new_ub = new_ub.min(v);
                        }
                    }
                    if cols[j].kind == VarKind::Integer {
                        if new_lb.is_finite() {
                            new_lb = (new_lb - 1e-6).ceil();
                        }
                        if new_ub.is_finite() {
                            new_ub = (new_ub + 1e-6).floor();
                        }
                    }
                    if tighten(&mut cols[j], new_lb, new_ub, &mut bounds_tightened) {
                        changed = true;
                    }
                    if cols[j].lb > cols[j].ub + INFEAS_TOL {
                        return PresolveOutcome::Infeasible;
                    }
                    r.alive = false;
                    rows_removed += 1;
                    continue;
                }
            }

            let (minact, maxact) = activity(r, &cols, usize::MAX);

            // Redundancy / infeasibility by activity bounds.
            let (redundant, infeasible) = match r.sense {
                Sense::Le => (maxact <= rhs + TIGHTEN_TOL, minact > rhs + INFEAS_TOL),
                Sense::Ge => (minact >= rhs - TIGHTEN_TOL, maxact < rhs - INFEAS_TOL),
                Sense::Eq => (
                    (maxact - rhs).abs() <= TIGHTEN_TOL && (minact - rhs).abs() <= TIGHTEN_TOL,
                    minact > rhs + INFEAS_TOL || maxact < rhs - INFEAS_TOL,
                ),
            };
            if infeasible {
                return PresolveOutcome::Infeasible;
            }
            if redundant {
                r.alive = false;
                rows_removed += 1;
                changed = true;
                continue;
            }

            // Implied (activity-based) bound tightening.
            let row = r.clone();
            for &(j, a) in &row.coeffs {
                if a.abs() < 1e-7 {
                    continue;
                }
                let (rlo, rhi) = activity(&row, &cols, j);
                // `expr ≤ rhs` ⇒ a·x_j ≤ rhs − rlo; `expr ≥ rhs` ⇒
                // a·x_j ≥ rhs − rhi. Equalities imply both.
                let le_like = matches!(row.sense, Sense::Le | Sense::Eq);
                let ge_like = matches!(row.sense, Sense::Ge | Sense::Eq);
                let (mut new_lb, mut new_ub) = (cols[j].lb, cols[j].ub);
                if le_like && rlo.is_finite() {
                    let v = (row.rhs - rlo) / a;
                    if a > 0.0 {
                        new_ub = new_ub.min(v);
                    } else {
                        new_lb = new_lb.max(v);
                    }
                }
                if ge_like && rhi.is_finite() {
                    let v = (row.rhs - rhi) / a;
                    if a > 0.0 {
                        new_lb = new_lb.max(v);
                    } else {
                        new_ub = new_ub.min(v);
                    }
                }
                if cols[j].kind == VarKind::Integer {
                    new_lb = if new_lb.is_finite() {
                        (new_lb - 1e-6).ceil()
                    } else {
                        new_lb
                    };
                    new_ub = if new_ub.is_finite() {
                        (new_ub + 1e-6).floor()
                    } else {
                        new_ub
                    };
                }
                if tighten(&mut cols[j], new_lb, new_ub, &mut bounds_tightened) {
                    changed = true;
                }
                if cols[j].lb > cols[j].ub + INFEAS_TOL {
                    return PresolveOutcome::Infeasible;
                }
            }

            // Coefficient strengthening on ≤/≥ rows over binaries: when the
            // row is redundant at one value of a binary x_j, pull its
            // coefficient (and rhs) in so the LP relaxation tightens while
            // the integer-feasible set is untouched (Savelsbergh's rule).
            if r.sense != Sense::Eq {
                // Normalize to ≤ by sign: `s·expr ≤ s·rhs` with s = ±1.
                let s = if r.sense == Sense::Le { 1.0 } else { -1.0 };
                for ti in 0..r.coeffs.len() {
                    // Re-read rhs each term: a strengthening on an earlier
                    // term of this row may have moved it.
                    let b = s * r.rhs;
                    let (j, a_raw) = r.coeffs[ti];
                    let a = s * a_raw;
                    let binary =
                        cols[j].kind == VarKind::Integer && cols[j].lb == 0.0 && cols[j].ub == 1.0;
                    if !binary {
                        continue;
                    }
                    let (_, rmax) = {
                        // Activity of the rest (column j excluded), in the
                        // normalized (≤) sign.
                        let (lo, hi) = activity(r, &cols, j);
                        if s > 0.0 {
                            (lo, hi)
                        } else {
                            (-hi, -lo)
                        }
                    };
                    if !rmax.is_finite() {
                        continue;
                    }
                    if a > TIGHTEN_TOL && rmax < b - TIGHTEN_TOL && rmax + a > b + TIGHTEN_TOL {
                        // Redundant at x_j = 0, binding at x_j = 1:
                        // a' = a − (b − rmax), b' = rmax.
                        let a_new = a - (b - rmax);
                        r.coeffs[ti].1 = s * a_new;
                        r.rhs = s * rmax;
                        coeffs_reduced += 1;
                        changed = true;
                    } else if a < -TIGHTEN_TOL
                        && rmax + a < b - TIGHTEN_TOL
                        && rmax > b + TIGHTEN_TOL
                    {
                        // Redundant at x_j = 1, binding at x_j = 0:
                        // a' = b − rmax (> a), rhs unchanged.
                        r.coeffs[ti].1 = s * (b - rmax);
                        coeffs_reduced += 1;
                        changed = true;
                    }
                }
            }
        }

        // Fix variables whose bounds met.
        for c in cols.iter_mut() {
            if !c.fixed && c.ub - c.lb <= 1e-9 && c.lb.is_finite() {
                // Snap integers onto the lattice exactly.
                if c.kind == VarKind::Integer {
                    c.lb = c.lb.round();
                }
                c.ub = c.lb;
                c.fixed = true;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    // Assemble the reduced model.
    let mut keep: Vec<Option<usize>> = vec![None; n];
    let mut fixed_vals = vec![0.0; n];
    let mut obj_offset = 0.0;
    let mut reduced = Model::new(format!("{}#presolved", model.name()));
    for (j, c) in cols.iter().enumerate() {
        if c.fixed {
            fixed_vals[j] = c.lb;
            obj_offset += c.obj * c.lb;
        } else {
            keep[j] = Some(reduced.num_vars());
            reduced.add_var(c.lb, c.ub, c.obj, c.kind);
        }
    }
    let cols_fixed = n - reduced.num_vars();
    for row in rows.iter().filter(|r| r.alive) {
        let mut e = LinExpr::new();
        let mut rhs = row.rhs;
        for &(j, a) in &row.coeffs {
            match keep[j] {
                Some(nj) => {
                    e.add_term(a, VarId(nj as u32));
                }
                None => rhs -= a * fixed_vals[j],
            }
        }
        if e.coeffs().is_empty() {
            let ok = match row.sense {
                Sense::Le => 0.0 <= rhs + INFEAS_TOL,
                Sense::Ge => 0.0 >= rhs - INFEAS_TOL,
                Sense::Eq => rhs.abs() <= INFEAS_TOL,
            };
            if !ok {
                return PresolveOutcome::Infeasible;
            }
            rows_removed += 1;
            continue;
        }
        reduced.add_constraint(e, row.sense, rhs);
    }

    PresolveOutcome::Reduced(Box::new(Reduction {
        model: reduced,
        obj_offset,
        keep,
        fixed_vals,
        rows_removed,
        cols_fixed,
        bounds_tightened,
        coeffs_reduced,
    }))
}

/// Apply tightened bounds to a column; returns `true` when either bound
/// moved by more than the tolerance.
fn tighten(c: &mut WCol, new_lb: f64, new_ub: f64, count: &mut usize) -> bool {
    let mut moved = false;
    if new_lb > c.lb + TIGHTEN_TOL {
        c.lb = new_lb;
        *count += 1;
        moved = true;
    }
    if new_ub < c.ub - TIGHTEN_TOL {
        c.ub = new_ub;
        *count += 1;
        moved = true;
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    fn reduce(m: &Model) -> Reduction {
        match presolve(m) {
            PresolveOutcome::Reduced(r) => *r,
            PresolveOutcome::Infeasible => panic!("unexpected infeasible"),
        }
    }

    #[test]
    fn singleton_row_becomes_bound() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(LinExpr::from(x), Sense::Le, 4.0);
        let r = reduce(&m);
        assert_eq!(r.model.num_rows(), 0);
        assert_eq!(r.model.bounds(crate::VarId(0)), (0.0, 4.0));
        assert_eq!(r.rows_removed, 1);
    }

    #[test]
    fn fixed_variable_is_substituted() {
        let mut m = Model::new("t");
        let x = m.add_integer(3.0, 3.0, 2.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 8.0);
        let r = reduce(&m);
        assert_eq!(r.model.num_vars(), 1);
        assert_eq!(r.obj_offset, 6.0);
        // x + y <= 8 with x = 3 becomes y <= 5, folded into y's bound.
        assert_eq!(r.model.bounds(crate::VarId(0)), (0.0, 5.0));
        let full = r.restore(&[2.5]);
        assert_eq!(full, vec![3.0, 2.5]);
    }

    #[test]
    fn crossed_integer_bounds_infeasible() {
        let mut m = Model::new("t");
        let x = m.add_integer(0.0, 1.0, 1.0);
        m.add_constraint(LinExpr::from(x), Sense::Ge, 0.4);
        m.add_constraint(LinExpr::from(x), Sense::Le, 0.6);
        assert!(matches!(presolve(&m), PresolveOutcome::Infeasible));
    }

    #[test]
    fn redundant_row_dropped() {
        let mut m = Model::new("t");
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 5.0);
        let r = reduce(&m);
        assert_eq!(r.model.num_rows(), 0);
    }

    #[test]
    fn coefficient_strengthening_preserves_integer_set() {
        // 3x + y <= 3 with x binary, y in [0, 2]: at x = 0 the row is
        // redundant (maxact of y = 2 <= 3), at x = 1 it binds (y <= 0).
        // Strengthened: 1x... a' = 3 - (3 - 2) = 2, rhs' = 2 -> 2x + y <= 2.
        let mut m = Model::new("t");
        let x = m.add_binary(-1.0);
        let y = m.add_continuous(0.0, 2.0, -1.0);
        let mut e = LinExpr::new();
        e.add_term(3.0, x);
        e.add_term(1.0, y);
        m.add_constraint(e, Sense::Le, 3.0);
        let r = reduce(&m);
        assert_eq!(r.coeffs_reduced, 1);
        // Integer-feasible set unchanged: (x=0, y<=2), (x=1, y=0).
        assert!(r.model.check_feasible(&[0.0, 2.0], 1e-9).is_none());
        assert!(r.model.check_feasible(&[1.0, 0.0], 1e-9).is_none());
        assert!(r.model.check_feasible(&[1.0, 0.5], 1e-9).is_some());
    }

    #[test]
    fn project_rejects_mismatched_fixed_value() {
        let mut m = Model::new("t");
        let _x = m.add_integer(2.0, 2.0, 1.0);
        let _y = m.add_continuous(0.0, 1.0, 1.0);
        let r = reduce(&m);
        assert_eq!(r.model.num_vars(), 1);
        assert!(r.project(&[2.0, 0.5]).is_some());
        assert!(r.project(&[1.0, 0.5]).is_none());
    }
}
