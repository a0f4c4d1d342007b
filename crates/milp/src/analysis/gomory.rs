//! Gomory mixed-integer (GMI) separation from the optimal root simplex
//! tableau.
//!
//! Each fractional basic integer variable yields one tableau row
//! `x_B = β − Σ ᾱ_j x_j` (nonbasic `j`), reproduced from the original
//! system by the multiplier vector `ρ = B⁻ᵀ e_r`: the aggregated
//! equality `Σ_j (ρᵀ A)_j x_j + Σ_i ρ_i s_i = ρᵀ b` holds for every
//! point of the LP, slack variables included. Every column with a
//! nonzero aggregated coefficient is shifted onto a finite bound
//! (`y = x − l` or `y = u − x`, both `≥ 0`), the classic GMI rounding is
//! applied in the shifted space, and the resulting inequality is
//! back-substituted to a structural-only `≤` cut.
//!
//! **Rank-1 discipline.** Separation runs only against the *base* model
//! at round 0 of the cut loop, before any pool cut became a row — so
//! certificate row indices always refer to original model rows and stay
//! valid in the final strengthened model no matter which pool cuts
//! survive aging. This is also the numerically well-behaved regime:
//! higher-rank Gomory cuts (derived on top of earlier cuts) are the
//! classic source of tableau-cut instability.
//!
//! **Admission.** A derived cut ships only if it is numerically safe as
//! a whole — support, dynamism, and magnitude caps, a fractionality
//! window on `f₀`, and finite coefficients. A cut failing any check is
//! rejected outright; coefficients are never dropped or repaired, since
//! dropping a (nonnegative-coefficient) shifted term would *strengthen*
//! the inequality and break validity.

use super::cutloop::{CertifiedCut, CutProof};
use crate::model::{Model, VarKind};
use crate::simplex::{LpProblem, TabStat, TableauData, TableauRow};

/// Maximum cuts separated per invocation (the cut loop extracts four
/// times as many tableau rows).
pub(super) const MAX_CUTS: usize = 12;
/// Minimum LP violation for a cut to be worth shipping.
const MIN_VIOLATION: f64 = 1e-3;
/// Maximum structural support of a shipped cut.
const MAX_SUPPORT: usize = 64;
/// Maximum ratio of largest to smallest |coefficient|.
const MAX_DYNAMISM: f64 = 1e6;
/// Maximum |coefficient| and |rhs| magnitude.
const MAX_COEFF: f64 = 1e7;
/// `f₀` must lie in `[AWAY, 1 − AWAY]` — rows barely fractional
/// produce weak, noise-dominated cuts.
const AWAY: f64 = 0.01;
/// Skip separation entirely on models with more columns than this:
/// every shipped cut is an extra dense row in each warm-started node
/// LP, and on models too large for the tree to finish within budget
/// the lost node throughput costs more bound than the cuts add.
pub(super) const MAX_MODEL_VARS: usize = 256;

/// How one aggregated-row column was shifted before GMI rounding.
///
/// The bound *value* is intentionally not stored: the auditor re-derives
/// it from the model bounds (with certified fixings applied), so a
/// tampered certificate cannot smuggle in a convenient bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GomoryShift {
    /// Extended column index: `< n` (model variables) is structural
    /// column `index`; `≥ n` is the slack of row `index − n`.
    pub index: usize,
    /// `true`: shifted from the upper bound (`y = ub − x`); `false`:
    /// from the lower bound (`y = x − lb`).
    pub upper: bool,
    /// `true`: the shifted variable is integral in every
    /// integer-feasible point, so the integer GMI coefficient applies.
    pub integer: bool,
}

/// Is `v` integral to tolerance?
fn is_int(v: f64) -> bool {
    (v - v.round()).abs() <= 1e-9
}

/// Rows whose slack is integral at every integer-feasible point: all
/// coefficients and the rhs integral, and every involved variable
/// integer-kind.
pub(crate) fn integral_slack_rows(model: &Model) -> Vec<bool> {
    model
        .rows
        .iter()
        .map(|r| {
            is_int(r.rhs)
                && r.coeffs
                    .iter()
                    .all(|&(v, c)| is_int(c) && model.cols[v.index()].kind == VarKind::Integer)
        })
        .collect()
}

/// Derive GMI cuts from the extracted tableau rows against the LP point
/// `x` (structural values). `base` must be the exact model `lp` was
/// built from. Returns each admitted cut with its violation at `x`.
///
/// Every extracted row is derived, then only the `MAX_CUTS` *most
/// violated* survivors ship: each shipped cut is an extra dense row in
/// every warm-started node LP of the tree, so on a tight time budget a
/// few strong cuts beat many shallow ones — the shallow ones cost more
/// node throughput than bound.
pub(crate) fn separate_gomory(
    base: &Model,
    lp: &LpProblem,
    tab: &TableauData,
    x: &[f64],
) -> Vec<(CertifiedCut, f64)> {
    let integral_row = integral_slack_rows(base);
    let mut out = Vec::new();
    for row in &tab.rows {
        if let Some(cut) = derive_gmi(base, lp, &tab.status, row, &integral_row) {
            let violation = cut.lhs(x) - cut.rhs;
            if violation > MIN_VIOLATION {
                out.push((cut, violation));
            }
        }
    }
    // Most violated first; the sparse-coefficient key breaks ties so the
    // selection is deterministic.
    out.sort_by(|p, q| {
        q.1.partial_cmp(&p.1)
            .unwrap()
            .then_with(|| p.0.key().cmp(&q.0.key()))
    });
    out.truncate(MAX_CUTS);
    out
}

/// One tableau row → one candidate GMI cut, or `None` when derivation
/// is impossible (an unbounded column blocks shifting) or the result
/// fails admission.
fn derive_gmi(
    base: &Model,
    lp: &LpProblem,
    status: &[TabStat],
    row: &TableauRow,
    integral_row: &[bool],
) -> Option<CertifiedCut> {
    let n = lp.n_struct;
    let m = lp.m;
    let rho = &row.rho;

    // Aggregated row: α_j over structural + slack columns, β₀ = ρᵀb.
    // Structural coefficients accumulate over each column's sparse
    // entries in ascending-row order — the auditor replays the same
    // products in the same order from the certificate multipliers.
    let mut alpha = vec![0.0f64; n + m];
    for (j, a) in alpha.iter_mut().enumerate().take(n) {
        *a = lp.cols[j].iter().map(|&(r, v)| v * rho[r]).sum();
    }
    alpha[n..n + m].copy_from_slice(&rho[..m]);
    let beta0: f64 = rho.iter().zip(&lp.rhs).map(|(r, b)| r * b).sum();
    if !beta0.is_finite() {
        return None;
    }

    // Shift every column with a nonzero aggregated coefficient onto a
    // finite bound. Nonbasic columns shift at the bound they sit at
    // (their y is exactly 0 at the LP vertex); basic columns take any
    // finite bound. A bound-less column with α ≠ 0 kills the row.
    let mut shifts: Vec<GomoryShift> = Vec::new();
    let mut abar: Vec<f64> = Vec::new();
    let mut beta = beta0;
    for (j, &a) in alpha.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        if !a.is_finite() {
            return None;
        }
        let (lbj, ubj) = (lp.lb[j], lp.ub[j]);
        let upper = match status[j] {
            TabStat::AtLower => {
                if lbj.is_finite() {
                    false
                } else if ubj.is_finite() {
                    true
                } else {
                    return None; // free nonbasic at 0: cannot shift
                }
            }
            TabStat::AtUpper => {
                if ubj.is_finite() {
                    true
                } else {
                    return None;
                }
            }
            TabStat::Basic => {
                if lbj.is_finite() {
                    false
                } else if ubj.is_finite() {
                    true
                } else {
                    return None;
                }
            }
        };
        let bound = if upper { ubj } else { lbj };
        beta -= a * bound;
        let integer = if j < n {
            base.cols[j].kind == VarKind::Integer && is_int(bound)
        } else {
            // Slack bound is 0 by construction; integrality is a row
            // property.
            integral_row[j - n]
        };
        shifts.push(GomoryShift {
            index: j,
            upper,
            integer,
        });
        abar.push(if upper { -a } else { a });
    }

    let f0 = beta - beta.floor();
    if !f0.is_finite() || !(AWAY..=1.0 - AWAY).contains(&f0) {
        return None;
    }
    let one_minus = 1.0 - f0;

    // GMI coefficients in the shifted (y ≥ 0) space: Σ γ_k y_k ≥ f₀.
    let gamma: Vec<f64> = abar
        .iter()
        .zip(&shifts)
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

    // Back-substitute to structural x-space: Σ c_j x_j ≥ r, where each
    // shifted slack expands through its defining row s_i = b_i − a_iᵀx.
    let mut cx = vec![0.0f64; n];
    let mut r = f0;
    for (s, &g) in shifts.iter().zip(&gamma) {
        if g == 0.0 {
            continue;
        }
        if s.index < n {
            let bound = if s.upper {
                lp.ub[s.index]
            } else {
                lp.lb[s.index]
            };
            if s.upper {
                cx[s.index] -= g;
                r -= g * bound;
            } else {
                cx[s.index] += g;
                r += g * bound;
            }
        } else {
            let ri = s.index - n;
            if s.upper {
                for &(v, c) in &base.rows[ri].coeffs {
                    cx[v.index()] += g * c;
                }
                r += g * base.rows[ri].rhs;
            } else {
                for &(v, c) in &base.rows[ri].coeffs {
                    cx[v.index()] -= g * c;
                }
                r -= g * base.rows[ri].rhs;
            }
        }
    }

    // Normalize to the pool's `Σ coeffs·x ≤ rhs` form.
    let mut rhs = -r;
    let mut mx = 0.0f64;
    for &c in &cx {
        if !c.is_finite() {
            return None;
        }
        mx = mx.max(c.abs());
    }

    // Coefficients that should have cancelled exactly in the
    // back-substitution survive as ~1e-15-relative residues; left in,
    // they make the dynamism ratio astronomical and reject every cut.
    // A residue `t·x_j` is *dropped soundly* by charging the rhs its
    // minimum possible value over `x_j`'s bounds (the inequality only
    // weakens) — far below both the shipped safety margin and the
    // auditor's 1e-6-relative comparison. A residue on an unbounded
    // column cannot be compensated and keeps the cut rejectable.
    let noise = 1e-12 * mx;
    let budget = 1e-9 * (1.0 + r.abs());
    let mut spent = 0.0f64;
    let mut coeffs: Vec<(usize, f64)> = Vec::new();
    for (j, &c) in cx.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        let t = -c;
        if t.abs() <= noise {
            let bound = if t > 0.0 { lp.lb[j] } else { lp.ub[j] };
            // The cumulative charge stays three orders below the
            // auditor's comparison tolerance.
            if bound.is_finite() && spent + (t * bound).abs() <= budget {
                spent += (t * bound).abs();
                rhs -= t * bound;
                continue;
            }
        }
        coeffs.push((j, t));
    }
    let rhs = rhs + 1e-9 * (1.0 + rhs.abs());

    // Whole-cut admission.
    if coeffs.is_empty() || coeffs.len() > MAX_SUPPORT {
        return None;
    }
    let mut mx = 0.0f64;
    let mut mn = f64::INFINITY;
    for &(_, c) in &coeffs {
        mx = mx.max(c.abs());
        mn = mn.min(c.abs());
    }
    if !rhs.is_finite() || mx > MAX_COEFF || rhs.abs() > MAX_COEFF {
        return None;
    }
    if mx / mn > MAX_DYNAMISM {
        return None;
    }

    let multipliers: Vec<(usize, f64)> = rho
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0.0)
        .map(|(i, &v)| (i, v))
        .collect();
    Some(CertifiedCut {
        coeffs,
        rhs,
        proof: CutProof::Gomory {
            multipliers,
            shifts,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::cutloop::{root_cut_loop, CutLoopConfig};
    use crate::analysis::{analyze, AnalysisConfig};
    use crate::model::{Model, Sense};
    use crate::simplex::LpStatus;

    /// `min −x₂ s.t. 3x₁ + 2x₂ ≤ 6, −3x₁ + 2x₂ ≤ 0` over integers in
    /// [0, 3]: the unique LP optimum is (1, 1.5), so x₂ is basic and
    /// fractional.
    fn fractional_model() -> Model {
        let mut m = Model::new("gmi");
        let x1 = m.add_integer(0.0, 3.0, 0.0);
        let x2 = m.add_integer(0.0, 3.0, -1.0);
        let mut e = crate::model::LinExpr::new();
        e.add_term(3.0, x1);
        e.add_term(2.0, x2);
        m.add_constraint(e, Sense::Le, 6.0);
        let mut e = crate::model::LinExpr::new();
        e.add_term(-3.0, x1);
        e.add_term(2.0, x2);
        m.add_constraint(e, Sense::Le, 0.0);
        m
    }

    fn separate_on(model: &Model) -> (Vec<(CertifiedCut, f64)>, Vec<f64>) {
        let lp = LpProblem::from_model(model);
        let candidate: Vec<bool> = model
            .cols
            .iter()
            .map(|c| c.kind == VarKind::Integer)
            .collect();
        let (sol, _, tab) = lp
            .solve_primal_tableau(&lp.lb, &lp.ub, None, &candidate, 1e-6, 32)
            .expect("lp solves");
        assert_eq!(sol.status, LpStatus::Optimal);
        let tab = tab.expect("tableau extracted");
        assert!(!tab.rows.is_empty(), "a fractional basic integer exists");
        let cuts = separate_gomory(model, &lp, &tab, &sol.x);
        (cuts, sol.x)
    }

    /// Every integer-feasible point of the model satisfies every cut
    /// (brute force over the full integer box).
    fn assert_valid_on_integer_box(model: &Model, cuts: &[(CertifiedCut, f64)]) {
        let n = model.num_vars();
        let ranges: Vec<(i64, i64)> = (0..n)
            .map(|j| {
                let c = &model.cols[j];
                (c.lb.ceil() as i64, c.ub.floor() as i64)
            })
            .collect();
        let mut point = vec![0i64; n];
        let mut checked = 0usize;
        loop {
            let xs: Vec<f64> = point
                .iter()
                .zip(&ranges)
                .map(|(&p, &(lo, _))| (lo + p) as f64)
                .collect();
            let feasible = model.rows.iter().all(|r| {
                let lhs: f64 = r.coeffs.iter().map(|&(v, c)| c * xs[v.index()]).sum();
                match r.sense {
                    Sense::Le => lhs <= r.rhs + 1e-9,
                    Sense::Ge => lhs >= r.rhs - 1e-9,
                    Sense::Eq => (lhs - r.rhs).abs() <= 1e-9,
                }
            });
            if feasible {
                checked += 1;
                for (cut, _) in cuts {
                    let lhs: f64 = cut.coeffs.iter().map(|&(j, c)| c * xs[j]).sum();
                    assert!(
                        lhs <= cut.rhs + 1e-7,
                        "cut {:?} ≤ {} violated at {:?} (lhs {})",
                        cut.coeffs,
                        cut.rhs,
                        xs,
                        lhs
                    );
                }
            }
            // Odometer over the box.
            let mut k = 0;
            loop {
                if k == n {
                    assert!(checked > 0, "integer box has feasible points");
                    return;
                }
                point[k] += 1;
                if ranges[k].0 + point[k] <= ranges[k].1 {
                    break;
                }
                point[k] = 0;
                k += 1;
            }
        }
    }

    #[test]
    fn gmi_cuts_fractional_vertex_and_stays_valid() {
        let model = fractional_model();
        let (cuts, x) = separate_on(&model);
        assert!(!cuts.is_empty(), "the fractional vertex yields a cut");
        for (cut, v) in &cuts {
            assert!(*v > 1e-4, "reported violation is real: {v}");
            let lhs: f64 = cut.coeffs.iter().map(|&(j, c)| c * x[j]).sum();
            assert!(lhs > cut.rhs + 1e-4, "cut actually cuts the LP point");
        }
        assert_valid_on_integer_box(&model, &cuts);
    }

    #[test]
    fn gmi_valid_on_mixed_integer_knapsack() {
        // Mixed model: one continuous column participates in the row, so
        // the continuous GMI coefficient path is exercised.
        let mut m = Model::new("mix");
        let x1 = m.add_integer(0.0, 4.0, -5.0);
        let x2 = m.add_integer(0.0, 4.0, -4.0);
        let y = m.add_continuous(0.0, 10.0, -1.0);
        let mut e = crate::model::LinExpr::new();
        e.add_term(6.0, x1);
        e.add_term(4.0, x2);
        e.add_term(1.0, y);
        m.add_constraint(e, Sense::Le, 13.0);
        let mut e = crate::model::LinExpr::new();
        e.add_term(1.0, x1);
        e.add_term(2.0, x2);
        m.add_constraint(e, Sense::Le, 5.0);

        let lp = LpProblem::from_model(&m);
        let candidate: Vec<bool> = m.cols.iter().map(|c| c.kind == VarKind::Integer).collect();
        let (sol, _, tab) = lp
            .solve_primal_tableau(&lp.lb, &lp.ub, None, &candidate, 1e-6, 32)
            .expect("lp solves");
        assert_eq!(sol.status, LpStatus::Optimal);
        if let Some(tab) = tab {
            let cuts = separate_gomory(&m, &lp, &tab, &sol.x);
            // Validity must hold for the continuous column at any value;
            // spot-check y over a grid by brute force on a refined model
            // where y is restricted to integers (a subset of feasible
            // points — validity on the subset is necessary).
            assert_valid_on_integer_box(&m, &cuts);
        }
    }

    #[test]
    fn cut_loop_ships_gomory_cuts_with_certificates() {
        let model = fractional_model();
        let analysis = analyze(&model, &AnalysisConfig::default());
        let cfg = CutLoopConfig {
            gomory: true,
            ..CutLoopConfig::default()
        };
        let out = root_cut_loop(&model, &analysis, &cfg, None);
        assert!(out.stats.gomory_cuts > 0, "loop shipped a gomory cut");
        assert!(out
            .cuts
            .iter()
            .any(|c| matches!(c.proof, CutProof::Gomory { .. })));
        // Integer optimum is unchanged: −2 at (0,1)/(2,0)… brute check.
        assert_valid_on_integer_box(
            &model,
            &out.cuts
                .iter()
                .map(|c| (c.clone(), 0.0))
                .collect::<Vec<_>>(),
        );
    }
}
