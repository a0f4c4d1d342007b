//! The root cutting-plane loop: solve the root LP relaxation, separate
//! violated certified clique, cover, and implication cuts, append them
//! as rows, and re-solve — with activity-based aging of the pool so
//! slack cuts don't bloat the LP, and a validation discipline that only
//! ships cuts whose augmented root LP actually re-solved within budget.
//! Runs before the branch-and-bound workers spawn, so it is
//! deterministic regardless of the `jobs` setting.

use super::gomory::{separate_gomory, GomoryShift, MAX_CUTS, MAX_MODEL_VARS};
use super::{binary_mask, Clique, Implication, StructuralAnalysis};
use crate::model::{LinExpr, Model, Sense, VarId, VarKind};
use crate::simplex::{LpProblem, LpStatus};
use pipemap_obs as obs;
use pipemap_obs::metrics;
use std::collections::BTreeSet;
use std::time::Instant;

/// Cuts added per separation round.
const MAX_PER_ROUND: usize = 128;
/// Consecutive slack rounds before a pool cut ages out.
const AGE_LIMIT: usize = 2;
/// Minimum LP violation for a cut to be worth separating.
const MIN_VIOLATION: f64 = 1e-4;

/// Validity proof of a [`CertifiedCut`].
#[derive(Debug, Clone, PartialEq)]
pub enum CutProof {
    /// The cut is the clique inequality `Σ members ≤ 1`; the embedded
    /// clique carries a witness for every member pair.
    Clique {
        /// The witnessed clique.
        clique: Clique,
    },
    /// The cut is a cover inequality on `row` (in its `≤`
    /// normalization): with every member literal at 1 — literal `x` for
    /// positive member coefficients, `1 - x` for negative — the row's
    /// minimum activity exceeds its rhs, so at most `|members| - 1`
    /// literals can hold in any integer-feasible point.
    Cover {
        /// The witness row.
        row: usize,
        /// The cover member columns, ascending.
        members: Vec<usize>,
    },
    /// The cut is the linear expansion of a probing implication
    /// `x[col] = value ⇒ x[target] = target_value` between binary
    /// columns (see [`implication_expression`]). Unlike a clique edge,
    /// the implication may have propagated through several rows, so the
    /// inequality is *not* implied by any single row of the model — it
    /// genuinely tightens the LP relaxation.
    Implication {
        /// The witnessed implication, with its replayable chain.
        implication: Implication,
    },
    /// The cut is a rank-1 Gomory mixed-integer cut derived from an
    /// optimal simplex tableau row of the root LP. The certificate is
    /// the full derivation: aggregate the original rows with
    /// `multipliers`, shift each listed column onto the recorded bound
    /// side, apply the GMI rounding, and back-substitute — an auditor
    /// replaying these steps from the model alone must land on the
    /// shipped coefficients and right-hand side. Bound *values* are
    /// deliberately re-derived from the model (plus certified fixings),
    /// never trusted from the certificate.
    Gomory {
        /// Sparse row multipliers `(row, ρᵢ)`, ascending by row: the
        /// aggregated equality is `Σᵢ ρᵢ(aᵢᵀx + sᵢ) = Σᵢ ρᵢ bᵢ`.
        multipliers: Vec<(usize, f64)>,
        /// One entry per aggregated column with a nonzero coefficient,
        /// ascending by extended index.
        shifts: Vec<GomoryShift>,
    },
}

/// The linear expansion of an implication between binary columns, as
/// `Σ coeffs · x ≤ rhs` (coefficients ascending by column):
///
/// * `x_c = 1 ⇒ x_t = 0`:  `x_c + x_t ≤ 1`
/// * `x_c = 1 ⇒ x_t = 1`:  `x_c − x_t ≤ 0`
/// * `x_c = 0 ⇒ x_t = 0`:  `x_t − x_c ≤ 0`
/// * `x_c = 0 ⇒ x_t = 1`:  `−x_c − x_t ≤ −1`
///
/// Each holds for every 0/1 assignment satisfying the implication.
pub fn implication_expression(imp: &Implication) -> (Vec<(usize, f64)>, f64) {
    let (c, t) = (imp.col, imp.target);
    let up = imp.target_value > 0.5;
    let (mut coeffs, rhs) = match (imp.value, up) {
        (true, false) => (vec![(c, 1.0), (t, 1.0)], 1.0),
        (true, true) => (vec![(c, 1.0), (t, -1.0)], 0.0),
        (false, false) => (vec![(c, -1.0), (t, 1.0)], 0.0),
        (false, true) => (vec![(c, -1.0), (t, -1.0)], -1.0),
    };
    coeffs.sort_unstable_by_key(|&(j, _)| j);
    (coeffs, rhs)
}

/// A cutting plane `Σ coeffs · x ≤ rhs` valid for every integer-feasible
/// point, packaged with a machine-checkable proof.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedCut {
    /// Sparse coefficients over the model's columns, ascending.
    pub coeffs: Vec<(usize, f64)>,
    /// Right-hand side.
    pub rhs: f64,
    /// Validity proof.
    pub proof: CutProof,
}

impl CertifiedCut {
    pub(crate) fn lhs(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().map(|&(j, c)| c * x[j]).sum()
    }

    pub(super) fn key(&self) -> (Vec<(usize, u64)>, u64) {
        (
            self.coeffs.iter().map(|&(j, c)| (j, c.to_bits())).collect(),
            self.rhs.to_bits(),
        )
    }
}

/// Knobs for [`root_cut_loop`].
#[derive(Debug, Clone)]
pub struct CutLoopConfig {
    /// Separation rounds (0 disables separation; certified fixings are
    /// still applied to the bounds).
    pub max_rounds: usize,
    /// Separate rank-1 Gomory mixed-integer cuts from the round-0
    /// tableau (see the `gomory` module).
    pub gomory: bool,
}

impl Default for CutLoopConfig {
    fn default() -> Self {
        CutLoopConfig {
            max_rounds: 8,
            gomory: false,
        }
    }
}

/// Counters of one [`root_cut_loop`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutLoopStats {
    /// Separation rounds executed.
    pub rounds: usize,
    /// Clique cuts active in the final pool.
    pub clique_cuts: usize,
    /// Cover cuts active in the final pool.
    pub cover_cuts: usize,
    /// Implication cuts active in the final pool.
    pub implication_cuts: usize,
    /// Gomory mixed-integer cuts active in the final pool.
    pub gomory_cuts: usize,
    /// Cuts dropped by activity-based aging.
    pub aged_out: usize,
    /// Simplex iterations spent on separation LPs.
    pub lp_iterations: usize,
}

/// Result of [`root_cut_loop`].
#[derive(Debug, Clone)]
pub struct CutLoopOutcome {
    /// The strengthened model: certified fixings baked into the bounds,
    /// active pool cuts appended as rows (in `cuts` order).
    pub model: Model,
    /// The active cut pool.
    pub cuts: Vec<CertifiedCut>,
    /// Counters.
    pub stats: CutLoopStats,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CutKind {
    Clique,
    Cover,
    Implication,
    Gomory,
}

struct PoolCut {
    cut: CertifiedCut,
    age: usize,
    kind: CutKind,
}

fn build_model(base: &Model, pool: &[PoolCut]) -> Model {
    let mut m = base.clone();
    for pc in pool {
        let mut e = LinExpr::new();
        for &(j, c) in &pc.cut.coeffs {
            e.add_term(c, VarId(j as u32));
        }
        m.add_constraint(e, Sense::Le, pc.cut.rhs);
    }
    m
}

/// Separate a cover cut from one row against the LP point `x`, using
/// the model's original bounds (so the certificate never depends on the
/// probing fixings). Returns the cut and its violation.
fn separate_cover(
    model: &Model,
    binary: &[bool],
    ri: usize,
    x: &[f64],
) -> Option<(CertifiedCut, f64)> {
    let row = &model.rows[ri];
    let s = if row.sense == Sense::Ge { -1.0 } else { 1.0 };
    let rhs = s * row.rhs;

    // Minimum activity of the whole row plus, per free binary term, the
    // gain from forcing its literal to 1 and that literal's LP value.
    let mut base = 0.0f64;
    let mut lits: Vec<(usize, f64, f64)> = Vec::new();
    for &(v, a) in &row.coeffs {
        let c = s * a;
        let j = v.index();
        base += if c > 0.0 {
            c * model.cols[j].lb
        } else {
            c * model.cols[j].ub
        };
        if binary[j] && c.abs() > 1e-9 {
            let lval = if c > 0.0 { x[j] } else { 1.0 - x[j] };
            lits.push((j, c.abs(), lval));
        }
    }
    if !base.is_finite() || lits.is_empty() {
        return None;
    }

    // Greedy cover: highest literal values first.
    lits.sort_by(|p, q| q.2.partial_cmp(&p.2).unwrap().then(p.0.cmp(&q.0)));
    let mut acc = base;
    let mut members: Vec<usize> = Vec::new();
    let mut lsum = 0.0f64;
    for &(j, gain, lval) in &lits {
        members.push(j);
        acc += gain;
        lsum += lval;
        if acc > rhs + 1e-6 {
            break;
        }
    }
    if acc <= rhs + 1e-6 {
        return None;
    }
    let violation = lsum - (members.len() as f64 - 1.0);
    if violation <= MIN_VIOLATION {
        return None;
    }

    members.sort_unstable();
    let (coeffs, cut_rhs) = cover_expression(model, ri, &members);
    Some((
        CertifiedCut {
            coeffs,
            rhs: cut_rhs,
            proof: CutProof::Cover { row: ri, members },
        },
        violation,
    ))
}

/// The literal expansion of a cover on `row`: `Σ literals ≤ |C| - 1`
/// with `1 - x` literals for negative normalized coefficients, rewritten
/// over plain variables.
pub(crate) fn cover_expression(
    model: &Model,
    ri: usize,
    members: &[usize],
) -> (Vec<(usize, f64)>, f64) {
    let row = &model.rows[ri];
    let s = if row.sense == Sense::Ge { -1.0 } else { 1.0 };
    let mut coeffs = Vec::with_capacity(members.len());
    let mut negs = 0usize;
    for &j in members {
        let c = row
            .coeffs
            .iter()
            .find(|&&(v, _)| v.index() == j)
            .map(|&(_, a)| s * a)
            .unwrap_or(0.0);
        if c > 0.0 {
            coeffs.push((j, 1.0));
        } else {
            coeffs.push((j, -1.0));
            negs += 1;
        }
    }
    (coeffs, members.len() as f64 - 1.0 - negs as f64)
}

/// Apply certified fixings to the bounds and run the root cutting-plane
/// loop. Deterministic: same model, analysis, and config always yield
/// the same strengthened model and pool.
pub fn root_cut_loop(
    model: &Model,
    analysis: &StructuralAnalysis,
    cfg: &CutLoopConfig,
    deadline: Option<Instant>,
) -> CutLoopOutcome {
    let mut base = model.clone();
    for f in &analysis.fixings {
        let c = &mut base.cols[f.col];
        c.lb = c.lb.max(f.value);
        c.ub = c.ub.min(f.value);
    }
    let binary = binary_mask(model);

    // `pool` only ever holds *validated* cuts: cuts that were rows of a
    // root LP this loop solved to optimality. Freshly separated cuts wait
    // in `pending` until the next round's re-solve proves the augmented
    // LP still solves within budget — if that re-solve times out or
    // fails, the pending cuts are dropped rather than shipped, so the
    // tree never inherits a root LP the loop itself could not finish.
    let mut pool: Vec<PoolCut> = Vec::new();
    let mut pending: Vec<PoolCut> = Vec::new();
    let mut seen: BTreeSet<(Vec<(usize, u64)>, u64)> = BTreeSet::new();
    let mut stats = CutLoopStats::default();
    let mut prev_obj = f64::NEG_INFINITY;
    let mut stalled = 0usize;

    for round in 0..cfg.max_rounds {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let _span = obs::span("cut-round");
        let validated = pool.len();
        // Per-family counts of the cuts entering the LP this round (last
        // round's pending batch) — these are the cuts whose bound effect
        // this round's re-solve measures, so the flight recorder can
        // attribute the movement to families.
        let mut entering = [0usize; 4];
        for pc in &pending {
            entering[match pc.kind {
                CutKind::Clique => 0,
                CutKind::Cover => 1,
                CutKind::Implication => 2,
                CutKind::Gomory => 3,
            }] += 1;
        }
        pool.append(&mut pending);
        let work = build_model(&base, &pool);
        let lp = LpProblem::from_model(&work);
        // Gomory separation is rank-1 only: the tableau is extracted at
        // round 0, when the pool is empty and `work == base`, so every
        // certificate multiplier references an original model row.
        let mut tableau = None;
        let gomory_here = cfg.gomory && round == 0 && base.num_vars() <= MAX_MODEL_VARS;
        let solved = if gomory_here {
            let candidate: Vec<bool> = work
                .cols
                .iter()
                .map(|c| c.kind == VarKind::Integer)
                .collect();
            // Extract more rows than will ship: `separate_gomory` keeps
            // only the most violated `MAX_CUTS` of them.
            lp.solve_primal_tableau(&lp.lb, &lp.ub, deadline, &candidate, 1e-6, MAX_CUTS * 4)
                .map(|(s, t)| {
                    tableau = t;
                    s
                })
        } else {
            lp.solve_primal(&lp.lb, &lp.ub, deadline).map(|(s, _)| s)
        };
        let sol = match solved {
            Ok(s) if s.status == LpStatus::Optimal => s,
            other => {
                // The augmented LP did not re-solve: roll back to the
                // last validated pool.
                pool.truncate(validated);
                if let Ok(s) = other {
                    stats.lp_iterations += s.iters;
                }
                break;
            }
        };
        stats.lp_iterations += sol.iters;
        stats.rounds += 1;
        // Cuts are only worth the root-LP re-solves while they move the
        // root bound; two flat rounds in a row and the remaining budget
        // is better spent in the tree.
        if round > 0 {
            if sol.obj <= prev_obj + 1e-7 * prev_obj.abs().max(1.0) {
                stalled += 1;
                if stalled >= 2 {
                    break;
                }
            } else {
                stalled = 0;
            }
        }
        if obs::enabled() {
            // Round 0 has no prior objective; report a zero delta rather
            // than a non-finite sentinel (which JSON cannot carry).
            let obj_before = if prev_obj.is_finite() {
                prev_obj
            } else {
                sol.obj
            };
            obs::instant_with(
                "cut-round-bound",
                vec![
                    ("round", round.into()),
                    ("obj_before", obj_before.into()),
                    ("obj_after", sol.obj.into()),
                    ("clique", entering[0].into()),
                    ("cover", entering[1].into()),
                    ("implication", entering[2].into()),
                    ("gomory", entering[3].into()),
                ],
            );
        }
        prev_obj = sol.obj;
        let x = &sol.x;

        // Age the pool: cuts slack for `AGE_LIMIT` consecutive rounds
        // leave (and may be re-separated later if they cut again).
        for pc in pool.iter_mut() {
            if pc.cut.rhs - pc.cut.lhs(x) > 1e-7 {
                pc.age += 1;
            } else {
                pc.age = 0;
            }
        }
        let before = pool.len();
        pool.retain(|pc| {
            let keep = pc.age < AGE_LIMIT;
            if !keep {
                seen.remove(&pc.cut.key());
            }
            keep
        });
        stats.aged_out += before - pool.len();

        // Separate: clique table, then row covers, then the implication
        // graph (probing implications expand to valid 2-term rows that
        // no single model row implies).
        let mut cands: Vec<(CertifiedCut, f64, CutKind)> = Vec::new();
        for cl in &analysis.cliques {
            let v: f64 = cl.members.iter().map(|&j| x[j]).sum::<f64>() - 1.0;
            if v > MIN_VIOLATION {
                cands.push((
                    CertifiedCut {
                        coeffs: cl.members.iter().map(|&j| (j, 1.0)).collect(),
                        rhs: 1.0,
                        proof: CutProof::Clique { clique: cl.clone() },
                    },
                    v,
                    CutKind::Clique,
                ));
            }
        }
        for ri in 0..model.num_rows() {
            if let Some((cut, v)) = separate_cover(model, &binary, ri, x) {
                cands.push((cut, v, CutKind::Cover));
            }
        }
        for imp in &analysis.implications {
            let (coeffs, rhs) = implication_expression(imp);
            let lhs: f64 = coeffs.iter().map(|&(j, c)| c * x[j]).sum();
            let v = lhs - rhs;
            if v > MIN_VIOLATION {
                cands.push((
                    CertifiedCut {
                        coeffs,
                        rhs,
                        proof: CutProof::Implication {
                            implication: imp.clone(),
                        },
                    },
                    v,
                    CutKind::Implication,
                ));
            }
        }
        if let Some(tab) = tableau.as_ref() {
            for (cut, v) in separate_gomory(&base, &lp, tab, x) {
                cands.push((cut, v, CutKind::Gomory));
            }
        }

        if metrics::enabled() {
            let h = metrics::histogram("cuts.violation");
            for &(_, v, _) in &cands {
                h.record(v);
            }
        }
        cands.sort_by(|p, q| {
            q.1.partial_cmp(&p.1)
                .unwrap()
                .then_with(|| p.0.key().cmp(&q.0.key()))
        });
        let mut added = 0usize;
        for (cut, _v, kind) in cands {
            if added >= MAX_PER_ROUND {
                break;
            }
            if seen.insert(cut.key()) {
                pending.push(PoolCut { cut, age: 0, kind });
                added += 1;
            }
        }
        if obs::enabled() {
            obs::instant_with(
                "cuts-separated",
                vec![("added", added.into()), ("pool", pool.len().into())],
            );
        }
        if added == 0 {
            break;
        }
    }

    for pc in &pool {
        match pc.kind {
            CutKind::Clique => stats.clique_cuts += 1,
            CutKind::Cover => stats.cover_cuts += 1,
            CutKind::Implication => stats.implication_cuts += 1,
            CutKind::Gomory => stats.gomory_cuts += 1,
        }
    }
    let final_model = build_model(&base, &pool);
    CutLoopOutcome {
        model: final_model,
        cuts: pool.into_iter().map(|pc| pc.cut).collect(),
        stats,
    }
}
