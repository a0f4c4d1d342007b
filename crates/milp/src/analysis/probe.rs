//! Probing: tentatively fix binary variables and propagate activity-based
//! bound implications, recording every step so the derivation replays.

use super::{
    Conflict, Fixing, Implication, InfeasibilityProof, ProbeChain, PropStep, StructuralAnalysis,
};
use crate::model::{Model, Sense, VarKind};
use std::collections::VecDeque;

/// Minimum bound improvement worth recording (mirrors presolve).
const TIGHTEN_TOL: f64 = 1e-7;
/// Violations larger than this prove a contradiction (mirrors presolve).
const INFEAS_TOL: f64 = 1e-6;
/// Row evaluations allowed per probe before giving up on quiescence.
const WORK_CAP: usize = 2_000;
/// Implications kept across all probes.
const MAX_IMPLICATIONS: usize = 20_000;
/// Binary columns probed at most.
const MAX_PROBE_VARS: usize = 2048;
/// Row-term evaluations across all probes before no new candidate is
/// opened. Keeps probing time bounded on huge models independently of
/// wall-clock, so the analysis stays deterministic.
const MAX_PROBE_WORK: usize = 20_000_000;
/// Propagation steps recorded per probe.
const MAX_STEPS: usize = 64;

/// Running activity bounds of one row's terms under the working bounds.
///
/// Finite contributions are summed; infinite ones are counted, so the
/// bound excluding any single column is recoverable in O(1) instead of
/// re-summing the row (which made propagation quadratic in row length).
struct Activity {
    lo_sum: f64,
    lo_ninf: usize,
    hi_sum: f64,
    hi_pinf: usize,
}

impl Activity {
    fn new(coeffs: &[(crate::model::VarId, f64)], lb: &[f64], ub: &[f64]) -> Self {
        let mut act = Activity {
            lo_sum: 0.0,
            lo_ninf: 0,
            hi_sum: 0.0,
            hi_pinf: 0,
        };
        for &(v, a) in coeffs {
            let j = v.index();
            act.add(a, lb[j], ub[j]);
        }
        act
    }

    /// Per-term contributions: with `lb <= ub`, the minimum-side term is
    /// finite or `-inf`, the maximum-side term finite or `+inf`.
    fn terms(a: f64, lbj: f64, ubj: f64) -> (f64, f64) {
        if a > 0.0 {
            (a * lbj, a * ubj)
        } else {
            (a * ubj, a * lbj)
        }
    }

    fn add(&mut self, a: f64, lbj: f64, ubj: f64) {
        let (t_lo, t_hi) = Self::terms(a, lbj, ubj);
        if t_lo == f64::NEG_INFINITY {
            self.lo_ninf += 1;
        } else {
            self.lo_sum += t_lo;
        }
        if t_hi == f64::INFINITY {
            self.hi_pinf += 1;
        } else {
            self.hi_sum += t_hi;
        }
    }

    fn remove(&mut self, a: f64, lbj: f64, ubj: f64) {
        let (t_lo, t_hi) = Self::terms(a, lbj, ubj);
        if t_lo == f64::NEG_INFINITY {
            self.lo_ninf -= 1;
        } else {
            self.lo_sum -= t_lo;
        }
        if t_hi == f64::INFINITY {
            self.hi_pinf -= 1;
        } else {
            self.hi_sum -= t_hi;
        }
    }

    fn min(&self) -> f64 {
        if self.lo_ninf > 0 {
            f64::NEG_INFINITY
        } else {
            self.lo_sum
        }
    }

    fn max(&self) -> f64 {
        if self.hi_pinf > 0 {
            f64::INFINITY
        } else {
            self.hi_sum
        }
    }

    /// `(min, max)` activity of the row excluding the term `(a, lbj, ubj)`.
    fn residual(&self, a: f64, lbj: f64, ubj: f64) -> (f64, f64) {
        let (t_lo, t_hi) = Self::terms(a, lbj, ubj);
        let rlo = if t_lo == f64::NEG_INFINITY {
            if self.lo_ninf == 1 {
                self.lo_sum
            } else {
                f64::NEG_INFINITY
            }
        } else if self.lo_ninf > 0 {
            f64::NEG_INFINITY
        } else {
            self.lo_sum - t_lo
        };
        let rhi = if t_hi == f64::INFINITY {
            if self.hi_pinf == 1 {
                self.hi_sum
            } else {
                f64::INFINITY
            }
        } else if self.hi_pinf > 0 {
            f64::INFINITY
        } else {
            self.hi_sum - t_hi
        };
        (rlo, rhi)
    }
}

/// Column → incident rows.
struct Incidence {
    col_rows: Vec<Vec<u32>>,
}

impl Incidence {
    fn new(model: &Model) -> Self {
        let mut col_rows = vec![Vec::new(); model.num_vars()];
        for (ri, row) in model.rows.iter().enumerate() {
            for &(v, _) in &row.coeffs {
                col_rows[v.index()].push(ri as u32);
            }
        }
        Incidence { col_rows }
    }
}

/// Outcome of propagating one tentative fixing to quiescence.
struct ProbeOutcome {
    chain: ProbeChain,
    conflict: Option<Conflict>,
    /// Binary columns pinned to a value at quiescence, probed column
    /// excluded; empty when a conflict fired.
    pinned: Vec<(usize, f64)>,
    /// Row-term evaluations spent, for the global probing work budget.
    work: usize,
}

/// Tentatively fix `col = value` and propagate to quiescence (bounded
/// work), recording each tightening as a replayable [`PropStep`].
fn probe(model: &Model, inc: &Incidence, binary: &[bool], col: usize, value: f64) -> ProbeOutcome {
    let mut lb: Vec<f64> = model.cols.iter().map(|c| c.lb).collect();
    let mut ub: Vec<f64> = model.cols.iter().map(|c| c.ub).collect();
    lb[col] = value;
    ub[col] = value;

    let mut steps: Vec<PropStep> = Vec::new();
    let mut conflict: Option<Conflict> = None;
    let mut queued = vec![false; model.num_rows()];
    let mut queue: VecDeque<u32> = VecDeque::new();
    for &r in &inc.col_rows[col] {
        queued[r as usize] = true;
        queue.push_back(r);
    }

    let mut evals = 0usize;
    let mut work = 0usize;
    'outer: while let Some(ri) = queue.pop_front() {
        let ri = ri as usize;
        queued[ri] = false;
        evals += 1;
        if evals > WORK_CAP {
            break;
        }
        let row = &model.rows[ri];
        work += row.coeffs.len();
        let mut act = Activity::new(&row.coeffs, &lb, &ub);
        let (minact, maxact) = (act.min(), act.max());
        let infeasible = match row.sense {
            Sense::Le => minact > row.rhs + INFEAS_TOL,
            Sense::Ge => maxact < row.rhs - INFEAS_TOL,
            Sense::Eq => minact > row.rhs + INFEAS_TOL || maxact < row.rhs - INFEAS_TOL,
        };
        if infeasible {
            conflict = Some(Conflict::RowInfeasible { row: ri });
            break;
        }
        let le_like = matches!(row.sense, Sense::Le | Sense::Eq);
        let ge_like = matches!(row.sense, Sense::Ge | Sense::Eq);
        for &(v, a) in &row.coeffs {
            let j = v.index();
            if a.abs() < 1e-9 || lb[j] == ub[j] {
                continue;
            }
            let (rlo, rhi) = act.residual(a, lb[j], ub[j]);
            let (mut new_lb, mut new_ub) = (lb[j], ub[j]);
            if le_like && rlo.is_finite() {
                let bound = (row.rhs - rlo) / a;
                if a > 0.0 {
                    new_ub = new_ub.min(bound);
                } else {
                    new_lb = new_lb.max(bound);
                }
            }
            if ge_like && rhi.is_finite() {
                let bound = (row.rhs - rhi) / a;
                if a > 0.0 {
                    new_lb = new_lb.max(bound);
                } else {
                    new_ub = new_ub.min(bound);
                }
            }
            if model.cols[j].kind == VarKind::Integer {
                if new_lb.is_finite() {
                    new_lb = (new_lb - 1e-6).ceil();
                }
                if new_ub.is_finite() {
                    new_ub = (new_ub + 1e-6).floor();
                }
            }
            let mut moved = false;
            if new_ub < ub[j] - TIGHTEN_TOL {
                steps.push(PropStep {
                    row: ri,
                    col: j,
                    upper: true,
                    value: new_ub,
                });
                act.remove(a, lb[j], ub[j]);
                ub[j] = new_ub;
                act.add(a, lb[j], ub[j]);
                moved = true;
            }
            if new_lb > lb[j] + TIGHTEN_TOL {
                steps.push(PropStep {
                    row: ri,
                    col: j,
                    upper: false,
                    value: new_lb,
                });
                act.remove(a, lb[j], ub[j]);
                lb[j] = new_lb;
                act.add(a, lb[j], ub[j]);
                moved = true;
            }
            if lb[j] > ub[j] + INFEAS_TOL {
                conflict = Some(Conflict::BoundsCrossed { col: j });
                break 'outer;
            }
            if moved {
                if steps.len() >= MAX_STEPS {
                    break 'outer;
                }
                for &r2 in &inc.col_rows[j] {
                    if !queued[r2 as usize] {
                        queued[r2 as usize] = true;
                        queue.push_back(r2);
                    }
                }
            }
        }
    }

    let pinned = if conflict.is_none() {
        let mut p = Vec::new();
        for (j, &b) in binary.iter().enumerate() {
            if b && j != col && ub[j] - lb[j] <= 1e-9 {
                p.push((j, lb[j]));
            }
        }
        p
    } else {
        Vec::new()
    };

    ProbeOutcome {
        chain: ProbeChain { col, value, steps },
        conflict,
        pinned,
        work,
    }
}

/// Probe every free binary column (up to `MAX_PROBE_VARS`), filling
/// the analysis with certified fixings, implications, or an
/// infeasibility proof.
pub(super) fn run_probing(model: &Model, binary: &[bool], out: &mut StructuralAnalysis) {
    let inc = &Incidence::new(model);
    let candidates: Vec<usize> = (0..model.num_vars())
        .filter(|&j| binary[j] && !inc.col_rows[j].is_empty())
        .take(MAX_PROBE_VARS)
        .collect();

    let mut spent = 0usize;
    for &j in &candidates {
        // Deterministic global budget: stop opening new candidates once
        // the term-evaluation count is exhausted, so huge models spend
        // bounded time here and leave the rest to the tree.
        if spent >= MAX_PROBE_WORK {
            break;
        }
        let down = probe(model, inc, binary, j, 0.0);
        let up = probe(model, inc, binary, j, 1.0);
        spent += down.work + up.work;
        out.probed += 1;
        match (down.conflict, up.conflict) {
            (Some(c0), Some(c1)) => {
                out.infeasible = Some(Box::new(InfeasibilityProof {
                    col: j,
                    down: (down.chain, c0),
                    up: (up.chain, c1),
                }));
                return;
            }
            (Some(c0), None) => out.fixings.push(Fixing {
                col: j,
                value: 1.0,
                chain: down.chain,
                conflict: c0,
            }),
            (None, Some(c1)) => out.fixings.push(Fixing {
                col: j,
                value: 0.0,
                chain: up.chain,
                conflict: c1,
            }),
            (None, None) => {
                for (polarity, o) in [(false, &down), (true, &up)] {
                    for &(t, tv) in &o.pinned {
                        if out.implications.len() >= MAX_IMPLICATIONS {
                            return;
                        }
                        out.implications.push(Implication {
                            col: j,
                            value: polarity,
                            target: t,
                            target_value: tv,
                            chain: o.chain.clone(),
                        });
                    }
                }
            }
        }
    }
}
