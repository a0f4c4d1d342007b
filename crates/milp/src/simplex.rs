//! Bounded-variable revised simplex: primal with a two-phase start, plus a
//! dual-simplex reoptimizer for warm starts.
//!
//! Computational form: every model row `aᵀx {≤,=,≥} b` becomes
//! `aᵀx + s = b` with a sign-constrained slack, so the constraint matrix is
//! `[A | I]` and the initial all-slack basis is the identity. Rows whose
//! slack bound is violated at the initial point get an *artificial*
//! variable; phase 1 minimizes the total artificial magnitude, phase 2 the
//! real objective.
//!
//! **Warm starts.** Branch & bound tightens a single variable bound per
//! node, which leaves the parent's optimal basis *dual*-feasible (reduced
//! costs are untouched) while possibly making it primal-infeasible. A
//! [`WarmBasis`] snapshot of the parent basis therefore restarts with
//! [`LpProblem::solve_dual_warm`]: dual pivots drive out the bound
//! violations, then a short primal cleanup certifies optimality. Every
//! numerically doubtful situation — stale snapshot, singular refactorize,
//! stalled dual loop, near-zero pivot disagreement — returns
//! [`LpAbort::Singular`], which callers treat as "fall back to a cold
//! primal solve"; correctness never depends on the warm path.

use std::cmp::Ordering;
use std::time::{Duration, Instant};

use crate::lu::Factors;
use crate::model::{Model, Sense};
use pipemap_obs::metrics;

/// Start a per-solve timer only when the metrics registry is live, and
/// record the LP's iteration count, wall time and LU factorizations on
/// completion. Telemetry is read-only: nothing here feeds back into
/// pivoting.
fn lp_metrics_start() -> Option<Instant> {
    metrics::enabled().then(Instant::now)
}

fn lp_metrics_record(t0: Option<Instant>, iters: usize, lu: FactorTally, warm: bool) {
    let Some(t0) = t0 else { return };
    metrics::histogram("lp.solve_us").record(t0.elapsed().as_micros() as f64);
    metrics::histogram("lp.iters").record(iters as f64);
    metrics::counter("lp.factorizations").add(lu.count as u64);
    metrics::histogram("lp.factor_us").record(lu.time.as_micros() as f64);
    if warm {
        metrics::counter("lp.warm_solves").inc();
    } else {
        metrics::counter("lp.cold_solves").inc();
    }
}

/// Primal/dual/pivot tolerances.
const DUAL_TOL: f64 = 1e-7;
const PIVOT_TOL: f64 = 5e-8;
const FEAS_TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
const STALL_LIMIT: usize = 64;
/// Eta-file length that triggers refactorization.
const REFACTOR_ETAS: usize = 64;
const MAX_ITERS: usize = 200_000;
/// Dual-loop caps; hitting either rejects to a cold solve.
const DUAL_MAX_ITERS: usize = 50_000;
const DUAL_STALL_LIMIT: usize = 512;

/// Why an LP solve stopped without a status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LpAbort {
    /// Unrecoverable numerical failure.
    Numerical(String),
    /// The basis became (numerically) singular; retry from scratch.
    Singular,
    /// The caller's deadline expired mid-solve.
    Timeout,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LpStatus {
    Optimal,
    Infeasible,
    Unbounded,
}

/// An LP solution over the full column space (structural + slacks).
#[derive(Debug, Clone)]
pub(crate) struct LpSolution {
    pub status: LpStatus,
    /// Values of the structural variables (model variables only).
    pub x: Vec<f64>,
    /// Objective value (meaningless unless `status == Optimal`).
    pub obj: f64,
    /// Dual values per row (for optimality certificates in tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub y: Vec<f64>,
    /// Simplex iterations performed.
    pub iters: usize,
}

/// The LP data in computational form. Bounds are stored separately so
/// branch & bound can re-solve with tightened variable bounds cheaply.
#[derive(Debug, Clone)]
pub(crate) struct LpProblem {
    pub m: usize,
    pub n_struct: usize,
    /// Structural columns then slack columns; `cols[j]` = `(row, coeff)`.
    pub cols: Vec<Vec<(usize, f64)>>,
    /// Bounds for structural + slack columns.
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// Phase-2 objective for structural + slack columns.
    pub obj: Vec<f64>,
    pub rhs: Vec<f64>,
}

impl LpProblem {
    /// Build the computational form from a model, using the model's current
    /// bounds (integrality is ignored here).
    pub fn from_model(model: &Model) -> Self {
        let m = model.rows.len();
        let n = model.cols.len();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n + m];
        let mut rhs = Vec::with_capacity(m);
        let mut lb: Vec<f64> = model.cols.iter().map(|c| c.lb).collect();
        let mut ub: Vec<f64> = model.cols.iter().map(|c| c.ub).collect();
        let mut obj: Vec<f64> = model.cols.iter().map(|c| c.obj).collect();
        for (i, row) in model.rows.iter().enumerate() {
            for &(v, c) in &row.coeffs {
                cols[v.index()].push((i, c));
            }
            cols[n + i].push((i, 1.0));
            rhs.push(row.rhs);
            let (slb, sub) = match row.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            lb.push(slb);
            ub.push(sub);
            obj.push(0.0);
        }
        LpProblem {
            m,
            n_struct: n,
            cols,
            lb,
            ub,
            obj,
            rhs,
        }
    }

    /// Solve with the stored bounds.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn solve(&self) -> Result<LpSolution, LpAbort> {
        self.solve_with_bounds(&self.lb, &self.ub, None)
    }

    /// Solve with overriding bounds (same layout as `lb`/`ub`) and an
    /// optional deadline. A singular basis triggers a from-scratch restart
    /// (with Bland's rule after repeated failures) before giving up.
    pub fn solve_with_bounds(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
    ) -> Result<LpSolution, LpAbort> {
        self.solve_primal(lb, ub, deadline).map(|(s, _)| s)
    }

    /// Cold two-phase primal solve; also returns a basis snapshot suitable
    /// for warm-starting child solves when the LP reached optimality.
    pub fn solve_primal(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
    ) -> Result<(LpSolution, Option<WarmBasis>), LpAbort> {
        let t0 = lp_metrics_start();
        let mut lu = FactorTally::default();
        for attempt in 0..5 {
            let mut w = Worker::new(self, lb, ub);
            // Diversify retries: perturbed pricing first, Bland's rule last.
            w.price_seed = attempt as u64;
            w.always_bland = attempt >= 3;
            match w.run(deadline) {
                Err(LpAbort::Singular) => lu.add(w.lu),
                Ok(sol) => {
                    let snap = if sol.status == LpStatus::Optimal {
                        w.pivot_out_artificials();
                        w.snapshot()
                    } else {
                        None
                    };
                    lu.add(w.lu);
                    lp_metrics_record(t0, sol.iters, lu, false);
                    return Ok((sol, snap));
                }
                Err(e) => return Err(e),
            }
        }
        Err(LpAbort::Numerical("repeated singular bases".into()))
    }

    /// Cold primal solve that additionally captures simplex-tableau rows
    /// for fractional candidate columns — the raw material for Gomory
    /// mixed-integer separation. Tableau data is `None` unless the solve
    /// reached optimality with a clean basis (no artificial left basic):
    /// a row extracted across an artificial column could not be reproduced
    /// from the model rows alone, so such bases yield no cuts.
    pub fn solve_primal_tableau(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
        candidate: &[bool],
        frac_tol: f64,
        max_rows: usize,
    ) -> Result<(LpSolution, Option<TableauData>), LpAbort> {
        for attempt in 0..5 {
            let mut w = Worker::new(self, lb, ub);
            w.price_seed = attempt as u64;
            w.always_bland = attempt >= 3;
            match w.run(deadline) {
                Err(LpAbort::Singular) => continue,
                Ok(sol) => {
                    let tab = if sol.status == LpStatus::Optimal {
                        w.tableau(candidate, frac_tol, max_rows)
                    } else {
                        None
                    };
                    return Ok((sol, tab));
                }
                Err(e) => return Err(e),
            }
        }
        Err(LpAbort::Numerical("repeated singular bases".into()))
    }

    /// Re-optimize from a parent basis after a bound change using the dual
    /// simplex. Returns `Err(LpAbort::Singular)` whenever the warm start
    /// cannot be trusted (stale snapshot, dual-infeasible start, numerical
    /// trouble); the caller should then fall back to [`Self::solve_primal`].
    pub fn solve_dual_warm(
        &self,
        lb: &[f64],
        ub: &[f64],
        warm: &WarmBasis,
        deadline: Option<Instant>,
    ) -> Result<(LpSolution, Option<WarmBasis>), LpAbort> {
        let t0 = lp_metrics_start();
        let mut w = Worker::from_basis(self, lb, ub, warm)?;
        if !w.dual_feasible(1e-6) {
            return Err(LpAbort::Singular);
        }
        let sol = w.run_dual(deadline)?;
        let snap = if sol.status == LpStatus::Optimal {
            w.snapshot()
        } else {
            None
        };
        lp_metrics_record(t0, sol.iters, w.lu, true);
        Ok((sol, snap))
    }

    /// Cold two-phase primal solve that captures both the optimal basis
    /// *and* its LU factors, so a later re-solve can skip refactorization.
    pub fn solve_primal_capture(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
    ) -> Result<(LpSolution, Option<(WarmBasis, Factors)>), LpAbort> {
        let t0 = lp_metrics_start();
        let mut lu = FactorTally::default();
        for attempt in 0..5 {
            let mut w = Worker::new(self, lb, ub);
            w.price_seed = attempt as u64;
            w.always_bland = attempt >= 3;
            match w.run(deadline) {
                Err(LpAbort::Singular) => lu.add(w.lu),
                Ok(sol) => {
                    let snap = if sol.status == LpStatus::Optimal {
                        w.pivot_out_artificials();
                        w.snapshot_with_factors()
                    } else {
                        None
                    };
                    lu.add(w.lu);
                    lp_metrics_record(t0, sol.iters, lu, false);
                    return Ok((sol, snap));
                }
                Err(e) => return Err(e),
            }
        }
        Err(LpAbort::Numerical("repeated singular bases".into()))
    }

    /// Warm re-optimization from a persisted basis, optionally adopting the
    /// LU factors saved alongside it instead of refactoring from scratch.
    /// Adopted factors are verified against the current basis by a cheap
    /// residual check (and extended with a border when the problem gained
    /// rows since the snapshot); any doubt silently falls back to a fresh
    /// factorization, and any *warm* doubt to `Err(LpAbort::Singular)` —
    /// the caller's cue for a cold solve.
    ///
    /// `WarmMode::Dual` requires a dual-feasible start (bound deltas, added
    /// rows); `WarmMode::Primal` a primal-feasible one (objective deltas,
    /// added columns). Returns `(solution, snapshot, factors_reused)`.
    pub fn solve_warm_persistent(
        &self,
        lb: &[f64],
        ub: &[f64],
        warm: &WarmBasis,
        factors: Option<&Factors>,
        mode: WarmMode,
        deadline: Option<Instant>,
    ) -> Result<PersistentSolve, LpAbort> {
        let t0 = lp_metrics_start();
        let (mut w, reused) = match factors {
            Some(f) => Worker::from_basis_cached(self, lb, ub, warm, f)?,
            None => (Worker::from_basis(self, lb, ub, warm)?, false),
        };
        let sol = match mode {
            WarmMode::Dual => {
                if !w.dual_feasible(1e-6) {
                    return Err(LpAbort::Singular);
                }
                w.run_dual(deadline)?
            }
            WarmMode::Primal => {
                if !w.primal_feasible(1e-6) {
                    return Err(LpAbort::Singular);
                }
                w.bland = false;
                w.stall = 0;
                match w.optimize(deadline)? {
                    InnerStatus::Optimal => w.finish(LpStatus::Optimal),
                    InnerStatus::Unbounded => w.finish(LpStatus::Unbounded),
                }
            }
        };
        let snap = if sol.status == LpStatus::Optimal {
            w.snapshot_with_factors()
        } else {
            None
        };
        lp_metrics_record(t0, sol.iters, w.lu, true);
        Ok((sol, snap, reused))
    }
}

/// Outcome of a persistent warm re-optimization: the solution, the new
/// basis + LU snapshot (on optimality), and whether the cached factors
/// were adopted rather than rebuilt.
pub(crate) type PersistentSolve = (LpSolution, Option<(WarmBasis, Factors)>, bool);

/// Which simplex drives a persistent warm re-optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarmMode {
    /// Phase-2 primal from a primal-feasible basis (objective changed).
    Primal,
    /// Dual pivots from a dual-feasible basis (bounds changed, rows added).
    Dual,
}

/// A restartable basis snapshot: the variable statuses and basis columns of
/// an optimal LP solve (structural + slack columns; never artificials).
///
/// Cheap to clone and `Send + Sync`, so branch & bound keeps one per node
/// behind an `Arc` and warm-starts children from any worker thread.
#[derive(Debug, Clone)]
pub(crate) struct WarmBasis {
    status: Vec<VStat>,
    basis: Vec<usize>,
}

impl WarmBasis {
    /// Remap the snapshot for a problem that gained `added` structural
    /// columns since it was taken: new columns start nonbasic at their
    /// lower bound and every slack index shifts up by `added` (the column
    /// layout is `[structural | slacks]`).
    pub fn with_added_cols(&self, old_n_struct: usize, added: usize) -> WarmBasis {
        let mut status = Vec::with_capacity(self.status.len() + added);
        status.extend_from_slice(&self.status[..old_n_struct.min(self.status.len())]);
        status.extend(std::iter::repeat_n(VStat::AtLower, added));
        status.extend_from_slice(&self.status[old_n_struct.min(self.status.len())..]);
        let basis = self
            .basis
            .iter()
            .map(|&j| if j >= old_n_struct { j + added } else { j })
            .collect();
        WarmBasis { status, basis }
    }

    /// Extend the snapshot for a problem that gained `added` rows since it
    /// was taken (appended cut rows): each new row's slack enters the basis
    /// at the matching new position, which keeps the start dual-feasible
    /// (slacks carry zero cost). `n_struct` is the problem's *current*
    /// structural column count.
    pub fn with_added_rows(&self, n_struct: usize, added: usize) -> WarmBasis {
        let old_m = self.basis.len();
        let mut status = self.status.clone();
        let mut basis = self.basis.clone();
        for i in 0..added {
            let slack = n_struct + old_m + i;
            debug_assert_eq!(status.len(), slack);
            status.push(VStat::Basic(old_m + i));
            basis.push(slack);
        }
        WarmBasis { status, basis }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// Basic/nonbasic classification of one column in an optimal basis,
/// exported for tableau consumers (no basis-position payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TabStat {
    Basic,
    AtLower,
    AtUpper,
}

/// One extracted row of an optimal simplex tableau. The multiplier
/// vector `rho = B⁻ᵀ e_r` reproduces the row over the original system:
/// the aggregated coefficient of structural column `j` is `Σ_i ρ_i a_ij`,
/// the coefficient of the slack of row `i` is `ρ_i`, and the aggregated
/// right-hand side is `ρᵀ b`.
#[derive(Debug, Clone)]
pub(crate) struct TableauRow {
    /// Dense row multipliers, one per problem row.
    pub rho: Vec<f64>,
}

/// Tableau information captured from an optimal primal solve.
#[derive(Debug, Clone)]
pub(crate) struct TableauData {
    /// Status of every structural + slack column in the final basis.
    pub status: Vec<TabStat>,
    /// Rows whose basic variable is a fractional candidate, most
    /// fractional (closest to .5) first.
    pub rows: Vec<TableauRow>,
}

struct Worker<'a> {
    p: &'a LpProblem,
    /// Bounds for all columns incl. artificials (appended).
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Current-phase costs for all columns.
    cost: Vec<f64>,
    /// Extra artificial columns: each is a unit column `(row, 1.0)`.
    art_cols: Vec<(usize, f64)>,
    status: Vec<VStat>,
    basis: Vec<usize>,
    x_basic: Vec<f64>,
    factors: Factors,
    lu: FactorTally,
    iters: usize,
    stall: usize,
    bland: bool,
    always_bland: bool,
    /// Non-zero: deterministically perturb Dantzig merits so numerical
    /// restarts follow different pivot paths.
    price_seed: u64,
    in_phase1: bool,
}

impl<'a> Worker<'a> {
    fn n_total(&self) -> usize {
        self.p.n_struct + self.p.m + self.art_cols.len()
    }

    fn col_entries(&self, j: usize) -> &[(usize, f64)] {
        basis_col(self.p, &self.art_cols, j)
    }

    /// Dense version of column j into `out` (cleared first).
    fn densify_col(&self, j: usize, out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = 0.0;
        }
        let base = self.p.n_struct + self.p.m;
        if j < base {
            for &(r, v) in &self.p.cols[j] {
                out[r] += v;
            }
        } else {
            out[self.art_cols[j - base].0] = 1.0;
        }
    }

    fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        let base = self.p.n_struct + self.p.m;
        if j < base {
            self.p.cols[j].iter().map(|&(r, v)| v * y[r]).sum()
        } else {
            y[self.art_cols[j - base].0]
        }
    }

    /// Dantzig merit with optional deterministic perturbation (restart
    /// diversification).
    fn merit(&self, j: usize, d: f64) -> f64 {
        if self.price_seed == 0 {
            return d.abs();
        }
        let h = (j as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.price_seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let frac = (h >> 40) as f64 / (1u64 << 24) as f64; // [0, 1)
        d.abs() * (0.85 + 0.3 * frac)
    }

    /// Value of a nonbasic variable under its status.
    fn nb_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VStat::AtLower => {
                if self.lb[j].is_finite() {
                    self.lb[j]
                } else if self.ub[j].is_finite() {
                    self.ub[j]
                } else {
                    0.0
                }
            }
            VStat::AtUpper => self.ub[j],
            VStat::Basic(_) => unreachable!("nb_value on basic"),
        }
    }

    fn new(p: &'a LpProblem, lb_in: &[f64], ub_in: &[f64]) -> Self {
        let m = p.m;
        let n = p.n_struct + m;
        let mut lb = lb_in.to_vec();
        let mut ub = ub_in.to_vec();
        let mut cost = vec![0.0; n];

        // Nonbasic statuses for everything; slacks basic.
        let mut status = vec![VStat::AtLower; n];
        for (j, st) in status.iter_mut().enumerate().take(p.n_struct) {
            *st = if lb[j].is_finite() {
                VStat::AtLower
            } else if ub[j].is_finite() {
                VStat::AtUpper
            } else {
                VStat::AtLower // free at 0
            };
        }

        let mut w = Worker {
            p,
            lb: Vec::new(),
            ub: Vec::new(),
            cost: Vec::new(),
            art_cols: Vec::new(),
            status,
            basis: Vec::new(),
            x_basic: Vec::new(),
            factors: Factors::default(),
            lu: FactorTally::default(),
            iters: 0,
            stall: 0,
            bland: false,
            always_bland: false,
            price_seed: 0,
            in_phase1: false,
        };

        // Initial residual with all structural nonbasic at their bound.
        let mut resid = p.rhs.clone();
        for j in 0..p.n_struct {
            let v = match w.status[j] {
                VStat::AtLower => {
                    if lb[j].is_finite() {
                        lb[j]
                    } else {
                        0.0
                    }
                }
                VStat::AtUpper => ub[j],
                VStat::Basic(_) => unreachable!(),
            };
            if v != 0.0 {
                for &(r, cv) in &p.cols[j] {
                    resid[r] -= cv * v;
                }
            }
        }

        // Basis: slack where feasible, otherwise artificial.
        let mut basis = Vec::with_capacity(m);
        let mut x_basic = Vec::with_capacity(m);
        let mut art_cols = Vec::new();
        for (i, &v) in resid.iter().enumerate() {
            let sj = p.n_struct + i;
            if v >= lb[sj] - FEAS_TOL && v <= ub[sj] + FEAS_TOL {
                basis.push(sj);
                x_basic.push(v);
                w.status[sj] = VStat::Basic(i);
            } else {
                // Slack pinned at its nearest bound; artificial absorbs the
                // remaining residual.
                let pin = if v < lb[sj] { lb[sj] } else { ub[sj] };
                w.status[sj] = if pin == lb[sj] {
                    VStat::AtLower
                } else {
                    VStat::AtUpper
                };
                let r = v - pin;
                let aj = n + art_cols.len();
                art_cols.push((i, 1.0));
                lb.push(if r >= 0.0 { 0.0 } else { f64::NEG_INFINITY });
                ub.push(if r >= 0.0 { f64::INFINITY } else { 0.0 });
                cost.push(0.0);
                w.status.push(VStat::Basic(i));
                basis.push(aj);
                x_basic.push(r);
            }
        }
        cost.resize(n + art_cols.len(), 0.0);

        w.lb = lb;
        w.ub = ub;
        w.cost = cost;
        w.art_cols = art_cols;
        w.basis = basis;
        w.x_basic = x_basic;
        w.refactor().expect("identity initial basis factors");
        w
    }

    fn refactor(&mut self) -> Result<(), LpAbort> {
        let t0 = lp_metrics_start();
        let cols = self
            .basis
            .iter()
            .map(|&j| basis_col(self.p, &self.art_cols, j));
        let res = self.factors.factor(self.p.m, cols);
        self.lu.count += 1;
        if let Some(t0) = t0 {
            self.lu.time += t0.elapsed();
        }
        res.map_err(|_| LpAbort::Singular)?;
        self.recompute_x_basic();
        Ok(())
    }

    /// x_B = B⁻¹ (b − N x_N), recomputed for numerical hygiene.
    fn recompute_x_basic(&mut self) {
        let mut resid = std::mem::take(&mut self.x_basic);
        resid.clear();
        resid.extend_from_slice(&self.p.rhs);
        for j in 0..self.n_total() {
            if matches!(self.status[j], VStat::Basic(_)) {
                continue;
            }
            let v = self.nb_value(j);
            if v != 0.0 {
                let base = self.p.n_struct + self.p.m;
                if j < base {
                    for &(r, cv) in &self.p.cols[j] {
                        resid[r] -= cv * v;
                    }
                } else {
                    resid[self.art_cols[j - base].0] -= v;
                }
            }
        }
        self.factors.ftran(&mut resid);
        self.x_basic = resid;
    }

    /// Phase-1 cost: minimize total artificial magnitude.
    fn set_phase1_costs(&mut self) {
        for c in self.cost.iter_mut() {
            *c = 0.0;
        }
        let base = self.p.n_struct + self.p.m;
        for a in 0..self.art_cols.len() {
            let j = base + a;
            // Positive artificials cost +1, negative ones −1, so the phase-1
            // objective is Σ|artificial|.
            self.cost[j] = if self.ub[j] == 0.0 { -1.0 } else { 1.0 };
        }
        self.in_phase1 = true;
    }

    fn set_phase2_costs(&mut self) {
        for (j, c) in self.cost.iter_mut().enumerate() {
            *c = if j < self.p.n_struct + self.p.m {
                self.p.obj[j]
            } else {
                0.0
            };
        }
        self.in_phase1 = false;
    }

    fn run(&mut self, deadline: Option<Instant>) -> Result<LpSolution, LpAbort> {
        if !self.art_cols.is_empty() {
            self.set_phase1_costs();
            let status = self.optimize(deadline)?;
            debug_assert!(status != InnerStatus::Unbounded, "phase 1 is bounded");
            let infeas: f64 = self.phase1_value();
            if infeas > 1e-6 {
                return Ok(self.finish(LpStatus::Infeasible));
            }
            // Pin all artificials to zero for phase 2.
            let base = self.p.n_struct + self.p.m;
            for a in 0..self.art_cols.len() {
                self.lb[base + a] = 0.0;
                self.ub[base + a] = 0.0;
                if !matches!(self.status[base + a], VStat::Basic(_)) {
                    self.status[base + a] = VStat::AtLower;
                }
            }
            self.recompute_x_basic();
        }
        self.set_phase2_costs();
        self.bland = false;
        self.stall = 0;
        match self.optimize(deadline)? {
            InnerStatus::Optimal => Ok(self.finish(LpStatus::Optimal)),
            InnerStatus::Unbounded => Ok(self.finish(LpStatus::Unbounded)),
        }
    }

    /// Drive still-basic phase-1 artificials out of an optimal basis so
    /// it becomes snapshottable. An artificial left basic at optimality
    /// sits at value zero (phase 1 proved feasibility), so swapping any
    /// nonbasic real column with a nonzero entry in its row is a
    /// *degenerate* pivot: the primal point is unchanged, only the basis
    /// labeling moves. Each swap is followed by a refactorization and a
    /// residual + primal-feasibility check; any doubt restores the
    /// original basis, so this can only widen warm-start coverage, never
    /// corrupt a solve. Returns `true` when no artificial remains basic.
    ///
    /// This is what lets root LPs with redundant equality rows (CORDIC,
    /// DR) feed warm starts to their children instead of silently
    /// reporting `warm_attempts: 0`.
    fn pivot_out_artificials(&mut self) -> bool {
        let n = self.p.n_struct + self.p.m;
        if !self.basis.iter().any(|&j| j >= n) {
            return true;
        }
        let saved_basis = self.basis.clone();
        let saved_status = self.status.clone();
        let m = self.p.m;
        let mut rho = vec![0.0; m];
        let mut y = vec![0.0; m];
        let mut done = true;
        'positions: for pos in 0..m {
            if self.basis[pos] < n {
                continue;
            }
            // Row pos of B⁻¹[A|I]; the factors are current (refactored
            // after any previous swap). The duals are recomputed per swap
            // for the same reason.
            for v in rho.iter_mut() {
                *v = 0.0;
            }
            rho[pos] = 1.0;
            self.factors.btran(&mut rho);
            for (p2, v) in y.iter_mut().enumerate() {
                *v = self.cost[self.basis[p2]];
            }
            self.factors.btran(&mut y);
            // Entering column: nonbasic, real, |alpha| above the pivot
            // tolerance. Zero-reduced-cost columns are strongly preferred
            // — entering one leaves the duals (hence every reduced-cost
            // sign) untouched, so the swapped basis stays dual feasible
            // and the children's warm dual starts accept it. Among
            // equally-preferred candidates the largest |alpha| wins for
            // numerical stability (first/lowest index on ties —
            // deterministic).
            let mut pick: Option<(usize, f64, bool)> = None;
            for j in 0..n {
                if matches!(self.status[j], VStat::Basic(_)) {
                    continue;
                }
                let a = self.dot_col(j, &rho).abs();
                if a <= PIVOT_TOL {
                    continue;
                }
                let zero_rc = (self.cost[j] - self.dot_col(j, &y)).abs() <= 1e-9;
                let better = match pick {
                    None => true,
                    Some((_, best_a, best_zrc)) => {
                        (zero_rc && !best_zrc) || (zero_rc == best_zrc && a > best_a)
                    }
                };
                if better {
                    pick = Some((j, a, zero_rc));
                }
            }
            let Some((j, _, _)) = pick else {
                // The row is redundant given the nonbasic set; leave the
                // artificial where it is.
                done = false;
                continue;
            };
            let art = self.basis[pos];
            self.basis[pos] = j;
            self.status[j] = VStat::Basic(pos);
            // Artificials are pinned to [0, 0] after phase 1.
            self.status[art] = VStat::AtLower;
            if self.refactor().is_err() {
                done = false;
                break 'positions;
            }
        }
        let clean = self.basis.iter().all(|&j| j < n);
        if !(done
            && clean
            && self.residual_ok(1e-6)
            && self.primal_feasible(1e-6)
            && self.dual_feasible(1e-6))
        {
            // Restore: the original basis factored before, so this
            // refactorization is expected to succeed; if it still fails
            // the worker is only used for snapshotting, which the `false`
            // return suppresses.
            self.basis = saved_basis;
            self.status = saved_status;
            let _ = self.refactor();
            return false;
        }
        true
    }

    /// Snapshot the basis for later warm starts. `None` when an artificial
    /// is still basic (rare degenerate phase-1 leftovers) — such a basis
    /// cannot be reproduced without the artificial columns.
    fn snapshot(&self) -> Option<WarmBasis> {
        let n = self.p.n_struct + self.p.m;
        if self.basis.iter().any(|&j| j >= n) {
            return None;
        }
        Some(WarmBasis {
            status: self.status[..n].to_vec(),
            basis: self.basis.clone(),
        })
    }

    /// Extract tableau rows for basic candidate columns with fractional
    /// values, most fractional first, capped at `max_rows`.
    ///
    /// A phase-1 artificial still basic (at zero — the solve is optimal,
    /// so feasible) is harmless: GMI validity rests on the aggregated
    /// identity `ρᵀA x + ρᵀ s = ρᵀ b` over structural and slack columns,
    /// which holds for *any* multiplier vector ρ on every model-feasible
    /// point — artificials are identically zero there and contribute
    /// nothing. The basis only picks which ρ to try; it never enters the
    /// certificate.
    fn tableau(&self, candidate: &[bool], frac_tol: f64, max_rows: usize) -> Option<TableauData> {
        if max_rows == 0 {
            return None;
        }
        let n = self.p.n_struct + self.p.m;
        // (position, distance of frac(value) from 0.5) — closest first,
        // position-ordered among ties, both deterministic.
        let mut picks: Vec<(usize, f64)> = Vec::new();
        for (pos, &bj) in self.basis.iter().enumerate() {
            if bj >= self.p.n_struct || !candidate[bj] {
                continue;
            }
            let v = self.x_basic[pos];
            let frac = v - v.floor();
            if frac.min(1.0 - frac) > frac_tol {
                picks.push((pos, (frac - 0.5).abs()));
            }
        }
        picks.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        picks.truncate(max_rows);
        let mut rows = Vec::with_capacity(picks.len());
        for &(pos, _) in &picks {
            let mut rho = vec![0.0; self.p.m];
            rho[pos] = 1.0;
            self.factors.btran(&mut rho);
            rows.push(TableauRow { rho });
        }
        let status = self.status[..n]
            .iter()
            .map(|st| match st {
                VStat::Basic(_) => TabStat::Basic,
                VStat::AtLower => TabStat::AtLower,
                VStat::AtUpper => TabStat::AtUpper,
            })
            .collect();
        Some(TableauData { status, rows })
    }

    /// Rebuild a worker from a parent snapshot under (possibly tightened)
    /// bounds. Validates the snapshot against the problem dimensions and
    /// normalizes nonbasic statuses whose bound went away; any mismatch is
    /// `Err(LpAbort::Singular)` (= fall back to a cold solve).
    fn from_basis(
        p: &'a LpProblem,
        lb_in: &[f64],
        ub_in: &[f64],
        warm: &WarmBasis,
    ) -> Result<Self, LpAbort> {
        let mut w = Self::from_basis_unfactored(p, lb_in, ub_in, warm)?;
        w.refactor()?;
        Ok(w)
    }

    /// Like [`Worker::from_basis`], but first tries to adopt previously
    /// saved LU factors instead of refactoring. Stale or unverifiable
    /// factors degrade to a fresh factorization, never to wrong answers:
    /// adoption requires the factor dimension to match (after a border
    /// extension when the problem gained rows), a short eta file, and a
    /// residual check of the recomputed basic values. Returns the worker
    /// plus whether the cached factors were actually reused.
    fn from_basis_cached(
        p: &'a LpProblem,
        lb_in: &[f64],
        ub_in: &[f64],
        warm: &WarmBasis,
        factors: &Factors,
    ) -> Result<(Self, bool), LpAbort> {
        let mut w = Self::from_basis_unfactored(p, lb_in, ub_in, warm)?;
        let mut cached = factors.clone();
        if cached.dim() < p.m && !extend_factors_for_rows(p, &w.basis, &mut cached) {
            w.refactor()?;
            return Ok((w, false));
        }
        let reused = cached.dim() == p.m && cached.eta_count() < REFACTOR_ETAS && {
            w.factors = cached;
            w.recompute_x_basic();
            w.residual_ok(1e-6)
        };
        if !reused {
            w.refactor()?;
        }
        Ok((w, reused))
    }

    /// Shared snapshot validation and worker assembly for the warm-start
    /// constructors; the caller must install factors before solving.
    fn from_basis_unfactored(
        p: &'a LpProblem,
        lb_in: &[f64],
        ub_in: &[f64],
        warm: &WarmBasis,
    ) -> Result<Self, LpAbort> {
        let m = p.m;
        let n = p.n_struct + m;
        if warm.status.len() != n || warm.basis.len() != m {
            return Err(LpAbort::Singular);
        }
        let mut status = warm.status.clone();
        for (j, st) in status.iter_mut().enumerate() {
            match *st {
                VStat::Basic(pos) => {
                    if pos >= m || warm.basis[pos] != j {
                        return Err(LpAbort::Singular);
                    }
                }
                VStat::AtLower => {
                    // `nb_value` evaluates AtLower with an infinite lower
                    // bound at the *upper* bound; make the status say so.
                    if !lb_in[j].is_finite() && ub_in[j].is_finite() {
                        *st = VStat::AtUpper;
                    }
                }
                VStat::AtUpper => {
                    if !ub_in[j].is_finite() {
                        if lb_in[j].is_finite() {
                            *st = VStat::AtLower;
                        } else {
                            return Err(LpAbort::Singular);
                        }
                    }
                }
            }
        }
        for (pos, &j) in warm.basis.iter().enumerate() {
            if j >= n || !matches!(status[j], VStat::Basic(bp) if bp == pos) {
                return Err(LpAbort::Singular);
            }
        }
        let mut w = Worker {
            p,
            lb: lb_in.to_vec(),
            ub: ub_in.to_vec(),
            cost: vec![0.0; n],
            art_cols: Vec::new(),
            status,
            basis: warm.basis.clone(),
            x_basic: vec![0.0; m],
            factors: Factors::default(),
            lu: FactorTally::default(),
            iters: 0,
            stall: 0,
            bland: false,
            always_bland: false,
            price_seed: 0,
            in_phase1: false,
        };
        w.set_phase2_costs();
        Ok(w)
    }

    /// Is the current basic point inside its bounds? Primal warm starts
    /// (objective deltas leave the optimal vertex feasible) require this
    /// before phase-2 pivoting is sound.
    fn primal_feasible(&self, tol: f64) -> bool {
        self.basis.iter().enumerate().all(|(pos, &j)| {
            let v = self.x_basic[pos];
            v.is_finite() && v >= self.lb[j] - tol && v <= self.ub[j] + tol
        })
    }

    /// Cheap O(nnz) certificate that adopted factors actually invert the
    /// current basis: recompute the nonbasic residual `b − N x_N` and
    /// check `B x_B` reproduces it within `tol`. Catches stale snapshots,
    /// mis-mapped columns, and drifted eta files before any pivot trusts
    /// them.
    fn residual_ok(&self, tol: f64) -> bool {
        if self.x_basic.iter().any(|v| !v.is_finite()) {
            return false;
        }
        let mut resid = self.p.rhs.clone();
        for j in 0..self.n_total() {
            if matches!(self.status[j], VStat::Basic(_)) {
                continue;
            }
            let v = self.nb_value(j);
            if v != 0.0 {
                for &(r, cv) in self.col_entries(j) {
                    resid[r] -= cv * v;
                }
            }
        }
        for (pos, &j) in self.basis.iter().enumerate() {
            let xv = self.x_basic[pos];
            if xv != 0.0 {
                for &(r, cv) in self.col_entries(j) {
                    resid[r] -= cv * xv;
                }
            }
        }
        resid.iter().all(|v| v.abs() <= tol)
    }

    /// Snapshot basis *and* factors for persistent re-solves; `None`
    /// exactly when [`Worker::snapshot`] declines.
    fn snapshot_with_factors(&self) -> Option<(WarmBasis, Factors)> {
        self.snapshot().map(|wb| (wb, self.factors.clone()))
    }

    /// Are the phase-2 reduced costs sign-consistent with every nonbasic
    /// status? Warm starts require this before dual pivoting is sound.
    fn dual_feasible(&self, tol: f64) -> bool {
        let m = self.p.m;
        let mut y = vec![0.0; m];
        for (pos, &j) in self.basis.iter().enumerate() {
            y[pos] = self.cost[j];
        }
        self.factors.btran(&mut y);
        for j in 0..self.n_total() {
            let st = self.status[j];
            if matches!(st, VStat::Basic(_)) || self.lb[j] == self.ub[j] {
                continue;
            }
            let d = self.cost[j] - self.dot_col(j, &y);
            let free = !self.lb[j].is_finite() && !self.ub[j].is_finite();
            let ok = if free {
                d.abs() <= tol
            } else if st == VStat::AtLower && self.lb[j].is_finite() {
                d >= -tol
            } else {
                d <= tol
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Warm-start driver: dual pivots until primal feasible, then a primal
    /// cleanup pass to certify optimality.
    fn run_dual(&mut self, deadline: Option<Instant>) -> Result<LpSolution, LpAbort> {
        match self.optimize_dual(deadline)? {
            DualOutcome::Infeasible => Ok(self.finish(LpStatus::Infeasible)),
            DualOutcome::PrimalFeasible => {
                self.bland = false;
                self.stall = 0;
                match self.optimize(deadline)? {
                    InnerStatus::Optimal => Ok(self.finish(LpStatus::Optimal)),
                    InnerStatus::Unbounded => Ok(self.finish(LpStatus::Unbounded)),
                }
            }
        }
    }

    /// Bounded-variable dual simplex. Starting from a dual-feasible basis,
    /// repeatedly kick the most bound-violating basic variable out onto its
    /// violated bound, choosing the entering column by the dual ratio test
    /// so reduced-cost signs are preserved.
    ///
    /// `DualOutcome::Infeasible` is a *primal* infeasibility certificate
    /// independent of dual feasibility: when no entering column is
    /// eligible, row `r` of `B⁻¹[A|I]` reads
    /// `x_{B(r)} = β₀ − Σ α_j x_j` over nonbasic `j`, and the current
    /// nonbasic point already extremizes the right-hand side toward the
    /// violated bound — no feasible point exists.
    fn optimize_dual(&mut self, deadline: Option<Instant>) -> Result<DualOutcome, LpAbort> {
        let m = self.p.m;
        if m == 0 {
            return Ok(DualOutcome::PrimalFeasible);
        }
        let mut w = vec![0.0; m];
        let mut rho = vec![0.0; m];
        let mut y = vec![0.0; m];
        let mut stall = 0usize;
        let mut last_viol = f64::INFINITY;
        let start_iters = self.iters;
        loop {
            self.iters += 1;
            if self.iters - start_iters > DUAL_MAX_ITERS {
                return Err(LpAbort::Singular);
            }
            if self.iters.is_multiple_of(256) {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(LpAbort::Timeout);
                    }
                }
            }

            // Leaving: the most violated basic variable (deterministic:
            // strictly-larger violation wins, so the first/lowest position
            // wins ties).
            let mut leave: Option<(usize, f64, bool)> = None; // (pos, viol, below)
            for (pos, &bj) in self.basis.iter().enumerate() {
                let x = self.x_basic[pos];
                let below = self.lb[bj] - x;
                let above = x - self.ub[bj];
                if below > FEAS_TOL && leave.is_none_or(|(_, v, _)| below > v) {
                    leave = Some((pos, below, true));
                }
                if above > FEAS_TOL && leave.is_none_or(|(_, v, _)| above > v) {
                    leave = Some((pos, above, false));
                }
            }
            let Some((r, viol, below)) = leave else {
                return Ok(DualOutcome::PrimalFeasible);
            };

            // Anti-cycling: if the worst violation refuses to shrink for
            // long enough, reject to a cold solve rather than spin.
            if viol >= last_viol - 1e-12 {
                stall += 1;
                if stall > DUAL_STALL_LIMIT {
                    return Err(LpAbort::Singular);
                }
            } else {
                stall = 0;
            }
            last_viol = viol;

            // ρ = B⁻ᵀ e_r gives row r of B⁻¹[A|I]; y = B⁻ᵀ c_B the duals.
            for v in rho.iter_mut() {
                *v = 0.0;
            }
            rho[r] = 1.0;
            self.factors.btran(&mut rho);
            for (pos, &j) in self.basis.iter().enumerate() {
                y[pos] = self.cost[j];
            }
            self.factors.btran(&mut y);

            // Dual ratio test: among columns whose allowed movement pushes
            // x_B[r] toward the violated bound, take the smallest
            // |d_j| / |α_j| (ties: larger |α|, then lower index — both
            // deterministic).
            let n_total = self.n_total();
            let mut enter: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
            let mut weak_free = false;
            for j in 0..n_total {
                let st = self.status[j];
                if matches!(st, VStat::Basic(_)) || self.lb[j] == self.ub[j] {
                    continue;
                }
                let alpha = self.dot_col(j, &rho);
                let free = !self.lb[j].is_finite() && !self.ub[j].is_finite();
                if alpha.abs() <= PIVOT_TOL {
                    // A free column with a tiny-but-nonzero α could in
                    // principle absorb any violation; refusing to pivot on
                    // it must not be read as an infeasibility proof.
                    if free && alpha.abs() > 1e-12 {
                        weak_free = true;
                    }
                    continue;
                }
                let at_lower = st == VStat::AtLower && self.lb[j].is_finite();
                // x_B[r] changes by −α·dt; AtLower may only increase,
                // AtUpper only decrease, free either way.
                let ok = if free {
                    true
                } else if below {
                    (at_lower && alpha < 0.0) || (!at_lower && alpha > 0.0)
                } else {
                    (at_lower && alpha > 0.0) || (!at_lower && alpha < 0.0)
                };
                if !ok {
                    continue;
                }
                let d = self.cost[j] - self.dot_col(j, &y);
                let ratio = d.abs() / alpha.abs();
                let better = match enter {
                    None => true,
                    Some((bj, br, ba)) => {
                        ratio < br - 1e-10
                            || (ratio < br + 1e-10
                                && (alpha.abs() > ba.abs() + 1e-12
                                    || (alpha.abs() >= ba.abs() - 1e-12 && j < bj)))
                    }
                };
                if better {
                    enter = Some((j, ratio, alpha));
                }
            }
            let Some((q, _ratio, _alpha)) = enter else {
                if weak_free {
                    return Err(LpAbort::Singular);
                }
                return Ok(DualOutcome::Infeasible);
            };

            // Pivot: w = B⁻¹ A_q; drive the leaving variable exactly onto
            // its violated bound.
            self.densify_col(q, &mut w);
            self.factors.ftran(&mut w);
            if w[r].abs() <= PIVOT_TOL * 0.1 {
                // ftran and btran disagree about the pivot magnitude; the
                // factorization is not trustworthy.
                return Err(LpAbort::Singular);
            }
            let leaving = self.basis[r];
            let target = if below {
                self.lb[leaving]
            } else {
                self.ub[leaving]
            };
            let t = (self.x_basic[r] - target) / w[r];
            for (pos, &wv) in w.iter().enumerate() {
                if wv != 0.0 {
                    self.x_basic[pos] -= t * wv;
                }
            }
            let entering_value = self.nb_value(q) + t;
            self.status[leaving] = if below {
                VStat::AtLower
            } else {
                VStat::AtUpper
            };
            self.basis[r] = q;
            self.status[q] = VStat::Basic(r);
            self.x_basic[r] = entering_value;
            let ok = self.factors.update(r, &w);
            if !ok || self.factors.eta_count() >= REFACTOR_ETAS {
                self.refactor()?;
            }
        }
    }

    fn phase1_value(&self) -> f64 {
        let base = self.p.n_struct + self.p.m;
        self.basis
            .iter()
            .enumerate()
            .filter(|(_, &j)| j >= base)
            .map(|(pos, _)| self.x_basic[pos].abs())
            .sum()
    }

    fn finish(&self, status: LpStatus) -> LpSolution {
        let mut x_all = vec![0.0; self.n_total()];
        for (j, v) in x_all.iter_mut().enumerate() {
            *v = match self.status[j] {
                VStat::Basic(pos) => self.x_basic[pos],
                _ => self.nb_value(j),
            };
        }
        let obj = (0..self.p.n_struct).map(|j| self.p.obj[j] * x_all[j]).sum();
        // Duals from the final basis.
        let mut y = vec![0.0; self.p.m];
        for (pos, &j) in self.basis.iter().enumerate() {
            y[pos] = self.cost[j];
        }
        // y currently holds c_B by position; btran converts to row duals.
        self.factors.btran(&mut y);
        LpSolution {
            status,
            x: x_all[..self.p.n_struct].to_vec(),
            obj,
            y,
            iters: self.iters,
        }
    }

    /// Core iteration loop for the current phase.
    fn optimize(&mut self, deadline: Option<Instant>) -> Result<InnerStatus, LpAbort> {
        let m = self.p.m;
        let mut w = vec![0.0; m];
        let mut y = vec![0.0; m];
        loop {
            self.iters += 1;
            if self.iters > MAX_ITERS {
                return Err(LpAbort::Numerical("simplex iteration limit".into()));
            }
            if self.iters.is_multiple_of(256) {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(LpAbort::Timeout);
                    }
                }
            }

            // Duals: y = B⁻ᵀ c_B.
            for (pos, &j) in self.basis.iter().enumerate() {
                y[pos] = self.cost[j];
            }
            self.factors.btran(&mut y);

            // Pricing.
            let mut enter: Option<(usize, f64, f64)> = None; // (col, d, dir)
            let n_total = self.n_total();
            for j in 0..n_total {
                match self.status[j] {
                    VStat::Basic(_) => continue,
                    VStat::AtLower => {
                        if self.lb[j] == self.ub[j] {
                            continue; // fixed
                        }
                        let d = self.cost[j] - self.dot_col(j, &y);
                        let free = !self.lb[j].is_finite();
                        if d < -DUAL_TOL || (free && d > DUAL_TOL) {
                            let dir = if d < 0.0 { 1.0 } else { -1.0 };
                            if self.bland || self.always_bland {
                                enter = Some((j, d, dir));
                                break;
                            }
                            if enter.is_none_or(|(bj, bd, _)| self.merit(j, d) > self.merit(bj, bd))
                            {
                                enter = Some((j, d, dir));
                            }
                        }
                    }
                    VStat::AtUpper => {
                        if self.lb[j] == self.ub[j] {
                            continue;
                        }
                        let d = self.cost[j] - self.dot_col(j, &y);
                        if d > DUAL_TOL {
                            if self.bland || self.always_bland {
                                enter = Some((j, d, -1.0));
                                break;
                            }
                            if enter.is_none_or(|(bj, bd, _)| self.merit(j, d) > self.merit(bj, bd))
                            {
                                enter = Some((j, d, -1.0));
                            }
                        }
                    }
                }
            }

            let (q, _dq, dir) = match enter {
                Some(e) => e,
                None => return Ok(InnerStatus::Optimal),
            };

            // FTRAN of the entering column.
            self.densify_col(q, &mut w);
            self.factors.ftran(&mut w);

            // Ratio test. x_B changes by −θ·dir·w.
            let own_range = self.ub[q] - self.lb[q]; // may be inf/NaN(inf-inf)
            let mut theta = if own_range.is_finite() {
                own_range
            } else {
                f64::INFINITY
            };
            let mut leave: Option<(usize, bool)> = None; // (position, hits_upper)
            let mut leave_piv = 0.0_f64;
            for (pos, &wv) in w.iter().enumerate() {
                if wv.abs() <= PIVOT_TOL {
                    continue;
                }
                let delta = -dir * wv; // change of x_B[pos] per unit θ
                let bj = self.basis[pos];
                let (lim, hits_upper) = if delta > 0.0 {
                    if self.ub[bj].is_finite() {
                        ((self.ub[bj] - self.x_basic[pos]) / delta, true)
                    } else {
                        continue;
                    }
                } else if self.lb[bj].is_finite() {
                    ((self.x_basic[pos] - self.lb[bj]) / -delta, false)
                } else {
                    continue;
                };
                let lim = lim.max(0.0);
                let better = if self.bland || self.always_bland {
                    // Bland: smallest basis column index among blocking rows.
                    lim < theta - 1e-10
                        || (lim < theta + 1e-10 && leave.is_none_or(|(lp, _)| self.basis[lp] > bj))
                } else {
                    lim < theta - 1e-10 || (lim < theta + 1e-10 && wv.abs() > leave_piv.abs())
                };
                if better {
                    theta = lim.min(theta);
                    leave = Some((pos, hits_upper));
                    leave_piv = wv;
                }
            }

            if theta.is_infinite() {
                return Ok(InnerStatus::Unbounded);
            }

            // Stall bookkeeping for anti-cycling.
            if theta <= 1e-10 {
                self.stall += 1;
                if self.stall > STALL_LIMIT {
                    self.bland = true;
                }
            } else {
                self.stall = 0;
                self.bland = false;
            }

            // Apply the step to the basic values.
            if theta != 0.0 {
                for (pos, &wv) in w.iter().enumerate() {
                    if wv != 0.0 {
                        self.x_basic[pos] -= theta * dir * wv;
                    }
                }
            }

            match leave {
                None => {
                    // Bound flip of the entering variable.
                    self.status[q] = match self.status[q] {
                        VStat::AtLower => VStat::AtUpper,
                        VStat::AtUpper => VStat::AtLower,
                        VStat::Basic(_) => unreachable!(),
                    };
                }
                Some((pos, hits_upper)) => {
                    let leaving = self.basis[pos];
                    self.status[leaving] = if hits_upper {
                        VStat::AtUpper
                    } else {
                        VStat::AtLower
                    };
                    let entering_value = self.nb_value(q) + theta * dir;
                    self.basis[pos] = q;
                    self.status[q] = VStat::Basic(pos);
                    self.x_basic[pos] = entering_value;
                    let ok = self.factors.update(pos, &w);
                    if !ok || self.factors.eta_count() >= REFACTOR_ETAS {
                        self.refactor()?;
                    }
                }
            }
        }
    }
}

/// Column `j` of the computational form `[A | I]`, or of the artificial
/// unit columns past it.
fn basis_col<'a>(p: &'a LpProblem, art_cols: &'a [(usize, f64)], j: usize) -> &'a [(usize, f64)] {
    let base = p.n_struct + p.m;
    if j < base {
        &p.cols[j]
    } else {
        std::slice::from_ref(&art_cols[j - base])
    }
}

/// LU factorizations an LP solve performed (cold start, warm-start
/// refactor, eta-limit or unstable-update refactor, artificial pivot-out)
/// and, with metrics on, their total wall time.
#[derive(Debug, Clone, Copy, Default)]
struct FactorTally {
    count: usize,
    time: Duration,
}

impl FactorTally {
    fn add(&mut self, other: FactorTally) {
        self.count += other.count;
        self.time += other.time;
    }
}

/// Extend saved LU factors for rows appended to the problem since the
/// snapshot (added cuts): the extended basis is `[[B, 0], [C, I]]` with
/// the new rows' slacks basic, so the border rows are just the appended
/// rows' coefficients on the old basis columns. `basis` must already be
/// the extended basis vector. Returns `false` when the extension is not
/// representable (caller refactors instead).
fn extend_factors_for_rows(p: &LpProblem, basis: &[usize], factors: &mut Factors) -> bool {
    let old_m = factors.dim();
    if basis.len() != p.m || p.m < old_m {
        return false;
    }
    let added = p.m - old_m;
    let mut rows: Vec<(Vec<(usize, f64)>, f64)> = vec![(Vec::new(), 0.0); added];
    for (pos, &j) in basis.iter().enumerate() {
        if j >= p.n_struct + p.m {
            return false;
        }
        if pos >= old_m {
            // Appended positions must carry their own row's slack.
            if j != p.n_struct + pos {
                return false;
            }
            rows[pos - old_m].1 = 1.0;
            continue;
        }
        for &(r, v) in &p.cols[j] {
            if r >= old_m {
                rows[r - old_m].0.push((pos, v));
            }
        }
    }
    factors.append_rows(&rows)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InnerStatus {
    Optimal,
    Unbounded,
}

/// Outcome of the dual-simplex loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualOutcome {
    /// All basic variables inside their bounds; primal cleanup may start.
    PrimalFeasible,
    /// Certified primal infeasibility (failed dual ratio test).
    Infeasible,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, RowId, Sense};

    fn lp(model: &Model) -> LpSolution {
        LpProblem::from_model(model).solve().expect("lp solves")
    }

    #[test]
    fn simple_max_as_min() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y in [0, 10]
        // optimum at (4, 0): obj 12.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, -3.0);
        let y = m.add_continuous(0.0, 10.0, -2.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(3.0, y), Sense::Le, 6.0);
        let s = lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj - -12.0).abs() < 1e-6, "obj {}", s.obj);
        assert!((s.x[0] - 4.0).abs() < 1e-6);
        assert!(s.x[1].abs() < 1e-6);
    }

    #[test]
    fn ge_rows_need_phase1() {
        // min x + y s.t. x + y >= 3, x - y >= 1, 0 <= x,y <= 10.
        // optimum x=2, y=1.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, 1.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Ge, 3.0);
        m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Sense::Ge, 1.0);
        let s = lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj - 3.0).abs() < 1e-6, "obj {}", s.obj);
        assert!((s.x[0] - 2.0).abs() < 1e-6, "x {}", s.x[0]);
        assert!((s.x[1] - 1.0).abs() < 1e-6, "y {}", s.x[1]);
    }

    #[test]
    fn equality_rows() {
        // min 2x + 3y s.t. x + y == 5, x - y == 1 → x=3, y=2, obj 12.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 100.0, 2.0);
        let y = m.add_continuous(0.0, 100.0, 3.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Eq, 5.0);
        m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Sense::Eq, 1.0);
        let s = lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj - 12.0).abs() < 1e-6);
        assert!((s.x[0] - 3.0).abs() < 1e-6);
        assert!((s.x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(LinExpr::from(x), Sense::Ge, 2.0);
        let s = lp(&m);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 0.0);
        m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Sense::Le, 1.0);
        let s = lp(&m);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_bind() {
        // min -x s.t. x <= 7 via bound only.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 7.0, -1.0);
        m.add_constraint(LinExpr::from(x), Sense::Le, 100.0);
        let s = lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x, x in [-5, 5], x >= -3 → x = -3.
        let mut m = Model::new("t");
        let x = m.add_continuous(-5.0, 5.0, 1.0);
        m.add_constraint(LinExpr::from(x), Sense::Ge, -3.0);
        let s = lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - -3.0).abs() < 1e-6, "x {}", s.x[0]);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, -1.0);
        let y = m.add_continuous(0.0, 10.0, -1.0);
        for k in 1..=8 {
            m.add_constraint(
                LinExpr::term(k as f64, x) + LinExpr::term(k as f64, y),
                Sense::Le,
                2.0 * k as f64,
            );
        }
        let s = lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.obj - -2.0).abs() < 1e-6);
    }

    /// Optimality certificate on random LPs: primal feasibility plus
    /// reduced-cost sign conditions computed from the returned duals.
    #[test]
    fn random_lps_satisfy_optimality_certificate() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut optimal_count = 0;
        for _ in 0..60 {
            let n = 2 + (next() % 5) as usize;
            let rows = 1 + (next() % 6) as usize;
            let mut m = Model::new("rand");
            let vars: Vec<_> = (0..n)
                .map(|_| {
                    let lo = (next() % 5) as f64 - 2.0;
                    let hi = lo + 1.0 + (next() % 6) as f64;
                    let c = (next() % 9) as f64 - 4.0;
                    m.add_continuous(lo, hi, c)
                })
                .collect();
            for _ in 0..rows {
                let mut e = LinExpr::new();
                for &v in &vars {
                    let c = (next() % 7) as f64 - 3.0;
                    if c != 0.0 {
                        e.add_term(c, v);
                    }
                }
                let sense = match next() % 3 {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Eq,
                };
                let rhs = (next() % 11) as f64 - 5.0;
                m.add_constraint(e, sense, rhs);
            }
            let p = LpProblem::from_model(&m);
            let s = p.solve().expect("no numerical failure");
            if s.status != LpStatus::Optimal {
                continue;
            }
            optimal_count += 1;
            // Primal feasibility.
            assert!(
                m.check_feasible(&s.x, 1e-5).is_none(),
                "infeasible 'optimal' point"
            );
            // Reduced-cost conditions for structural variables.
            for (j, &v) in vars.iter().enumerate() {
                let d: f64 =
                    m.cols[j].obj - p.cols[j].iter().map(|&(r, c)| c * s.y[r]).sum::<f64>();
                let (lo, hi) = m.bounds(v);
                let at_lower = (s.x[j] - lo).abs() < 1e-5;
                let at_upper = (s.x[j] - hi).abs() < 1e-5;
                if !at_lower && !at_upper {
                    assert!(d.abs() < 1e-5, "interior var with nonzero reduced cost {d}");
                } else if at_lower && !at_upper {
                    assert!(d > -1e-5, "at lower bound with improving direction {d}");
                } else if at_upper && !at_lower {
                    assert!(d < 1e-5, "at upper bound with improving direction {d}");
                }
            }
        }
        assert!(
            optimal_count > 10,
            "too few optimal instances to be meaningful"
        );
    }

    #[test]
    fn warm_start_matches_cold_after_bound_tightening() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 → (4, 0). Then branch
        // x <= 2: optimum moves to (2, 4/3), obj -(6 + 8/3).
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, -3.0);
        let y = m.add_continuous(0.0, 10.0, -2.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(3.0, y), Sense::Le, 6.0);
        let p = LpProblem::from_model(&m);
        let (root, warm) = p.solve_primal(&p.lb, &p.ub, None).expect("root solves");
        assert_eq!(root.status, LpStatus::Optimal);
        let warm = warm.expect("optimal root yields a snapshot");

        let mut ub = p.ub.clone();
        ub[0] = 2.0;
        let (ws, wsnap) = p
            .solve_dual_warm(&p.lb, &ub, &warm, None)
            .expect("warm start accepted");
        let cold = p.solve_with_bounds(&p.lb, &ub, None).expect("cold solves");
        assert_eq!(ws.status, LpStatus::Optimal);
        assert!(
            (ws.obj - cold.obj).abs() < 1e-6,
            "{} vs {}",
            ws.obj,
            cold.obj
        );
        assert!(
            (ws.obj - (-(6.0 + 8.0 / 3.0))).abs() < 1e-6,
            "obj {}",
            ws.obj
        );
        assert!(wsnap.is_some(), "re-optimized basis snapshots again");
    }

    #[test]
    fn warm_start_certifies_infeasibility() {
        // x + y >= 3 with both tightened to [0, 1] has no solution.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, 1.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Ge, 3.0);
        let p = LpProblem::from_model(&m);
        let (root, warm) = p.solve_primal(&p.lb, &p.ub, None).expect("root solves");
        assert_eq!(root.status, LpStatus::Optimal);
        let warm = warm.expect("snapshot");
        let mut ub = p.ub.clone();
        ub[0] = 1.0;
        ub[1] = 1.0;
        let (ws, _) = p
            .solve_dual_warm(&p.lb, &ub, &warm, None)
            .expect("warm start accepted");
        assert_eq!(ws.status, LpStatus::Infeasible);
    }

    #[test]
    fn primal_warm_matches_cold_after_objective_change() {
        // max 3x + 2y → (4, 0); flip the objective to max 2x + 3y: the old
        // vertex stays feasible but is no longer optimal, so the primal
        // warm path must re-pivot to (3, 1) with objective −9.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, -3.0);
        let y = m.add_continuous(0.0, 10.0, -2.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(3.0, y), Sense::Le, 6.0);
        let p = LpProblem::from_model(&m);
        let (root, snap) = p.solve_primal_capture(&p.lb, &p.ub, None).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        let (warm, factors) = snap.expect("snapshot");

        let mut m2 = m.clone();
        m2.set_objective_coeff(x, -2.0);
        m2.set_objective_coeff(y, -3.0);
        let p2 = LpProblem::from_model(&m2);
        let (ws, snap2, reused) = p2
            .solve_warm_persistent(
                &p2.lb,
                &p2.ub,
                &warm,
                Some(&factors),
                WarmMode::Primal,
                None,
            )
            .expect("primal warm accepted");
        let cold = p2.solve_with_bounds(&p2.lb, &p2.ub, None).expect("cold");
        assert_eq!(ws.status, LpStatus::Optimal);
        assert!(
            (ws.obj - cold.obj).abs() < 1e-6,
            "{} vs {}",
            ws.obj,
            cold.obj
        );
        assert!(reused, "identical basis should reuse the saved factors");
        assert!(snap2.is_some());
    }

    #[test]
    fn cached_factors_reused_after_bound_change() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, -3.0);
        let y = m.add_continuous(0.0, 10.0, -2.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(3.0, y), Sense::Le, 6.0);
        let p = LpProblem::from_model(&m);
        let (root, snap) = p.solve_primal_capture(&p.lb, &p.ub, None).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        let (warm, factors) = snap.expect("snapshot");

        let mut ub = p.ub.clone();
        ub[0] = 2.0;
        let (ws, _, reused) = p
            .solve_warm_persistent(&p.lb, &ub, &warm, Some(&factors), WarmMode::Dual, None)
            .expect("dual warm accepted");
        let cold = p.solve_with_bounds(&p.lb, &ub, None).expect("cold");
        assert_eq!(ws.status, LpStatus::Optimal);
        assert!((ws.obj - cold.obj).abs() < 1e-6);
        assert!(reused, "bound deltas keep the basis and factors valid");
    }

    #[test]
    fn added_row_border_warm_matches_cold() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, -3.0);
        let y = m.add_continuous(0.0, 10.0, -2.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(3.0, y), Sense::Le, 6.0);
        let p = LpProblem::from_model(&m);
        let (root, snap) = p.solve_primal_capture(&p.lb, &p.ub, None).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        let (warm, factors) = snap.expect("snapshot");

        // A cut that separates the old optimum (4, 0): x <= 3.
        let mut m2 = m.clone();
        m2.add_constraint(LinExpr::from(x), Sense::Le, 3.0);
        let p2 = LpProblem::from_model(&m2);
        let warm2 = warm.with_added_rows(p2.n_struct, 1);
        let (ws, snap2, reused) = p2
            .solve_warm_persistent(&p2.lb, &p2.ub, &warm2, Some(&factors), WarmMode::Dual, None)
            .expect("bordered dual warm accepted");
        let cold = p2.solve_with_bounds(&p2.lb, &p2.ub, None).expect("cold");
        assert_eq!(ws.status, LpStatus::Optimal);
        assert!(
            (ws.obj - cold.obj).abs() < 1e-6,
            "{} vs {}",
            ws.obj,
            cold.obj
        );
        assert!(reused, "border extension should adopt the saved factors");
        assert!(snap2.is_some());
    }

    #[test]
    fn added_cols_remap_preserves_warm_start() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, -3.0);
        let y = m.add_continuous(0.0, 10.0, -2.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(3.0, y), Sense::Le, 6.0);
        let p = LpProblem::from_model(&m);
        let (root, snap) = p.solve_primal_capture(&p.lb, &p.ub, None).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        let (warm, factors) = snap.expect("snapshot");

        // New column with a coefficient in row 0, attractive enough to
        // enter; starts nonbasic at 0, so the primal warm start is valid.
        let mut m2 = m.clone();
        let z = m2.add_continuous(0.0, 1.0, -10.0);
        m2.add_coefficient(RowId::from_index(0), z, 1.0);
        let p2 = LpProblem::from_model(&m2);
        let warm2 = warm.with_added_cols(p.n_struct, 1);
        let (ws, _, reused) = p2
            .solve_warm_persistent(
                &p2.lb,
                &p2.ub,
                &warm2,
                Some(&factors),
                WarmMode::Primal,
                None,
            )
            .expect("primal warm accepted");
        let cold = p2.solve_with_bounds(&p2.lb, &p2.ub, None).expect("cold");
        assert_eq!(ws.status, LpStatus::Optimal);
        assert!(
            (ws.obj - cold.obj).abs() < 1e-6,
            "{} vs {}",
            ws.obj,
            cold.obj
        );
        assert!(reused);
    }

    #[test]
    fn random_warm_starts_match_cold_solves() {
        let mut state = 0xC0FF_EE00_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut compared = 0;
        for _ in 0..80 {
            let n = 2 + (next() % 5) as usize;
            let rows = 1 + (next() % 5) as usize;
            let mut m = Model::new("rand");
            let vars: Vec<_> = (0..n)
                .map(|_| {
                    let lo = (next() % 5) as f64 - 2.0;
                    let hi = lo + 2.0 + (next() % 6) as f64;
                    let c = (next() % 9) as f64 - 4.0;
                    m.add_continuous(lo, hi, c)
                })
                .collect();
            for _ in 0..rows {
                let mut e = LinExpr::new();
                for &v in &vars {
                    let c = (next() % 7) as f64 - 3.0;
                    if c != 0.0 {
                        e.add_term(c, v);
                    }
                }
                let sense = if next() % 2 == 0 {
                    Sense::Le
                } else {
                    Sense::Ge
                };
                let rhs = (next() % 11) as f64 - 5.0;
                m.add_constraint(e, sense, rhs);
            }
            let p = LpProblem::from_model(&m);
            let Ok((root, Some(warm))) = p.solve_primal(&p.lb, &p.ub, None) else {
                continue;
            };
            if root.status != LpStatus::Optimal {
                continue;
            }
            // Branch-like tightening: split a variable's range at midpoint.
            let j = (next() as usize) % n;
            let mid = ((p.lb[j] + p.ub[j]) / 2.0).floor();
            let (mut lb2, mut ub2) = (p.lb.clone(), p.ub.clone());
            if next() % 2 == 0 {
                ub2[j] = mid;
            } else {
                lb2[j] = mid + 1.0;
            }
            if lb2[j] > ub2[j] {
                continue;
            }
            let cold = p.solve_with_bounds(&lb2, &ub2, None).expect("cold");
            match p.solve_dual_warm(&lb2, &ub2, &warm, None) {
                Err(LpAbort::Singular) => continue, // fallback path; allowed
                Err(e) => panic!("warm abort {e:?}"),
                Ok((ws, _)) => {
                    compared += 1;
                    assert_eq!(ws.status, cold.status, "status mismatch");
                    if ws.status == LpStatus::Optimal {
                        assert!(
                            (ws.obj - cold.obj).abs() < 1e-5,
                            "warm {} vs cold {}",
                            ws.obj,
                            cold.obj
                        );
                    }
                }
            }
        }
        assert!(compared > 20, "only {compared} warm/cold comparisons ran");
    }
}
