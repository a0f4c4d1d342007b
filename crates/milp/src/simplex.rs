//! Bounded-variable revised simplex: a dual simplex that solves cold LPs
//! from the all-slack basis and re-optimizes warm starts, plus a
//! two-phase primal for cold LPs the dual cannot start.
//!
//! Computational form: every model row `aᵀx {≤,=,≥} b` becomes
//! `aᵀx + s = b` with a sign-constrained slack, so the constraint matrix is
//! `[A | I]` and the initial all-slack basis is the identity.
//!
//! **Cold starts.** A cold solve puts every structural column at a bound
//! and every slack in the basis. When no structural column is free and
//! no cost has the wrong sign for the bound its column sits at, that
//! basis is dual feasible (y = 0, so d = c), and the dual loop of the
//! warm starts below solves the LP from it, whatever slack bounds it
//! violates (Koberstein 2005; CPLEX solves MIP relaxations this way by
//! default). Otherwise, or when the dual loop gives up short of the
//! deadline, the two-phase primal solves the LP: rows whose slack bound
//! is violated at the initial point get an *artificial* variable; phase 1
//! minimizes the total artificial magnitude, phase 2 the real objective.
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
//! solve"; correctness never depends on the warm path.
//!
//! **Pricing from the nonzeros** (Hall & McKinnon, "Hyper-sparsity in the
//! revised simplex method", 2005). [`LpProblem`] keeps a row-major copy
//! of A, so a pivot row `α = ρᵀ[A | I]` and the reduced costs
//! `d = c − yᵀ[A | I]` are accumulated row by row over the nonzeros of ρ
//! or y. Each column's sum adds the same products in the same (ascending
//! row) order as a column dot product, so every nonzero is bit-identical
//! to it. The dual loop carries d between pivots through the pivot row it
//! already has (Koberstein, PhD thesis, Paderborn 2005) and recomputes y
//! and d only after a refactorization; the primal loop prices on fresh
//! duals every iteration.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::lu::Factors;
use crate::model::{Model, Sense};
use pipemap_obs::metrics;

/// Start a per-solve timer only when the metrics registry is live.
/// Telemetry is read-only: nothing here feeds back into pivoting.
fn lp_metrics_start() -> Option<Instant> {
    metrics::enabled().then(Instant::now)
}

/// How an LP solve ended, for its `lp.*` metrics.
#[derive(Debug, Clone, Copy)]
enum LpEnd {
    /// A status was reached after `iters` simplex iterations.
    Completed { iters: usize, warm: bool },
    /// A warm start was refused; the caller falls back to a cold solve.
    WarmRejected,
    /// Deadline or numerical failure.
    Aborted,
}

/// Record an LP solve's LU factorizations, their wall time and the
/// sibling factors it adopted on every exit. A completed solve also
/// records its iteration count, its wall time and whether it was warm,
/// once per LP; a refused warm start counts in `lp.warm_rejects`.
fn lp_metrics_record(t0: Option<Instant>, lu: FactorTally, end: LpEnd) {
    let Some(t0) = t0 else { return };
    metrics::counter("lp.factorizations").add(lu.count as u64);
    metrics::counter("lp.factor_reuses").add(lu.reuses as u64);
    metrics::histogram("lp.factor_us").record(lu.time.as_micros() as f64);
    match end {
        LpEnd::Completed { iters, warm } => {
            metrics::histogram("lp.solve_us").record(t0.elapsed().as_micros() as f64);
            metrics::histogram("lp.iters").record(iters as f64);
            let kind = if warm {
                "lp.warm_solves"
            } else {
                "lp.cold_solves"
            };
            metrics::counter(kind).inc();
        }
        LpEnd::WarmRejected => metrics::counter("lp.warm_rejects").inc(),
        LpEnd::Aborted => {}
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
/// Largest relative drift of a carried reduced cost from a fresh one
/// (checked in debug builds at every resync of the dual loop).
const CARRY_TOL: f64 = 1e-6;

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
    /// The structural entries of `cols` again, row by row.
    rows: RowMajor,
}

/// The structural part of A stored by rows, packed: row `i` holds the
/// `(column, coeff)` entries `col/val[start[i]..start[i + 1]]` in the
/// model row's term order, which is the order `cols` received them.
#[derive(Debug, Clone, Default)]
struct RowMajor {
    start: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
}

impl RowMajor {
    fn range(&self, i: usize) -> Range<usize> {
        self.start[i]..self.start[i + 1]
    }
}

impl LpProblem {
    /// Build the computational form from a model, using the model's current
    /// bounds (integrality is ignored here).
    pub fn from_model(model: &Model) -> Self {
        let m = model.rows.len();
        let n = model.cols.len();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n + m];
        let mut rows = RowMajor::default();
        rows.start.push(0);
        let mut rhs = Vec::with_capacity(m);
        let mut lb: Vec<f64> = model.cols.iter().map(|c| c.lb).collect();
        let mut ub: Vec<f64> = model.cols.iter().map(|c| c.ub).collect();
        let mut obj: Vec<f64> = model.cols.iter().map(|c| c.obj).collect();
        for (i, row) in model.rows.iter().enumerate() {
            for &(v, c) in &row.coeffs {
                cols[v.index()].push((i, c));
                rows.col.push(v.index() as u32);
                rows.val.push(c);
            }
            rows.start.push(rows.col.len());
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
            rows,
        }
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

    /// Cold solve (see [`Self::solve_cold`]: the dual simplex from the
    /// all-slack basis, the two-phase primal when that basis is no dual
    /// start); also returns a basis snapshot suitable for warm-starting
    /// child solves when the LP reached optimality.
    pub fn solve_primal(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
    ) -> Result<(LpSolution, Option<WarmBasis>), LpAbort> {
        self.solve_cold(lb, ub, deadline, |w| {
            w.pivot_out_artificials();
            w.snapshot()
        })
    }

    /// [`Self::solve_primal`] that additionally captures simplex-tableau
    /// rows for fractional candidate columns — the raw material for Gomory
    /// mixed-integer separation. The rows are read from the optimal basis
    /// the cold solve ends with, dual start or two-phase primal, before
    /// any artificials of the primal are pivoted out; the snapshot after,
    /// so it is the one `solve_primal` returns. Both are `None` unless the
    /// solve reached optimality.
    pub fn solve_primal_tableau(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
        candidate: &[bool],
        frac_tol: f64,
        max_rows: usize,
    ) -> Result<(LpSolution, Option<WarmBasis>, Option<TableauData>), LpAbort> {
        let (sol, extra) = self.solve_cold(lb, ub, deadline, |w| {
            let tableau = w.tableau(candidate, frac_tol, max_rows);
            w.pivot_out_artificials();
            Some((w.snapshot(), tableau))
        })?;
        let (snap, tableau) = extra.unwrap_or((None, None));
        Ok((sol, snap, tableau))
    }

    /// Re-optimize from a parent basis after a bound change using the dual
    /// simplex. Returns `Err(LpAbort::Singular)` whenever the warm start
    /// cannot be trusted (stale snapshot, dual-infeasible start, numerical
    /// trouble); the caller should then fall back to [`Self::solve_primal`].
    ///
    /// `fresh`, when given, carries the fresh factors of `warm`'s basis
    /// between the two children of a node, which restart from the same
    /// snapshot: if it holds factors they are adopted in place of a
    /// refactorization, otherwise it receives a copy of the factors this
    /// solve computes, before any pivot.
    pub fn solve_dual_warm(
        &self,
        lb: &[f64],
        ub: &[f64],
        warm: &WarmBasis,
        fresh: Option<&mut Option<Factors>>,
        deadline: Option<Instant>,
    ) -> Result<(LpSolution, Option<WarmBasis>), LpAbort> {
        let t0 = lp_metrics_start();
        let Some(mut w) = Worker::from_basis(self, lb, ub, warm) else {
            lp_metrics_record(t0, FactorTally::default(), LpEnd::WarmRejected);
            return Err(LpAbort::Singular);
        };
        let res = w.factor_warm(fresh).and_then(|()| {
            if w.dual_feasible(1e-6) {
                w.run_dual(deadline)
            } else {
                Err(LpAbort::Singular)
            }
        });
        match res {
            Ok(sol) => {
                let snap = if sol.status == LpStatus::Optimal {
                    w.snapshot()
                } else {
                    None
                };
                let end = LpEnd::Completed {
                    iters: sol.iters,
                    warm: true,
                };
                lp_metrics_record(t0, w.lu, end);
                Ok((sol, snap))
            }
            Err(e) => {
                let end = if e == LpAbort::Timeout {
                    LpEnd::Aborted
                } else {
                    LpEnd::WarmRejected
                };
                lp_metrics_record(t0, w.lu, end);
                Err(e)
            }
        }
    }

    /// The one cold solve. It starts from the all-slack basis with the
    /// dual loop of the warm starts ([`Self::dual_cold_start`]). When
    /// that basis is no dual start (a free structural column, a cost of
    /// the wrong sign for its bound) or the dual loop aborts short of the
    /// deadline, the two-phase primal solves the LP instead and the solve
    /// counts in `lp.primal_fallbacks`. On optimality `extract` reads what
    /// the caller needs from the final worker. Every exit records its
    /// `lp.*` metrics, the dual start's LU work included.
    fn solve_cold<T>(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
        extract: impl FnOnce(&mut Worker<'_>) -> Option<T>,
    ) -> Result<(LpSolution, Option<T>), LpAbort> {
        let t0 = lp_metrics_start();
        let mut lu = FactorTally::default();
        let dual = self.dual_cold_start(lb, ub, deadline);
        let fallback = !matches!(dual, Some((_, Ok(_) | Err(LpAbort::Timeout))));
        if t0.is_some() {
            metrics::counter("lp.primal_fallbacks").add(u64::from(fallback));
        }
        match dual {
            Some((mut w, Ok(sol))) => return Ok(w.complete_cold(sol, t0, lu, extract)),
            Some((w, Err(e))) => {
                lu.add(w.lu);
                if e == LpAbort::Timeout {
                    lp_metrics_record(t0, lu, LpEnd::Aborted);
                    return Err(e);
                }
            }
            None => {}
        }
        self.solve_two_phase(lb, ub, deadline, t0, lu, extract)
    }

    /// Factor the all-slack basis and, when it is dual feasible, run
    /// [`Worker::run_dual`] from it: the dual loop, then the primal
    /// cleanup on fresh duals that certifies optimality. `None` when a
    /// structural column is free; a basis that is not dual feasible is
    /// `Err(LpAbort::Singular)`, as a refused warm start is.
    fn dual_cold_start(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
    ) -> Option<(Worker<'_>, Result<LpSolution, LpAbort>)> {
        let mut w = Worker::slack_basis(self, lb, ub)?;
        let res = w.refactor().and_then(|()| {
            if w.dual_feasible(1e-6) {
                w.run_dual(deadline)
            } else {
                Err(LpAbort::Singular)
            }
        });
        Some((w, res))
    }

    /// The two-phase primal from the slack basis with artificials: a
    /// singular basis restarts from scratch with diversified pricing
    /// (perturbed first, Bland's rule last) up to five times. Metered
    /// from `t0` (`None` records nothing) on top of the LU work `lu`
    /// already done; `extract` as in [`Self::solve_cold`].
    fn solve_two_phase<T>(
        &self,
        lb: &[f64],
        ub: &[f64],
        deadline: Option<Instant>,
        t0: Option<Instant>,
        mut lu: FactorTally,
        extract: impl FnOnce(&mut Worker<'_>) -> Option<T>,
    ) -> Result<(LpSolution, Option<T>), LpAbort> {
        for attempt in 0..5 {
            let mut w = Worker::new(self, lb, ub);
            w.price_seed = attempt as u64;
            w.always_bland = attempt >= 3;
            match w.run(deadline) {
                Err(LpAbort::Singular) => lu.add(w.lu),
                Ok(sol) => return Ok(w.complete_cold(sol, t0, lu, extract)),
                Err(e) => {
                    lu.add(w.lu);
                    lp_metrics_record(t0, lu, LpEnd::Aborted);
                    return Err(e);
                }
            }
        }
        lp_metrics_record(t0, lu, LpEnd::Aborted);
        Err(LpAbort::Numerical("repeated singular bases".into()))
    }

    /// A cold two-phase primal solve that records no `lp.*` metrics, for
    /// debug cross-checks that must not show in the counts they check.
    /// It never takes the dual start, so a check of a dual re-solve
    /// against it does not lean on the loop it checks.
    pub fn solve_primal_unmetered(&self) -> Result<LpSolution, LpAbort> {
        let lu = FactorTally::default();
        self.solve_two_phase(&self.lb, &self.ub, None, None, lu, |_| None::<()>)
            .map(|(s, _)| s)
    }
}

/// A restartable basis snapshot: the variable statuses and basis columns of
/// an optimal LP solve (structural + slack columns; never artificials).
///
/// Cheap to clone and `Send + Sync`, so branch & bound keeps one per node
/// behind an `Arc` and warm-starts children from any worker thread. It
/// is stored compactly, one byte per column and four per row, because
/// every expanded node keeps one: a basic column's position is its
/// index in `basis`, so `status` only says basic, at lower or at upper.
#[derive(Debug, Clone)]
pub(crate) struct WarmBasis {
    /// One of [`SNAP_BASIC`], [`SNAP_LOWER`], [`SNAP_UPPER`] per column.
    status: Vec<u8>,
    basis: Vec<u32>,
}

/// [`WarmBasis`] status codes.
const SNAP_BASIC: u8 = 0;
const SNAP_LOWER: u8 = 1;
const SNAP_UPPER: u8 = 2;

impl WarmBasis {
    /// Pack a basis; `None` when a column index does not fit in `u32`.
    fn pack(status: &[VStat], basis: &[usize]) -> Option<WarmBasis> {
        u32::try_from(status.len()).ok()?;
        let status = status
            .iter()
            .map(|st| match st {
                VStat::Basic(_) => SNAP_BASIC,
                VStat::AtLower => SNAP_LOWER,
                VStat::AtUpper => SNAP_UPPER,
            })
            .collect();
        let basis = basis.iter().map(|&j| j as u32).collect();
        Some(WarmBasis { status, basis })
    }

    /// Unpack for an LP with `n` columns and `m` rows. `None` unless the
    /// dimensions match, every status code is known, every basis column
    /// is in range, basic and listed once, and every basic column is in
    /// the basis.
    fn unpack(&self, n: usize, m: usize) -> Option<(Vec<VStat>, Vec<usize>)> {
        if self.status.len() != n || self.basis.len() != m {
            return None;
        }
        let mut status = self
            .status
            .iter()
            .map(|&code| match code {
                SNAP_LOWER => Some(VStat::AtLower),
                SNAP_UPPER => Some(VStat::AtUpper),
                // Placed by the basis loop below.
                SNAP_BASIC => Some(VStat::Basic(usize::MAX)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let mut basis = Vec::with_capacity(m);
        for (pos, &j) in self.basis.iter().enumerate() {
            let j = j as usize;
            match status.get_mut(j)? {
                st @ VStat::Basic(usize::MAX) => *st = VStat::Basic(pos),
                _ => return None,
            }
            basis.push(j);
        }
        // A basic code no basis entry placed.
        if status.contains(&VStat::Basic(usize::MAX)) {
            return None;
        }
        Some((status, basis))
    }

    /// Is column `j` basic in this snapshot?
    #[cfg(test)]
    fn is_basic(&self, j: usize) -> bool {
        self.status[j] == SNAP_BASIC
    }

    /// Re-index this snapshot for an LP with the same structural columns
    /// and a new row list: `rows[i]` is `Some(k)` when new row `i` is old
    /// row `k`, `None` when it is a new row. Kept rows keep their slack's
    /// status and new rows enter with their slack basic; an old row left
    /// out must have a basic slack, which leaves the basis with it. The
    /// surviving basic columns keep their order and the new slacks follow
    /// in row order.
    ///
    /// Every row whose slack is basic has dual 0, so the reduced costs of
    /// the mapped basis are those of this one: an optimal snapshot maps to
    /// a dual-feasible basis, ready for [`LpProblem::solve_dual_warm`].
    /// `None` when a dropped row's slack is nonbasic or `rows` is not an
    /// injective map into this snapshot's rows.
    pub fn remap_rows(&self, rows: &[Option<usize>]) -> Option<WarmBasis> {
        let m_old = self.basis.len();
        let n = self.status.len() - m_old;
        u32::try_from(n + rows.len()).ok()?;
        let mut new_row = vec![None; m_old];
        for (i, &k) in rows.iter().enumerate() {
            if let Some(k) = k {
                if new_row.get_mut(k)?.replace(i).is_some() {
                    return None;
                }
            }
        }
        let dropped_nonbasic = new_row
            .iter()
            .enumerate()
            .any(|(k, r)| r.is_none() && self.status[n + k] != SNAP_BASIC);
        if dropped_nonbasic {
            return None;
        }
        let mut status = self.status[..n].to_vec();
        status.extend(rows.iter().map(|&k| match k {
            Some(k) => self.status[n + k],
            None => SNAP_BASIC,
        }));
        let mut basis: Vec<u32> = self
            .basis
            .iter()
            .filter_map(|&j| match (j as usize).checked_sub(n) {
                None => Some(j),
                Some(k) => new_row[k].map(|i| (n + i) as u32),
            })
            .collect();
        basis.extend(
            rows.iter()
                .enumerate()
                .filter(|(_, k)| k.is_none())
                .map(|(i, _)| (n + i) as u32),
        );
        debug_assert_eq!(basis.len(), rows.len());
        Some(WarmBasis { status, basis })
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
    /// Pricing buffers, borrowed from this thread for the worker's life.
    price: PriceScratch,
}

/// Scratch of the row-wise pricing kernels. One per thread, lent to one
/// worker at a time and handed back when it drops, so node LPs allocate
/// no column-length vectors once the buffers have grown.
#[derive(Debug, Default)]
struct PriceScratch {
    /// Per column, the row-wise sum of the last [`PriceScratch::scatter`];
    /// zero on every column outside `touched`.
    acc: Vec<f64>,
    /// Bitset over columns: reached by the scatter in progress. All zero
    /// between scatters.
    reached: Vec<u64>,
    /// The columns the last scatter reached, ascending.
    touched: Vec<u32>,
    /// Reduced costs, one per column: fresh after
    /// [`Worker::price_fresh`], carried between pivots in the dual loop.
    d: Vec<f64>,
    /// The duals `y = B⁻ᵀ c_B` behind the last fresh `d`, one per row.
    y: Vec<f64>,
}

thread_local! {
    static PRICE_SCRATCH: RefCell<PriceScratch> = RefCell::new(PriceScratch::default());
}

impl PriceScratch {
    /// This thread's scratch (an empty one while another worker on the
    /// thread holds it).
    fn lend() -> Self {
        PRICE_SCRATCH.with_borrow_mut(std::mem::take)
    }

    /// `acc = vᵀ[A | I | artificials]` over the nonzeros of `v` (indexed
    /// by row), listing every column it reaches in `touched`, ascending
    /// (the ratio tests' tie windows make the visit order observable).
    /// Rows are visited in ascending order and each row's entries in
    /// stored order, so every column's sum adds the same products in the
    /// same order as [`Worker::dot_col`]: a nonzero sum is bit-identical
    /// to it, a zero one may differ in sign, and an untouched column's
    /// sum is the exact zero. The artificial on row `i` reads `v_i` as
    /// `dot_col` does.
    fn scatter(&mut self, p: &LpProblem, art_cols: &[(usize, f64)], v: &[f64]) {
        for &j in &self.touched {
            self.acc[j as usize] = 0.0;
        }
        self.touched.clear();
        let base = p.n_struct + p.m;
        let n = base + art_cols.len();
        if self.acc.len() < n {
            self.acc.resize(n, 0.0);
            self.reached.resize(n.div_ceil(64), 0);
        }
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let r = p.rows.range(i);
            for (&j, &a) in p.rows.col[r.clone()].iter().zip(&p.rows.val[r]) {
                self.add(j as usize, a * vi);
            }
            self.add(p.n_struct + i, 1.0 * vi);
        }
        for (a, &(row, _)) in art_cols.iter().enumerate() {
            if v[row] != 0.0 {
                self.add(base + a, v[row]);
            }
        }
        for (k, word) in self.reached[..n.div_ceil(64)].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.touched.push((k * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    fn add(&mut self, j: usize, x: f64) {
        self.acc[j] += x;
        self.reached[j / 64] |= 1 << (j % 64);
    }

    /// `d = cost − yᵀ[A | I | artificials]`, with `y` scattered row-wise.
    fn reduced_costs(&mut self, p: &LpProblem, art_cols: &[(usize, f64)], cost: &[f64], y: &[f64]) {
        self.scatter(p, art_cols, y);
        self.d.clear();
        self.d.extend_from_slice(cost);
        for &j in &self.touched {
            let j = j as usize;
            self.d[j] = cost[j] - self.acc[j];
        }
    }
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        let price = std::mem::take(&mut self.price);
        // Nothing to hand back to once the thread is being torn down.
        let _ = PRICE_SCRATCH.try_with(|s| *s.borrow_mut() = price);
    }
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

    /// Fresh duals `y = B⁻ᵀ c_B` and reduced costs into `price`.
    fn price_fresh(&mut self) {
        let mut y = std::mem::take(&mut self.price.y);
        self.duals_into(&mut y);
        self.price
            .reduced_costs(self.p, &self.art_cols, &self.cost, &y);
        self.price.y = y;
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
            price: PriceScratch::lend(),
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

    /// Close a completed cold solve: on optimality `extract` reads this
    /// worker, then the solve records its metrics with this worker's LU
    /// work added to `lu`.
    fn complete_cold<T>(
        &mut self,
        sol: LpSolution,
        t0: Option<Instant>,
        mut lu: FactorTally,
        extract: impl FnOnce(&mut Self) -> Option<T>,
    ) -> (LpSolution, Option<T>) {
        let extra = if sol.status == LpStatus::Optimal {
            extract(self)
        } else {
            None
        };
        lu.add(self.lu);
        let end = LpEnd::Completed {
            iters: sol.iters,
            warm: false,
        };
        lp_metrics_record(t0, lu, end);
        (sol, extra)
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
        let mut y = Vec::new();
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
            self.duals_into(&mut y);
            self.price.scatter(self.p, &self.art_cols, &rho);
            // Entering column: nonbasic, real, |alpha| above the pivot
            // tolerance. Zero-reduced-cost columns are strongly preferred
            // — entering one leaves the duals (hence every reduced-cost
            // sign) untouched, so the swapped basis stays dual feasible
            // and the children's warm dual starts accept it. Among
            // equally-preferred candidates the largest |alpha| wins for
            // numerical stability (first/lowest index on ties —
            // deterministic). Only the columns the pivot row reaches can
            // pass the tolerance; they come in ascending order.
            let mut pick: Option<(usize, f64, bool)> = None;
            for &j in &self.price.touched {
                let j = j as usize;
                if j >= n {
                    break;
                }
                if matches!(self.status[j], VStat::Basic(_)) {
                    continue;
                }
                let a = self.price.acc[j].abs();
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
        WarmBasis::pack(&self.status[..n], &self.basis)
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

    /// An unfactored phase-2 worker on the all-slack basis: every
    /// structural column nonbasic at its lower bound, or at its upper
    /// bound when the lower is −∞, and every slack basic. Its x_B, which
    /// the factorization computes, is b − N x_N and may violate slack
    /// bounds; that is the dual loop's to repair. `None` when a
    /// structural column is free, which a dual start cannot place.
    fn slack_basis(p: &'a LpProblem, lb_in: &[f64], ub_in: &[f64]) -> Option<Self> {
        let n = p.n_struct + p.m;
        let mut status = Vec::with_capacity(n);
        for j in 0..p.n_struct {
            status.push(if lb_in[j].is_finite() {
                VStat::AtLower
            } else if ub_in[j].is_finite() {
                VStat::AtUpper
            } else {
                return None;
            });
        }
        status.extend((0..p.m).map(VStat::Basic));
        let basis = (p.n_struct..n).collect();
        Some(Self::with_basis(p, lb_in, ub_in, status, basis))
    }

    /// An unfactored phase-2 worker on a given basis, without artificials.
    fn with_basis(
        p: &'a LpProblem,
        lb_in: &[f64],
        ub_in: &[f64],
        status: Vec<VStat>,
        basis: Vec<usize>,
    ) -> Self {
        let mut w = Worker {
            p,
            lb: lb_in.to_vec(),
            ub: ub_in.to_vec(),
            cost: vec![0.0; p.n_struct + p.m],
            art_cols: Vec::new(),
            status,
            basis,
            x_basic: vec![0.0; p.m],
            factors: Factors::default(),
            lu: FactorTally::default(),
            iters: 0,
            stall: 0,
            bland: false,
            always_bland: false,
            price_seed: 0,
            in_phase1: false,
            price: PriceScratch::lend(),
        };
        w.set_phase2_costs();
        w
    }

    /// Rebuild an unfactored worker from a parent snapshot under (possibly
    /// tightened) bounds. Validates the snapshot against the problem
    /// dimensions and normalizes nonbasic statuses whose bound went away;
    /// any mismatch is `None` (= fall back to a cold solve).
    fn from_basis(
        p: &'a LpProblem,
        lb_in: &[f64],
        ub_in: &[f64],
        warm: &WarmBasis,
    ) -> Option<Self> {
        let (mut status, basis) = warm.unpack(p.n_struct + p.m, p.m)?;
        for (j, st) in status.iter_mut().enumerate() {
            match *st {
                VStat::Basic(_) => {}
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
                            return None;
                        }
                    }
                }
            }
        }
        Some(Self::with_basis(p, lb_in, ub_in, status, basis))
    }

    /// Factor a worker built by [`Worker::from_basis`] and compute x_B.
    ///
    /// Factoring depends on the basis alone, so factors a sibling computed
    /// for the same snapshot (`fresh` holding them) are exactly the ones a
    /// refactorization would give: they are adopted and only x_B is
    /// recomputed for this worker's bounds. An empty `fresh` receives a
    /// copy of the factors computed here.
    fn factor_warm(&mut self, fresh: Option<&mut Option<Factors>>) -> Result<(), LpAbort> {
        match fresh {
            Some(slot) => match slot.take() {
                Some(f) => {
                    debug_assert_eq!(f.dim(), self.p.m);
                    debug_assert_eq!(f.eta_count(), 0);
                    self.factors = f;
                    self.lu.reuses += 1;
                    self.recompute_x_basic();
                }
                None => {
                    self.refactor()?;
                    *slot = Some(self.factors.clone());
                }
            },
            None => self.refactor()?,
        }
        Ok(())
    }

    /// Is the current basic point inside its bounds?
    fn primal_feasible(&self, tol: f64) -> bool {
        self.basis.iter().enumerate().all(|(pos, &j)| {
            let v = self.x_basic[pos];
            v.is_finite() && v >= self.lb[j] - tol && v <= self.ub[j] + tol
        })
    }

    /// Cheap O(nnz) certificate that the factors actually invert the
    /// current basis: recompute the nonbasic residual `b − N x_N` and
    /// check `B x_B` reproduces it within `tol`.
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

    /// Duals of the current basis, `y = B⁻ᵀ c_B`, into `y` (indexed by
    /// row).
    fn duals_into(&self, y: &mut Vec<f64>) {
        y.clear();
        y.extend(self.basis.iter().map(|&j| self.cost[j]));
        self.factors.btran(y);
    }

    /// Are the phase-2 reduced costs sign-consistent with every nonbasic
    /// status? Warm starts require this before dual pivoting is sound.
    /// Leaves the fresh duals and reduced costs it checked in `price`.
    fn dual_feasible(&mut self, tol: f64) -> bool {
        self.price_fresh();
        for j in 0..self.n_total() {
            let st = self.status[j];
            if matches!(st, VStat::Basic(_)) || self.lb[j] == self.ub[j] {
                continue;
            }
            let d = self.price.d[j];
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
    /// cleanup pass on fresh duals to certify optimality. `price` holds the
    /// reduced costs of the starting basis, as [`Worker::dual_feasible`]
    /// left them.
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
    ///
    /// `price.d` enters holding the fresh reduced costs of the starting
    /// basis. Each pivot updates them through its pivot row α:
    /// `d_j −= θ_d α_j` on the nonbasic columns with `θ_d = d_q / α_q`,
    /// the entering column's becomes 0 and the leaving column's `−θ_d`.
    /// After every refactorization y and d are recomputed fresh.
    fn optimize_dual(&mut self, deadline: Option<Instant>) -> Result<DualOutcome, LpAbort> {
        let m = self.p.m;
        if m == 0 {
            return Ok(DualOutcome::PrimalFeasible);
        }
        let mut w = vec![0.0; m];
        let mut rho = vec![0.0; m];
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

            // ρ = B⁻ᵀ e_r; the pivot row α = ρᵀ[A|I] (row r of B⁻¹[A|I])
            // goes to `price.acc`, the columns it reaches to
            // `price.touched`.
            for v in rho.iter_mut() {
                *v = 0.0;
            }
            rho[r] = 1.0;
            self.factors.btran(&mut rho);
            self.price.scatter(self.p, &self.art_cols, &rho);

            // Dual ratio test: among columns whose allowed movement pushes
            // x_B[r] toward the violated bound, take the smallest
            // |d_j| / |α_j| (ties: larger |α|, then lower index — both
            // deterministic). A column the pivot row does not reach has
            // α_j = 0 and is never eligible.
            let mut enter: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
            let mut weak_free = false;
            for &j in &self.price.touched {
                let j = j as usize;
                let st = self.status[j];
                if matches!(st, VStat::Basic(_)) || self.lb[j] == self.ub[j] {
                    continue;
                }
                let alpha = self.price.acc[j];
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
                let ratio = self.price.d[j].abs() / alpha.abs();
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
            let Some((q, _ratio, alpha_q)) = enter else {
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

            // Carry the reduced costs to the new basis through α.
            let theta_d = self.price.d[q] / alpha_q;
            for &j in &self.price.touched {
                let j = j as usize;
                if !matches!(self.status[j], VStat::Basic(_)) {
                    self.price.d[j] -= theta_d * self.price.acc[j];
                }
            }
            self.price.d[q] = 0.0;
            self.price.d[leaving] = -theta_d;

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
                self.resync_reduced_costs();
            }
        }
    }

    /// Replace the dual loop's carried reduced costs with fresh ones. Debug
    /// builds first check that the two agree on every nonbasic column to
    /// within `CARRY_TOL`, relative to the larger of 1 and the fresh value.
    fn resync_reduced_costs(&mut self) {
        let carried = cfg!(debug_assertions).then(|| self.price.d.clone());
        self.price_fresh();
        for (j, c) in carried.into_iter().flatten().enumerate() {
            let f = self.price.d[j];
            debug_assert!(
                matches!(self.status[j], VStat::Basic(_))
                    || (c - f).abs() <= CARRY_TOL * f.abs().max(1.0),
                "carried reduced cost {c} of column {j} drifted from fresh {f}"
            );
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
        LpSolution {
            status,
            x: x_all[..self.p.n_struct].to_vec(),
            obj,
            iters: self.iters,
        }
    }

    /// Core iteration loop for the current phase. Every iteration prices
    /// on fresh duals.
    fn optimize(&mut self, deadline: Option<Instant>) -> Result<InnerStatus, LpAbort> {
        let m = self.p.m;
        let mut w = vec![0.0; m];
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

            self.price_fresh();

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
                        let d = self.price.d[j];
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
                        let d = self.price.d[j];
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
/// refactor, eta-limit or unstable-update refactor, artificial pivot-out),
/// with metrics on their total wall time, and the sibling factors it
/// adopted instead of factoring.
#[derive(Debug, Clone, Copy, Default)]
struct FactorTally {
    count: usize,
    time: Duration,
    reuses: usize,
}

impl FactorTally {
    fn add(&mut self, other: FactorTally) {
        self.count += other.count;
        self.time += other.time;
        self.reuses += other.reuses;
    }
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
    use crate::model::{LinExpr, Model, Sense, VarId};

    impl LpProblem {
        /// Solve with the stored bounds.
        fn solve(&self) -> Result<LpSolution, LpAbort> {
            self.solve_with_bounds(&self.lb, &self.ub, None)
        }
    }

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

    /// The two-phase primal itself. The optimal set is the segment
    /// x + y = 3, x ∈ [2, 3]; the primal ends at its vertex (2, 1), the
    /// dual start of a cold solve at another optimum.
    #[test]
    fn ge_rows_need_phase1() {
        // min x + y s.t. x + y >= 3, x - y >= 1, 0 <= x,y <= 10.
        // optimum x=2, y=1.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, 1.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Ge, 3.0);
        m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Sense::Ge, 1.0);
        let s = LpProblem::from_model(&m)
            .solve_primal_unmetered()
            .expect("lp solves");
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

    /// Sixty small random LPs with bounded columns and mixed row senses;
    /// some are infeasible.
    fn random_certificate_lps() -> Vec<Model> {
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        (0..60)
            .map(|_| {
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
                m
            })
            .collect()
    }

    /// Primal feasibility of an optimal solution plus the reduced-cost
    /// sign conditions computed from the duals `y` of its final basis.
    fn assert_optimality_certificate(m: &Model, p: &LpProblem, s: &LpSolution, y: &[f64]) {
        // Primal feasibility.
        assert!(
            m.check_feasible(&s.x, 1e-5).is_none(),
            "infeasible 'optimal' point"
        );
        // Reduced-cost conditions for structural variables.
        for j in 0..m.num_vars() {
            let d: f64 = m.cols[j].obj - p.cols[j].iter().map(|&(r, c)| c * y[r]).sum::<f64>();
            let (lo, hi) = m.bounds(VarId::from_index(j));
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

    /// Optimality certificate on random LPs: primal feasibility plus
    /// reduced-cost sign conditions computed from the returned duals.
    #[test]
    fn random_lps_satisfy_optimality_certificate() {
        let mut optimal_count = 0;
        for m in random_certificate_lps() {
            let p = LpProblem::from_model(&m);
            // The duals of the final basis, read from the solving worker.
            let (s, y) = p
                .solve_cold(&p.lb, &p.ub, None, |w| {
                    let mut y = Vec::new();
                    w.duals_into(&mut y);
                    Some(y)
                })
                .expect("no numerical failure");
            if s.status != LpStatus::Optimal {
                continue;
            }
            let y = y.expect("optimal solves report duals");
            optimal_count += 1;
            assert_optimality_certificate(&m, &p, &s, &y);
        }
        assert!(
            optimal_count > 10,
            "too few optimal instances to be meaningful"
        );
    }

    /// The dual start of a cold solve against the two-phase primal over
    /// the LPs of `random_lps_satisfy_optimality_certificate`, infeasible
    /// ones included. Each LP is first mirrored so that its slack basis
    /// is dual feasible: a column with a negative cost becomes x' = −x
    /// (cost, coefficients and bounds negated), which keeps the status
    /// and the optimal value. The dual start must then never refuse, end
    /// with the primal's status and, when optimal, its objective within
    /// 1e-9 relative, on a basis whose duals certify optimality.
    #[test]
    fn dual_start_matches_two_phase_primal_on_random_lps() {
        let (mut optimal, mut infeasible) = (0, 0);
        for (trial, mut m) in random_certificate_lps().into_iter().enumerate() {
            for j in 0..m.num_vars() {
                let c = &mut m.cols[j];
                if c.obj < 0.0 {
                    (c.obj, c.lb, c.ub) = (-c.obj, -c.ub, -c.lb);
                    for row in &mut m.rows {
                        for (v, a) in &mut row.coeffs {
                            if v.index() == j {
                                *a = -*a;
                            }
                        }
                    }
                }
            }
            let p = LpProblem::from_model(&m);
            let primal = p.solve_primal_unmetered().expect("two-phase primal solves");
            let Some((w, Ok(s))) = p.dual_cold_start(&p.lb, &p.ub, None) else {
                panic!("trial {trial}: the dual start refused");
            };
            assert_eq!(s.status, primal.status, "trial {trial}");
            match s.status {
                LpStatus::Optimal => {
                    assert!(
                        (s.obj - primal.obj).abs() <= 1e-9 * primal.obj.abs().max(1.0),
                        "trial {trial}: dual start {} vs primal {}",
                        s.obj,
                        primal.obj
                    );
                    let mut y = Vec::new();
                    w.duals_into(&mut y);
                    assert_optimality_certificate(&m, &p, &s, &y);
                    optimal += 1;
                }
                LpStatus::Infeasible => infeasible += 1,
                LpStatus::Unbounded => panic!("trial {trial}: every column is bounded"),
            }
        }
        assert!(optimal > 10, "only {optimal} optimal LPs compared");
        assert!(infeasible > 5, "only {infeasible} infeasible LPs compared");
    }

    /// A snapshot read back through `from_basis` under the bounds it was
    /// taken with gives the solving worker's statuses and basis, and the
    /// worker it rebuilds factors to the same point.
    #[test]
    fn warm_basis_round_trips_through_from_basis() {
        let mut rounds = 0;
        for m in random_certificate_lps() {
            let p = LpProblem::from_model(&m);
            // Statuses past the structural and slack columns belong to
            // artificials of the two-phase primal.
            let n = p.n_struct + p.m;
            let Ok((s, Some((snap, status, basis)))) = p.solve_cold(&p.lb, &p.ub, None, |w| {
                let snap = w.snapshot()?;
                Some((snap, w.status[..n].to_vec(), w.basis.clone()))
            }) else {
                continue;
            };
            let mut w = Worker::from_basis(&p, &p.lb, &p.ub, &snap).expect("snapshot fits");
            assert_eq!((&w.status, &w.basis), (&status, &basis));
            w.factor_warm(None).expect("an optimal basis factors");
            let again = w.finish(LpStatus::Optimal);
            for (a, b) in again.x.iter().zip(&s.x) {
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "x {a} vs {b}");
            }
            // A snapshot of other dimensions, or with a column listed
            // twice in its basis, does not fit.
            assert!(Worker::from_basis(
                &p,
                &p.lb,
                &p.ub,
                &WarmBasis {
                    status: snap.status[1..].to_vec(),
                    basis: snap.basis.clone(),
                }
            )
            .is_none());
            if p.m >= 2 {
                let mut twice = snap.clone();
                twice.basis[1] = twice.basis[0];
                assert!(Worker::from_basis(&p, &p.lb, &p.ub, &twice).is_none());
            }
            rounds += 1;
        }
        assert!(rounds > 10, "only {rounds} snapshots read back");
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
            .solve_dual_warm(&p.lb, &ub, &warm, None, None)
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
            .solve_dual_warm(&p.lb, &ub, &warm, None, None)
            .expect("warm start accepted");
        assert_eq!(ws.status, LpStatus::Infeasible);
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
            match p.solve_dual_warm(&lb2, &ub2, &warm, None, None) {
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

    /// A warm child adopting the fresh factors its sibling left (a hit)
    /// returns exactly what it returns when it factors the parent basis
    /// itself (a miss): status, objective and x bits, iteration count and
    /// the snapshot it hands on.
    #[test]
    fn sibling_factor_hit_matches_miss() {
        let mut state = 0x51B1_1265_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let bits = |s: &LpSolution| {
            (
                s.status,
                s.obj.to_bits(),
                s.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                s.iters,
            )
        };
        let mut hits = 0;
        for trial in 0..120 {
            let n = 3 + (next() % 28) as usize;
            let rows = 2 + (next() % 24) as usize;
            let mut m = Model::new("siblings");
            let vars: Vec<_> = (0..n)
                .map(|_| {
                    let lo = (next() % 3) as f64 - 1.0;
                    let hi = lo + 2.0 + (next() % 6) as f64;
                    m.add_continuous(lo, hi, (next() % 9) as f64 - 4.0)
                })
                .collect();
            for _ in 0..rows {
                let mut e = LinExpr::new();
                for &v in &vars {
                    if next() % 4 == 0 {
                        e.add_term((next() % 7) as f64 - 3.0, v);
                    }
                }
                let sense = if next() % 2 == 0 {
                    Sense::Le
                } else {
                    Sense::Ge
                };
                m.add_constraint(e, sense, (next() % 11) as f64 - 3.0);
            }
            let p = LpProblem::from_model(&m);
            let Ok((root, Some(warm))) = p.solve_primal(&p.lb, &p.ub, None) else {
                continue;
            };
            if root.status != LpStatus::Optimal {
                continue;
            }
            // Branch on the variable with the most fractional value.
            let j = (0..n)
                .max_by(|&a, &b| {
                    let f = |v: f64| (v - v.floor() - 0.5).abs();
                    f(root.x[b])
                        .partial_cmp(&f(root.x[a]))
                        .unwrap_or(Ordering::Equal)
                })
                .expect("columns");
            let (mut ub_down, mut lb_up) = (p.ub.clone(), p.lb.clone());
            ub_down[j] = root.x[j].floor();
            lb_up[j] = root.x[j].floor() + 1.0;
            for (lb, ub) in [(&p.lb, &ub_down), (&lb_up, &p.ub)] {
                let mut fresh = None;
                let first = p.solve_dual_warm(&p.lb, &ub_down, &warm, Some(&mut fresh), None);
                let Some(f) = fresh else {
                    assert!(
                        first.is_err(),
                        "trial {trial}: factored without leaving a copy"
                    );
                    continue;
                };
                assert_eq!(f.eta_count(), 0, "the copy is taken before any pivot");
                let hit = p.solve_dual_warm(lb, ub, &warm, Some(&mut Some(f)), None);
                let miss = p.solve_dual_warm(lb, ub, &warm, None, None);
                match (hit, miss) {
                    (Ok((h, hs)), Ok((m, ms))) => {
                        assert_eq!(bits(&h), bits(&m), "trial {trial}");
                        assert_eq!(format!("{hs:?}"), format!("{ms:?}"), "trial {trial}");
                        hits += 1;
                    }
                    (Err(h), Err(m)) => assert_eq!(h, m, "trial {trial}"),
                    (h, m) => panic!("trial {trial}: hit {h:?} vs miss {m:?}"),
                }
            }
        }
        assert!(hits > 40, "only {hits} sibling solves compared");
    }

    /// The row-wise kernels against `dot_col` on random sparse problems
    /// with slack and artificial columns, and vectors holding exact zeros
    /// and −0: every pivot-row and reduced-cost entry is bit-identical
    /// once −0 is read as +0, and the reached columns come ascending.
    #[test]
    fn row_wise_kernels_match_column_dot_products() {
        let mut state = 0x0DDB_1A5E_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        // Zeros of both signs, and values of mixed sign and magnitude
        // whose sums round.
        let sample = |next: &mut dyn FnMut() -> u64| match next() % 6 {
            0 => 0.0,
            1 => -0.0,
            k => {
                let mantissa = (next() % 2001) as f64 - 1000.0;
                mantissa / 7.0 * 10f64.powi((next() % 9) as i32 - 4) * (k as f64 - 3.0)
            }
        };
        let plus_zero = |x: f64| if x == 0.0 { 0.0 } else { x };
        let (mut artificials, mut reached) = (0, 0);
        for trial in 0..60 {
            let n = 2 + (next() % 40) as usize;
            let rows = 1 + (next() % 30) as usize;
            let mut m = Model::new("kernels");
            let vars: Vec<_> = (0..n)
                .map(|j| m.add_continuous(j as f64 % 3.0 - 1.0, 4.0, 0.0))
                .collect();
            for i in 0..rows {
                let mut e = LinExpr::new();
                for &v in &vars {
                    let c = sample(&mut next);
                    if c != 0.0 && next() % 3 == 0 {
                        e.add_term(c, v);
                    }
                }
                let sense = [Sense::Le, Sense::Ge, Sense::Eq][i % 3];
                m.add_constraint(e, sense, sample(&mut next));
            }
            let p = LpProblem::from_model(&m);
            let mut w = Worker::new(&p, &p.lb, &p.ub);
            artificials += w.art_cols.len();
            for c in w.cost.iter_mut() {
                *c = sample(&mut next);
            }
            for round in 0..4 {
                let v: Vec<f64> = (0..p.m).map(|_| sample(&mut next)).collect();
                w.price.scatter(&p, &w.art_cols, &v);
                let touched = w.price.touched.clone();
                assert!(
                    touched.windows(2).all(|t| t[0] < t[1]),
                    "trial {trial}.{round}: reached columns out of order"
                );
                reached += touched.len();
                for j in 0..w.n_total() {
                    assert_eq!(
                        plus_zero(w.price.acc[j]).to_bits(),
                        plus_zero(w.dot_col(j, &v)).to_bits(),
                        "trial {trial}.{round}: pivot-row entry {j}"
                    );
                }
                w.price.reduced_costs(&p, &w.art_cols, &w.cost, &v);
                for j in 0..w.n_total() {
                    assert_eq!(
                        plus_zero(w.price.d[j]).to_bits(),
                        plus_zero(w.cost[j] - w.dot_col(j, &v)).to_bits(),
                        "trial {trial}.{round}: reduced cost {j}"
                    );
                }
            }
        }
        assert!(artificials > 20, "only {artificials} artificial columns");
        assert!(reached > 1000, "only {reached} reached columns");
    }

    /// A warm dual re-solve long enough to refactor, and so to replace its
    /// carried reduced costs with fresh ones, at least twice inside the
    /// dual loop (debug builds check the carried values at each resync)
    /// ends with the cold solve's status and objective.
    #[test]
    fn long_warm_dual_resolve_matches_cold_solve() {
        let mut state = 0x5EED_D0A1_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let (n, rows) = (320, 260);
        let mut m = Model::new("long-dual");
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_continuous(0.0, 10.0, -1.0 - (next() % 9) as f64))
            .collect();
        for _ in 0..rows {
            let mut e = LinExpr::new();
            for _ in 0..6 {
                e.add_term(1.0 + (next() % 4) as f64, vars[next() as usize % n]);
            }
            m.add_constraint(e, Sense::Le, 20.0 + (next() % 40) as f64);
        }
        let p = LpProblem::from_model(&m);
        let (root, warm) = p.solve_primal(&p.lb, &p.ub, None).expect("root solves");
        assert_eq!(root.status, LpStatus::Optimal);
        let warm = warm.expect("optimal root yields a snapshot");
        // Halve the upper bound of every column above 1, which leaves
        // most basic columns above their new bound.
        let mut ub = p.ub.clone();
        for (j, &x) in root.x.iter().enumerate() {
            if x > 1.0 {
                ub[j] = (x / 2.0).floor();
            }
        }

        let mut w = Worker::from_basis(&p, &p.lb, &ub, &warm).expect("snapshot fits");
        w.factor_warm(None).expect("parent basis factors");
        assert!(w.dual_feasible(1e-6), "bound changes keep dual feasibility");
        w.optimize_dual(None).expect("dual loop runs");
        assert!(
            w.lu.count >= 3,
            "the dual loop refactored {} time(s) in {} pivots",
            w.lu.count - 1,
            w.iters
        );

        let (ws, _) = p
            .solve_dual_warm(&p.lb, &ub, &warm, None, None)
            .expect("warm start accepted");
        let cold = p.solve_with_bounds(&p.lb, &ub, None).expect("cold solves");
        assert_eq!(ws.status, cold.status);
        assert!(
            (ws.obj - cold.obj).abs() <= 1e-6 * cold.obj.abs().max(1.0),
            "warm {} vs cold {}",
            ws.obj,
            cold.obj
        );
    }

    /// Kept rows keep their slack's status (reordered rows included), a
    /// dropped row's basic slack leaves with it, a new row's slack enters
    /// basic after the surviving basic columns, and the basis has one
    /// column per new row.
    #[test]
    fn remap_rows_keeps_drops_and_adds_rows() {
        // Two structural columns, three rows: x0 basic, x1 at its lower
        // bound; slack 0 at its bound, slacks 1 and 2 basic.
        let snap = WarmBasis::pack(
            &[
                VStat::Basic(1),
                VStat::AtLower,
                VStat::AtUpper,
                VStat::Basic(0),
                VStat::Basic(2),
            ],
            &[3, 0, 4],
        )
        .expect("small");
        let unpack = |w: &WarmBasis| w.unpack(5, 3).expect("a consistent snapshot");
        // New rows: old row 2, old row 0, a new row; old row 1 is dropped.
        let mapped = snap
            .remap_rows(&[Some(2), Some(0), None])
            .expect("the dropped row's slack is basic");
        let (status, basis) = unpack(&mapped);
        assert_eq!(basis, vec![0, 2, 4]);
        assert_eq!(basis.len(), 3, "one basic column per new row");
        assert_eq!(
            status,
            vec![
                VStat::Basic(0),
                VStat::AtLower,
                VStat::Basic(1),
                VStat::AtUpper,
                VStat::Basic(2),
            ]
        );
        // Identity keeps the snapshot as it is.
        let same = snap
            .remap_rows(&[Some(0), Some(1), Some(2)])
            .expect("identity");
        assert_eq!(unpack(&same), unpack(&snap));
        // Dropping row 0, whose slack is nonbasic, cannot keep the basis.
        assert!(snap.remap_rows(&[Some(1), Some(2)]).is_none());
        // Rows must map one to one into the snapshot's rows.
        assert!(snap.remap_rows(&[Some(0), Some(0), Some(2)]).is_none());
        assert!(snap.remap_rows(&[Some(0), Some(1), Some(3)]).is_none());
    }

    /// After a violated cut row is appended (and, where one exists, a row
    /// with a basic slack is dropped), the warm dual solve from the
    /// remapped optimal basis ends with the cold solve's status and
    /// objective.
    #[test]
    fn remapped_basis_after_a_cut_matches_cold_solve() {
        let mut state = 0xC07_5EED_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let (mut compared, mut dropped) = (0, 0);
        for trial in 0..120 {
            let n = 2 + (next() % 8) as usize;
            let rows = 2 + (next() % 8) as usize;
            let mut m = Model::new("cut");
            let vars: Vec<_> = (0..n)
                .map(|_| {
                    m.add_continuous(0.0, 1.0 + (next() % 5) as f64, -1.0 - (next() % 6) as f64)
                })
                .collect();
            for _ in 0..rows {
                let mut e = LinExpr::new();
                for &v in &vars {
                    if next() % 3 != 0 {
                        e.add_term(1.0 + (next() % 4) as f64, v);
                    }
                }
                m.add_constraint(e, Sense::Le, 3.0 + (next() % 12) as f64);
            }
            let p = LpProblem::from_model(&m);
            let Ok((root, Some(snap))) = p.solve_primal(&p.lb, &p.ub, None) else {
                continue;
            };
            if root.status != LpStatus::Optimal {
                continue;
            }
            // A cut the optimum violates by 1/2.
            let mut cut = LinExpr::new();
            let mut lhs = 0.0;
            for (j, &v) in vars.iter().enumerate() {
                let c = (next() % 3) as f64;
                if c != 0.0 {
                    cut.add_term(c, v);
                    lhs += c * root.x[j];
                }
            }
            if lhs < 1.0 {
                continue;
            }
            // Drop the first row whose slack is basic, if any.
            let drop = (0..rows).find(|&i| snap.is_basic(n + i));
            let mut cut_model = m.clone();
            let mut map: Vec<Option<usize>> = (0..rows).map(Some).collect();
            if let Some(i) = drop {
                cut_model.rows.remove(i);
                map.remove(i);
            }
            cut_model.add_constraint(cut, Sense::Le, lhs - 0.5);
            map.push(None);
            let q = LpProblem::from_model(&cut_model);
            let warm = snap.remap_rows(&map).expect("slack-basic rows drop");
            assert_eq!(warm.basis.len(), q.m, "trial {trial}");
            let cold = q.solve_with_bounds(&q.lb, &q.ub, None).expect("cold");
            match q.solve_dual_warm(&q.lb, &q.ub, &warm, None, None) {
                Ok((ws, _)) => {
                    assert_eq!(ws.status, cold.status, "trial {trial}");
                    if cold.status == LpStatus::Optimal {
                        assert!(
                            (ws.obj - cold.obj).abs() <= 1e-9 * cold.obj.abs().max(1.0),
                            "trial {trial}: warm {} vs cold {}",
                            ws.obj,
                            cold.obj
                        );
                    }
                    compared += 1;
                    dropped += usize::from(drop.is_some());
                }
                Err(e) => panic!("trial {trial}: remapped basis refused: {e:?}"),
            }
        }
        assert!(compared > 40, "only {compared} warm/cold comparisons ran");
        assert!(dropped > 10, "only {dropped} comparisons dropped a row");
    }

    /// A refused warm start records the factorization it did and counts
    /// in `lp.warm_rejects`, with no `lp.iters` observation of its own.
    /// Other tests may solve LPs while metrics are on, so the counts are
    /// lower bounds.
    #[test]
    fn rejected_warm_start_is_metered() {
        // The optimal basis of max x + y is dual infeasible for min x + y.
        let lp_with_cost = |c: f64| {
            let mut m = Model::new("reject");
            let x = m.add_continuous(0.0, 10.0, c);
            let y = m.add_continuous(0.0, 10.0, c);
            m.add_constraint(LinExpr::from(x) + LinExpr::term(2.0, y), Sense::Le, 8.0);
            LpProblem::from_model(&m)
        };
        let max = lp_with_cost(-1.0);
        let (root, warm) = max
            .solve_primal(&max.lb, &max.ub, None)
            .expect("root solves");
        assert_eq!(root.status, LpStatus::Optimal);
        let warm = warm.expect("snapshot");
        let min = lp_with_cost(1.0);
        metrics::reset();
        metrics::enable();
        let res = min.solve_dual_warm(&min.lb, &min.ub, &warm, None, None);
        metrics::disable();
        let snap = metrics::snapshot();
        metrics::reset();
        assert_eq!(res.err(), Some(LpAbort::Singular));
        let count = |name: &str| match snap.get(name) {
            Some(metrics::MetricValue::Counter(n)) => *n,
            other => panic!("{name}: {other:?}"),
        };
        assert!(count("lp.warm_rejects") >= 1, "rejection not counted");
        assert!(count("lp.factorizations") >= 1, "factorization lost");
    }
}
