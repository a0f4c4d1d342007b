//! # pipemap-milp
//!
//! A self-contained mixed-integer linear programming solver: a sparse
//! revised simplex (bounded variables; the dual simplex from the
//! all-slack basis or a warm basis, a two-phase primal for cold LPs the
//! dual cannot start; LU basis factorization with product-form updates)
//! driven by best-bound branch & bound.
//!
//! This crate is the stand-in for IBM ILOG CPLEX in the DAC'15 paper's
//! flow. It supports the features the paper's formulation needs:
//! binaries/integers mixed with continuous variables, time-limited solves
//! that return the best incumbent, and an externally supplied initial
//! feasible solution (the scheduler seeds it with the heuristic baseline).
//!
//! ```
//! use pipemap_milp::{LinExpr, Model, Sense, SolverOptions, Status};
//!
//! # fn main() -> Result<(), pipemap_milp::MilpError> {
//! // Knapsack: max 5a + 4b + 3c s.t. 2a + 3b + c <= 3  ==  minimize the
//! // negated objective.
//! let mut m = Model::new("knapsack");
//! let a = m.add_binary(-5.0);
//! let b = m.add_binary(-4.0);
//! let c = m.add_binary(-3.0);
//! let mut w = LinExpr::new();
//! w.add_term(2.0, a);
//! w.add_term(3.0, b);
//! w.add_term(1.0, c);
//! m.add_constraint(w, Sense::Le, 3.0);
//!
//! let r = m.solve(&SolverOptions::default())?;
//! assert_eq!(r.status, Status::Optimal);
//! assert_eq!(r.objective.round(), -8.0); // a + c
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod branch;
mod lu;
mod model;
mod presolve;
mod resolve;
mod simplex;

use std::error::Error;
use std::fmt;
use std::time::Duration;

pub use model::{LinExpr, Model, RowId, Sense, VarId, VarKind};
pub use resolve::{ResolveAudit, ResolveContext, ResolveStats};

/// Outcome class of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Optimality proved (within the gap tolerance).
    Optimal,
    /// Feasible incumbent returned, but the node limit stopped the proof.
    Feasible,
    /// The wall-clock deadline expired with a feasible incumbent in hand;
    /// [`MilpResult::best_bound`] still carries the tightest proven bound,
    /// so the remaining optimality gap is reported rather than discarded.
    TimedOut,
    /// Proved infeasible.
    Infeasible,
    /// The relaxation is unbounded below.
    Unbounded,
    /// A limit was hit before any feasible point was found.
    Unknown,
}

impl Status {
    /// `true` when a usable assignment is present in the result.
    pub fn has_solution(self) -> bool {
        matches!(self, Status::Optimal | Status::Feasible | Status::TimedOut)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Optimal => "optimal",
            Status::Feasible => "feasible",
            Status::TimedOut => "timed-out",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            Status::Unknown => "unknown",
        })
    }
}

/// Solver failure (distinct from model infeasibility, which is a
/// [`Status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MilpError {
    /// The simplex hit an unrecoverable numerical condition.
    Numerical(String),
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Numerical(s) => write!(f, "numerical failure: {s}"),
        }
    }
}

impl Error for MilpError {}

/// Knobs for [`Model::solve`].
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Wall-clock limit; the best incumbent found is returned on expiry
    /// (paper §4 limits CPLEX to 60 minutes the same way).
    pub time_limit: Duration,
    /// Maximum number of branch-and-bound nodes.
    pub node_limit: usize,
    /// A known feasible assignment used as the starting incumbent
    /// (checked; ignored if infeasible or non-integral). It bounds the
    /// search from the start: a node is pruned once its bound reaches
    /// the incumbent's objective.
    pub initial_solution: Option<Vec<f64>>,
    /// Worker threads for the branch-and-bound tree search (clamped to at
    /// least 1). The search is deterministic in `jobs`: every thread count
    /// returns the identical status, objective, and assignment, because
    /// objective ties at the optimum are explored (never pruned) and the
    /// incumbent is the lexicographically smallest optimal assignment.
    pub jobs: usize,
    /// Run the presolve pass (bound tightening, singleton-row and
    /// fixed-variable elimination, coefficient strengthening) before the
    /// root solve.
    pub presolve: bool,
    /// Re-optimize child LPs with the dual simplex warm-started from the
    /// parent's optimal basis instead of solving from scratch.
    pub warm_start: bool,
    /// Probe binary variables before the root solve: tentatively fix each
    /// to 0/1, propagate bounds, and harvest certified fixings and
    /// implications (see [`analysis`]).
    pub probing: bool,
    /// Run the root cutting-plane loop: separate certified clique and
    /// cover cuts against the root LP relaxation, with activity-based
    /// aging of the cut pool.
    pub cuts: bool,
    /// Separate rank-1 Gomory mixed-integer cuts from the root simplex
    /// tableau inside the cutting-plane loop. Off by default: tableau
    /// cuts are admitted under strict numerical-safety caps and each one
    /// carries a full derivation certificate (audited by verify's P07xx
    /// pass), but they are the only cut family derived from floating-
    /// point arithmetic rather than combinatorial structure.
    pub gomory_cuts: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            time_limit: Duration::from_secs(3600),
            node_limit: usize::MAX,
            initial_solution: None,
            jobs: 1,
            presolve: true,
            warm_start: true,
            probing: true,
            cuts: true,
            gomory_cuts: false,
        }
    }
}

/// One point on a solve's convergence curve: where the incumbent and
/// the proven bound stood at a moment in wall-clock time.
///
/// Samples are recorded whenever the incumbent improves or the search
/// frontier's bound rises, capped in count so long solves stay bounded.
/// Telemetry only: sample *timing* depends on the wall clock and thread
/// interleaving even though the final status/objective/assignment are
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapSample {
    /// Milliseconds since the solve started.
    pub t_ms: f64,
    /// Incumbent objective at this time (`+inf` before the first one).
    pub objective: f64,
    /// Proven lower bound at this time (`-inf` before the root solves).
    pub bound: f64,
}

impl GapSample {
    /// Relative MIP gap at this sample; `None` while either side is
    /// still infinite.
    pub fn gap_rel(&self) -> Option<f64> {
        relative_gap(self.objective, self.bound)
    }
}

/// Relative MIP gap `(objective - bound) / max(1, |objective|)` — the
/// CPLEX-style normalization, safe around zero objectives. `None` when
/// either side is non-finite (no incumbent yet, or nothing proven).
pub fn relative_gap(objective: f64, bound: f64) -> Option<f64> {
    (objective.is_finite() && bound.is_finite())
        .then(|| (objective - bound).max(0.0) / objective.abs().max(1.0))
}

/// Performance counters of one MILP solve: where the time went and what
/// the presolve/warm-start machinery bought. Reported by the CLI's
/// solver-stats line and the `BENCH_milp.json` artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverStats {
    /// Worker threads used for the tree search.
    pub jobs: usize,
    /// Child LPs attempted with the warm-started dual simplex.
    pub warm_attempts: usize,
    /// Warm starts that re-optimized without falling back to a cold solve.
    pub warm_hits: usize,
    /// Constraint rows removed by presolve.
    pub presolve_rows_removed: usize,
    /// Variables fixed and substituted out by presolve.
    pub presolve_cols_fixed: usize,
    /// Variable bounds tightened by presolve.
    pub presolve_bounds_tightened: usize,
    /// Constraint coefficients strengthened by presolve.
    pub presolve_coeffs_reduced: usize,
    /// Binary variables probed by the structural-analysis pass.
    pub probe_vars: usize,
    /// Variables fixed by probing (certified infeasibility of the other
    /// polarity).
    pub probe_fixings: usize,
    /// Certified implications harvested by probing.
    pub probe_implications: usize,
    /// Cliques in the conflict-graph clique table.
    pub clique_table: usize,
    /// Clique cuts active in the root cut pool at the end of separation.
    pub clique_cuts: usize,
    /// Cover cuts active in the root cut pool at the end of separation.
    pub cover_cuts: usize,
    /// Implication cuts (expanded probing implications) active in the
    /// root cut pool at the end of separation.
    pub implication_cuts: usize,
    /// Gomory mixed-integer cuts active in the root cut pool at the end
    /// of separation.
    pub gomory_cuts: usize,
    /// Root cutting-plane rounds executed.
    pub cut_rounds: usize,
    /// Cuts dropped from the pool by activity-based aging.
    pub cuts_aged_out: usize,
    /// Always 0: the solver detects no symmetry. Kept for benchmark
    /// readers that report it.
    pub symmetry_orbits: usize,
    /// Always 0: the solver does no orbital fixing. Kept for benchmark
    /// readers that report it.
    pub orbital_fixings: usize,
    /// Variables fixed at tree nodes by conflict-graph implication
    /// propagation.
    pub implication_fixings: usize,
    /// Branch-and-bound nodes processed by each worker thread (length =
    /// `jobs`): the work-stealing balance of the parallel search.
    pub nodes_per_worker: Vec<usize>,
    /// Incumbent/bound timeline of the solve (objective offset already
    /// applied, so values are in the caller's model space).
    pub convergence: Vec<GapSample>,
    /// Why no warm start was attempted, when `warm_attempts` is zero for
    /// a structural reason rather than by accident: warm starts disabled
    /// by options, a root basis that could not be snapshotted, or a
    /// search that never produced child nodes. `None` when warm starts
    /// engaged (or the solve never reached the tree).
    pub warm_skip_reason: Option<&'static str>,
}

impl SolverStats {
    /// Fraction of warm-start attempts that succeeded without a cold
    /// fallback; `None` when no warm start was attempted.
    pub fn warm_hit_rate(&self) -> Option<f64> {
        (self.warm_attempts > 0).then(|| self.warm_hits as f64 / self.warm_attempts as f64)
    }
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct MilpResult {
    /// Outcome class.
    pub status: Status,
    /// Objective of the returned assignment (`+inf` when none).
    pub objective: f64,
    /// Best proven lower bound on the optimum.
    pub best_bound: f64,
    /// The assignment (empty when `status` has no solution).
    pub values: Vec<f64>,
    /// Branch-and-bound nodes processed.
    pub nodes: usize,
    /// Total simplex iterations.
    pub lp_iterations: usize,
    /// Wall-clock time spent.
    pub solve_time: Duration,
    /// Presolve/warm-start/parallelism counters.
    pub stats: SolverStats,
}

impl MilpResult {
    /// Value of one variable in the returned assignment.
    ///
    /// # Panics
    ///
    /// Panics if no solution is present or the id is out of range.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// The absolute optimality gap (`objective - best_bound`).
    pub fn gap(&self) -> f64 {
        self.objective - self.best_bound
    }

    /// The relative MIP gap (see [`relative_gap`]); `None` when there is
    /// no incumbent or no finite bound.
    pub fn gap_rel(&self) -> Option<f64> {
        relative_gap(self.objective, self.best_bound)
    }
}

/// Solve the LP relaxation of a model (integrality dropped) and return
/// its optimal objective and variable assignment. `None` when the
/// relaxation is infeasible, unbounded, numerically unsolvable, or the
/// deadline expires — callers treat all of these as "no LP guidance".
///
/// Deterministic for a fixed model; used by the feedback-guided
/// decomposition in `pipemap-core` to rank DFG regions by how fractional
/// the global relaxation is around them.
pub fn solve_relaxation(model: &Model, time_limit: Duration) -> Option<(f64, Vec<f64>)> {
    let p = simplex::LpProblem::from_model(model);
    let deadline = std::time::Instant::now().checked_add(time_limit);
    match p.solve_with_bounds(&p.lb, &p.ub, deadline) {
        Ok(s) if s.status == simplex::LpStatus::Optimal => Some((s.obj, s.x)),
        _ => None,
    }
}

/// Round a valid lower bound on `model`'s optimum up to the next point
/// of its objective grid; a no-op when no grid is detectable. Sound
/// because every integer-feasible objective lies on the grid, so no
/// attainable value sits strictly between `bound` and the lifted value.
pub fn lift_to_objective_grid(model: &Model, bound: f64) -> f64 {
    branch::lift_to_objective_grid(model, bound)
}

impl Model {
    /// Solve this model (minimization) by branch & bound.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::Numerical`] only on unrecoverable numerical
    /// failure; infeasibility and limits are reported via
    /// [`MilpResult::status`].
    pub fn solve(&self, opts: &SolverOptions) -> Result<MilpResult, MilpError> {
        branch::solve_milp(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pure_lp_no_integers() {
        let mut m = Model::new("lp");
        let x = m.add_continuous(0.0, 4.0, -1.0);
        m.add_constraint(LinExpr::from(x), Sense::Le, 2.5);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert!((r.value(x) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn integrality_changes_optimum() {
        // LP optimum x = 2.5; integer optimum x = 2.
        let mut m = Model::new("int");
        let x = m.add_integer(0.0, 4.0, -1.0);
        m.add_constraint(LinExpr::from(x), Sense::Le, 2.5);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert_eq!(r.value(x), 2.0);
    }

    #[test]
    fn knapsack_optimum() {
        // Classic: values [10,13,7,8], weights [3,4,2,3], cap 7 → best 23
        // (items 0 and 1).
        let mut m = Model::new("ks");
        let vals = [10.0, 13.0, 7.0, 8.0];
        let wts = [3.0, 4.0, 2.0, 3.0];
        let xs: Vec<_> = vals.iter().map(|&v| m.add_binary(-v)).collect();
        let w: LinExpr = xs.iter().zip(wts).map(|(&x, w)| (w, x)).collect();
        m.add_constraint(w, Sense::Le, 7.0);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert_eq!(r.objective.round(), -23.0);
        assert_eq!(r.value(xs[0]), 1.0);
        assert_eq!(r.value(xs[1]), 1.0);
    }

    #[test]
    fn infeasible_integer_model() {
        // 0.4 <= x <= 0.6 with x integer.
        let mut m = Model::new("inf");
        let x = m.add_integer(0.0, 1.0, 1.0);
        m.add_constraint(LinExpr::from(x), Sense::Ge, 0.4);
        m.add_constraint(LinExpr::from(x), Sense::Le, 0.6);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Infeasible);
    }

    #[test]
    fn initial_solution_is_used() {
        let mut m = Model::new("warm");
        let x = m.add_binary(-1.0);
        let y = m.add_binary(-1.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 1.0);
        let opts = SolverOptions {
            initial_solution: Some(vec![1.0, 0.0]),
            // Zero node budget: the incumbent must be exactly the seed.
            node_limit: 0,
            ..SolverOptions::default()
        };
        let r = m.solve(&opts).expect("solves");
        assert!(r.status.has_solution());
        assert_eq!(r.values, vec![1.0, 0.0]);
    }

    #[test]
    fn infeasible_seed_is_rejected() {
        let mut m = Model::new("warm");
        let x = m.add_binary(-1.0);
        m.add_constraint(LinExpr::from(x), Sense::Le, 0.0);
        let opts = SolverOptions {
            initial_solution: Some(vec![1.0]), // violates the row
            ..SolverOptions::default()
        };
        let r = m.solve(&opts).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert_eq!(r.value(x), 0.0);
    }

    #[test]
    fn time_limit_returns_quickly() {
        // A moderately large knapsack with a 0ms limit must not hang and
        // must report a limit-style status.
        let mut m = Model::new("big");
        let mut w = LinExpr::new();
        let mut state = 99u64;
        for _ in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (state >> 33) % 50 + 1;
            let wt = (state >> 13) % 40 + 1;
            let x = m.add_binary(-(v as f64));
            w.add_term(wt as f64, x);
        }
        m.add_constraint(w, Sense::Le, 100.0);
        let opts = SolverOptions {
            time_limit: Duration::from_millis(0),
            ..SolverOptions::default()
        };
        let r = m.solve(&opts).expect("solves");
        assert!(matches!(
            r.status,
            Status::Unknown | Status::Feasible | Status::TimedOut
        ));
    }

    #[test]
    fn mixed_integer_continuous() {
        // min -x - 10y, x ∈ [0,10] continuous, y binary, x + 6y <= 15:
        // optimum y = 1, x = 9, obj -19.
        let mut m = Model::new("mix");
        let x = m.add_continuous(0.0, 10.0, -1.0);
        let y = m.add_binary(-10.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(6.0, y), Sense::Le, 15.0);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert!((r.objective - -19.0).abs() < 1e-6, "obj {}", r.objective);
        assert_eq!(r.value(y), 1.0);
        assert!((r.value(x) - 9.0).abs() < 1e-6);
    }

    #[test]
    fn gap_reported() {
        let mut m = Model::new("gap");
        let x = m.add_binary(-1.0);
        m.add_constraint(LinExpr::from(x), Sense::Le, 1.0);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert!(r.gap().abs() < 1e-6);
    }

    #[test]
    fn node_limit_caps_search() {
        let mut m = Model::new("nl");
        let mut w = LinExpr::new();
        for i in 0..24 {
            let x = m.add_binary(-(1.0 + (i % 7) as f64));
            w.add_term(1.0 + (i % 5) as f64, x);
        }
        m.add_constraint(w, Sense::Le, 20.0);
        let opts = SolverOptions {
            node_limit: 3,
            ..SolverOptions::default()
        };
        let r = m.solve(&opts).expect("solves");
        assert!(r.nodes <= 3);
    }

    #[test]
    fn equality_constrained_integers() {
        // x + y == 3 with x,y in 0..=2 integer: optimum of x - 2y is at
        // y = 2, x = 1 -> -3.
        let mut m = Model::new("eq");
        let x = m.add_integer(0.0, 2.0, 1.0);
        let y = m.add_integer(0.0, 2.0, -2.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Eq, 3.0);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert!((r.objective - -3.0).abs() < 1e-6);
        assert_eq!(r.value(x), 1.0);
        assert_eq!(r.value(y), 2.0);
    }

    #[test]
    fn negative_integer_bounds() {
        // min x, x integer in [-5, 5], x >= -3.4 -> x = -3.
        let mut m = Model::new("neg");
        let x = m.add_integer(-5.0, 5.0, 1.0);
        m.add_constraint(LinExpr::from(x), Sense::Ge, -3.4);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert_eq!(r.value(x), -3.0);
    }

    /// Exhaustive oracle: every solvable all-binary MILP must match brute
    /// force over all assignments.
    #[test]
    fn random_binary_milps_match_bruteforce() {
        let mut state = 0xABCD_EF01_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for trial in 0..50 {
            let n = 3 + (next() % 8) as usize; // up to 10 binaries
            let rows = 1 + (next() % 5) as usize;
            let mut m = Model::new("rand");
            let obj: Vec<f64> = (0..n).map(|_| (next() % 21) as f64 - 10.0).collect();
            let xs: Vec<_> = obj.iter().map(|&c| m.add_binary(c)).collect();
            let mut row_data = Vec::new();
            for _ in 0..rows {
                let coeffs: Vec<f64> = (0..n).map(|_| (next() % 11) as f64 - 5.0).collect();
                let sense = if next() % 2 == 0 {
                    Sense::Le
                } else {
                    Sense::Ge
                };
                let rhs = (next() % 15) as f64 - 7.0;
                let e: LinExpr = xs.iter().zip(&coeffs).map(|(&x, &c)| (c, x)).collect();
                m.add_constraint(e, sense, rhs);
                row_data.push((coeffs, sense, rhs));
            }

            // Brute force.
            let mut best: Option<f64> = None;
            for bits in 0..(1u32 << n) {
                let x: Vec<f64> = (0..n).map(|i| ((bits >> i) & 1) as f64).collect();
                let ok = row_data.iter().all(|(coeffs, sense, rhs)| {
                    let lhs: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum();
                    match sense {
                        Sense::Le => lhs <= *rhs + 1e-9,
                        Sense::Ge => lhs >= *rhs - 1e-9,
                        Sense::Eq => (lhs - rhs).abs() < 1e-9,
                    }
                });
                if ok {
                    let o: f64 = obj.iter().zip(&x).map(|(c, v)| c * v).sum();
                    best = Some(best.map_or(o, |b: f64| b.min(o)));
                }
            }

            let r = m.solve(&SolverOptions::default()).expect("solves");
            match best {
                None => assert_eq!(r.status, Status::Infeasible, "trial {trial}"),
                Some(b) => {
                    assert_eq!(r.status, Status::Optimal, "trial {trial}");
                    assert!(
                        (r.objective - b).abs() < 1e-6,
                        "trial {trial}: got {} expected {b}",
                        r.objective
                    );
                }
            }
        }
    }

    /// A knapsack whose LP root is fractional, so the root dive performs
    /// warm dual re-solves even when the tree itself needs few nodes.
    fn fractional_root_knapsack() -> Model {
        let mut m = Model::new("dive");
        let vals = [10.0, 13.0, 7.0, 8.0];
        let wts = [3.0, 4.0, 2.0, 3.0];
        let xs: Vec<_> = vals.iter().map(|&v| m.add_binary(-v)).collect();
        let w: LinExpr = xs.iter().zip(wts).map(|(&x, w)| (w, x)).collect();
        m.add_constraint(w, Sense::Le, 7.0);
        m
    }

    #[test]
    fn dive_warm_starts_are_counted() {
        // Regression: `warm_attempts` used to stay 0 on searches that
        // explore almost no tree nodes (the root has no parent basis, and
        // dives bypassed the counters entirely), making the stats claim
        // the warm-started dual simplex never engaged when it carried the
        // whole dive.
        let m = fractional_root_knapsack();
        // Cuts off: the cut loop would repair the fractional root vertex
        // before the dive ever sees it (the CORDIC/DR stall this guards
        // against has fractional roots that survive separation).
        let opts = SolverOptions {
            probing: false,
            cuts: false,
            ..SolverOptions::default()
        };
        let r = m.solve(&opts).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert!(
            r.stats.warm_attempts > 0,
            "root dive must engage the warm-started dual simplex"
        );
        assert!(r.stats.warm_hits <= r.stats.warm_attempts);
    }

    #[test]
    fn dive_warm_starts_respect_warm_start_flag() {
        let m = fractional_root_knapsack();
        let opts = SolverOptions {
            warm_start: false,
            ..SolverOptions::default()
        };
        let r = m.solve(&opts).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert_eq!(r.stats.warm_attempts, 0, "warm starts disabled");
    }

    #[test]
    fn gomory_cuts_preserve_optimum() {
        let mut m = Model::new("gmi");
        let x1 = m.add_integer(0.0, 3.0, 0.0);
        let x2 = m.add_integer(0.0, 3.0, -1.0);
        let e = LinExpr::term(3.0, x1) + LinExpr::term(2.0, x2);
        m.add_constraint(e, Sense::Le, 6.0);
        let e = LinExpr::term(-3.0, x1) + LinExpr::term(2.0, x2);
        m.add_constraint(e, Sense::Le, 0.0);
        let off = m.solve(&SolverOptions::default()).expect("solves");
        let on = m
            .solve(&SolverOptions {
                gomory_cuts: true,
                ..SolverOptions::default()
            })
            .expect("solves");
        assert_eq!(off.status, Status::Optimal);
        assert_eq!(on.status, Status::Optimal);
        assert!((on.objective - off.objective).abs() < 1e-6);
        assert_eq!(on.values, off.values, "determinism contract across flags");
    }

    #[test]
    fn relaxation_helper_matches_lp_optimum() {
        // Same model as `integrality_changes_optimum`: the relaxation
        // stops at 2.5 while the integer optimum is 2.
        let mut m = Model::new("relax");
        let x = m.add_integer(0.0, 4.0, -1.0);
        m.add_constraint(LinExpr::from(x), Sense::Le, 2.5);
        let (obj, xs) = solve_relaxation(&m, Duration::from_secs(10)).expect("lp solves");
        assert!((obj - -2.5).abs() < 1e-6, "obj {obj}");
        assert!((xs[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn set_bounds_freezes_variables() {
        let mut m = Model::new("freeze");
        let x = m.add_binary(-2.0);
        let y = m.add_binary(-1.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 1.0);
        m.set_bounds(x, 0.0, 0.0);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        assert_eq!(r.value(x), 0.0);
        assert_eq!(r.value(y), 1.0);
    }

    #[test]
    fn objective_reported_on_grid() {
        // The reported objective must land exactly on the objective grid
        // even though it is reassembled from reduced space + offset.
        let mut m = Model::new("grid");
        let xs: Vec<_> = (0..6)
            .map(|i| m.add_binary(-(1.0 + (i as f64) / 4.0)))
            .collect();
        let w: LinExpr = xs.iter().map(|&x| (1.0, x)).collect();
        m.add_constraint(w, Sense::Le, 3.0);
        let r = m.solve(&SolverOptions::default()).expect("solves");
        assert_eq!(r.status, Status::Optimal);
        let scaled = r.objective * 4.0;
        assert_eq!(scaled, scaled.round(), "objective {} off-grid", r.objective);
    }
}
