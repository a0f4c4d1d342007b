//! Presolve edge cases exercised end-to-end through `Model::solve`:
//! singleton rows with negative coefficients, coefficient strengthening
//! on (and not on) equality rows, and fixed-variable substitution
//! interacting with probing-derived bounds. Each case pins the analytic
//! optimum and cross-checks the presolved solve against the cold solver.

use pipemap_milp::{LinExpr, Model, Sense, SolverOptions, Status};

fn opts(presolve: bool, probing: bool) -> SolverOptions {
    SolverOptions {
        presolve,
        probing,
        cuts: probing,
        ..SolverOptions::default()
    }
}

/// Solve with everything on and everything off; statuses and objectives
/// must agree, and the optimized values are returned.
fn solve_both_ways(m: &Model) -> (Status, f64, Vec<f64>) {
    let full = m.solve(&opts(true, true)).expect("optimized solve");
    let cold = m.solve(&opts(false, false)).expect("cold solve");
    assert_eq!(full.status, cold.status, "status diverges on {}", m.name());
    if full.status == Status::Optimal {
        assert!(
            (full.objective - cold.objective).abs() < 1e-6,
            "{}: optimized {} vs cold {}",
            m.name(),
            full.objective,
            cold.objective
        );
    }
    (full.status, full.objective, full.values)
}

#[test]
fn singleton_row_negative_coefficient_le_tightens_lower_bound() {
    // -2 x ≤ -3  ⇒  x ≥ 1.5; integer x in [0, 10] minimizing x ⇒ x = 2.
    let mut m = Model::new("neg-singleton-le");
    let x = m.add_integer(0.0, 10.0, 1.0);
    m.add_constraint(LinExpr::term(-2.0, x), Sense::Le, -3.0);
    let (status, obj, vals) = solve_both_ways(&m);
    assert_eq!(status, Status::Optimal);
    assert!((obj - 2.0).abs() < 1e-6, "objective {obj}");
    assert!((vals[x.index()] - 2.0).abs() < 1e-6);
}

#[test]
fn singleton_row_negative_coefficient_ge_tightens_upper_bound() {
    // -3 x ≥ -7  ⇒  x ≤ 7/3; integer x maximizing (min of -x) ⇒ x = 2.
    let mut m = Model::new("neg-singleton-ge");
    let x = m.add_integer(0.0, 10.0, -1.0);
    m.add_constraint(LinExpr::term(-3.0, x), Sense::Ge, -7.0);
    let (status, obj, vals) = solve_both_ways(&m);
    assert_eq!(status, Status::Optimal);
    assert!((obj + 2.0).abs() < 1e-6, "objective {obj}");
    assert!((vals[x.index()] - 2.0).abs() < 1e-6);
}

#[test]
fn singleton_row_negative_coefficient_infeasible() {
    // -x ≤ -5 forces x ≥ 5, crossing the binary's upper bound.
    let mut m = Model::new("neg-singleton-infeasible");
    let x = m.add_binary(1.0);
    m.add_constraint(LinExpr::term(-1.0, x), Sense::Le, -5.0);
    for o in [opts(true, true), opts(false, false)] {
        let r = m.solve(&o).expect("solve");
        assert_eq!(r.status, Status::Infeasible);
    }
}

#[test]
fn equality_rows_are_exempt_from_coefficient_strengthening() {
    // 3 x0 + 2 x1 = 3 with binaries: only x0 = 1, x1 = 0 is feasible.
    // Strengthening the 3 down (legal for ≤) would break the equality.
    let mut m = Model::new("eq-no-strengthen");
    let x0 = m.add_binary(5.0);
    let x1 = m.add_binary(1.0);
    m.add_constraint(
        LinExpr::term(3.0, x0) + LinExpr::term(2.0, x1),
        Sense::Eq,
        3.0,
    );
    let (status, obj, vals) = solve_both_ways(&m);
    assert_eq!(status, Status::Optimal);
    assert!((obj - 5.0).abs() < 1e-6, "objective {obj}");
    assert!((vals[x0.index()] - 1.0).abs() < 1e-6);
    assert!(vals[x1.index()].abs() < 1e-6);
}

#[test]
fn inequality_coefficient_strengthening_preserves_optimum() {
    // 5 x0 + x1 ≤ 6 with binary x0: the 5 strengthens to 5 - (6 - 5) in
    // presolve; the integer optimum (both at 1) must survive.
    let mut m = Model::new("le-strengthen");
    let x0 = m.add_binary(-3.0);
    let x1 = m.add_integer(0.0, 4.0, -1.0);
    m.add_constraint(
        LinExpr::term(5.0, x0) + LinExpr::term(1.0, x1),
        Sense::Le,
        6.0,
    );
    let (status, obj, vals) = solve_both_ways(&m);
    assert_eq!(status, Status::Optimal);
    // x0 = 1 leaves x1 ≤ 1: objective -3 - 1 = -4.
    assert!((obj + 4.0).abs() < 1e-6, "objective {obj}");
    assert!((vals[x0.index()] - 1.0).abs() < 1e-6);
    assert!((vals[x1.index()] - 1.0).abs() < 1e-6);
}

#[test]
fn fixed_variable_substitution_meets_probing_bounds() {
    // x0 is fixed by its own bounds (presolve substitutes it away);
    // probing then derives x1 = 1 from the remaining row, and the
    // substituted constant must participate in that derivation:
    //   x0 = 1 (bounds), x0 + 2 x1 ≥ 3  ⇒  x1 ≥ 1.
    let mut m = Model::new("fixed-meets-probing");
    let x0 = m.add_integer(1.0, 1.0, 10.0);
    let x1 = m.add_binary(7.0);
    let x2 = m.add_binary(-1.0);
    m.add_constraint(
        LinExpr::term(1.0, x0) + LinExpr::term(2.0, x1),
        Sense::Ge,
        3.0,
    );
    // A row tying x2 to x1 so probing has something to propagate:
    // x1 + x2 ≤ 1 forces x2 = 0 once x1 = 1.
    m.add_constraint(
        LinExpr::term(1.0, x1) + LinExpr::term(1.0, x2),
        Sense::Le,
        1.0,
    );
    let (status, obj, vals) = solve_both_ways(&m);
    assert_eq!(status, Status::Optimal);
    assert!((obj - 17.0).abs() < 1e-6, "objective {obj}");
    assert!((vals[x0.index()] - 1.0).abs() < 1e-6);
    assert!((vals[x1.index()] - 1.0).abs() < 1e-6);
    assert!(vals[x2.index()].abs() < 1e-6);
}

#[test]
fn presolve_counters_report_the_reductions() {
    // Two singleton rows (one negative) and a bound-fixed column: the
    // counters must show rows removed and bounds tightened.
    let mut m = Model::new("counters");
    let x = m.add_integer(0.0, 10.0, 1.0);
    let y = m.add_integer(3.0, 3.0, 1.0);
    m.add_constraint(LinExpr::term(-2.0, x), Sense::Le, -3.0);
    m.add_constraint(LinExpr::term(1.0, y), Sense::Le, 5.0);
    let r = m.solve(&opts(true, false)).expect("solve");
    assert_eq!(r.status, Status::Optimal);
    assert!((r.objective - 5.0).abs() < 1e-6);
    assert!(
        r.stats.presolve_rows_removed >= 2,
        "rows removed: {}",
        r.stats.presolve_rows_removed
    );
    assert!(
        r.stats.presolve_bounds_tightened >= 1,
        "bounds tightened: {}",
        r.stats.presolve_bounds_tightened
    );
}
