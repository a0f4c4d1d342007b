//! Cold LP solves start from the all-slack basis with the dual simplex,
//! and `lp.primal_fallbacks` counts exactly those that fall back to the
//! two-phase primal. The metrics registry is process-global, so this
//! binary holds a single test and its counts are exact.

use std::time::Duration;

use pipemap_milp::{solve_relaxation, LinExpr, Model, Sense};
use pipemap_obs::metrics;

/// `(lp.cold_solves, lp.primal_fallbacks)` so far.
fn counts() -> (u64, u64) {
    let snap = metrics::snapshot();
    let count = |name: &str| match snap.get(name) {
        Some(metrics::MetricValue::Counter(n)) => *n,
        other => panic!("{name}: {other:?}"),
    };
    (count("lp.cold_solves"), count("lp.primal_fallbacks"))
}

fn optimum(m: &Model) -> f64 {
    solve_relaxation(m, Duration::from_secs(10))
        .expect("an optimal relaxation")
        .0
}

#[test]
fn primal_fallbacks_count_the_cold_solves_without_a_dual_start() {
    metrics::reset();
    metrics::enable();

    // Nonnegative costs at finite lower bounds: a dual start, even
    // though the slack basis violates both rows. Optimum 3.
    let mut m = Model::new("dual-start");
    let x = m.add_continuous(0.0, 10.0, 1.0);
    let y = m.add_continuous(0.0, 10.0, 1.0);
    m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Ge, 3.0);
    m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Sense::Ge, 1.0);
    assert!((optimum(&m) - 3.0).abs() < 1e-9);
    assert_eq!(counts(), (1, 0), "a dual-feasible slack basis fell back");

    // A negative cost at a lower bound. Optimum −4 at x = 4, y = 0.
    let mut m = Model::new("wrong-sign");
    let x = m.add_continuous(0.0, 10.0, -1.0);
    let y = m.add_continuous(0.0, 10.0, 1.0);
    m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
    m.add_constraint(LinExpr::from(x) - LinExpr::from(y), Sense::Ge, -2.0);
    assert!((optimum(&m) - -4.0).abs() < 1e-9);
    assert_eq!(counts(), (2, 1), "a wrong-sign cost did not fall back");

    // A free column. Optimum 2 at y = 2, z = 1.
    let mut m = Model::new("free");
    let y = m.add_continuous(0.0, 10.0, 1.0);
    let z = m.add_continuous(f64::NEG_INFINITY, f64::INFINITY, 0.0);
    m.add_constraint(LinExpr::from(y) - LinExpr::from(z), Sense::Ge, 1.0);
    m.add_constraint(LinExpr::from(y) + LinExpr::from(z), Sense::Ge, 3.0);
    assert!((optimum(&m) - 2.0).abs() < 1e-9);
    assert_eq!(counts(), (3, 2), "a free column did not fall back");

    metrics::disable();
    metrics::reset();
}
