//! Re-solve equivalence sweep: the incremental engine's determinism
//! contract. For 200 random (seed, jobs) cases, a [`ResolveContext`]
//! walked through a random sequence of bound, objective, and cut deltas
//! must report the *identical* status and objective as solving the
//! identically-edited model from scratch after every step, and every
//! assignment it returns must independently re-verify as feasible. The
//! incremental path may legitimately return a different member of a
//! tied optimal set than the cold solver (each context solve starts
//! from the previous assignment, which can win a tie the cold search
//! settles differently), so assignments are compared up to re-verified
//! feasibility at the same objective, not bit for bit.
//!
//! A final DFG-level case runs the design-space sweep incrementally and
//! cold over a random graph and requires pointwise agreement — the same
//! contract `pipemap sweep --audit` and the `bench-suite resolve`
//! harness rely on.

use std::time::Duration;

use pipemap::core::{run_sweep, SweepConfig};
use pipemap::ir::{random_dfg, RandomDfgConfig, Target};
use pipemap::milp::{LinExpr, Model, ResolveContext, Sense, SolverOptions, Status, VarId};

/// xorshift64* — the same generator the other sweeps use, inlined to
/// keep the case set reproducible from the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

/// A small random mixed model: binaries plus boxed continuous columns
/// and a few ≤/≥ rows, everything integer-coefficient so objective
/// comparisons are exact-grid.
fn random_model(r: &mut Rng) -> (Model, usize) {
    let n_bin = r.range(2, 6) as usize;
    let n_cont = r.range(1, 4) as usize;
    let n = n_bin + n_cont;
    let mut m = Model::new("resolve-eq");
    let mut vars = Vec::with_capacity(n);
    for _ in 0..n_bin {
        vars.push(m.add_binary(r.range(-6, 7) as f64));
    }
    for _ in 0..n_cont {
        vars.push(m.add_continuous(0.0, 5.0, r.range(-6, 7) as f64));
    }
    for _ in 0..r.range(1, 5) {
        let e: LinExpr = vars.iter().map(|&v| (r.range(-4, 5) as f64, v)).collect();
        let sense = if r.next_u64() & 1 == 0 {
            Sense::Le
        } else {
            Sense::Ge
        };
        m.add_constraint(e, sense, r.range(-6, 10) as f64);
    }
    (m, n)
}

/// One random delta applied to both the context and the shadow model.
fn apply_delta(r: &mut Rng, cx: &mut ResolveContext, shadow: &mut Model, n: usize) {
    match r.range(0, 3) {
        0 => {
            // Bound delta: clamp a column into a random sub-box of its
            // current bounds (never crossing, possibly a fixing).
            let v = VarId::from_index(r.range(0, n as i64) as usize);
            let (lb, ub) = shadow.bounds(v);
            let lo = lb.max(r.range(0, 3) as f64).min(ub);
            let hi = (lo + r.range(0, 3) as f64).min(ub);
            cx.set_bounds(v, lo, hi);
            shadow.set_bounds(v, lo, hi);
        }
        1 => {
            // Objective delta.
            let v = VarId::from_index(r.range(0, n as i64) as usize);
            let w = r.range(-6, 7) as f64;
            cx.set_objective_coeff(v, w);
            shadow.set_objective_coeff(v, w);
        }
        _ => {
            // Cut delta: a random ≤ row over all columns, slack enough
            // to usually (not always) keep the model feasible.
            let coeffs: Vec<f64> = (0..n).map(|_| r.range(-2, 3) as f64).collect();
            let rhs = r.range(2, 12) as f64;
            let e1: LinExpr = coeffs
                .iter()
                .enumerate()
                .map(|(j, &c)| (c, VarId::from_index(j)))
                .collect();
            let e2: LinExpr = coeffs
                .iter()
                .enumerate()
                .map(|(j, &c)| (c, VarId::from_index(j)))
                .collect();
            cx.add_cut(e1, Sense::Le, rhs);
            shadow.add_constraint(e2, Sense::Le, rhs);
        }
    }
}

fn check_case(seed: u64, jobs: usize) {
    let mut r = Rng::new(seed);
    let (base, n) = random_model(&mut r);
    let opts = SolverOptions {
        jobs,
        time_limit: Duration::from_secs(30),
        ..SolverOptions::default()
    };
    let mut cx = ResolveContext::new(base.clone());
    let mut shadow = base;
    for step in 0..4 {
        if step > 0 {
            apply_delta(&mut r, &mut cx, &mut shadow, n);
        }
        let warm = cx
            .solve(&opts)
            .unwrap_or_else(|e| panic!("seed {seed} jobs {jobs} step {step}: incremental: {e}"));
        let cold = shadow
            .solve(&opts)
            .unwrap_or_else(|e| panic!("seed {seed} jobs {jobs} step {step}: cold: {e}"));
        assert_eq!(
            warm.status, cold.status,
            "seed {seed} jobs {jobs} step {step}: status diverged"
        );
        if warm.status == Status::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() <= 1e-6,
                "seed {seed} jobs {jobs} step {step}: objective {} vs {}",
                warm.objective,
                cold.objective
            );
        }
        if warm.status.has_solution() {
            assert!(
                shadow.check_feasible(&warm.values, 1e-6).is_none(),
                "seed {seed} jobs {jobs} step {step}: incremental assignment infeasible"
            );
        }
    }
}

/// 100 seeds × jobs ∈ {1, 4} = 200 cases, each a 4-step delta walk.
#[test]
fn random_delta_walks_match_cold_resolves() {
    for seed in 0..100u64 {
        for &jobs in &[1usize, 4] {
            check_case(seed, jobs);
        }
    }
}

/// DFG-level: the incremental design-space sweep must agree pointwise
/// (status, objective) with the cold per-point replay on a random graph.
#[test]
fn sweep_incremental_matches_cold_on_random_dfg() {
    let dfg = random_dfg(7, &RandomDfgConfig::default());
    let target = Target::default();
    let cfg = |incremental: bool| SweepConfig {
        ii_values: vec![1, 2],
        k_values: vec![4],
        weights: vec![(1.0, 0.0, 0.0), (0.5, 0.5, 0.0)],
        time_limit: Duration::from_secs(20),
        incremental,
        ..SweepConfig::default()
    };
    let warm = run_sweep(&dfg, &target, &cfg(true)).expect("incremental sweep");
    let cold = run_sweep(&dfg, &target, &cfg(false)).expect("cold sweep");
    assert_eq!(warm.points.len(), cold.points.len());
    for (w, c) in warm.points.iter().zip(cold.points.iter()) {
        assert_eq!((w.ii, w.k), (c.ii, c.k));
        assert_eq!(w.status, c.status, "ii={} α={}", w.ii, w.alpha);
        assert!(
            (w.objective - c.objective).abs() <= 1e-6,
            "ii={} α={}: {} vs {}",
            w.ii,
            w.alpha,
            w.objective,
            c.objective
        );
    }
}
