//! Determinism contract of the parallel branch-and-bound search.
//!
//! The solver promises that `jobs` is a pure throughput knob: for a
//! completed search, every thread count returns the identical status,
//! objective, *and* assignment (the lexicographically smallest optimal
//! one). Presolve and warm-starting are likewise required to be
//! optimality-preserving, so toggling them may change node counts but
//! never the reported optimum.

use pipemap_milp::{LinExpr, Model, Sense, SolverOptions, Status};

/// Splitmix-style deterministic generator; no external RNG crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick(&mut self, m: u64) -> u64 {
        self.next() % m
    }
}

/// A random small MILP: binaries and bounded integers under a few
/// knapsack-style rows, mixed senses, some negative coefficients.
fn random_model(seed: u64) -> Model {
    let mut rng = Rng(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
    let mut m = Model::new("rand");
    let nv = 4 + rng.pick(5) as usize;
    let mut vars = Vec::new();
    for _ in 0..nv {
        let obj = rng.pick(21) as f64 - 10.0;
        if rng.pick(4) == 0 {
            vars.push(m.add_integer(0.0, 1.0 + rng.pick(3) as f64, obj));
        } else {
            vars.push(m.add_binary(obj));
        }
    }
    let nr = 2 + rng.pick(3) as usize;
    for _ in 0..nr {
        let mut e = LinExpr::new();
        for &v in &vars {
            if rng.pick(3) != 0 {
                e.add_term(rng.pick(13) as f64 - 4.0, v);
            }
        }
        let sense = if rng.pick(3) == 0 {
            Sense::Ge
        } else {
            Sense::Le
        };
        let rhs = rng.pick(12) as f64 - if sense == Sense::Ge { 6.0 } else { 0.0 };
        m.add_constraint(e, sense, rhs);
    }
    m
}

fn opts(jobs: usize, presolve: bool, warm_start: bool) -> SolverOptions {
    SolverOptions {
        jobs,
        presolve,
        warm_start,
        ..SolverOptions::default()
    }
}

#[test]
fn serial_and_parallel_agree_exactly() {
    let mut solved = 0;
    for seed in 0..60u64 {
        let m = random_model(seed);
        let serial = m.solve(&opts(1, true, true)).expect("serial solves");
        let par = m.solve(&opts(4, true, true)).expect("parallel solves");
        assert_eq!(serial.status, par.status, "seed {seed}: status diverged");
        if serial.status.has_solution() {
            assert!(
                (serial.objective - par.objective).abs() < 1e-6,
                "seed {seed}: objective {} vs {}",
                serial.objective,
                par.objective
            );
            // The determinism contract is exact: same assignment, not
            // just same objective.
            assert_eq!(
                serial.values, par.values,
                "seed {seed}: assignment diverged between jobs=1 and jobs=4"
            );
            solved += 1;
        }
    }
    assert!(
        solved > 20,
        "only {solved} feasible instances; generator too tight"
    );
}

#[test]
fn warm_start_and_presolve_preserve_the_optimum() {
    for seed in 100..140u64 {
        let m = random_model(seed);
        let reference = m.solve(&opts(1, false, false)).expect("cold solves");
        for (presolve, warm) in [(true, false), (false, true), (true, true)] {
            let r = m.solve(&opts(1, presolve, warm)).expect("variant solves");
            assert_eq!(
                reference.status, r.status,
                "seed {seed} presolve={presolve} warm={warm}: status diverged"
            );
            if reference.status == Status::Optimal {
                assert!(
                    (reference.objective - r.objective).abs() < 1e-6,
                    "seed {seed} presolve={presolve} warm={warm}: obj {} vs {}",
                    reference.objective,
                    r.objective
                );
            }
        }
    }
}
