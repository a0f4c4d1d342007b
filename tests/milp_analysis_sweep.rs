//! 200-seed random-model soundness sweep over the MILP structural
//! analysis: every certified fixing, implication, clique, and cut
//! the analysis emits is re-verified by the independent `P05xx` audit in
//! `pipemap-verify`, and the solver's optimum is identical with the
//! analysis on and off. This is the machine-checkable end of the
//! "solver aggressiveness never outruns soundness" contract.

use pipemap::milp::analysis::{analyze, root_cut_loop, AnalysisConfig, CutLoopConfig};
use pipemap::milp::{LinExpr, Model, Sense, SolverOptions, Status};
use pipemap::verify::{check_certified_cuts, check_milp_analysis};

/// xorshift64* — deterministic, dependency-free.
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

/// A small random MILP over binaries (with an occasional general integer
/// or fixed column) and packing/covering/equality rows — the row shapes
/// the probing, clique, and cover machinery all react to.
fn random_model(seed: u64) -> Model {
    let mut rng = Rng::new(seed);
    let n_bin = rng.range(2, 9) as usize;
    let mut m = Model::new(format!("sweep-{seed}"));
    let mut vars = Vec::new();
    for _ in 0..n_bin {
        vars.push(m.add_binary(rng.range(-5, 6) as f64));
    }
    if rng.range(0, 3) == 0 {
        vars.push(m.add_integer(0.0, rng.range(1, 4) as f64, rng.range(-3, 4) as f64));
    }
    if rng.range(0, 4) == 0 {
        let v = rng.range(0, 3) as f64;
        vars.push(m.add_integer(v, v, rng.range(-3, 4) as f64));
    }
    let n_rows = rng.range(1, 7) as usize;
    for _ in 0..n_rows {
        let mut e = LinExpr::new();
        let mut terms = 0;
        for &v in &vars {
            if rng.range(0, 100) < 60 {
                let c = rng.range(-3, 4);
                if c != 0 {
                    e.add_term(c as f64, v);
                    terms += 1;
                }
            }
        }
        if terms == 0 {
            continue;
        }
        let sense = match rng.range(0, 10) {
            0 => Sense::Eq,
            1..=4 => Sense::Ge,
            _ => Sense::Le,
        };
        m.add_constraint(e, sense, rng.range(-2, 5) as f64);
    }
    m
}

#[test]
fn two_hundred_seeds_certificates_audit_clean_and_optimum_invariant() {
    let mut nontrivial = 0usize;
    for seed in 0..200u64 {
        let m = random_model(seed);

        // Audit every certificate the analysis produces.
        let sa = analyze(&m, &AnalysisConfig::default());
        let diags = check_milp_analysis(&m, &sa);
        assert!(
            diags.is_empty(),
            "seed {seed}: analysis audit found violations:\n{}",
            diags.render_human(m.name())
        );
        if sa.infeasible.is_none() {
            let out = root_cut_loop(&m, &sa, &CutLoopConfig::default(), None);
            let diags = check_certified_cuts(&m, &sa, &out.cuts);
            assert!(
                diags.is_empty(),
                "seed {seed}: cut audit found violations:\n{}",
                diags.render_human(m.name())
            );
            if !sa.fixings.is_empty() || !out.cuts.is_empty() {
                nontrivial += 1;
            }
        } else {
            nontrivial += 1;
        }

        // The analysis must not move the optimum (or the status).
        let on = m
            .solve(&SolverOptions::default())
            .expect("solve with analysis");
        let off = m
            .solve(&SolverOptions {
                probing: false,
                cuts: false,
                ..SolverOptions::default()
            })
            .expect("solve without analysis");
        assert_eq!(
            on.status, off.status,
            "seed {seed}: status {:?} with analysis vs {:?} without",
            on.status, off.status
        );
        if on.status == Status::Optimal {
            assert!(
                (on.objective - off.objective).abs() < 1e-6,
                "seed {seed}: objective {} with analysis vs {} without",
                on.objective,
                off.objective
            );
        }
    }
    // The sweep must actually exercise the machinery, not vacuously pass
    // on models where the analysis finds nothing.
    assert!(
        nontrivial >= 40,
        "only {nontrivial}/200 seeds produced fixings, cuts, or proofs"
    );
}
