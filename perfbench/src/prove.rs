//! `prove`: MILP-map `run_flow` to a proof of optimality on the designs
//! the solver proves within seconds, with the bench-suite "optimized"
//! options and a time limit that never binds, plus one incremental
//! re-solve sweep ([`Sweep`]) where every point proves optimal.

use std::time::Duration;

use pipemap_bench_suite as suite;
use pipemap_core::{run_flow, Flow, FlowOptions};
use pipemap_ir::{Dfg, Target};
use pipemap_milp::Status;

use crate::stimulus::Stimulus;
use crate::sweep::Sweep;
use crate::{add_resolve, add_solve, implementation_problem, shuffled, trace, Bench, Round, Size};

/// One design and the optimum it must reach.
#[derive(Debug)]
pub struct ProveDesign {
    /// Table 1 name.
    pub name: &'static str,
    /// The design.
    pub dfg: Dfg,
    /// Device model.
    pub target: Target,
    /// Proven optimum (`BENCH_milp.json`), compared exactly.
    pub expected: f64,
    stimulus: Stimulus,
}

/// The `prove` workload.
#[derive(Debug)]
pub struct Prove {
    /// Designs, each solved once per round.
    pub designs: Vec<ProveDesign>,
    /// The sweep, run once per round after the designs.
    pub sweep: Sweep,
    order: Vec<usize>,
    opts: FlowOptions,
}

/// The bench-suite "optimized" flow options (presolve, warm starts,
/// priority cuts, Gomory cuts, decomposition) with one solver thread.
pub fn optimized_options() -> FlowOptions {
    FlowOptions {
        // Never binds: every design here proves optimal in seconds.
        time_limit: Duration::from_secs(600),
        jobs: 1,
        presolve: true,
        warm_start: true,
        priority_cuts: true,
        gomory_cuts: true,
        decompose: true,
        ..FlowOptions::default()
    }
}

/// Simulated iterations per functional check.
const ITERS: usize = 32;

impl Prove {
    /// Generate the designs and their reference outputs, and set up the
    /// sweep.
    ///
    /// # Errors
    ///
    /// Returns a message when the interpreter rejects a design or the
    /// sweep cannot be set up.
    pub fn setup(size: Size, seed: u64) -> Result<Prove, String> {
        // AES (optimum 40) also proves optimal, but takes 24-28 s per
        // solve: longer than one whole run of this benchmark.
        let picks = match size {
            Size::Full => vec![
                (suite::clz(32), 96.0),
                (suite::dr(), 55.5),
                (suite::gsm(), 56.5),
            ],
            Size::Tiny => vec![(suite::gsm(), 56.5)],
        };
        let designs = picks
            .into_iter()
            .map(|(b, expected)| {
                Ok(ProveDesign {
                    name: b.name,
                    stimulus: Stimulus::new(&b.dfg, ITERS, seed)?,
                    dfg: b.dfg,
                    target: b.target,
                    expected,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Prove {
            order: shuffled(designs.len(), seed),
            designs,
            sweep: Sweep::setup(size, seed)?,
            opts: optimized_options(),
        })
    }
}

impl Bench for Prove {
    fn round(&mut self, out: &mut Round) {
        for &i in &self.order {
            let d = &self.designs[i];
            let (res, dt) = out.timed(|| {
                trace::op(|| {
                    trace::span("flows.run", || {
                        run_flow(&d.dfg, &d.target, Flow::MilpMap, &self.opts)
                    })
                })
            });
            out.add(format!("flows.run_s.{}", d.name), dt);
            out.add("ir.nodes", d.dfg.len() as f64);
            let mut problems = Vec::new();
            match res {
                Err(e) => problems.push(format!("run_flow: {e}")),
                Ok(r) => {
                    out.add("luts", r.qor.luts as f64);
                    out.add("ffs", r.qor.ffs as f64);
                    out.add("analyze.nodes_after", r.dfg.len() as f64);
                    match &r.milp {
                        None => problems.push("no solver statistics".to_string()),
                        Some(m) => {
                            add_solve(out, m.nodes, m.lp_iterations, &m.solver);
                            if let Some(rs) = &m.resolve {
                                add_resolve(out, rs);
                            }
                            let solve_s = m.solve_time.as_secs_f64();
                            out.add("milp.solve_s", solve_s);
                            out.add(format!("milp.solve_s.{}", d.name), solve_s);
                            out.add("formulation.vars", m.variables as f64);
                            out.add("formulation.rows", m.constraints as f64);
                            out.add("cuts.enumerated", m.cuts_enumerated as f64);
                            out.add("cuts.kept", m.total_cuts as f64);
                            out.add("decompose.subproblems", m.subproblems_solved as f64);
                            out.add("decompose.stitched", m.stitched_incumbents as f64);
                            if m.status != Status::Optimal {
                                problems.push(format!("status {}, expected optimal", m.status));
                            }
                            if (m.objective - d.expected).abs() > 1e-6 {
                                problems.push(format!(
                                    "objective {}, expected {}",
                                    m.objective, d.expected
                                ));
                            }
                        }
                    }
                    problems.extend(implementation_problem(&r.dfg, &d.target, &r.implementation));
                    if let Err(e) = d.stimulus.check(&r.dfg, &d.target, &r.implementation) {
                        problems.push(e);
                    }
                }
            }
            out.finish_op(d.name, problems);
        }
        self.sweep.round(out);
    }
}
