//! `search`: a fixed branch-and-bound node budget on the MILP-map models
//! of the designs that time out. An operation compiles one design from
//! its `.pmir` text through the public front end to the model (as
//! `milp_map_model_size` does), solves the root relaxation cold, and runs
//! the tree search until the node budget stops it. The search dominates;
//! the front end is a few percent of the wall.

use std::time::Duration;

use pipemap_bench_suite as suite;
use pipemap_ir::{parse_dfg, print_dfg, Target};
use pipemap_milp::{solve_relaxation, SolverOptions};

use crate::frontend::front_end;
use crate::prove::optimized_options;
use crate::{add_solve, shuffled, trace, Bench, Round, Size};

/// One design and the best objective known for its model.
#[derive(Debug)]
pub struct SearchDesign {
    /// Table 1 name.
    pub name: &'static str,
    /// Best known objective (`BENCH_milp.json`): no proven bound may
    /// exceed it.
    pub best_known: f64,
    text: String,
    target: Target,
}

/// The `search` workload.
#[derive(Debug)]
pub struct Search {
    /// Designs, each compiled and searched once per round.
    pub designs: Vec<SearchDesign>,
    order: Vec<usize>,
    opts: SolverOptions,
}

/// Branch-and-bound nodes per solve.
pub const NODE_BUDGET: usize = 100;

impl Search {
    /// Generate the designs and print them to `.pmir` text.
    ///
    /// # Errors
    ///
    /// Never fails; the signature matches the other workloads.
    pub fn setup(size: Size, seed: u64) -> Result<Search, String> {
        let (picks, budget) = match size {
            Size::Full => (
                vec![
                    (suite::rs(), 115.5),
                    (suite::gfmul(), 65.0),
                    (suite::xorr(64, 2), 19.0),
                    (suite::cordic(5), 467.0),
                    (suite::mt(), 304.5),
                ],
                NODE_BUDGET,
            ),
            Size::Tiny => (vec![(suite::gfmul(), 65.0)], 5),
        };
        let designs: Vec<SearchDesign> = picks
            .into_iter()
            .map(|(b, best_known)| SearchDesign {
                name: b.name,
                best_known,
                text: print_dfg(&b.dfg),
                target: b.target,
            })
            .collect();
        Ok(Search {
            order: shuffled(designs.len(), seed),
            designs,
            opts: SolverOptions {
                // Never binds: the node budget is the limiter.
                time_limit: Duration::from_secs(600),
                node_limit: budget,
                jobs: 1,
                gomory_cuts: optimized_options().gomory_cuts,
                ..SolverOptions::default()
            },
        })
    }
}

impl Bench for Search {
    fn round(&mut self, out: &mut Round) {
        let flow = optimized_options();
        for &i in &self.order {
            let d = &self.designs[i];
            let (compiled, _) = out.timed(|| {
                trace::op(|| {
                    let dfg = trace::span("ir.parse", || parse_dfg(&d.text))
                        .map_err(|e| format!("parse: {e}"))?;
                    let fe = trace::span("flows.model_size", || front_end(&dfg, &d.target, &flow))?;
                    let relax = trace::span("milp.relax", || {
                        solve_relaxation(&fe.model, Duration::from_secs(600))
                    });
                    let solved = trace::span("milp.solve", || fe.model.solve(&self.opts));
                    Ok::<_, String>((dfg.len(), fe, relax, solved))
                })
            });
            let mut problems = Vec::new();
            match compiled {
                Err(e) => problems.push(e),
                Ok((nodes, fe, relax, solved)) => {
                    out.add("ir.nodes", nodes as f64);
                    out.add("analyze.nodes_after", fe.nodes_after as f64);
                    out.add("cuts.enumerated", fe.cuts_enumerated as f64);
                    out.add("cuts.kept", fe.cuts_kept as f64);
                    out.add("formulation.vars", fe.model.num_vars() as f64);
                    out.add("formulation.rows", fe.model.num_rows() as f64);
                    // No implementation comes out of a budgeted search:
                    // report the area of the baseline schedule the model
                    // is built from.
                    out.add("luts", fe.baseline_qor.luts as f64);
                    out.add("ffs", fe.baseline_qor.ffs as f64);
                    match relax {
                        None => problems.push("root relaxation did not solve".to_string()),
                        Some((obj, _)) if obj > d.best_known + 1e-6 => problems.push(format!(
                            "relaxation {obj} above best known {}",
                            d.best_known
                        )),
                        Some(_) => {}
                    }
                    match solved {
                        Err(e) => problems.push(format!("solve: {e}")),
                        Ok(r) => {
                            add_solve(out, r.nodes, r.lp_iterations, &r.stats);
                            let solve_s = r.solve_time.as_secs_f64();
                            out.add("milp.solve_s", solve_s);
                            out.add(format!("milp.solve_s.{}", d.name), solve_s);
                            out.add(
                                "_bound_gap_sum",
                                (d.best_known - r.best_bound) / d.best_known,
                            );
                            out.add("_bound_gap_n", 1.0);
                            if r.nodes != self.opts.node_limit {
                                problems.push(format!(
                                    "{} nodes, budget {}",
                                    r.nodes, self.opts.node_limit
                                ));
                            }
                            if r.best_bound > d.best_known + 1e-6 {
                                problems.push(format!(
                                    "bound {} above best known {}",
                                    r.best_bound, d.best_known
                                ));
                            }
                        }
                    }
                }
            }
            out.finish_op(d.name, problems);
        }
    }
}
