//! Pins the simplex pivot path on two fixed solves.
//!
//! The LU kernel, FTRAN/BTRAN and the simplex loops are free to change
//! how they store and move data, but not the order of any arithmetic:
//! the factors, every solve and therefore the whole branch-and-bound
//! tree must stay bit-for-bit the same. Node counts, simplex iterations,
//! objective and bound are exact fingerprints of that path, so a kernel
//! change that quietly moves a single pivot fails here. Both solves run
//! on one solver thread, where the tree is fully deterministic.
//!
//! When a change is *meant* to move the pivot path (a new pricing rule,
//! a different refactor trigger), re-record the constants below and say
//! so in the change description.

use std::time::Duration;

use pipemap::bench_suite::{gfmul, gsm};
use pipemap::core::{debug_build_model, run_flow, schedule_baseline, Flow, FlowOptions};
use pipemap::cuts::{priority_cuts, CutConfig, PruneConfig};
use pipemap::milp::{SolverOptions, Status};

/// GSM through the MILP-map flow with the bench-suite optimized options.
#[test]
fn gsm_optimized_flow_pivot_path_is_pinned() {
    let b = gsm();
    let opts = FlowOptions {
        time_limit: Duration::from_secs(600),
        jobs: 1,
        presolve: true,
        warm_start: true,
        priority_cuts: true,
        gomory_cuts: true,
        decompose: true,
        ..FlowOptions::default()
    };
    let r = run_flow(&b.dfg, &b.target, Flow::MilpMap, &opts).expect("GSM flow");
    let m = r.milp.expect("solver statistics");
    assert_eq!(m.status, Status::Optimal);
    assert_eq!(
        fingerprint(m.nodes, m.lp_iterations, m.objective, m.best_bound),
        fingerprint(GSM_NODES, GSM_LP_ITERS, GSM_OBJECTIVE, GSM_BOUND),
        "GSM pivot path moved"
    );
}

/// GFMUL's MILP-map model through `Model::solve` with a node budget and
/// the solver options of the bench-suite optimized pass.
#[test]
fn gfmul_budgeted_search_pivot_path_is_pinned() {
    let b = gfmul();
    let flow = FlowOptions::default();
    let cfg = CutConfig {
        k: b.target.k,
        max_cuts: flow.max_cuts,
        max_cone: flow.max_cone,
        filter_dominated: flow.filter_dominated,
        ..CutConfig::default()
    };
    let prune = PruneConfig {
        max_cuts_per_root: flow.max_cuts_per_root.min(flow.max_cuts).max(1),
        raw_cuts: flow.max_cuts.saturating_mul(2).clamp(8, 32),
        live_bits: None,
    };
    let db = priority_cuts(&b.dfg, &cfg, &prune).db;
    let base = schedule_baseline(&b.dfg, &b.target, flow.ii, &db).expect("baseline schedule");
    let depth = base.implementation.schedule.depth() + flow.extra_latency;
    let model = debug_build_model(
        &b.dfg, &b.target, &db, base.ii, depth, flow.alpha, flow.beta,
    );
    let r = model
        .solve(&SolverOptions {
            time_limit: Duration::from_secs(600),
            node_limit: 30,
            jobs: 1,
            gomory_cuts: true,
            ..SolverOptions::default()
        })
        .expect("GFMUL solve");
    assert_eq!(r.status, Status::Unknown);
    assert_eq!(
        fingerprint(r.nodes, r.lp_iterations, r.objective, r.best_bound),
        fingerprint(GFMUL_NODES, GFMUL_LP_ITERS, GFMUL_OBJECTIVE, GFMUL_BOUND),
        "GFMUL pivot path moved"
    );
}

/// `(nodes, simplex iterations, objective bits, bound bits)`.
fn fingerprint(nodes: usize, iters: usize, objective: f64, bound: f64) -> (usize, usize, u64, u64) {
    (nodes, iters, objective.to_bits(), bound.to_bits())
}

const GSM_NODES: usize = 255;
const GSM_LP_ITERS: usize = 1946;
const GSM_OBJECTIVE: f64 = 56.5;
const GSM_BOUND: f64 = 56.5;
// The budget stops the search before any incumbent is found.
const GFMUL_NODES: usize = 30;
const GFMUL_LP_ITERS: usize = 2302;
const GFMUL_OBJECTIVE: f64 = f64::INFINITY;
const GFMUL_BOUND: f64 = 18.5;
