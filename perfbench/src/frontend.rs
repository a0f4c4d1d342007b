//! The MILP-map front end, one public call at a time: what
//! `milp_map_model_size` and the flow's analyze pre-pass do internally,
//! spelled out so each layer gets its own span.

use pipemap_analyze::{simplify, Analysis};
use pipemap_core::{debug_build_model, schedule_baseline, FlowOptions};
use pipemap_cuts::{priority_cuts, CutConfig, CutDb, PruneConfig};
use pipemap_ir::{Dfg, Target};
use pipemap_milp::Model;
use pipemap_netlist::Qor;

use crate::trace;

/// What the front end produced for one design.
#[derive(Debug)]
pub struct FrontEnd {
    /// The MILP-map model, as `run_flow` would solve it.
    pub model: Model,
    /// Nodes of the graph the model was built over.
    pub nodes_after: usize,
    /// Cuts the priority analysis enumerated.
    pub cuts_enumerated: usize,
    /// Cuts it kept.
    pub cuts_kept: usize,
    /// Area of the baseline schedule the model's windows derive from.
    pub baseline_qor: Qor,
}

/// Run the front end with the flow's cut settings from `opts`.
///
/// # Errors
///
/// Returns a message when no initiation interval admits a schedule.
pub fn front_end(dfg: &Dfg, target: &Target, opts: &FlowOptions) -> Result<FrontEnd, String> {
    // The flow trusts a rewrite only after a seeded replay against the
    // original, and falls back to the original graph on any doubt.
    let rewritten = trace::span("analyze.simplify", || simplify(dfg))
        .ok()
        .and_then(|out| {
            let diverged = trace::span("verify.equivalence", || {
                pipemap_verify::check_graph_equivalence(
                    "analyze pre-pass",
                    dfg,
                    &out.dfg,
                    16,
                    0xC0FFEE,
                )
            })
            .has_errors();
            if diverged {
                return None;
            }
            let analysis = trace::span("analyze.dataflow", || Analysis::run(&out.dfg)).ok()?;
            let live: Vec<u64> = out.dfg.node_ids().map(|v| analysis.live(v)).collect();
            Some((out.dfg, live))
        });
    // `FlowOptions`' cut and prune settings, which the flow keeps private.
    let cfg = CutConfig {
        k: target.k,
        max_cuts: opts.max_cuts,
        max_cone: opts.max_cone,
        filter_dominated: opts.filter_dominated,
        ..CutConfig::default()
    };
    let (work, live) = match rewritten {
        Some((work, live)) => {
            // The pre-pass enumerates the unsimplified graph as well, only
            // to report how many cuts the rewrite saved.
            trace::span("cuts.raw_enumerate", || CutDb::enumerate(dfg, &cfg));
            (work, Some(live))
        }
        None => (dfg.clone(), None),
    };
    let prune = PruneConfig {
        max_cuts_per_root: opts.max_cuts_per_root.min(opts.max_cuts).max(1),
        raw_cuts: opts.max_cuts.saturating_mul(2).clamp(8, 32),
        live_bits: live,
    };
    let pc = trace::span("cuts.priority", || priority_cuts(&work, &cfg, &prune));
    let base = trace::span("baseline.schedule", || {
        schedule_baseline(&work, target, opts.ii, &pc.db)
    })
    .map_err(|e| format!("baseline: {e}"))?;
    let depth = base.implementation.schedule.depth() + opts.extra_latency;
    let model = trace::span("formulation.build", || {
        debug_build_model(&work, target, &pc.db, base.ii, depth, opts.alpha, opts.beta)
    });
    Ok(FrontEnd {
        model,
        nodes_after: work.len(),
        cuts_enumerated: pc.stats.cuts_enumerated,
        cuts_kept: pc.db.total_cuts(),
        baseline_qor: Qor::evaluate(&work, target, &base.implementation),
    })
}
