//! The three evaluation flows of the paper's Table 1: the heuristic HLS
//! tool, the mapping-agnostic exact MILP (MILP-base), and the full
//! mapping-aware MILP (MILP-map).

use std::time::{Duration, Instant};

use pipemap_analyze::Analysis;
use pipemap_cuts::{
    priority_cuts, Cut, CutConfig, CutDb, PruneConfig, PruneStats as CutPruneStats,
};
use pipemap_ir::{Dfg, Target};
use pipemap_milp::{SolverOptions, SolverStats, Status};
use pipemap_netlist::{Cover, Implementation, Qor};
use pipemap_obs as obs;

use crate::baseline::{schedule_baseline, BaselineResult};
use crate::error::CoreError;
use crate::formulation;

/// Which scheduling flow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Heuristic additive-delay scheduler + register-bounded mapping (the
    /// commercial-tool stand-in).
    HlsTool,
    /// Exact MILP restricted to trivial (unit) cuts — isolates "exact vs
    /// heuristic" from mapping awareness.
    MilpBase,
    /// The full mapping-aware MILP.
    MilpMap,
    /// The scalable mapping-aware *list-scheduling* heuristic the paper
    /// lists as future work (§5): cut-aware delays during list
    /// scheduling, then greedy area mapping. No MILP involved.
    MappedHeuristic,
}

impl Flow {
    /// The paper's three Table 1 flows, in row order.
    pub const ALL: [Flow; 3] = [Flow::HlsTool, Flow::MilpBase, Flow::MilpMap];

    /// All flows including the future-work heuristic.
    pub const EXTENDED: [Flow; 4] = [
        Flow::HlsTool,
        Flow::MappedHeuristic,
        Flow::MilpBase,
        Flow::MilpMap,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Flow::HlsTool => "HLS Tool",
            Flow::MilpBase => "MILP-base",
            Flow::MilpMap => "MILP-map",
            Flow::MappedHeuristic => "Map-heur",
        }
    }
}

impl std::fmt::Display for Flow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Knobs shared by all flows.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Target initiation interval (paper: 1); bumped if infeasible.
    pub ii: u32,
    /// LUT-term weight α of Eq. 15 (paper: 0.5).
    pub alpha: f64,
    /// Register-term weight β of Eq. 15 (paper: 0.5).
    pub beta: f64,
    /// Optional DSP-count weight γ — the resource-objective extension the
    /// paper's §3.2 invites. 0 (default) disables the term.
    pub gamma: f64,
    /// Cuts kept per node during enumeration.
    pub max_cuts: usize,
    /// Largest cone size during enumeration.
    pub max_cone: u32,
    /// Run the certified priority-cut analysis before the mapping-aware
    /// MILP (opt-in via `--priority-cuts`): enumerate a raw cut pool,
    /// prune dominated and provably-dead cuts with machine-checkable
    /// certificates, rank the survivors by area/edge flow, and keep at
    /// most [`FlowOptions::max_cuts_per_root`] cuts per node. Certified
    /// drops never move the optimum; the ranked truncation is a
    /// heuristic and can trade mapping quality for a much smaller MILP,
    /// which is why it is off by default.
    pub priority_cuts: bool,
    /// Cuts kept per root by the priority ranking (unit cut included).
    /// The effective cap is `min(max_cuts, max_cuts_per_root)`.
    pub max_cuts_per_root: usize,
    /// Let the plain enumerator (used when [`FlowOptions::priority_cuts`]
    /// is off) drop subset-dominated cuts as it merges (on by default).
    /// Turning it off feeds the raw K-feasible pool to the model — the
    /// unpruned comparator the priority-cut sweep tests solve against.
    pub filter_dominated: bool,
    /// MILP wall-clock budget (paper: 60 min; scaled down here).
    pub time_limit: Duration,
    /// Extra latency slack on top of the baseline depth for the MILP's
    /// schedule windows.
    pub extra_latency: u32,
    /// Run the `pipemap-analyze` simplification pre-pass before the
    /// mapping-aware MILP flow (on by default). The rewritten graph is
    /// audited by replaying seeded vectors against the original before it
    /// is trusted; on any doubt the flow falls back to the original graph.
    pub analyze: bool,
    /// Worker threads for the MILP tree search *and* for running the
    /// flows of [`run_all_flows`] concurrently. The solver's determinism
    /// contract makes this a pure throughput knob: results are identical
    /// for every value.
    pub jobs: usize,
    /// Run the MILP presolve pass (on by default; off reproduces the
    /// cold-solver baseline for benchmarking).
    pub presolve: bool,
    /// Warm-start child LPs with the dual simplex (on by default; off
    /// reproduces the cold-solver baseline for benchmarking).
    pub warm_start: bool,
    /// Probe binary variables before the search, harvesting certified
    /// fixings and implications (on by default).
    pub probing: bool,
    /// Separate certified clique/cover cuts at the root (on by default).
    pub cuts: bool,
    /// Separate rank-1 Gomory mixed-integer cuts from the root simplex
    /// tableau, each shipped with a machine-checkable derivation
    /// certificate (audited by `pipemap-verify`'s `P07xx` pass). Off by
    /// default; opt in via `--gomory-cuts`.
    pub gomory_cuts: bool,
    /// Refine the MILP seed with the feedback-guided subgraph
    /// decomposition before the full solve: carve MFFC-bounded regions,
    /// re-optimize the most LP-fractional ones as frozen-complement
    /// sub-MILPs, and stitch improving incumbents (see
    /// `crate::decompose`). Off by default; opt in via `--decompose`.
    pub decompose: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            ii: 1,
            alpha: 0.5,
            beta: 0.5,
            gamma: 0.0,
            max_cuts: 8,
            max_cone: 24,
            priority_cuts: false,
            max_cuts_per_root: 4,
            filter_dominated: true,
            time_limit: Duration::from_secs(60),
            extra_latency: 0,
            analyze: true,
            jobs: 1,
            presolve: true,
            warm_start: true,
            probing: true,
            cuts: true,
            gomory_cuts: false,
            decompose: false,
        }
    }
}

impl FlowOptions {
    fn cut_config(&self, target: &Target) -> CutConfig {
        CutConfig {
            k: target.k,
            max_cuts: self.max_cuts,
            max_cone: self.max_cone,
            filter_dominated: self.filter_dominated,
            ..CutConfig::default()
        }
    }

    fn prune_config(&self, live_bits: Option<Vec<u64>>) -> PruneConfig {
        PruneConfig {
            max_cuts_per_root: self.max_cuts_per_root.min(self.max_cuts).max(1),
            raw_cuts: self.max_cuts.saturating_mul(2).clamp(8, 32),
            live_bits,
        }
    }
}

/// Solver-side statistics of a MILP flow (Table 2's columns).
#[derive(Debug, Clone)]
pub struct MilpStats {
    /// Final solver status.
    pub status: Status,
    /// Incumbent objective.
    pub objective: f64,
    /// Proven lower bound.
    pub best_bound: f64,
    /// Wall-clock spent in the solver.
    pub solve_time: Duration,
    /// Branch-and-bound nodes.
    pub nodes: usize,
    /// Simplex iterations.
    pub lp_iterations: usize,
    /// Model size: variables.
    pub variables: usize,
    /// Model size: constraint rows.
    pub constraints: usize,
    /// Total enumerated cuts (drives model size; Table 2 discussion).
    pub total_cuts: usize,
    /// Raw cuts enumerated before the certified priority-cut pruning
    /// (equal to `total_cuts` when the analysis did not run).
    pub cuts_enumerated: usize,
    /// Cuts removed by the priority-cut analysis (certified dominance
    /// and liveness drops plus heuristic rank-cap truncation).
    pub cuts_pruned: usize,
    /// Region sub-MILPs solved by the feedback-guided decomposition
    /// (0 when [`FlowOptions::decompose`] is off).
    pub subproblems_solved: usize,
    /// Improving region incumbents the decomposition stitched into the
    /// seed before the full solve.
    pub stitched_incumbents: usize,
    /// Provenance of the reported incumbent: `"none"` (no feasible
    /// point), `"seed"` (the baseline/heuristic seed survived),
    /// `"decompose"` (a stitched region incumbent survived), or
    /// `"solver"` (the tree search improved on what it was given).
    pub incumbent_source: &'static str,
    /// Counters of the decomposition's shared re-solve context (`None`
    /// when [`FlowOptions::decompose`] is off or there was no seed to
    /// refine).
    pub resolve: Option<pipemap_milp::ResolveStats>,
    /// Presolve/warm-start/parallelism counters from the solver.
    pub solver: SolverStats,
}

/// What the `pipemap-analyze` pre-pass bought for one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrePassStats {
    /// Nodes in the original graph.
    pub nodes_before: usize,
    /// Nodes in the simplified graph the flow actually scheduled.
    pub nodes_after: usize,
    /// Proof-carrying rewrites applied.
    pub rewrites: usize,
    /// Bits of logic pruned (removed node widths + narrowing savings).
    pub bits_pruned: u64,
    /// Enumerated cuts on the original graph with the flow's config.
    pub cuts_before: usize,
    /// Enumerated cuts on the simplified graph (with liveness pruning).
    pub cuts_after: usize,
}

/// Outcome of one flow on one benchmark.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Which flow produced this.
    pub flow: Flow,
    /// Achieved initiation interval.
    pub ii: u32,
    /// The graph the flow actually scheduled — the original, or the
    /// `pipemap-analyze`-simplified rewrite when the pre-pass ran. The
    /// implementation's node indices refer to **this** graph; verify it
    /// with `check_flows_with_graphs`.
    pub dfg: Dfg,
    /// The schedule + cover (over [`FlowResult::dfg`]).
    pub implementation: Implementation,
    /// Area/timing numbers through the shared physical model.
    pub qor: Qor,
    /// Solver statistics (`None` for the heuristic flow).
    pub milp: Option<MilpStats>,
    /// Pre-pass savings (`None` when the pre-pass did not run or did not
    /// change the graph).
    pub analysis: Option<PrePassStats>,
}

/// Run one flow end to end.
///
/// # Errors
///
/// Returns [`CoreError`] if no II admits a schedule, the solver fails
/// numerically, or (internal bug) an illegal implementation is produced.
pub fn run_flow(
    dfg: &Dfg,
    target: &Target,
    flow: Flow,
    opts: &FlowOptions,
) -> Result<FlowResult, CoreError> {
    let _flow_span = obs::span(match flow {
        Flow::HlsTool => "flow:hls-tool",
        Flow::MilpBase => "flow:milp-base",
        Flow::MilpMap => "flow:milp-map",
        Flow::MappedHeuristic => "flow:map-heur",
    });
    // The mapping-aware flow first runs the analyze pre-pass: the MILP
    // then models the simplified graph with liveness-pruned cut sets.
    let (work, mut pre, live) = if opts.analyze && flow == Flow::MilpMap {
        let _s = obs::span("analyze-pre-pass");
        analyze_pre_pass(dfg, target, opts)
    } else {
        (dfg.clone(), None, None)
    };
    // The downstream mapper of the baseline flow always sees real cuts;
    // only the mapping-aware MILP flow may prune them.
    let (db_map, prune) = map_cut_db(
        &work,
        target,
        opts,
        opts.priority_cuts && flow == Flow::MilpMap,
        live,
    );
    if let Some(p) = pre.as_mut() {
        p.cuts_after = db_map.total_cuts();
    }
    let baseline = {
        let _s = obs::span("baseline");
        schedule_baseline(&work, target, opts.ii, &db_map)?
    };
    match flow {
        Flow::HlsTool => {
            let qor = {
                let _s = obs::span("qor");
                Qor::evaluate(&work, target, &baseline.implementation)
            };
            Ok(FlowResult {
                flow,
                ii: baseline.ii,
                dfg: work,
                implementation: baseline.implementation,
                qor,
                milp: None,
                analysis: pre,
            })
        }
        Flow::MappedHeuristic => {
            // The future-work heuristic; fall back to the baseline when
            // the mapped list schedule cannot be covered.
            let r = crate::baseline::schedule_mapped_heuristic(&work, target, opts.ii, &db_map)
                .unwrap_or(baseline);
            let qor = {
                let _s = obs::span("qor");
                Qor::evaluate(&work, target, &r.implementation)
            };
            Ok(FlowResult {
                flow,
                ii: r.ii,
                dfg: work,
                implementation: r.implementation,
                qor,
                milp: None,
                analysis: pre,
            })
        }
        Flow::MilpBase => {
            let db = {
                let _s = obs::span("cut-enum");
                CutDb::enumerate(&work, &CutConfig::trivial_only(target))
            };
            run_milp(
                &work, target, flow, opts, &db, &db_map, &baseline, pre, None,
            )
        }
        Flow::MilpMap => run_milp(
            &work, target, flow, opts, &db_map, &db_map, &baseline, pre, prune,
        ),
    }
}

/// The mapping-aware cut database of `work` under `opts`' cut settings.
/// With `priority` the raw pool goes through the certified priority-cut
/// analysis: dominance and liveness drops carry certificates, and the
/// survivors are ranked down to [`FlowOptions::max_cuts_per_root`], so
/// the model built over it is strictly smaller. Without it the plain
/// enumerator runs, skipping the bits `live` marks dead.
pub(crate) fn map_cut_db(
    work: &Dfg,
    target: &Target,
    opts: &FlowOptions,
    priority: bool,
    live: Option<Vec<u64>>,
) -> (CutDb, Option<CutPruneStats>) {
    let _s = obs::span("cut-enum");
    let mut cfg = opts.cut_config(target);
    if priority {
        let out = priority_cuts(work, &cfg, &opts.prune_config(live));
        (out.db, Some(out.stats))
    } else {
        cfg.live_bits = live;
        (CutDb::enumerate(work, &cfg), None)
    }
}

/// Simplify `dfg` with `pipemap-analyze` and derive liveness masks for
/// cut pruning. The rewrite is only trusted after a seeded replay against
/// the original; any failure falls back to the original graph (the
/// pre-pass is an optimization, never a correctness risk).
fn analyze_pre_pass(
    dfg: &Dfg,
    target: &Target,
    opts: &FlowOptions,
) -> (Dfg, Option<PrePassStats>, Option<Vec<u64>>) {
    let Ok(out) = pipemap_analyze::simplify(dfg) else {
        return (dfg.clone(), None, None);
    };
    if pipemap_verify::check_graph_equivalence("analyze pre-pass", dfg, &out.dfg, 16, 0xC0FFEE)
        .has_errors()
    {
        return (dfg.clone(), None, None);
    }
    let Ok(analysis) = Analysis::run(&out.dfg) else {
        return (dfg.clone(), None, None);
    };
    let live: Vec<u64> = out.dfg.node_ids().map(|v| analysis.live(v)).collect();
    let cuts_before = CutDb::enumerate(dfg, &opts.cut_config(target)).total_cuts();
    let stats = PrePassStats {
        nodes_before: out.stats.nodes_before,
        nodes_after: out.stats.nodes_after,
        rewrites: out.rewrites.len(),
        bits_pruned: out.stats.bits_pruned,
        cuts_before,
        cuts_after: 0, // filled in once the flow's cut database exists
    };
    (out.dfg, Some(stats), Some(live))
}

/// Convenience: run all three flows. With `opts.jobs > 1` the flows run
/// concurrently on scoped threads; results keep [`Flow::ALL`] order and
/// are identical to the serial run (each flow is independent and the
/// solver itself is deterministic in its thread count).
///
/// # Errors
///
/// Propagates the first flow failure (in [`Flow::ALL`] order).
pub fn run_all_flows(
    dfg: &Dfg,
    target: &Target,
    opts: &FlowOptions,
) -> Result<Vec<FlowResult>, CoreError> {
    if opts.jobs <= 1 {
        return Flow::ALL
            .iter()
            .map(|&f| run_flow(dfg, target, f, opts))
            .collect();
    }
    let mut slots: Vec<Option<Result<FlowResult, CoreError>>> =
        Flow::ALL.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, &flow) in slots.iter_mut().zip(Flow::ALL.iter()) {
            scope.spawn(move || {
                let _lane = obs::lane_guard(format!("flow-{}", flow.label()));
                *slot = Some(run_flow(dfg, target, flow, opts));
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("flow thread completed"))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_milp(
    dfg: &Dfg,
    target: &Target,
    flow: Flow,
    opts: &FlowOptions,
    db: &CutDb,
    db_map: &CutDb,
    baseline: &BaselineResult,
    pre: Option<PrePassStats>,
    prune: Option<CutPruneStats>,
) -> Result<FlowResult, CoreError> {
    let ii = baseline.ii;
    let m = baseline.implementation.schedule.depth() + opts.extra_latency;
    let build_span = obs::span("milp-build");
    let f = formulation::build_weighted(dfg, target, db, ii, m, opts.alpha, opts.beta, opts.gamma);

    // Seed candidates in preference order: MILP-base starts from the
    // baseline schedule with an all-unit cover (its model has no other
    // cuts); MILP-map prefers the mapping-aware list-scheduling heuristic
    // when it beats the baseline. The first candidate the model accepts
    // (inside its windows, cuts in the database, all rows satisfied) wins.
    let mut seed_candidates: Vec<Implementation> = Vec::new();
    match flow {
        Flow::MilpBase => {
            seed_candidates.push(unit_cover_implementation(dfg, db, &baseline.implementation));
        }
        _ => {
            let mut cands = vec![baseline.implementation.clone()];
            if let Some(h) = crate::baseline::schedule_mapped_heuristic(dfg, target, ii, db) {
                if h.ii == ii {
                    cands.push(h.implementation);
                }
            }
            // Rank by the Eq. 15 objective, breaking ties toward fewer
            // FFs (the paper's headline metric).
            let cost = |imp: &Implementation| {
                let q = Qor::evaluate(dfg, target, imp);
                (opts.alpha * q.luts as f64 + opts.beta * q.ffs as f64, q.ffs)
            };
            cands.sort_by(|a, b| {
                let (ca, fa) = cost(a);
                let (cb, fb) = cost(b);
                ca.partial_cmp(&cb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(fa.cmp(&fb))
            });
            seed_candidates = cands;
        }
    }
    let mut seed = seed_candidates.iter().find_map(|imp| {
        let v = f.seed(dfg, target, db, imp)?;
        f.model.check_feasible(&v, 1e-6).is_none().then_some(v)
    });
    drop(build_span);

    // Feedback-guided subgraph decomposition: refine the seed by
    // re-optimizing MFFC-bounded regions (most LP-fractional first)
    // before the full solve sees it. A quarter of the budget goes to
    // the regions; the refined incumbent enters the tree as its primal
    // bound.
    let mut subproblems_solved = 0usize;
    let mut stitched_incumbents = 0usize;
    let mut resolve_stats: Option<pipemap_milp::ResolveStats> = None;
    let mut incumbent_source: &'static str = if seed.is_some() { "seed" } else { "none" };
    if opts.decompose {
        if let Some(sv) = seed.take() {
            let _s = obs::span("decompose");
            let budget = opts.time_limit / 4;
            let relax =
                pipemap_milp::solve_relaxation(&f.model, budget.min(Duration::from_secs(5)));
            let out = crate::decompose::refine_incumbent(
                dfg,
                &f,
                sv,
                relax.as_ref().map(|(_, x)| x.as_slice()),
                budget,
                opts.jobs,
            );
            subproblems_solved = out.subproblems_solved;
            stitched_incumbents = out.stitched_incumbents;
            resolve_stats = Some(out.resolve_stats);
            if out.stitched_incumbents > 0 {
                incumbent_source = "decompose";
            }
            seed = Some(out.values);
        }
    }
    let injected_obj = seed.as_ref().map(|v| f.model.objective_value(v));

    let solver_opts = SolverOptions {
        time_limit: opts.time_limit,
        initial_solution: seed,
        jobs: opts.jobs.max(1),
        presolve: opts.presolve,
        warm_start: opts.warm_start,
        probing: opts.probing,
        cuts: opts.cuts,
        gomory_cuts: opts.gomory_cuts,
        ..SolverOptions::default()
    };
    let start = Instant::now();
    let solved = {
        let _s = obs::span_with(
            "milp-solve",
            vec![
                ("vars", f.model.num_vars().into()),
                ("rows", f.model.num_rows().into()),
            ],
        );
        f.model.solve(&solver_opts)
    };
    let solve_time = start.elapsed();
    // A numerical solver failure or an empty incumbent degrades to the
    // best seed: it is a genuine feasible solution of the same model.
    let (mut implementation, mut status, objective, mut best_bound, nodes, lp_iterations, solver) =
        match solved {
            Ok(r) if r.status.has_solution() => {
                let imp = f.extract(dfg, db, &r.values);
                (
                    imp,
                    r.status,
                    r.objective,
                    r.best_bound,
                    r.nodes,
                    r.lp_iterations,
                    r.stats,
                )
            }
            Ok(r) => match seed_fallback(dfg, target, opts, &seed_candidates) {
                Some((imp, obj)) => (
                    imp,
                    Status::Feasible,
                    obj,
                    f64::NEG_INFINITY,
                    r.nodes,
                    r.lp_iterations,
                    r.stats,
                ),
                None => return Err(CoreError::NoSolution(r.status)),
            },
            Err(e) => match seed_fallback(dfg, target, opts, &seed_candidates) {
                Some((imp, obj)) => (
                    imp,
                    Status::Feasible,
                    obj,
                    f64::NEG_INFINITY,
                    0,
                    0,
                    SolverStats::default(),
                ),
                None => return Err(CoreError::Milp(e)),
            },
        };
    if status.has_solution() {
        match injected_obj {
            Some(io) if objective < io - 1e-9 => incumbent_source = "solver",
            None => incumbent_source = "solver",
            _ => {}
        }
    }
    // Dual side of the decomposition: when the tree timed out, the
    // partition bound (sum of per-region dual bounds under the split
    // objective — see [`crate::decompose::partition_bound`]) often beats
    // the tree's global bound, because each term sees its own region's
    // integrality. Meeting the incumbent proves it optimal.
    if opts.decompose
        && matches!(status, Status::TimedOut | Status::Feasible)
        && objective.is_finite()
    {
        // Half the solve budget: this only runs when the tree has already
        // timed out, and every second here works the bound side of the
        // gap, which the tree was failing to move.
        if let Some((pb, groups)) =
            crate::decompose::partition_bound(dfg, &f, opts.time_limit / 2, opts.jobs)
        {
            subproblems_solved += groups;
            let pb = pipemap_milp::lift_to_objective_grid(&f.model, pb);
            if pb > best_bound {
                best_bound = pb;
                if best_bound >= objective - 1e-6 {
                    best_bound = objective;
                    status = Status::Optimal;
                }
            }
        }
    }
    if obs::metrics::enabled() {
        obs::metrics::gauge("model.cols").set(f.model.num_vars() as f64);
        obs::metrics::gauge("model.rows").set(f.model.num_rows() as f64);
    }
    if obs::enabled() {
        // Final solver verdict for the flight recorder, emitted after the
        // partition-bound pass so the recorded gap matches what callers
        // see in `MilpStats`.
        let gap_rel = if objective.is_finite() && best_bound.is_finite() {
            (objective - best_bound).abs() / objective.abs().max(1e-9)
        } else {
            f64::NAN
        };
        obs::instant_with(
            "milp-stats",
            vec![
                ("status", status.to_string().into()),
                ("objective", objective.into()),
                ("best_bound", best_bound.into()),
                ("gap_rel", gap_rel.into()),
                ("nodes", nodes.into()),
                ("lp_iterations", lp_iterations.into()),
                ("variables", f.model.num_vars().into()),
                ("constraints", f.model.num_rows().into()),
                ("incumbent_source", incumbent_source.into()),
            ],
        );
    }
    // Route legality through the full diagnostics verifier: unlike the
    // fail-fast `pipemap_netlist::verify`, it reports *every* violated
    // invariant with a stable `P0xxx` code.
    let diags = {
        let _s = obs::span("verify");
        pipemap_verify::check_implementation(dfg, target, &implementation)
    };
    if diags.has_errors() {
        return Err(CoreError::Verification(diags));
    }
    if flow == Flow::MilpBase {
        // Paper flow: the MILP-base *schedule* is handed to the commercial
        // tool, whose downstream technology mapper still runs (bounded by
        // the schedule's registers). Re-cover the schedule with real cuts;
        // keep the unit cover if the greedy mapper violates timing.
        let _s = obs::span("remap");
        let remapped = Implementation {
            cover: crate::baseline::remap_schedule(dfg, db_map, &implementation.schedule),
            schedule: implementation.schedule.clone(),
        };
        if !pipemap_verify::check_implementation(dfg, target, &remapped).has_errors() {
            implementation = remapped;
        }
    }
    let qor = {
        let _s = obs::span("qor");
        Qor::evaluate(dfg, target, &implementation)
    };
    Ok(FlowResult {
        flow,
        ii,
        dfg: dfg.clone(),
        implementation,
        qor,
        analysis: pre,
        milp: Some(MilpStats {
            status,
            objective,
            best_bound,
            solve_time,
            nodes,
            lp_iterations,
            variables: f.model.num_vars(),
            constraints: f.model.num_rows(),
            total_cuts: db.total_cuts(),
            cuts_enumerated: prune.map_or_else(|| db.total_cuts(), |p| p.cuts_enumerated),
            cuts_pruned: prune.map_or(0, |p| p.cuts_pruned()),
            subproblems_solved,
            stitched_incumbents,
            incumbent_source,
            resolve: resolve_stats,
            solver,
        }),
    })
}

/// Size of the mapping-aware MILP over the **raw** K-feasible cut pool:
/// the enumeration with no dominance filtering at all, which is exactly
/// the pool the priority-cut analysis starts from (its
/// `cuts_enumerated` counter). This is the unpruned comparator for the
/// priority-cut analysis — the model a solver would face if every
/// K-feasible cut reached the formulation.
///
/// # Errors
///
/// Returns [`CoreError`] if no initiation interval admits a baseline
/// schedule.
pub fn milp_map_model_size_raw(
    dfg: &Dfg,
    target: &Target,
    opts: &FlowOptions,
) -> Result<(usize, usize, usize), CoreError> {
    let (work, _, _) = if opts.analyze {
        analyze_pre_pass(dfg, target, opts)
    } else {
        (dfg.clone(), None, None)
    };
    let map_cfg = opts.cut_config(target);
    let pcfg = opts.prune_config(None);
    let raw_cfg = CutConfig {
        filter_dominated: false,
        live_bits: None,
        max_cuts: map_cfg.max_cuts.max(pcfg.raw_cuts),
        ..map_cfg
    };
    let db = CutDb::enumerate(&work, &raw_cfg);
    let baseline = schedule_baseline(&work, target, opts.ii, &db)?;
    let m = baseline.implementation.schedule.depth() + opts.extra_latency;
    let f = formulation::build_weighted(
        &work,
        target,
        &db,
        baseline.ii,
        m,
        opts.alpha,
        opts.beta,
        opts.gamma,
    );
    Ok((f.model.num_vars(), f.model.num_rows(), db.total_cuts()))
}

/// Best verifying seed plus its Eq. 15 objective.
fn seed_fallback(
    dfg: &Dfg,
    target: &Target,
    opts: &FlowOptions,
    candidates: &[Implementation],
) -> Option<(Implementation, f64)> {
    candidates
        .iter()
        .find(|imp| !pipemap_verify::check_implementation(dfg, target, imp).has_errors())
        .map(|imp| {
            let q = Qor::evaluate(dfg, target, imp);
            (
                imp.clone(),
                opts.alpha * q.luts as f64 + opts.beta * q.ffs as f64,
            )
        })
}

/// The baseline schedule re-covered with unit cuts only (every
/// LUT-mappable node its own root) — the feasible point of the
/// mapping-agnostic model.
fn unit_cover_implementation(dfg: &Dfg, db: &CutDb, base: &Implementation) -> Implementation {
    let selected: Vec<Option<Cut>> = dfg.node_ids().map(|v| db.cuts(v).unit().cloned()).collect();
    Implementation {
        schedule: base.schedule.clone(),
        cover: Cover::new(selected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_ir::{DfgBuilder, InputStreams};
    use pipemap_netlist::verify_functional;

    /// The paper's Fig. 1 kernel (2-bit ops as in Fig. 2).
    fn rs_mini() -> Dfg {
        let mut b = DfgBuilder::new("rs_mini");
        let s = b.input("s", 2);
        let t = b.input("t", 2);
        let e_prev = b.placeholder(2);
        let a = b.shr(s, 1);
        b.name_node(a, "A");
        let bb = b.xor(t, a);
        b.name_node(bb, "B");
        let c = b.is_non_negative(bb);
        b.name_node(c, "C");
        let d = b.mux(c, bb, e_prev);
        b.name_node(d, "D");
        let e = b.xor(d, a);
        b.name_node(e, "E");
        b.bind(e_prev, e, 1).expect("feedback");
        b.output("out", e);
        b.finish().expect("valid")
    }

    #[test]
    fn fig1_shapes_reproduce() {
        // Paper Fig. 1: additive flow needs 3 pipeline stages; the
        // mapping-aware schedule fits in 1 stage with 2 LUTs.
        let g = rs_mini();
        let target = Target::fig1();
        let opts = FlowOptions::default();

        let base = run_flow(&g, &target, Flow::HlsTool, &opts).expect("hls flow");
        assert!(
            base.qor.depth >= 3,
            "additive schedule should need 3 stages, got {}",
            base.qor.depth
        );
        assert!(base.qor.ffs > 0);

        let map = run_flow(&g, &target, Flow::MilpMap, &opts).expect("milp-map");
        assert_eq!(map.qor.depth, 1, "mapped kernel fits one stage");
        // 2 word-level LUT roots * 2 bits... the paper counts LUTs: D+E
        // merged cone and C(+B+A) cone -> 2 LUTs in Fig. 1's bit-level
        // count; at word level: E's cone (2 bits) + C's cone (1 bit) +
        // possibly B as root. Area must be well below the additive flow.
        assert!(
            map.qor.luts <= base.qor.luts,
            "map {} vs base {}",
            map.qor.luts,
            base.qor.luts
        );
        assert!(map.qor.ffs < base.qor.ffs);

        // Functional equivalence of all three flows.
        let ins = InputStreams::random(&g, 30, 99);
        for r in [&base, &map] {
            verify_functional(&g, &target, &r.implementation, &ins, 30).expect("functional");
        }
    }

    #[test]
    fn milp_base_matches_or_beats_hls_on_objective() {
        let g = rs_mini();
        let target = Target::fig1();
        let opts = FlowOptions::default();
        let base = run_flow(&g, &target, Flow::MilpBase, &opts).expect("milp-base");
        let stats = base.milp.expect("milp stats");
        assert!(stats.status.has_solution());
        // The exact solver's objective can only improve on its seed.
        assert!(stats.objective <= stats.best_bound + 1e-6 || stats.objective.is_finite());
        let ins = InputStreams::random(&g, 30, 7);
        verify_functional(&g, &target, &base.implementation, &ins, 30).expect("functional");
    }

    #[test]
    fn gomory_and_decompose_preserve_the_optimum() {
        let g = rs_mini();
        let target = Target::fig1();
        let plain = run_flow(&g, &target, Flow::MilpMap, &FlowOptions::default()).expect("plain");
        let opts = FlowOptions {
            gomory_cuts: true,
            decompose: true,
            ..FlowOptions::default()
        };
        let both = run_flow(&g, &target, Flow::MilpMap, &opts).expect("with features");
        let po = plain.milp.expect("stats").objective;
        let s = both.milp.expect("stats");
        assert!(
            (s.objective - po).abs() <= 1e-6,
            "objective moved: {} vs {po}",
            s.objective
        );
        assert!(["seed", "decompose", "solver"].contains(&s.incumbent_source));
        assert!(s.subproblems_solved >= s.stitched_incumbents);
        let ins = InputStreams::random(&g, 30, 13);
        verify_functional(&g, &target, &both.implementation, &ins, 30).expect("functional");
    }

    #[test]
    fn map_never_worse_than_base_objective() {
        let g = rs_mini();
        let target = Target::fig1();
        let opts = FlowOptions::default();
        let base = run_flow(&g, &target, Flow::MilpBase, &opts).expect("base");
        let map = run_flow(&g, &target, Flow::MilpMap, &opts).expect("map");
        let ob = base.milp.expect("stats").objective;
        let om = map.milp.expect("stats").objective;
        // The map model's feasible set contains every base solution (unit
        // cuts are always enumerated), so its optimum is no worse.
        assert!(om <= ob + 1e-6, "map {om} > base {ob}");
    }
}
