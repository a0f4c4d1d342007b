//! Feedback-guided subgraph decomposition for the mapping MILP.
//!
//! The full mapping-aware model couples every node's schedule and cover
//! variables through the Eq. 4/9 rows, so the branch-and-bound tree on
//! the larger benchmarks spends most of its budget far from good
//! incumbents. This module attacks the *primal* side of that gap with a
//! large-neighborhood scheme over cone-bounded subgraphs:
//!
//! 1. **Carve.** The DFG is split into regions seeded from the maximal
//!    fanout-free cones of [`pipemap_cuts::analysis::MffcDb`]: each
//!    region is a subtree of the post-dominator tree (a cone whose
//!    interior is consumed only through its root), grown breadth-first
//!    and capped at [`MAX_REGION`] nodes. Cones are the natural unit
//!    here because re-covering a cone never forces duplication
//!    elsewhere — exactly the property that makes a region solvable in
//!    isolation.
//! 2. **Feedback.** Regions are ordered by the *LP fractionality* of
//!    their integer variables at the root relaxation: a region whose
//!    one-hot schedule and cut selectors are already integral has
//!    nothing to gain, while a highly fractional region is where the
//!    relaxation disagrees with every integer point. The most fractional
//!    regions are re-optimized first.
//! 3. **Solve & stitch.** For each region a sub-MILP is formed by
//!    freezing every variable *outside* the region at the incumbent
//!    (bound edits on one shared [`pipemap_milp::ResolveContext`]) and
//!    solving the rest under a small node/time budget. Because the
//!    frozen complement keeps every coupling row intact, any solution of
//!    the sub-MILP is boundary-consistent by construction; an improving
//!    one is verified against the *original* model
//!    ([`pipemap_milp::Model::check_feasible`]) and stitched in as the
//!    new incumbent.
//!
//! The refined incumbent seeds the full solve as its starting primal
//! bound. Determinism: regions, their order, and every sub-solve are
//! deterministic (the solver is deterministic in its thread count), so
//! the jobs-invariance contract of the flows is preserved.

use std::time::{Duration, Instant};

use pipemap_cuts::analysis::MffcDb;
use pipemap_ir::{Dfg, NodeId};
use pipemap_milp::{SolverOptions, VarKind};
use pipemap_obs as obs;

use crate::formulation::Formulation;

/// Maximum nodes per region (cone subtree truncated breadth-first).
const MAX_REGION: usize = 40;
/// Minimum LUT-mappable nodes for a region to be worth a sub-solve.
const MIN_REGION: usize = 2;
/// Branch-and-bound node cap per refinement sub-solve (the deterministic
/// limiter; the time slice is a safety net).
const SUB_NODE_LIMIT: usize = 2000;
/// Give up after this many consecutive sub-solves without a stitch:
/// when the neighborhoods are not improving, the remaining budget is
/// worth more to the main branch-and-bound tree.
const MAX_CONSECUTIVE_FAILURES: usize = 5;

/// What the decomposition produced.
#[derive(Debug, Clone)]
pub(crate) struct DecomposeOutcome {
    /// The refined incumbent (the input seed when nothing improved).
    pub values: Vec<f64>,
    /// Objective of [`DecomposeOutcome::values`] on the full model.
    pub objective: f64,
    /// Region sub-MILPs solved.
    pub subproblems_solved: usize,
    /// Improving region incumbents stitched into the seed.
    pub stitched_incumbents: usize,
    /// Counters of the shared re-solve context.
    pub resolve_stats: pipemap_milp::ResolveStats,
}

/// Carve the DFG into cone-bounded regions: subtrees of the
/// post-dominator tree seeded at the largest uncovered MFFC roots.
/// Regions may overlap the frontier of earlier ones but each node seeds
/// at most one region, so the count is linear in the graph.
fn carve_regions(dfg: &Dfg) -> Vec<Vec<NodeId>> {
    let mffc = MffcDb::compute(dfg);
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); dfg.len()];
    for id in dfg.node_ids() {
        if let Some(p) = mffc.pdom().ipdom(id) {
            children[p.index()].push(id);
        }
    }
    // Largest cones first so deep shared logic lands in one region
    // instead of fragmenting; ties break toward lower node ids.
    let mut roots: Vec<NodeId> = dfg
        .iter()
        .filter(|(_, n)| n.op.is_lut_mappable())
        .map(|(id, _)| id)
        .collect();
    roots.sort_by_key(|&r| (std::cmp::Reverse(mffc.size(r)), r.index()));

    let mut covered = vec![false; dfg.len()];
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    for r in roots {
        if covered[r.index()] {
            continue;
        }
        // Breadth-first down the post-dominator subtree of `r`.
        let mut members = vec![r];
        let mut qi = 0;
        while qi < members.len() && members.len() < MAX_REGION {
            let u = members[qi];
            qi += 1;
            for &c in &children[u.index()] {
                if members.len() >= MAX_REGION {
                    break;
                }
                members.push(c);
            }
        }
        let mappable = members
            .iter()
            .filter(|&&u| dfg.node(u).op.is_lut_mappable())
            .count();
        if mappable < MIN_REGION {
            continue;
        }
        for &u in &members {
            covered[u.index()] = true;
        }
        out.push(members);
    }
    out
}

/// Sum of integrality violations of a region's integer variables at the
/// LP relaxation point — the feedback signal ordering the sub-solves.
fn fractionality(f: &Formulation, region: &[NodeId], relax: &[f64]) -> f64 {
    let mut s = 0.0f64;
    for &u in region {
        for var in f.node_vars(u) {
            if f.model.var_kind(var) != VarKind::Integer {
                continue;
            }
            let x = relax[var.index()];
            let frac = x - x.floor();
            s += frac.min(1.0 - frac);
        }
    }
    s
}

/// Snap near-integral values of integer variables so a frozen complement
/// never presents fractional bounds to a sub-solve.
fn snap_integers(f: &Formulation, values: &mut [f64]) {
    for (j, val) in values.iter_mut().enumerate().take(f.model.num_vars()) {
        let v = pipemap_milp::VarId::from_index(j);
        if f.model.var_kind(v) == VarKind::Integer {
            let r = val.round();
            if (*val - r).abs() <= 1e-6 {
                *val = r;
            }
        }
    }
}

/// A certified *dual* use of the same region structure: partition the
/// columns into the carved regions (plus one group for everything not in
/// a region) and minimize each group's share of the linear objective
/// over the **full** row set, with only that group's variables integer.
/// Each sub-solve is a relaxation of the true problem with a partial
/// objective, so for the true optimum `x*`:
///
/// ```text
///   c·x*  =  Σ_G c_G·x*  ≥  Σ_G min { c_G·x : rows, G integer }
/// ```
///
/// and the sum of the groups' *dual bounds* (valid even when a sub-solve
/// hits its node or time limit) is a valid lower bound on the full MILP.
/// Unlike the root LP bound, each term sees the integrality of its own
/// region, so the sum captures per-region integrality gaps that the LP
/// misses entirely.
///
/// The sub-solves share `time_budget` and run on `jobs` threads each.
/// Returns `(bound, groups_solved)`, or `None` when no finite bound
/// could be established (a group with an unbounded relaxation).
pub(crate) fn partition_bound(
    dfg: &Dfg,
    f: &Formulation,
    time_budget: Duration,
    jobs: usize,
) -> Option<(f64, usize)> {
    let _span = obs::span("partition-bound");
    let n = f.model.num_vars();
    let regions = carve_regions(dfg);
    // group[j] = region index, or regions.len() for the complement.
    let rest = regions.len();
    let mut group = vec![rest; n];
    for (gi, region) in regions.iter().enumerate() {
        for &u in region {
            for var in f.node_vars(u) {
                group[var.index()] = gi;
            }
        }
    }

    // The trivial box bound of one group: min of `c_G·x` over the bounds
    // alone. Valid fallback for groups the budget never reaches; `None`
    // when a group member has a nonzero coefficient on an unbounded side.
    let box_bound = |gi: usize| -> Option<f64> {
        let mut s = 0.0f64;
        for (j, &g) in group.iter().enumerate() {
            if g != gi {
                continue;
            }
            let v = pipemap_milp::VarId::from_index(j);
            let c = f.model.objective_coeff(v);
            if c == 0.0 {
                continue;
            }
            let (lb, ub) = f.model.bounds(v);
            let t = if c > 0.0 { c * lb } else { c * ub };
            if !t.is_finite() {
                return None;
            }
            s += t;
        }
        Some(s)
    };

    // Solve the heaviest groups first: a group's lift over its box bound
    // comes from its objective-weighted integer columns, and the
    // per-group slice is largest while the budget is still full, so the
    // groups with the most to gain should spend it.
    let mut weight = vec![0usize; rest + 1];
    for (j, &g) in group.iter().enumerate() {
        if f.model.objective_coeff(pipemap_milp::VarId::from_index(j)) != 0.0 {
            weight[g] += 1;
        }
    }
    let mut order: Vec<usize> = (0..=rest).collect();
    order.sort_by_key(|&gi| std::cmp::Reverse(weight[gi]));

    let start = Instant::now();
    let mut total = 0.0f64;
    let mut solved = 0usize;
    // One shared re-solve context: each group's "partial objective +
    // partial integrality" model is the base model plus objective and
    // kind edits, rolled back and re-applied per group.
    let mut cx = pipemap_milp::ResolveContext::new(f.model.clone());
    for (k, &gi) in order.iter().enumerate() {
        let remaining = time_budget.saturating_sub(start.elapsed());
        // A group with no objective-weighted column contributes exactly
        // its box bound (zero): don't spend a solver call on it.
        if remaining.is_zero() || weight[gi] == 0 {
            total += box_bound(gi)?;
            continue;
        }
        let groups_left = (rest + 1 - k) as u32;
        let slice = (remaining / groups_left).max(Duration::from_millis(100));
        // Unlike the refinement sub-solves, the node cap here is a
        // runaway backstop, not the convergence mechanism: the bound
        // should use whatever its time slice allows.
        let sub_opts = SolverOptions {
            time_limit: slice,
            node_limit: SUB_NODE_LIMIT * 25,
            jobs: jobs.max(1),
            probing: false,
            cuts: false,
            ..SolverOptions::default()
        };
        cx.restore_objective();
        cx.restore_kinds();
        for (j, &g) in group.iter().enumerate() {
            if g != gi {
                let v = pipemap_milp::VarId::from_index(j);
                cx.set_objective_coeff(v, 0.0);
                cx.relax_integrality(v);
            }
        }
        match cx.solve(&sub_opts) {
            Ok(r) if r.best_bound.is_finite() => {
                solved += 1;
                // Never below the box bound the group is entitled to.
                total += box_bound(gi).map_or(r.best_bound, |b| r.best_bound.max(b));
            }
            _ => total += box_bound(gi)?,
        }
    }
    if obs::enabled() {
        obs::instant_with(
            "partition-bound",
            vec![("bound", total.into()), ("groups_solved", solved.into())],
        );
    }
    Some((total, solved))
}

/// Refine a feasible seed by re-optimizing one region at a time (see the
/// module docs) within `time_budget`, each sub-solve on `jobs` threads.
/// Returns the best incumbent found — the input seed when no region
/// improved.
pub(crate) fn refine_incumbent(
    dfg: &Dfg,
    f: &Formulation,
    seed: Vec<f64>,
    relax: Option<&[f64]>,
    time_budget: Duration,
    jobs: usize,
) -> DecomposeOutcome {
    let _span = obs::span("decompose");
    let mut incumbent = seed;
    snap_integers(f, &mut incumbent);
    let mut best = f.model.objective_value(&incumbent);
    let mut out = DecomposeOutcome {
        values: Vec::new(),
        objective: best,
        subproblems_solved: 0,
        stitched_incumbents: 0,
        resolve_stats: pipemap_milp::ResolveStats::default(),
    };

    let mut regions = carve_regions(dfg);
    if let Some(x) = relax {
        // Most fractional first; region order index breaks ties so the
        // schedule is deterministic.
        let mut scored: Vec<(f64, usize)> = regions
            .iter()
            .enumerate()
            .map(|(i, r)| (fractionality(f, r, x), i))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let reordered: Vec<Vec<NodeId>> = scored
            .into_iter()
            .map(|(_, i)| std::mem::take(&mut regions[i]))
            .collect();
        regions = reordered;
    }

    // Round-robin over the regions until a full pass lands no stitch or
    // the budget runs dry: an improvement in one region can re-open
    // slack in a neighbour through the coupling rows, so a single pass
    // routinely leaves improvements on the table. Region order is fixed
    // across rounds, so the schedule stays deterministic.
    let start = Instant::now();
    let mut consecutive_failures = 0usize;
    // One shared re-solve context across every region and round: the
    // frozen-complement sub-MILP is the base model plus bound edits
    // (freeze = fix at the incumbent), rolled back and re-applied per
    // region.
    let mut cx = pipemap_milp::ResolveContext::new(f.model.clone());
    'rounds: loop {
        let mut improved_this_round = false;
        for region in &regions {
            let elapsed = start.elapsed();
            if elapsed >= time_budget || consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                break 'rounds;
            }
            // Each sub-solve gets at most a quarter of the budget so several
            // regions are always visited, and never more than what is left.
            let slice = (time_budget / 4)
                .min(time_budget - elapsed)
                .max(Duration::from_millis(100));

            let mut free = vec![false; f.model.num_vars()];
            for &u in region {
                for var in f.node_vars(u) {
                    free[var.index()] = true;
                }
            }
            let sub_opts = SolverOptions {
                time_limit: slice,
                node_limit: SUB_NODE_LIMIT,
                initial_solution: Some(incumbent.clone()),
                jobs: jobs.max(1),
                // Region models are small; the structural passes cost more
                // than they save here.
                probing: false,
                cuts: false,
                ..SolverOptions::default()
            };
            cx.restore_bounds();
            for (j, &is_free) in free.iter().enumerate() {
                if !is_free {
                    let x = incumbent[j];
                    cx.set_bounds(pipemap_milp::VarId::from_index(j), x, x);
                }
            }
            let Ok(r) = cx.solve(&sub_opts) else {
                continue;
            };
            out.subproblems_solved += 1;
            if !r.status.has_solution() || r.objective >= best - 1e-9 {
                consecutive_failures += 1;
                continue;
            }
            // Stitch: the frozen complement kept every coupling row, so the
            // improving region solution extends the incumbent — but only
            // trust it after a full-model feasibility check.
            let mut cand = r.values;
            snap_integers(f, &mut cand);
            if f.model.check_feasible(&cand, 1e-6).is_some() {
                consecutive_failures += 1;
                continue;
            }
            best = f.model.objective_value(&cand);
            incumbent = cand;
            out.stitched_incumbents += 1;
            improved_this_round = true;
            consecutive_failures = 0;
            if obs::enabled() {
                obs::instant_with(
                    "decompose-stitch",
                    vec![("objective", best.into()), ("region", region.len().into())],
                );
            }
        }
        if !improved_this_round {
            break;
        }
    }

    out.values = incumbent;
    out.objective = best;
    out.resolve_stats = cx.stats();
    if obs::enabled() {
        obs::instant_with(
            "decompose-done",
            vec![
                ("subproblems", out.subproblems_solved.into()),
                ("stitched", out.stitched_incumbents.into()),
            ],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation;
    use pipemap_cuts::{CutConfig, CutDb};
    use pipemap_ir::{DfgBuilder, Target};

    /// Two independent cones wide enough to give the carver something
    /// to split: each output's logic is private to its cone.
    fn two_cones() -> Dfg {
        let mut b = DfgBuilder::new("cones");
        let x = b.input("x", 2);
        let y = b.input("y", 2);
        let a1 = b.shr(x, 1);
        let a2 = b.xor(a1, y);
        let a3 = b.not(a2);
        b.output("o1", a3);
        let b1 = b.and(x, y);
        let b2 = b.xor(b1, x);
        let b3 = b.not(b2);
        b.output("o2", b3);
        b.finish().expect("valid")
    }

    #[test]
    fn carver_builds_disjoint_cone_regions() {
        let g = two_cones();
        let regions = carve_regions(&g);
        assert!(!regions.is_empty());
        // Every region's seed (first member) is LUT-mappable, and no
        // node seeds two regions.
        let mut seen = std::collections::BTreeSet::new();
        for r in &regions {
            assert!(g.node(r[0]).op.is_lut_mappable());
            for &u in r {
                seen.insert(u.index());
            }
        }
        assert!(seen.len() >= 2);
    }

    #[test]
    fn refinement_never_worsens_the_seed() {
        let g = two_cones();
        let target = Target::fig1();
        let db = CutDb::enumerate(&g, &CutConfig::for_target(&target));
        let base = crate::baseline::schedule_baseline(&g, &target, 1, &db).expect("baseline");
        let m = base.implementation.schedule.depth();
        let f = formulation::build(&g, &target, &db, base.ii, m, 0.5, 0.5);
        let seed = f
            .seed(&g, &target, &db, &base.implementation)
            .expect("seed fits");
        let seed_obj = f.model.objective_value(&seed);

        let relax = pipemap_milp::solve_relaxation(&f.model, Duration::from_secs(5));
        let out = refine_incumbent(
            &g,
            &f,
            seed,
            relax.as_ref().map(|(_, x)| x.as_slice()),
            Duration::from_secs(5),
            1,
        );
        assert!(out.objective <= seed_obj + 1e-9, "refinement worsened");
        assert!(
            f.model.check_feasible(&out.values, 1e-6).is_none(),
            "refined incumbent infeasible"
        );
        assert!(out.subproblems_solved >= out.stitched_incumbents);
        assert_eq!(out.resolve_stats.solves, out.subproblems_solved);
    }

    #[test]
    fn partition_bound_never_exceeds_the_optimum() {
        let g = two_cones();
        let target = Target::fig1();
        let db = CutDb::enumerate(&g, &CutConfig::for_target(&target));
        let base = crate::baseline::schedule_baseline(&g, &target, 1, &db).expect("baseline");
        let m = base.implementation.schedule.depth();
        let f = formulation::build(&g, &target, &db, base.ii, m, 0.5, 0.5);

        let opts = pipemap_milp::SolverOptions {
            time_limit: Duration::from_secs(30),
            jobs: 1,
            ..pipemap_milp::SolverOptions::default()
        };
        let full = f.model.solve(&opts).expect("full solve");
        assert_eq!(full.status, pipemap_milp::Status::Optimal);

        let (bound, solved) =
            partition_bound(&g, &f, Duration::from_secs(10), 1).expect("finite bound");
        assert!(solved > 0);
        assert!(
            bound <= full.objective + 1e-6,
            "partition bound {bound} exceeds optimum {}",
            full.objective
        );
    }
}
