//! Deterministic parallel branch & bound over the LP relaxation.
//!
//! Best-bound search with pseudo-cost branching, warm-started dual-simplex
//! child solves, an LP-guided **diving heuristic** for early incumbents, an
//! optional caller-supplied incumbent (the scheduler seeds it with the
//! baseline heuristic's solution), and wall-clock/node limits that return
//! the best incumbent found — mirroring how the paper caps CPLEX at 60
//! minutes and takes the best feasible solution (§4).
//!
//! # Parallel search and the determinism contract
//!
//! The tree is explored by `opts.jobs` workers over a shared best-bound
//! heap (`std::thread::scope`; no external dependencies). A completed
//! search returns the identical status, objective, *and assignment* for
//! every thread count, because:
//!
//! - every node's processing (LP solve, dive, pseudo-cost update, branch
//!   selection) is a pure function of the node's own contents — warm
//!   bases and pseudo-costs are inherited from the parent via `Arc`,
//!   never read from global mutable state;
//! - objective *ties* are explored rather than pruned (a node is pruned
//!   only when its bound is ≥ incumbent + [`TIE_EPS`]), so the set of
//!   nodes that can produce an optimal assignment is explored in every
//!   run regardless of incumbent timing;
//! - among objective-tied candidates the lexicographically smallest
//!   assignment wins — integer columns first, as rounded integers, so
//!   the order is a pure function of the discrete solution and immune to
//!   continuous-column LP noise — a total order independent of arrival
//!   order.
//!
//! Early stops (deadline/node limit) depend on wall-clock timing by
//! nature and only promise a valid incumbent + bound pair.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrd};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pipemap_obs as obs;
use pipemap_obs::metrics;

use crate::analysis::{self, StructuralAnalysis};
use crate::lu::Factors;
use crate::model::{Model, VarKind};
use crate::presolve::{self, PresolveOutcome};
use crate::simplex::{LpAbort, LpProblem, LpSolution, LpStatus, WarmBasis};
use crate::{GapSample, MilpError, MilpResult, SolverOptions, SolverStats, Status};

const INT_TOL: f64 = 1e-6;
/// Objective ties within this tolerance are explored, not pruned, and
/// resolved lexicographically. Far below the objective granularity of the
/// paper's models (multiples of the 0.5-weighted area terms), so exact
/// float ties are the only ties that occur in practice.
const TIE_EPS: f64 = 1e-9;
/// Dive from a node's relaxation when its path id hashes to 0 mod this
/// (always at the root). Id-keyed selection is reproducible under any
/// worker interleaving, unlike a "nodes since last dive" counter.
const DIVE_PERIOD: u64 = 197;
/// Convergence-timeline cap: bound-improvement samples beyond this are
/// skipped (incumbent and final samples always land), so pathological
/// searches cannot grow the telemetry without bound.
const MAX_SAMPLES: usize = 4096;

/// Path-local pseudo-costs: per integer column, the summed per-unit
/// objective degradation and observation count for the down and up branch.
/// Children extend their parent's table immutably, so branching decisions
/// never depend on what other subtrees (or threads) have learned — the
/// price of determinism is slower pseudo-cost convergence than a global
/// table would give.
#[derive(Debug, Clone)]
struct PseudoCosts {
    down: Vec<(f64, u32)>,
    up: Vec<(f64, u32)>,
}

impl PseudoCosts {
    fn new(n: usize) -> Self {
        PseudoCosts {
            down: vec![(0.0, 0); n],
            up: vec![(0.0, 0); n],
        }
    }

    /// A copy of the table with one more observation folded in.
    fn observe(&self, ord: usize, up: bool, degradation: f64) -> Self {
        let mut next = self.clone();
        let slot = if up {
            &mut next.up[ord]
        } else {
            &mut next.down[ord]
        };
        slot.0 += degradation;
        slot.1 += 1;
        next
    }

    fn estimate(side: &[(f64, u32)], ord: usize, fallback: f64) -> f64 {
        let (sum, cnt) = side[ord];
        if cnt > 0 {
            sum / cnt as f64
        } else {
            fallback
        }
    }

    /// Average over all observed columns; 1.0 before any observation.
    fn fallback(side: &[(f64, u32)]) -> f64 {
        let (sum, cnt) = side
            .iter()
            .fold((0.0, 0u32), |(s, c), &(s2, c2)| (s + s2, c + c2));
        if cnt > 0 {
            sum / cnt as f64
        } else {
            1.0
        }
    }
}

/// One link of a node's bound overrides: the `(column, new_lb, new_ub)`
/// overrides its own branch added (the branch bound and its probing
/// implications), and the parent's link. Children share their parent's
/// chain instead of copying it, so an open node holds only its own
/// overrides.
#[derive(Debug)]
struct BoundLink {
    bounds: Vec<(usize, f64, f64)>,
    parent: Option<Arc<BoundLink>>,
}

impl BoundLink {
    /// A child's chain: its own overrides on top of `parent`'s chain.
    fn push(parent: &Option<Arc<BoundLink>>, bounds: Vec<(usize, f64, f64)>) -> Option<Arc<Self>> {
        Some(Arc::new(BoundLink {
            bounds,
            parent: parent.clone(),
        }))
    }

    /// Tighten root bounds by a chain, the oldest link first and each
    /// link's overrides in stored order: the order of the flat list of
    /// the path's overrides, so the result is that list's, bit for bit.
    fn apply(chain: &Option<Arc<BoundLink>>, lb: &mut [f64], ub: &mut [f64]) {
        let mut links = Vec::new();
        let mut next = chain.as_deref();
        while let Some(link) = next {
            links.push(link);
            next = link.parent.as_deref();
        }
        for link in links.iter().rev() {
            for &(j, l, u) in &link.bounds {
                lb[j] = lb[j].max(l);
                ub[j] = ub[j].min(u);
            }
        }
    }
}

impl Drop for BoundLink {
    /// Drop, one at a time, the ancestors no other chain shares: dropping
    /// a deep chain recursively could overflow the stack.
    fn drop(&mut self) {
        let mut next = self.parent.take();
        while let Some(link) = next {
            next = Arc::into_inner(link).and_then(|mut l| l.parent.take());
        }
    }
}

/// A subproblem: bound overrides relative to the root LP plus the
/// inherited warm-start basis and pseudo-cost table.
#[derive(Debug, Clone)]
struct Node {
    /// Deterministic path hash (root = 1; children mix in the branch
    /// direction). Used for dive selection and heap tie-breaking.
    id: u64,
    /// The overrides accumulated along the path (root: `None`).
    bounds: Option<Arc<BoundLink>>,
    /// LP bound inherited from the parent (root: -inf).
    bound: f64,
    depth: usize,
    /// The parent's optimal basis for dual-simplex warm starts.
    warm: Option<Arc<WarmBasis>>,
    pcosts: Arc<PseudoCosts>,
    /// How this node was created: `(int ordinal, fractional distance,
    /// up?)` — consumed by the pseudo-cost update after this node's solve.
    branched: Option<(usize, f64, bool)>,
}

fn child_id(parent: u64, up: bool) -> u64 {
    parent
        .wrapping_mul(6364136223846793005)
        .wrapping_add(if up { 1 } else { 2 })
}

/// Heap ordering: smallest bound first (best-first), deeper first on ties
/// so the search dives toward incumbents, then smallest path id.
#[derive(Debug)]
struct Ranked(Node);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert the bound comparison.
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.depth.cmp(&other.0.depth))
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

/// Why the search loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopReason {
    /// Heap drained with all workers idle: the tree is fully explored.
    Exhausted,
    /// The wall-clock deadline expired.
    TimedOut,
    /// The node budget ran out with work remaining.
    NodeLimit,
    /// The root relaxation is unbounded below.
    RootUnbounded,
}

/// State shared by all workers behind one mutex.
#[derive(Debug)]
struct SearchState {
    heap: BinaryHeap<Ranked>,
    /// Bound of the node each worker is currently processing (`None` when
    /// idle); feeds the best-bound report on early stops.
    in_flight: Vec<Option<f64>>,
    /// Incumbent in *reduced* (post-presolve) column space.
    incumbent: Option<Vec<f64>>,
    incumbent_obj: f64,
    nodes: usize,
    lp_iters: usize,
    stop: Option<StopReason>,
    root_status: Option<LpStatus>,
    error: Option<MilpError>,
    /// Nodes processed by each worker (work-stealing balance telemetry).
    per_worker_nodes: Vec<usize>,
    /// Monotone telemetry view of the proven lower bound: the best
    /// `min(popped bound, in-flight bounds)` seen so far. Best-first pops
    /// are non-decreasing, so clamping to the max keeps this sound.
    frontier: f64,
    /// `(us since solve start, incumbent obj, frontier bound)` in reduced
    /// objective space; converted to [`GapSample`]s at the end. Pure
    /// telemetry — never read by the search. Samples are change-points:
    /// an incumbent landed, the bound rose, or the search ended.
    timeline: Vec<(u64, f64, f64)>,
    /// Objective grid in *reduced* space (`0.0` = no grid). Samples snap
    /// to this grid at emission so the timeline never records simplex
    /// noise like `113.00000000000004` in the first place; the final
    /// conversion re-snaps in caller space to absorb offset noise too.
    snap_delta: f64,
}

impl SearchState {
    /// Record a convergence sample. Bound-only samples respect the
    /// [`MAX_SAMPLES`] cap; incumbent/final samples (`force`) always land.
    fn sample(&mut self, t: Duration, force: bool) {
        if !force && self.timeline.len() >= MAX_SAMPLES {
            return;
        }
        self.timeline.push((
            t.as_micros() as u64,
            snap_to_grid(self.incumbent_obj, self.snap_delta),
            snap_to_grid(self.frontier, self.snap_delta),
        ));
    }
}

/// `v` moved onto the objective grid `delta` when it lies within LP
/// tolerance of a grid point (`delta` 0: no grid). Every integer
/// assignment's objective lies on the grid, so a `39.99999999999999` is
/// presolve-offset or simplex noise on an exact 40, never information.
fn snap_to_grid(v: f64, delta: f64) -> f64 {
    if delta > 0.0 && v.is_finite() {
        let g = (v / delta).round() * delta;
        if (g - v).abs() <= 1e-6 {
            return g;
        }
    }
    v
}

/// The map from reduced (post-presolve) objective values to the
/// caller's model space: add presolve's objective offset, then snap onto
/// the caller's objective grid. Everything the solver reports, its trace
/// instants included, is in the caller's space.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallerSpace {
    offset: f64,
    /// Objective grid of the caller's model (`0.0` = none).
    delta: f64,
}

impl CallerSpace {
    /// For a model that is already the caller's: no offset, no grid.
    pub(crate) const IDENTITY: CallerSpace = CallerSpace {
        offset: 0.0,
        delta: 0.0,
    };

    /// A reduced-space objective value in the caller's space.
    pub(crate) fn map(self, v: f64) -> f64 {
        snap_to_grid(v + self.offset, self.delta)
    }
}

/// Strict lexicographic order on assignments. Integer columns are
/// compared first, as rounded integers, so the order only depends on the
/// discrete solution — never on LP noise in the continuous columns or on
/// `-0.0` artifacts of the simplex, which would otherwise let two runs
/// of the same search rank a pair of tied optima differently. Continuous
/// columns break exact integer ties via `total_cmp` to keep the order
/// total.
fn lex_less(int_cols: &[usize], a: &[f64], b: &[f64]) -> bool {
    for &j in int_cols {
        match (a[j].round() as i64).cmp(&(b[j].round() as i64)) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    for (av, bv) in a.iter().zip(b) {
        match av.total_cmp(bv) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    false
}

/// Offer a feasible point as incumbent: strictly better objectives win;
/// ties within [`TIE_EPS`] are resolved toward the lexicographically
/// smaller assignment (keeping the smaller of the tied objectives).
/// Returns `true` when the incumbent *objective* improved (lex-only tie
/// swaps return `false`) so callers can emit telemetry without changing
/// any search decision.
fn offer_incumbent(int_cols: &[usize], state: &mut SearchState, obj: f64, x: Vec<f64>) -> bool {
    match &mut state.incumbent {
        None => {
            state.incumbent_obj = obj;
            state.incumbent = Some(x);
            true
        }
        Some(cur) => {
            if obj < state.incumbent_obj - TIE_EPS {
                state.incumbent_obj = obj;
                *cur = x;
                true
            } else if obj <= state.incumbent_obj + TIE_EPS && lex_less(int_cols, &x, cur) {
                state.incumbent_obj = state.incumbent_obj.min(obj);
                *cur = x;
                false
            } else {
                false
            }
        }
    }
}

/// Per-column conflict-graph implications, used to strengthen child
/// nodes. Built once after the root analysis; workers read it
/// immutably, so node processing stays a pure function of the node and
/// the determinism contract holds.
struct NodeStructure {
    /// Free binary columns of the (strengthened) reduced model.
    binary: Vec<bool>,
    /// Implications applied when a column is branched down (fixed to 0):
    /// `(target, forced value)` pairs.
    down: Vec<Vec<(usize, f64)>>,
    /// Implications applied when a column is branched up (fixed to 1).
    up: Vec<Vec<(usize, f64)>>,
}

impl NodeStructure {
    fn build(rmodel: &Model, sa: &StructuralAnalysis) -> Self {
        let n = rmodel.num_vars();
        let is_free = |j: usize| {
            let (lb, ub) = rmodel.bounds(crate::VarId(j as u32));
            ub - lb > 1e-9
        };
        let binary: Vec<bool> = (0..n)
            .map(|j| {
                let (lb, ub) = rmodel.bounds(crate::VarId(j as u32));
                rmodel.var_kind(crate::VarId(j as u32)) == VarKind::Integer
                    && lb == 0.0
                    && ub == 1.0
            })
            .collect();
        let mut down = vec![Vec::new(); n];
        let mut up = vec![Vec::new(); n];
        for imp in &sa.implications {
            // Implications on root-fixed columns are already in the LP
            // bounds; skip them so children don't carry dead weight.
            if !is_free(imp.target) || !is_free(imp.col) {
                continue;
            }
            let side = if imp.value { &mut up } else { &mut down };
            side[imp.col].push((imp.target, imp.target_value));
        }
        NodeStructure { binary, down, up }
    }
}

/// Everything a worker needs that is immutable during the search.
struct Ctx<'a> {
    lp: &'a LpProblem,
    rmodel: &'a Model,
    int_cols: &'a [usize],
    /// Conflict-graph data for child strengthening (`None` when the
    /// structural analysis is disabled).
    ns: Option<&'a NodeStructure>,
    /// When the solve started (timestamps the convergence timeline).
    start: Instant,
    deadline: Option<Instant>,
    node_limit: usize,
    /// Maps the trace instants' objective values to the caller's space.
    space: CallerSpace,
    warm_enabled: bool,
    /// Objective grid for bound lifting (`0.0` = no grid established).
    obj_delta: f64,
    warm_attempts: &'a AtomicUsize,
    warm_hits: &'a AtomicUsize,
    implication_fixings: &'a AtomicUsize,
    /// Set when the root LP solved to optimality but no warm basis could
    /// be snapshotted (a phase-1 artificial stuck in the basis) — the one
    /// condition that silently disables warm starts for the whole tree.
    root_unsnapshottable: &'a AtomicBool,
    /// Root relaxation objective (reduced space, post-cuts) as f64 bits;
    /// `u64::MAX` until the root solves. Telemetry only.
    root_bound_bits: &'a AtomicU64,
    /// The cut loop's cold solve of the root LP with its snapshot, when
    /// its last LP was exactly the root's (see `CutLoopOutcome::root_lp`).
    root_lp: Option<(LpSolution, Option<WarmBasis>)>,
}

/// Finest grid `δ > 0` such that the *minimal* objective value over any
/// fixed integer assignment is an integer multiple of `δ` (in reduced
/// space), or `0.0` when no such grid can be established.
///
/// Integer columns with objective weight contribute `coeff · Z` directly.
/// A continuous column with objective weight is only admitted when its
/// minimum over the continuous relaxation is provably integral for every
/// integer assignment: its bounds are integral (or infinite), it appears
/// in rows only with coefficient `±1`, and every such row otherwise
/// holds integer-kind columns with integral coefficients and rhs — then
/// its feasible interval has integral endpoints and the minimization
/// drives it to one of them (the paper's register-length variables have
/// exactly this difference-constraint shape). Coefficients are matched
/// against the 1/64 grid, which covers the `α/β/γ` weightings in use.
fn objective_granularity(model: &Model) -> f64 {
    const SCALE: f64 = 64.0;
    let on_grid = |v: f64| -> Option<i64> {
        let s = v * SCALE;
        let r = s.round();
        ((s - r).abs() <= 1e-9 && r.abs() < 1e15).then_some(r as i64)
    };
    let integral = |v: f64| v.is_infinite() || (v - v.round()).abs() <= 1e-9;
    let mut weighted_cont = vec![false; model.num_vars()];
    let mut g: u64 = 0;
    for (j, c) in model.cols.iter().enumerate() {
        if c.obj == 0.0 {
            continue;
        }
        let Some(scaled) = on_grid(c.obj.abs()) else {
            return 0.0;
        };
        if scaled == 0 {
            return 0.0;
        }
        if c.kind == VarKind::Integer {
            g = gcd(g, scaled.unsigned_abs());
        } else {
            if !integral(c.lb) || !integral(c.ub) {
                return 0.0;
            }
            weighted_cont[j] = true;
            g = gcd(g, scaled.unsigned_abs());
        }
    }
    if g == 0 {
        return 0.0;
    }
    for row in &model.rows {
        if !row.coeffs.iter().any(|&(v, _)| weighted_cont[v.index()]) {
            continue;
        }
        if (row.rhs - row.rhs.round()).abs() > 1e-9 {
            return 0.0;
        }
        for &(v, a) in &row.coeffs {
            let j = v.index();
            if weighted_cont[j] {
                if a.abs() != 1.0 {
                    return 0.0;
                }
            } else if model.cols[j].kind != VarKind::Integer || (a - a.round()).abs() > 1e-9 {
                return 0.0;
            }
        }
        // At most one objective-weighted continuous column per row, so
        // each one's feasible interval is framed by integers alone.
        if row
            .coeffs
            .iter()
            .filter(|&&(v, _)| weighted_cont[v.index()])
            .count()
            > 1
        {
            return 0.0;
        }
    }
    g as f64 / SCALE
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Round a valid lower bound on `model`'s optimum up to the next
/// objective-grid point, when the model has one. Sound because every
/// integer-feasible objective lies on the grid (see
/// [`objective_granularity`]), so no attainable value sits strictly
/// between `b` and the lifted bound.
pub(crate) fn lift_to_objective_grid(model: &Model, b: f64) -> f64 {
    lift_bound(b, objective_granularity(model))
}

/// Round an LP bound up to the next objective-grid point. Sound for
/// pruning and bound reporting because the subtree's best attainable
/// objective lies on the grid (see [`objective_granularity`]); the small
/// slack keeps bounds that already sit on the grid (modulo LP noise)
/// where they are.
fn lift_bound(b: f64, delta: f64) -> f64 {
    if delta <= 0.0 || !b.is_finite() {
        return b;
    }
    let lifted = delta * ((b - 1e-6) / delta).ceil();
    if lifted > b {
        lifted
    } else {
        b
    }
}

/// Result of processing one node outside the lock.
enum Processed {
    /// The deadline expired mid-solve; the node is still unexplored.
    Timeout,
    Error(MilpError),
    /// The node's relaxation is infeasible: subtree closed.
    Infeasible,
    /// The node's relaxation is unbounded (only meaningful at the root).
    Unbounded,
    /// Children to enqueue plus incumbent candidates found here.
    Expanded {
        children: Vec<Node>,
        candidates: Vec<(f64, Vec<f64>)>,
    },
}

/// LP-guided dive: repeatedly fix near-integral variables (or the single
/// most decided fractional one) and re-solve until the relaxation is
/// integral or infeasible. Returns an integral assignment. Each round
/// only tightens bounds, so the previous round's optimal basis stays
/// dual-feasible and the re-solve is a warm dual-simplex re-optimization
/// (counted in the warm-start stats: on shallow trees the dive is where
/// most warm re-solves happen); a cold solve is the fallback, not the
/// norm (on large models with many root cuts a cold solve per round
/// would eat the whole node budget). Deterministic: depends only on the
/// starting relaxation, never on the evolving incumbent.
fn dive(
    ctx: &Ctx<'_>,
    lb0: &[f64],
    ub0: &[f64],
    start: &LpSolution,
    warm: Option<&WarmBasis>,
    lp_iters: &mut usize,
) -> Option<(f64, Vec<f64>)> {
    let mut rounds = 0usize;
    let out = dive_rounds(ctx, lb0, ub0, start, warm, lp_iters, &mut rounds);
    if metrics::enabled() {
        metrics::histogram("search.dive_depth").record(rounds as f64);
    }
    out
}

/// [`dive`] body; `rounds` counts fixing rounds across every exit path so
/// the caller can feed the dive-depth histogram.
#[allow(clippy::too_many_arguments)]
fn dive_rounds(
    ctx: &Ctx<'_>,
    lb0: &[f64],
    ub0: &[f64],
    start: &LpSolution,
    warm: Option<&WarmBasis>,
    lp_iters: &mut usize,
    rounds: &mut usize,
) -> Option<(f64, Vec<f64>)> {
    let mut lb = lb0.to_vec();
    let mut ub = ub0.to_vec();
    let mut sol = start.clone();
    let mut basis: Option<WarmBasis> = warm.cloned();
    for _round in 0..30 {
        *rounds += 1;
        let mut fracs: Vec<(usize, f64)> = ctx
            .int_cols
            .iter()
            .filter_map(|&j| {
                let v = sol.x[j];
                let frac = (v - v.round()).abs();
                (frac > INT_TOL).then_some((j, frac))
            })
            .collect();
        if fracs.is_empty() {
            return Some((sol.obj, sol.x.clone()));
        }
        // Pin everything already integral so each round makes progress,
        // then fix the nearly decided fractionals (or the single most
        // decided one).
        for &j in ctx.int_cols {
            let v = sol.x[j];
            if (v - v.round()).abs() <= INT_TOL {
                lb[j] = v.round();
                ub[j] = v.round();
            }
        }
        let nearly: Vec<usize> = fracs
            .iter()
            .filter(|&&(_, f)| f < 0.1)
            .map(|&(j, _)| j)
            .collect();
        let to_fix: Vec<usize> = if nearly.is_empty() {
            fracs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
            vec![fracs[0].0]
        } else {
            nearly
        };
        for j in to_fix {
            let r = sol.x[j].round();
            lb[j] = r;
            ub[j] = r;
        }
        let warm_solved = match basis.as_ref().filter(|_| ctx.warm_enabled) {
            Some(wb) => {
                ctx.warm_attempts.fetch_add(1, AtomicOrd::Relaxed);
                match ctx.lp.solve_dual_warm(&lb, &ub, wb, None, ctx.deadline) {
                    Ok(r) => {
                        ctx.warm_hits.fetch_add(1, AtomicOrd::Relaxed);
                        Some(r)
                    }
                    Err(LpAbort::Timeout) => return None,
                    Err(_) => None, // stale or singular: cold fallback below
                }
            }
            None => None,
        };
        let (next, snap) = match warm_solved {
            Some(r) => r,
            None => match ctx.lp.solve_primal(&lb, &ub, ctx.deadline) {
                Ok(r) => r,
                Err(_) => return None,
            },
        };
        *lp_iters += next.iters;
        if next.status != LpStatus::Optimal {
            return None;
        }
        basis = snap;
        sol = next;
    }
    None
}

/// How many parent snapshots a worker keeps sibling factors for. Both
/// children of a node are usually solved close together: on the designs
/// the solver proves optimal (CLZ, DR, GSM) the second child is the very
/// next node LP 69% of the time and within eight node LPs 94% of the
/// time.
const SIBLING_FACTORS: usize = 8;

/// Fresh LU factors of recently warm-started parent snapshots, owned by
/// one worker for one search. Both children of a node restart from the
/// same snapshot (the same `Arc`, compared by pointer), so the first one
/// solved leaves a copy of its freshly computed factors and the second
/// adopts it instead of factoring the same basis again. An entry goes
/// when it is used or, oldest first, when the cache is full; a pruned or
/// elsewhere-solved sibling costs one slot for a while, never memory per
/// frontier node.
#[derive(Default)]
struct SiblingFactors {
    entries: VecDeque<(Arc<WarmBasis>, Factors)>,
}

impl SiblingFactors {
    /// Remove and return the factors left for `parent`'s snapshot.
    fn take(&mut self, parent: &Arc<WarmBasis>) -> Option<Factors> {
        let i = self
            .entries
            .iter()
            .position(|(k, _)| Arc::ptr_eq(k, parent))?;
        self.entries.remove(i).map(|(_, f)| f)
    }

    fn put(&mut self, parent: Arc<WarmBasis>, factors: Factors) {
        if self.entries.len() == SIBLING_FACTORS {
            self.entries.pop_front();
        }
        self.entries.push_back((parent, factors));
    }
}

/// Solve one node: LP (warm then cold), pseudo-cost update, optional
/// dive, branch selection. Touches no shared mutable state except the
/// warm-start counters, so its outcome is a pure function of the node;
/// the worker's sibling factors only spare work (an adopted copy is the
/// factorization the node would compute).
fn process_node(
    ctx: &Ctx<'_>,
    node: &Node,
    siblings: &mut SiblingFactors,
    lp_iters: &mut usize,
) -> Processed {
    let mut lb = ctx.lp.lb.clone();
    let mut ub = ctx.lp.ub.clone();
    BoundLink::apply(&node.bounds, &mut lb, &mut ub);

    // The root takes the cut loop's solve of its very LP when there is
    // one; the loop has counted its iterations already.
    let mut solved = ctx.root_lp.as_ref().filter(|_| node.depth == 0).cloned();
    let handed_over = solved.is_some();
    // Warm-started dual simplex from the parent basis; any rejection
    // falls back to a cold solve.
    if ctx.warm_enabled {
        if let Some(wb) = &node.warm {
            ctx.warm_attempts.fetch_add(1, AtomicOrd::Relaxed);
            let mut fresh = siblings.take(wb);
            let adopted = fresh.is_some();
            let res = ctx
                .lp
                .solve_dual_warm(&lb, &ub, wb, Some(&mut fresh), ctx.deadline);
            // A miss leaves this basis's fresh factors for the sibling.
            if let Some(f) = fresh.filter(|_| !adopted) {
                siblings.put(wb.clone(), f);
            }
            match res {
                Ok(r) => {
                    ctx.warm_hits.fetch_add(1, AtomicOrd::Relaxed);
                    obs::instant("warm-hit");
                    solved = Some(r);
                }
                Err(LpAbort::Timeout) => return Processed::Timeout,
                Err(_) => {
                    // Singular or numerical: cold fallback.
                    obs::instant("warm-miss");
                }
            }
        }
    }
    let (sol, snap) = match solved {
        Some(r) => r,
        None => match ctx.lp.solve_primal(&lb, &ub, ctx.deadline) {
            Ok(r) => r,
            Err(LpAbort::Timeout) => return Processed::Timeout,
            Err(LpAbort::Numerical(msg)) => return Processed::Error(MilpError::Numerical(msg)),
            Err(LpAbort::Singular) => {
                return Processed::Error(MilpError::Numerical("unrepairable singular basis".into()))
            }
        },
    };
    if !handed_over {
        *lp_iters += sol.iters;
    }
    match sol.status {
        LpStatus::Infeasible => return Processed::Infeasible,
        LpStatus::Unbounded => return Processed::Unbounded,
        LpStatus::Optimal => {}
    }
    if node.depth == 0 {
        ctx.root_bound_bits
            .store(sol.obj.to_bits(), AtomicOrd::Relaxed);
        // A missing root snapshot is the one condition that silently
        // zeroes warm starts for the whole tree; record it so the stats
        // can name the cause instead of reporting a bare zero.
        if ctx.warm_enabled && snap.is_none() {
            ctx.root_unsnapshottable.store(true, AtomicOrd::Relaxed);
        }
    }

    // Fold this node's observed degradation into its pseudo-cost table.
    let pcosts = match node.branched {
        Some((ord, dist, up)) => {
            let degradation = ((sol.obj - node.bound) / dist.max(INT_TOL)).max(0.0);
            Arc::new(node.pcosts.observe(ord, up, degradation))
        }
        None => node.pcosts.clone(),
    };

    let mut candidates = Vec::new();
    let fracs: Vec<(usize, usize, f64, f64)> = ctx
        .int_cols
        .iter()
        .enumerate()
        .filter_map(|(ord, &j)| {
            let v = sol.x[j];
            let f = v - v.floor();
            let frac = (v - v.round()).abs();
            (frac > INT_TOL).then_some((ord, j, v, f))
        })
        .collect();
    if fracs.is_empty() {
        // Integral relaxation: incumbent candidate, subtree closed.
        let mut x = sol.x.clone();
        for &j in ctx.int_cols {
            x[j] = x[j].round();
        }
        candidates.push((sol.obj, x));
        return Processed::Expanded {
            children: Vec::new(),
            candidates,
        };
    }

    // Deterministic periodic dive (always at the root).
    if node.depth == 0 || node.id.is_multiple_of(DIVE_PERIOD) {
        let _dive_span = if obs::enabled() {
            Some(obs::span("dive"))
        } else {
            None
        };
        if let Some((obj, mut x)) = dive(ctx, &lb, &ub, &sol, snap.as_ref(), lp_iters) {
            if ctx.rmodel.check_feasible(&x, 1e-5).is_none() {
                for &jc in ctx.int_cols {
                    x[jc] = x[jc].round();
                }
                candidates.push((obj, x));
            }
        }
    }

    // Branch selection: pseudo-cost product rule with the path average as
    // the estimate for unobserved columns; ties broken by fractionality
    // then column index (all node-local, hence deterministic).
    let fb_down = PseudoCosts::fallback(&pcosts.down);
    let fb_up = PseudoCosts::fallback(&pcosts.up);
    let mut best: Option<(f64, f64, usize, usize, f64)> = None; // (score, merit, ord, j, v)
    for &(ord, j, v, f) in &fracs {
        let d = PseudoCosts::estimate(&pcosts.down, ord, fb_down) * f;
        let u = PseudoCosts::estimate(&pcosts.up, ord, fb_up) * (1.0 - f);
        let score = d.max(1e-8) * u.max(1e-8);
        let merit = 0.5 - (f - 0.5).abs();
        let better = match best {
            None => true,
            Some((bs, bm, _, bj, _)) => {
                score > bs + 1e-12
                    || (score > bs - 1e-12
                        && (merit > bm + 1e-12 || (merit > bm - 1e-12 && j < bj)))
            }
        };
        if better {
            best = Some((score, merit, ord, j, v));
        }
    }
    let (_, _, ord, j, v) = best.expect("fractional set is nonempty");
    let f = v - v.floor();
    let warm_arc = if ctx.warm_enabled {
        snap.map(Arc::new)
    } else {
        None
    };
    let mut down_bounds = Vec::new();
    let mut up_bounds = Vec::new();
    // Conflict-graph strengthening for binary branches. It is a pure
    // function of the node's own contents, so the determinism contract
    // survives: every thread count builds identical children.
    if let Some(ns) = ctx.ns {
        if ns.binary[j] && v > 0.0 && v < 1.0 {
            // Probing implications: branching down means x_j = 0, so the
            // `x_j = 0 ⇒ …` consequents hold in the whole subtree (and
            // symmetrically for the up child).
            let propagated = ns.down[j].len() + ns.up[j].len();
            for &(t, tv) in &ns.down[j] {
                down_bounds.push((t, tv, tv));
            }
            for &(t, tv) in &ns.up[j] {
                up_bounds.push((t, tv, tv));
            }
            if propagated > 0 {
                ctx.implication_fixings
                    .fetch_add(propagated, AtomicOrd::Relaxed);
            }
        }
    }
    down_bounds.push((j, f64::NEG_INFINITY, v.floor()));
    up_bounds.push((j, v.ceil(), f64::INFINITY));
    let child_bound = lift_bound(sol.obj, ctx.obj_delta);
    let children = vec![
        Node {
            id: child_id(node.id, false),
            bounds: BoundLink::push(&node.bounds, down_bounds),
            bound: child_bound,
            depth: node.depth + 1,
            warm: warm_arc.clone(),
            pcosts: pcosts.clone(),
            branched: Some((ord, f.max(INT_TOL), false)),
        },
        Node {
            id: child_id(node.id, true),
            bounds: BoundLink::push(&node.bounds, up_bounds),
            bound: child_bound,
            depth: node.depth + 1,
            warm: warm_arc,
            pcosts,
            branched: Some((ord, (1.0 - f).max(INT_TOL), true)),
        },
    ];
    Processed::Expanded {
        children,
        candidates,
    }
}

/// One worker: pop best node, process outside the lock, merge results.
fn worker(ctx: &Ctx<'_>, shared: &Mutex<SearchState>, cv: &Condvar, wid: usize) {
    // Flushed when the worker closure ends (inside the scope), so the
    // trace capture after `thread::scope` never misses tail events.
    let _lane = obs::lane_guard(format!("bb-worker-{wid}"));
    // Hoisted registry lookup: one mutex hit per worker, not per node.
    let depth_hist = metrics::enabled().then(|| metrics::histogram("search.node_depth"));
    let mut siblings = SiblingFactors::default();
    let mut g = shared.lock().expect("search mutex");
    loop {
        if g.error.is_some() || g.stop.is_some() {
            break;
        }
        if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            g.stop = Some(StopReason::TimedOut);
            break;
        }

        // Pop the best unpruned node. A node is pruned once its bound
        // reaches the incumbent plus the tie tolerance, at pop and at
        // push alike. The heap is min-by-bound, so a prunable top means
        // the whole heap is prunable.
        let mut popped = None;
        if let Some(top) = g.heap.peek() {
            if top.0.bound >= g.incumbent_obj + TIE_EPS {
                g.heap.clear();
            } else if g.nodes >= ctx.node_limit {
                g.stop = Some(StopReason::NodeLimit);
            } else {
                let Ranked(n) = g.heap.pop().expect("peeked node pops");
                g.nodes += 1;
                g.per_worker_nodes[wid] += 1;
                // Proven lower bound: the popped node has the smallest
                // bound left in the heap, but earlier-popped nodes may
                // still be in flight with smaller bounds.
                let proven = g.in_flight.iter().flatten().fold(n.bound, |a, &b| a.min(b));
                if proven.is_finite() && proven > g.frontier + 1e-9 {
                    g.frontier = proven;
                    g.sample(ctx.start.elapsed(), false);
                    if obs::enabled() {
                        obs::instant_with(
                            "bound-improved",
                            vec![
                                ("bound", ctx.space.map(proven).into()),
                                ("incumbent", ctx.space.map(g.incumbent_obj).into()),
                                ("node", n.id.into()),
                                ("nodes", g.nodes.into()),
                            ],
                        );
                    }
                }
                popped = Some(n);
            }
        }
        if g.stop.is_some() {
            break;
        }
        let Some(node) = popped else {
            if g.in_flight.iter().all(Option::is_none) {
                g.stop = Some(StopReason::Exhausted);
                break;
            }
            // Another worker may still push children; re-check shortly
            // (the timeout doubles as the deadline poll while idle).
            g = cv
                .wait_timeout(g, Duration::from_millis(50))
                .expect("search mutex")
                .0;
            continue;
        };

        g.in_flight[wid] = Some(node.bound);
        drop(g);

        if let Some(h) = depth_hist {
            h.record(node.depth as f64);
        }
        let node_span = if obs::enabled() {
            Some(obs::span_with(
                "node",
                vec![
                    ("id", node.id.into()),
                    ("depth", node.depth.into()),
                    ("bound", node.bound.into()),
                ],
            ))
        } else {
            None
        };
        let mut iters = 0usize;
        let outcome = process_node(ctx, &node, &mut siblings, &mut iters);
        // Close before re-locking so lane time excludes lock contention.
        drop(node_span);

        g = shared.lock().expect("search mutex");
        g.in_flight[wid] = None;
        g.lp_iters += iters;
        match outcome {
            Processed::Timeout => {
                // Keep the node's bound visible to the best-bound report.
                g.heap.push(Ranked(node));
                g.stop = Some(StopReason::TimedOut);
            }
            Processed::Error(e) => {
                g.error = Some(e);
            }
            Processed::Infeasible => {
                if node.depth == 0 {
                    g.root_status = Some(LpStatus::Infeasible);
                }
            }
            Processed::Unbounded => {
                if node.depth == 0 {
                    g.root_status = Some(LpStatus::Unbounded);
                    g.stop = Some(StopReason::RootUnbounded);
                }
                // Defensive: a bounded root cannot spawn unbounded
                // children; ignore if it somehow happens.
            }
            Processed::Expanded {
                children,
                candidates,
            } => {
                if node.depth == 0 {
                    g.root_status = Some(LpStatus::Optimal);
                }
                for (obj, x) in candidates {
                    if offer_incumbent(ctx.int_cols, &mut g, obj, x) {
                        g.sample(ctx.start.elapsed(), true);
                        if obs::enabled() {
                            let objective = ctx.space.map(g.incumbent_obj);
                            let bound = ctx.space.map(g.frontier);
                            obs::instant_with(
                                "incumbent-found",
                                vec![
                                    ("objective", objective.into()),
                                    ("bound", bound.into()),
                                    ("gap", (objective - bound).into()),
                                    ("node", node.id.into()),
                                    ("nodes", g.nodes.into()),
                                ],
                            );
                        }
                    }
                }
                let threshold = g.incumbent_obj + TIE_EPS;
                for ch in children {
                    if ch.bound < threshold {
                        g.heap.push(Ranked(ch));
                    }
                }
            }
        }
        cv.notify_all();
    }
    cv.notify_all();
}

pub(crate) fn solve_milp(model: &Model, opts: &SolverOptions) -> Result<MilpResult, MilpError> {
    let start = Instant::now();
    let deadline = start.checked_add(opts.time_limit);
    let jobs = opts.jobs.max(1);
    let mut stats = SolverStats {
        jobs,
        ..SolverStats::default()
    };

    // Validate the caller's seed against the *original* model.
    let orig_int: Vec<usize> = (0..model.num_vars())
        .filter(|&j| model.var_kind(crate::VarId(j as u32)) == VarKind::Integer)
        .collect();
    let seed: Option<Vec<f64>> = opts.initial_solution.as_ref().and_then(|init| {
        (init.len() == model.num_vars()
            && model.check_feasible(init, 1e-6).is_none()
            && orig_int
                .iter()
                .all(|&j| (init[j] - init[j].round()).abs() <= INT_TOL))
        .then(|| init.clone())
    });

    // Reported objectives and bounds snap to the original model's
    // objective grid.
    let report_delta = objective_granularity(model);

    let finish = move |status: Status,
                       objective: f64,
                       best_bound: f64,
                       values: Vec<f64>,
                       nodes: usize,
                       lp_iterations: usize,
                       stats: SolverStats| {
        MilpResult {
            status,
            objective: snap_to_grid(objective, report_delta),
            best_bound: snap_to_grid(best_bound, report_delta),
            values,
            nodes,
            lp_iterations,
            solve_time: start.elapsed(),
            stats,
        }
    };

    // Presolve (or the identity reduction when disabled).
    let presolve_span = obs::span("presolve");
    let red = if opts.presolve {
        match presolve::presolve(model) {
            PresolveOutcome::Infeasible => {
                // Presolve preserves the MIP-feasible set; a verified
                // feasible seed would contradict this proof, so defer to
                // the explicit check and return the seed if present.
                let r = match seed {
                    Some(s) => {
                        let obj = model.objective_value(&s);
                        finish(Status::Feasible, obj, f64::NEG_INFINITY, s, 0, 0, stats)
                    }
                    None => finish(
                        Status::Infeasible,
                        f64::INFINITY,
                        f64::INFINITY,
                        Vec::new(),
                        0,
                        0,
                        stats,
                    ),
                };
                return Ok(r);
            }
            PresolveOutcome::Reduced(r) => *r,
        }
    } else {
        presolve::identity(model)
    };
    red.fill_stats(&mut stats);
    drop(presolve_span);
    if obs::enabled() {
        obs::instant_with(
            "presolve-reduction",
            vec![
                ("rows_removed", stats.presolve_rows_removed.into()),
                ("cols_fixed", stats.presolve_cols_fixed.into()),
                ("bounds_tightened", stats.presolve_bounds_tightened.into()),
                ("coeffs_reduced", stats.presolve_coeffs_reduced.into()),
            ],
        );
    }
    let offset = red.obj_offset;
    let space = CallerSpace {
        offset,
        delta: report_delta,
    };

    // Structural analysis (probing / conflict graph) and the root
    // cutting-plane loop, both on the reduced model. Everything here
    // runs before the workers spawn, so it is identical for every `jobs`
    // value and the determinism contract is untouched.
    let run_analysis = opts.probing || opts.cuts || opts.gomory_cuts;
    let mut root_lp_iters = 0usize;
    let (rmodel_owned, sa, root_lp) = if run_analysis {
        let analysis_span = obs::span("structural-analysis");
        let sa = analysis::analyze(
            &red.model,
            &analysis::AnalysisConfig {
                probing: opts.probing,
                cliques: opts.cuts,
            },
        );
        drop(analysis_span);
        stats.probe_vars = sa.probed;
        stats.probe_fixings = sa.fixings.len();
        stats.probe_implications = sa.implications.len();
        stats.clique_table = sa.cliques.len();
        if sa.infeasible.is_some() {
            // Probing preserves the MIP-feasible set; same seed logic as
            // the presolve infeasibility path above.
            let r = match seed {
                Some(s) => {
                    let obj = model.objective_value(&s);
                    finish(Status::Feasible, obj, f64::NEG_INFINITY, s, 0, 0, stats)
                }
                None => finish(
                    Status::Infeasible,
                    f64::INFINITY,
                    f64::INFINITY,
                    Vec::new(),
                    0,
                    0,
                    stats,
                ),
            };
            return Ok(r);
        }
        let cut_cfg = analysis::CutLoopConfig {
            max_rounds: if opts.cuts {
                analysis::CutLoopConfig::default().max_rounds
            } else if opts.gomory_cuts {
                // Gomory-only mode still needs a round to separate and a
                // second to validate the pending cuts.
                2
            } else {
                0
            },
            gomory: opts.gomory_cuts,
        };
        // The cut loop re-solves the root LP every round; on big models
        // that can eat the whole budget before a single node is explored
        // (and leave no bound at all). Cap it at a fraction of the time
        // limit so the tree always gets the lion's share.
        let cut_deadline = match (deadline, start.checked_add(opts.time_limit / 8)) {
            (Some(d), Some(s)) => Some(d.min(s)),
            (d, s) => s.or(d),
        };
        let out = analysis::root_cut_loop_in(&red.model, &sa, &cut_cfg, cut_deadline, space);
        stats.clique_cuts = out.stats.clique_cuts;
        stats.cover_cuts = out.stats.cover_cuts;
        stats.implication_cuts = out.stats.implication_cuts;
        stats.gomory_cuts = out.stats.gomory_cuts;
        stats.cut_rounds = out.stats.rounds;
        stats.cuts_aged_out = out.stats.aged_out;
        root_lp_iters = out.stats.lp_iterations;
        if obs::enabled() {
            obs::instant_with(
                "analysis-stats",
                vec![
                    ("probed", sa.probed.into()),
                    ("fixings", sa.fixings.len().into()),
                    ("implications", sa.implications.len().into()),
                    ("cliques", sa.cliques.len().into()),
                    ("clique_cuts", out.stats.clique_cuts.into()),
                    ("cover_cuts", out.stats.cover_cuts.into()),
                    ("implication_cuts", out.stats.implication_cuts.into()),
                    ("gomory_cuts", out.stats.gomory_cuts.into()),
                    ("cut_rounds", out.stats.rounds.into()),
                ],
            );
        }
        (out.model, Some(sa), out.root_lp)
    } else {
        (red.model.clone(), None, None)
    };
    let rmodel = &rmodel_owned;
    let ns = sa.as_ref().map(|sa| NodeStructure::build(rmodel, sa));

    let lp = LpProblem::from_model(rmodel);
    let int_cols: Vec<usize> = (0..rmodel.num_vars())
        .filter(|&j| rmodel.var_kind(crate::VarId(j as u32)) == VarKind::Integer)
        .collect();

    let ctx = Ctx {
        lp: &lp,
        rmodel,
        int_cols: &int_cols,
        ns: ns.as_ref(),
        start,
        deadline,
        node_limit: opts.node_limit,
        space,
        warm_enabled: opts.warm_start,
        obj_delta: objective_granularity(rmodel),
        warm_attempts: &AtomicUsize::new(0),
        warm_hits: &AtomicUsize::new(0),
        implication_fixings: &AtomicUsize::new(0),
        root_unsnapshottable: &AtomicBool::new(false),
        root_bound_bits: &AtomicU64::new(u64::MAX),
        root_lp,
    };

    let mut state = SearchState {
        heap: BinaryHeap::new(),
        in_flight: vec![None; jobs],
        incumbent: None,
        incumbent_obj: f64::INFINITY,
        nodes: 0,
        lp_iters: root_lp_iters,
        stop: None,
        root_status: None,
        error: None,
        per_worker_nodes: vec![0; jobs],
        frontier: f64::NEG_INFINITY,
        timeline: Vec::new(),
        snap_delta: ctx.obj_delta,
    };
    if let Some(s) = &seed {
        if let Some(sr) = red.project(s) {
            let obj = rmodel.objective_value(&sr);
            if offer_incumbent(&int_cols, &mut state, obj, sr) {
                state.sample(start.elapsed(), true);
            }
        }
    }
    state.heap.push(Ranked(Node {
        id: 1,
        bounds: None,
        bound: f64::NEG_INFINITY,
        depth: 0,
        warm: None,
        pcosts: Arc::new(PseudoCosts::new(int_cols.len())),
        branched: None,
    }));

    let shared = Mutex::new(state);
    let cv = Condvar::new();
    std::thread::scope(|scope| {
        for wid in 0..jobs {
            let ctx = &ctx;
            let shared = &shared;
            let cv = &cv;
            scope.spawn(move || worker(ctx, shared, cv, wid));
        }
    });

    let mut g = shared.into_inner().expect("search mutex");
    if let Some(e) = g.error {
        return Err(e);
    }
    stats.warm_attempts = ctx.warm_attempts.load(AtomicOrd::Relaxed);
    stats.warm_hits = ctx.warm_hits.load(AtomicOrd::Relaxed);
    stats.implication_fixings = ctx.implication_fixings.load(AtomicOrd::Relaxed);
    stats.nodes_per_worker = std::mem::take(&mut g.per_worker_nodes);
    // A zero warm-attempt count is either expected (disabled, or the tree
    // had nothing to warm-start) or a silent loss (root basis declined to
    // snapshot); name the cause so reports never show a bare zero.
    if stats.warm_attempts == 0 {
        stats.warm_skip_reason = Some(if !opts.warm_start {
            "disabled by options"
        } else if ctx.root_unsnapshottable.load(AtomicOrd::Relaxed) {
            "root LP basis not snapshottable (artificial still basic)"
        } else {
            "no warm-startable LP re-solves (solved at or near the root)"
        });
    }
    let stop = g.stop.unwrap_or(StopReason::Exhausted);

    // Best bound: remaining work (heap) on early stops; the incumbent
    // itself once the tree is exhausted.
    let best_bound_red = g
        .heap
        .iter()
        .map(|r| r.0.bound)
        .fold(g.incumbent_obj, f64::min);
    if obs::enabled() {
        let root_bound_bits = ctx.root_bound_bits.load(AtomicOrd::Relaxed);
        let root_bound = if root_bound_bits == u64::MAX {
            f64::NAN
        } else {
            space.map(f64::from_bits(root_bound_bits))
        };
        // The tree's own bound moves from `root_bound` to `best_bound`.
        obs::instant_with(
            "search-stats",
            vec![
                ("warm_attempts", stats.warm_attempts.into()),
                ("warm_hits", stats.warm_hits.into()),
                ("warm_skip", stats.warm_skip_reason.unwrap_or("none").into()),
                ("root_bound", root_bound.into()),
                ("best_bound", space.map(best_bound_red).into()),
                ("nodes", g.nodes.into()),
            ],
        );
    }

    // Close the convergence timeline with the definitive proven bound,
    // then publish it in caller (pre-presolve) objective space.
    if stop != StopReason::RootUnbounded && (g.incumbent.is_some() || best_bound_red.is_finite()) {
        g.frontier = best_bound_red;
        g.sample(start.elapsed(), true);
    }
    stats.convergence = g
        .timeline
        .iter()
        .map(|&(t_us, obj, bound)| GapSample {
            t_ms: t_us as f64 / 1e3,
            objective: space.map(obj),
            bound: space.map(bound),
        })
        .collect();

    if stop == StopReason::RootUnbounded {
        return Ok(finish(
            Status::Unbounded,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            Vec::new(),
            g.nodes,
            g.lp_iters,
            stats,
        ));
    }

    let status = match (&g.incumbent, stop) {
        (Some(_), StopReason::Exhausted) => Status::Optimal,
        (Some(_), StopReason::TimedOut) => Status::TimedOut,
        (Some(_), StopReason::NodeLimit) => Status::Feasible,
        (None, StopReason::Exhausted) => {
            if g.root_status == Some(LpStatus::Unbounded) {
                Status::Unbounded
            } else {
                Status::Infeasible
            }
        }
        (None, _) => Status::Unknown,
        (_, StopReason::RootUnbounded) => unreachable!("handled above"),
    };
    let objective = if g.incumbent.is_some() {
        g.incumbent_obj + offset
    } else {
        f64::INFINITY
    };
    let best_bound = if best_bound_red.is_finite() {
        best_bound_red + offset
    } else {
        best_bound_red
    };
    let values = g.incumbent.map(|x| red.restore(&x)).unwrap_or_default();
    Ok(finish(
        status, objective, best_bound, values, g.nodes, g.lp_iters, stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On random paths that tighten, loosen, fix and revisit columns,
    /// with signed zeros and infinite bounds, each of a node's two
    /// children applies the same lb/ub bits as the flat list of its
    /// path's overrides.
    #[test]
    fn bound_chain_matches_flat_list_on_random_paths() {
        let mut state = 0xB0DE_C4A1_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        const VALUES: [f64; 7] = [f64::NEG_INFINITY, -2.0, -0.0, 0.0, 1.0, 3.0, f64::INFINITY];
        let n = 10;
        let lb0: Vec<f64> = (0..n)
            .map(|j| [f64::NEG_INFINITY, -0.0, 0.0][j % 3])
            .collect();
        let ub0: Vec<f64> = (0..n).map(|j| [f64::INFINITY, 5.0][j % 2]).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut compared = 0;
        for _ in 0..200 {
            let (mut chain, mut flat) = (None, Vec::new());
            for _ in 0..(next() % 40) {
                let mut children = Vec::new();
                for _ in 0..2 {
                    let own: Vec<(usize, f64, f64)> = (0..next() % 4)
                        .map(|_| {
                            let j = (next() % n as u64) as usize;
                            let l = VALUES[(next() % 7) as usize];
                            let u = VALUES[(next() % 7) as usize];
                            (j, l, u)
                        })
                        .collect();
                    let mut path = flat.clone();
                    path.extend_from_slice(&own);
                    let child = BoundLink::push(&chain, own);
                    let (mut lb, mut ub) = (lb0.clone(), ub0.clone());
                    BoundLink::apply(&child, &mut lb, &mut ub);
                    let (mut flat_lb, mut flat_ub) = (lb0.clone(), ub0.clone());
                    for &(j, l, u) in &path {
                        flat_lb[j] = flat_lb[j].max(l);
                        flat_ub[j] = flat_ub[j].min(u);
                    }
                    assert_eq!(bits(&lb), bits(&flat_lb));
                    assert_eq!(bits(&ub), bits(&flat_ub));
                    compared += 1;
                    children.push((child, path));
                }
                (chain, flat) = children.swap_remove((next() % 2) as usize);
            }
        }
        assert!(compared > 2000, "only {compared} children compared");
    }

    /// A chain far deeper than any search tree drops without recursing
    /// once per link, which would overflow a test thread's stack.
    #[test]
    fn deep_bound_chain_drops_iteratively() {
        let mut chain = None;
        for _ in 0..200_000 {
            chain = BoundLink::push(&chain, Vec::new());
        }
        drop(chain);
    }
}
