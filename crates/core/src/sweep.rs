//! Design-space sweeps over one incrementally re-solved MILP.
//!
//! A pipelining design-space exploration asks the same model family many
//! closely-related questions: how does the area optimum move with the
//! initiation interval, the LUT input count *K*, and the Eq. 15 weights
//! α/β/γ? Re-building and cold-solving the mapping-aware MILP for every
//! point throws away almost everything the previous point computed.
//!
//! [`run_sweep`] instead groups the points by their *structural* axes
//! (II and K, which change the formulation's rows and columns) and, for
//! each structural base, walks the *weight* axis by editing one
//! [`pipemap_milp::ResolveContext`] in place: each (α, β, γ) point is a
//! batch of objective-coefficient deltas (via
//! `Formulation::objective_deltas`), solved with the previous point's
//! optimum as its starting incumbent. The first point of every base is
//! the one unavoidable cold solve. A base whose model and deltas equal
//! the previous base's replays its results instead of solving.
//!
//! With `incremental` off the same schedule of points is replayed the
//! naive way — cut enumeration, baseline scheduling, formulation build
//! and a cold solve *per point* — which is exactly the comparator the
//! `bench-suite resolve` harness times against.

use std::time::{Duration, Instant};

use pipemap_cuts::CutDb;
use pipemap_ir::{Dfg, Target};
use pipemap_milp::{ResolveStats, SolverOptions, Status};
use pipemap_obs as obs;

use crate::baseline::schedule_baseline;
use crate::error::CoreError;
use crate::flows::{map_cut_db, FlowOptions};
use crate::formulation;

/// The point grid and solver knobs of one [`run_sweep`] call.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Initiation intervals to sweep (structural axis; paper: {1, 2, 4}).
    pub ii_values: Vec<u32>,
    /// LUT input counts *K* to sweep (structural axis; paper: {4, 6}).
    pub k_values: Vec<u32>,
    /// Eq. 15 weight points (α, β, γ) swept *within* each structural
    /// base as pure objective deltas. Order them as a *path* through
    /// weight space (monotone in α, say): adjacent points then have
    /// nearby optima, so each point's solution seeds the next solve
    /// with a near-optimal incumbent and the re-solve mostly just
    /// proves optimality. The grid of points solved is the same either
    /// way — only the reuse efficiency changes.
    pub weights: Vec<(f64, f64, f64)>,
    /// Per-point solver budget.
    pub time_limit: Duration,
    /// Solver worker threads (determinism holds for every value).
    pub jobs: usize,
    /// Re-solve weight points through a shared context (the point of the
    /// exercise); off replays every point cold for A/B timing.
    pub incremental: bool,
    /// After every incremental point, re-solve the identical model from
    /// scratch and compare status/objective/values
    /// ([`pipemap_milp::ResolveContext::audit`]). Slow; for validation
    /// runs and CI smoke only.
    pub audit: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            ii_values: vec![1, 2, 4],
            k_values: vec![4, 6],
            weights: vec![
                (1.0, 0.0, 0.0),
                (0.75, 0.25, 0.0),
                (0.5, 0.5, 0.0),
                (0.0, 1.0, 0.0),
            ],
            time_limit: Duration::from_secs(10),
            jobs: 1,
            incremental: true,
            audit: false,
        }
    }
}

/// One solved point of the sweep grid.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Requested initiation interval.
    pub ii: u32,
    /// II the baseline scheduler actually achieved (bumped when the
    /// requested II admits no schedule); the model solved at this II.
    pub ii_achieved: u32,
    /// LUT input count of this point's target.
    pub k: u32,
    /// LUT-term weight α.
    pub alpha: f64,
    /// Register-term weight β.
    pub beta: f64,
    /// DSP-count weight γ.
    pub gamma: f64,
    /// Solver status.
    pub status: Status,
    /// Optimal (or best incumbent) objective.
    pub objective: f64,
    /// Wall clock for this point. Cold points include cut enumeration,
    /// baseline scheduling and formulation build — the real cost of a
    /// from-scratch evaluation; incremental points only pay the edits
    /// and the re-solve.
    pub wall: Duration,
    /// The point reused an earlier point: it started from the previous
    /// point's assignment, or replayed a deduplicated base (always
    /// `false` on the cold path and on each base's first solved point).
    pub warm_hit: bool,
    /// The audit verdict (`None` unless [`SweepConfig::audit`]).
    pub audit_ok: Option<bool>,
}

/// Everything [`run_sweep`] measured.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// All points, in (K, II, weight) grid order.
    pub points: Vec<SweepPoint>,
    /// Total wall clock across points (excludes per-K cut enumeration
    /// on the incremental path, which is reported via
    /// [`SweepReport::setup_wall`]).
    pub total_wall: Duration,
    /// Shared setup the incremental path pays once per structural base
    /// (cut DBs, baselines, formulation builds). Zero on the cold path,
    /// where the same work is part of every point's wall.
    pub setup_wall: Duration,
    /// Structural bases built (one re-solve context each).
    pub contexts: usize,
    /// Re-solve counters summed over all contexts (`None` when
    /// [`SweepConfig::incremental`] is off).
    pub resolve: Option<ResolveStats>,
    /// Points whose audit found any divergence from a cold solve.
    pub audit_failures: usize,
    /// Structural bases whose formulation proved bit-identical to the
    /// previous base of the same K (model and every delta batch equal):
    /// their points were replayed from the recorded results rather than
    /// re-solved, which determinism makes exact.
    pub bases_deduped: usize,
}

/// The cut database of one structural base: the MILP-map flow's
/// priority-cut database under [`FlowOptions`]' default cut settings,
/// without liveness masks. Identical for the cold and incremental paths,
/// so point objectives stay comparable.
fn build_db(dfg: &Dfg, target: &Target) -> CutDb {
    map_cut_db(dfg, target, &FlowOptions::default(), true, None).0
}

fn solver_options(cfg: &SweepConfig) -> SolverOptions {
    SolverOptions {
        time_limit: cfg.time_limit,
        jobs: cfg.jobs.max(1),
        ..SolverOptions::default()
    }
}

/// Run the sweep grid over `dfg`. `target` supplies everything except
/// `k`, which the grid overrides per point.
///
/// Grid order is deterministic: outer K, then II, then the weight list;
/// the incremental and cold paths visit identical points, and the
/// determinism contract of the underlying solver makes the reported
/// status/objective of each point independent of `incremental`.
///
/// # Errors
///
/// Returns [`CoreError`] when some structural base has no feasible
/// baseline schedule at any II, or the solver fails numerically on a
/// point.
pub fn run_sweep(dfg: &Dfg, target: &Target, cfg: &SweepConfig) -> Result<SweepReport, CoreError> {
    let _span = obs::span("sweep");
    let mut report = SweepReport {
        points: Vec::new(),
        total_wall: Duration::ZERO,
        setup_wall: Duration::ZERO,
        contexts: 0,
        resolve: cfg.incremental.then(ResolveStats::default),
        audit_failures: 0,
        bases_deduped: 0,
    };
    // γ only gets a variable in the formulation when the base build sees
    // a positive weight, so build every base with a positive γ iff any
    // weight point uses one (the per-point delta then sets the real
    // coefficient, 0.0 included).
    let build_gamma = cfg.weights.iter().map(|w| w.2).fold(0.0f64, f64::max);
    let opts = solver_options(cfg);
    for &k in &cfg.k_values {
        let target_k = Target {
            k,
            ..target.clone()
        };
        let setup = Instant::now();
        let db = build_db(dfg, &target_k);
        if cfg.incremental {
            report.setup_wall += setup.elapsed();
        }
        let mut prev: Option<PrevBase> = None;
        for &ii in &cfg.ii_values {
            if cfg.incremental {
                if run_base_incremental(
                    dfg,
                    &target_k,
                    cfg,
                    &db,
                    ii,
                    build_gamma,
                    &opts,
                    &mut report,
                    &mut prev,
                )? {
                    report.contexts += 1;
                }
            } else {
                run_base_cold(dfg, &target_k, cfg, ii, &opts, &mut report)?;
                report.contexts += 1;
            }
        }
    }
    Ok(report)
}

/// The previous structural base of the current K, kept so the next II
/// can prove itself identical and replay instead of re-solving.
struct PrevBase {
    model: pipemap_milp::Model,
    deltas: Vec<Vec<(pipemap_milp::VarId, f64)>>,
    /// Index into [`SweepReport::points`] where this base's points begin.
    start: usize,
}

/// One structural base on the incremental path: build the formulation
/// once, then walk the weight points through a shared context. Returns
/// `false` when the base deduplicated onto the previous one.
#[allow(clippy::too_many_arguments)]
fn run_base_incremental(
    dfg: &Dfg,
    target: &Target,
    cfg: &SweepConfig,
    db: &CutDb,
    ii: u32,
    build_gamma: f64,
    opts: &SolverOptions,
    report: &mut SweepReport,
    prev: &mut Option<PrevBase>,
) -> Result<bool, CoreError> {
    let setup = Instant::now();
    let (f, ii_achieved) = build_base(dfg, target, cfg, db, ii, build_gamma)?;
    let deltas: Vec<Vec<(pipemap_milp::VarId, f64)>> = cfg
        .weights
        .iter()
        .map(|&(a, b, g)| f.objective_deltas(a, b, g))
        .collect();
    // A structural axis does not always bind: CLZ at II=2 formulates the
    // exact same model as at II=1. The solver is deterministic, so when
    // the model AND every weight point's delta batch match the previous
    // base bit-for-bit, the recorded results are this base's results —
    // replay them instead of re-proving each point. (Audit runs want
    // real solves, so they skip the shortcut.)
    if !cfg.audit {
        if let Some(pb) = prev.as_ref() {
            if pb.model.same_problem(&f.model) && pb.deltas == deltas {
                let wall = setup.elapsed();
                for (i, _) in cfg.weights.iter().enumerate() {
                    let src = report.points[pb.start + i].clone();
                    report.points.push(SweepPoint {
                        ii,
                        ii_achieved,
                        wall: if i == 0 { wall } else { Duration::ZERO },
                        warm_hit: true,
                        ..src
                    });
                }
                report.total_wall += wall;
                report.bases_deduped += 1;
                return Ok(false);
            }
        }
    }
    let start_index = report.points.len();
    let mut cx = pipemap_milp::ResolveContext::new(f.model.clone());
    report.setup_wall += setup.elapsed();
    for (&(alpha, beta, gamma), batch) in cfg.weights.iter().zip(&deltas) {
        let start = Instant::now();
        let seeds = cx.stats().incumbent_seeds;
        for &(v, w) in batch {
            cx.set_objective_coeff(v, w);
        }
        let r = cx.solve(opts).map_err(CoreError::Milp)?;
        let wall = start.elapsed();
        let audit_ok = if cfg.audit {
            let a = cx.audit(opts).map_err(CoreError::Milp)?;
            if !a.ok() {
                report.audit_failures += 1;
            }
            Some(a.ok())
        } else {
            None
        };
        report.total_wall += wall;
        report.points.push(SweepPoint {
            ii,
            ii_achieved,
            k: target.k,
            alpha,
            beta,
            gamma,
            status: r.status,
            objective: r.objective,
            wall,
            warm_hit: cx.stats().incumbent_seeds > seeds,
            audit_ok,
        });
    }
    if let Some(total) = report.resolve.as_mut() {
        total.merge(&cx.stats());
    }
    *prev = Some(PrevBase {
        model: f.model.clone(),
        deltas,
        start: start_index,
    });
    Ok(true)
}

/// One structural base on the cold path: every weight point pays cut
/// enumeration, baseline scheduling, the formulation build, and a cold
/// solve — the from-scratch comparator.
fn run_base_cold(
    dfg: &Dfg,
    target: &Target,
    cfg: &SweepConfig,
    ii: u32,
    opts: &SolverOptions,
    report: &mut SweepReport,
) -> Result<(), CoreError> {
    for &(alpha, beta, gamma) in &cfg.weights {
        let start = Instant::now();
        let db = build_db(dfg, target);
        let baseline = schedule_baseline(dfg, target, ii, &db)?;
        let m = baseline.implementation.schedule.depth();
        let f = formulation::build_weighted(dfg, target, &db, baseline.ii, m, alpha, beta, gamma);
        let r = {
            let _s = obs::span("sweep-cold-solve");
            f.model.solve(opts).map_err(CoreError::Milp)?
        };
        let wall = start.elapsed();
        report.total_wall += wall;
        report.points.push(SweepPoint {
            ii,
            ii_achieved: baseline.ii,
            k: target.k,
            alpha,
            beta,
            gamma,
            status: r.status,
            objective: r.objective,
            wall,
            warm_hit: false,
            audit_ok: None,
        });
    }
    Ok(())
}

/// Baseline-schedule and build one structural base's formulation.
fn build_base(
    dfg: &Dfg,
    target: &Target,
    cfg: &SweepConfig,
    db: &CutDb,
    ii: u32,
    build_gamma: f64,
) -> Result<(formulation::Formulation, u32), CoreError> {
    let baseline = {
        let _s = obs::span("baseline");
        schedule_baseline(dfg, target, ii, db)?
    };
    let m = baseline.implementation.schedule.depth();
    let (alpha0, beta0, _) = cfg.weights.first().copied().unwrap_or((0.5, 0.5, 0.0));
    let f = {
        let _s = obs::span("milp-build");
        formulation::build_weighted(dfg, target, db, baseline.ii, m, alpha0, beta0, build_gamma)
    };
    Ok((f, baseline.ii))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_ir::DfgBuilder;

    fn kernel() -> Dfg {
        let mut b = DfgBuilder::new("sweep_kernel");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let a = b.xor(x, y);
        let c = b.and(a, x);
        let d = b.or(c, y);
        b.output("out", d);
        b.finish().expect("valid dfg")
    }

    fn small_cfg(incremental: bool) -> SweepConfig {
        SweepConfig {
            ii_values: vec![1, 2],
            k_values: vec![4],
            weights: vec![(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.25, 0.75, 0.0)],
            time_limit: Duration::from_secs(20),
            incremental,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn incremental_sweep_matches_cold_pointwise() {
        let g = kernel();
        let t = Target::default();
        let warm = run_sweep(&g, &t, &small_cfg(true)).expect("incremental sweep");
        let cold = run_sweep(&g, &t, &small_cfg(false)).expect("cold sweep");
        assert_eq!(warm.points.len(), 6);
        assert_eq!(cold.points.len(), 6);
        for (w, c) in warm.points.iter().zip(cold.points.iter()) {
            assert_eq!((w.ii, w.k, w.alpha, w.beta), (c.ii, c.k, c.alpha, c.beta));
            assert_eq!(
                w.status, c.status,
                "status diverged at ii={} α={}",
                w.ii, w.alpha
            );
            assert!(
                (w.objective - c.objective).abs() <= 1e-6,
                "objective diverged at ii={} α={}: {} vs {}",
                w.ii,
                w.alpha,
                w.objective,
                c.objective
            );
        }
        let rs = warm.resolve.expect("resolve stats");
        // The test kernel's formulation is II-insensitive, so the II=2
        // base dedups onto II=1: only the first base's points solve.
        assert_eq!(warm.bases_deduped, 1, "stats: {rs:?}");
        assert_eq!(rs.solves, 3);
        // The first point is the one unavoidable cold solve; every later
        // point starts from its predecessor's optimum.
        assert_eq!(rs.cold_solves, 1, "stats: {rs:?}");
        assert_eq!(rs.incumbent_seeds, 2, "stats: {rs:?}");
        assert!(cold.resolve.is_none());
    }

    #[test]
    fn audited_sweep_reports_no_failures() {
        let g = kernel();
        let t = Target::default();
        let cfg = SweepConfig {
            audit: true,
            ..small_cfg(true)
        };
        let rep = run_sweep(&g, &t, &cfg).expect("audited sweep");
        assert_eq!(rep.audit_failures, 0);
        assert!(rep.points.iter().all(|p| p.audit_ok == Some(true)));
    }
}
