//! Flight-recorder coverage: a traced solve must assemble into a
//! `SolveReport` whose phase attribution reconciles with the wall
//! clock, whose JSON twin passes the schema validator, and which
//! survives a round-trip through the Chrome trace export. The metrics
//! registry must be as read-only as tracing — enabling it, at any job
//! count, cannot change what the solver returns — and its log-linear
//! histograms must merge shard snapshots into exactly the distribution
//! a serial recorder would have seen.
//!
//! The obs recorder and metrics registry are process-global, so every
//! test serializes on one lock and drains both around each run.

use std::sync::Mutex;
use std::time::Duration;

use pipemap::core::{run_flow, Flow, FlowOptions, FlowResult};
use pipemap::ir::{random_dfg, Dfg, RandomDfgConfig, Target};
use pipemap::milp::analysis::{analyze, root_cut_loop, AnalysisConfig, CutLoopConfig};
use pipemap::milp::{LinExpr, Model, Sense, Status};
use pipemap::obs;
use pipemap::obs::{chrome, metrics, report, validate};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn opts(jobs: usize) -> FlowOptions {
    FlowOptions {
        max_cuts: 2,
        max_cone: 6,
        analyze: false,
        time_limit: Duration::from_secs(15),
        jobs,
        ..FlowOptions::default()
    }
}

/// A solved seeded graph with its trace: seed 0 of the default random
/// config solves to optimality in well under a second.
fn traced_solve(dfg: &Dfg, target: &Target, jobs: usize) -> obs::Trace {
    let _ = obs::take();
    obs::enable();
    let r = run_flow(dfg, target, Flow::MilpMap, &opts(jobs)).expect("flow");
    obs::disable();
    assert_eq!(
        r.milp.expect("milp stats").status,
        Status::Optimal,
        "seeded graph must prove optimality for a stable golden report"
    );
    obs::take()
}

#[test]
fn golden_report_on_seeded_dfg() {
    let _l = OBS_LOCK.lock().expect("obs lock");
    let dfg = random_dfg(0, &RandomDfgConfig::default());
    let target = Target::default();
    let trace = traced_solve(&dfg, &target, 1);

    let rep = report::build(&trace);
    assert_eq!(rep.status.as_deref(), Some("optimal"));
    assert!(rep.objective.is_some(), "milp-stats instant missing");
    assert!(rep.nodes.is_some());

    // Phase attribution reconciles: the slices (including the
    // unattributed remainder) cover the wall clock to within 5%.
    let wall = rep.wall_us;
    let sum: u64 = rep.phases.iter().map(|p| p.total_us).sum();
    assert!(wall > 0, "empty trace");
    let tol = wall / 20 + 1000;
    assert!(
        sum.abs_diff(wall) <= tol,
        "phase sum {sum} us vs wall {wall} us (tolerance {tol} us)"
    );
    assert!(
        rep.phases.iter().any(|p| p.name == "milp-solve"),
        "no milp-solve phase in {:?}",
        rep.phases.iter().map(|p| &p.name).collect::<Vec<_>>()
    );

    // The top gap-closing feature is named, consistently in the
    // struct, the human rendering, and the JSON twin.
    let top = rep.top_feature.clone().expect("top feature");
    assert!(
        rep.features.iter().any(|f| f.name == top),
        "top feature {top:?} not among features"
    );
    let text = rep.render();
    assert!(
        text.contains(&top),
        "rendered report does not name top feature {top:?}"
    );

    let json = rep.to_json();
    validate::validate_solve_report(&json).expect("report JSON schema");
    let doc = obs::json::parse(&json).expect("report JSON parses");
    assert_eq!(
        doc.get("top_feature").and_then(|v| v.as_str()),
        Some(top.as_str())
    );

    // Chrome round-trip: exporting the trace and re-ingesting it must
    // reconstruct the identical report.
    let reimported =
        report::trace_from_chrome(&chrome::to_chrome_trace(&trace)).expect("chrome re-ingest");
    assert_eq!(
        report::build(&reimported),
        rep,
        "report diverged after a Chrome trace round-trip"
    );
}

#[test]
fn histogram_shard_merge_matches_serial() {
    let _l = OBS_LOCK.lock().expect("obs lock");
    // One deterministic value stream, recorded two ways: serially into
    // one histogram, and sharded across four worker-owned histograms
    // (as `--jobs 4` does) whose snapshots are then merged. Fixed-point
    // integer accumulation makes the merge exact, so the two snapshots
    // must be bit-identical — not merely close.
    let values: Vec<f64> = (0u64..4096)
        .map(|i| {
            let x = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) >> 33;
            (x % 1_000_000) as f64 / 7.0
        })
        .collect();

    let serial = metrics::histogram("test.merge.serial");
    for &v in &values {
        serial.record(v);
    }

    let shards: Vec<&'static metrics::Histogram> = [
        "test.merge.shard0",
        "test.merge.shard1",
        "test.merge.shard2",
        "test.merge.shard3",
    ]
    .iter()
    .map(|&n| metrics::histogram(n))
    .collect();
    std::thread::scope(|scope| {
        for (k, h) in shards.iter().enumerate() {
            let values = &values;
            scope.spawn(move || {
                for v in values.iter().skip(k).step_by(4) {
                    h.record(*v);
                }
            });
        }
    });

    let mut merged = shards[0].snapshot();
    for h in &shards[1..] {
        merged.merge(&h.snapshot());
    }
    assert_eq!(merged, serial.snapshot());
    metrics::reset();
}

#[test]
fn metrics_enabled_runs_are_deterministic() {
    let _l = OBS_LOCK.lock().expect("obs lock");
    let b = pipemap::bench_suite::by_name("GSM").expect("benchmark");
    let run = |jobs: usize, metered: bool| -> FlowResult {
        if metered {
            metrics::reset();
            metrics::enable();
        }
        let r = run_flow(&b.dfg, &b.target, Flow::MilpMap, &opts(jobs))
            .unwrap_or_else(|e| panic!("jobs={jobs} metered={metered}: {e}"));
        if metered {
            metrics::disable();
            let snap = metrics::snapshot();
            metrics::reset();
            assert!(
                !snap.is_empty(),
                "metered run registered nothing at jobs={jobs}"
            );
            assert!(
                matches!(
                    snap.get("lp.cold_solves"),
                    Some(metrics::MetricValue::Counter(n)) if *n > 0
                ),
                "no LP solves counted at jobs={jobs}"
            );
        }
        r
    };
    let base = run(1, false);
    let bs = base.milp.as_ref().expect("milp stats");
    assert_eq!(bs.status, Status::Optimal, "GSM must prove optimality");
    for (jobs, metered) in [(1, true), (4, true)] {
        let r = run(jobs, metered);
        let s = r.milp.as_ref().expect("milp stats");
        assert_eq!(bs.status, s.status, "status diverged at jobs={jobs}");
        assert!(
            (bs.objective - s.objective).abs() < 1e-6,
            "objective {} vs {} at jobs={jobs}",
            bs.objective,
            s.objective
        );
        assert_eq!(
            base.implementation, r.implementation,
            "schedule/cover diverged at jobs={jobs} metered={metered}"
        );
    }
}

#[test]
fn gomory_round_zero_root_lp_is_metered() {
    let _l = OBS_LOCK.lock().expect("obs lock");
    // Round 0 of the cut loop solves its root LP through the
    // tableau-extracting cold solve when Gomory separation is on. That LP
    // must be metered like every other: the `lp.iters` histogram holds
    // one observation per LP the loop solved, and its sum is the loop's
    // own iteration count.
    let mut m = Model::new("gomory-metered");
    let x = m.add_integer(0.0, 10.0, -5.0);
    let y = m.add_integer(0.0, 10.0, -4.0);
    m.add_constraint(
        LinExpr::term(6.0, x) + LinExpr::term(4.0, y),
        Sense::Le,
        24.0,
    );
    m.add_constraint(LinExpr::from(x) + LinExpr::term(2.0, y), Sense::Le, 6.0);
    let sa = analyze(&m, &AnalysisConfig::default());
    let cfg = CutLoopConfig {
        gomory: true,
        ..CutLoopConfig::default()
    };
    metrics::reset();
    metrics::enable();
    let out = root_cut_loop(&m, &sa, &cfg, None);
    metrics::disable();
    let snap = metrics::snapshot();
    metrics::reset();
    assert!(out.stats.rounds >= 1, "the cut loop solved no root LP");
    let Some(metrics::MetricValue::Histogram(iters)) = snap.get("lp.iters") else {
        panic!("no LP iterations recorded");
    };
    assert_eq!(
        iters.sum, out.stats.lp_iterations as f64,
        "metered LP iterations differ from the cut loop's"
    );
    assert!(
        matches!(
            snap.get("lp.cold_solves"),
            Some(metrics::MetricValue::Counter(n)) if *n == iters.count
        ),
        "cold solves and LP observations disagree"
    );
    assert!(
        matches!(
            snap.get("lp.factorizations"),
            Some(metrics::MetricValue::Counter(n)) if *n >= iters.count
        ),
        "a cold solve factors at least once"
    );
}
