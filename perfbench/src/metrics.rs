//! Metric names, units and directions, and how each is derived from a
//! round's counts, its direct timings and (when traced) its spans.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;

use crate::affinity::balanced_median;
use crate::{median, trace, Outcome};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, reported with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("wall_s", "s", "lower"),
        def("luts", "count", "lower"),
        def("ffs", "count", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
    ]
}

/// Designs of the `prove` workload (one `flows.run_s` and `milp.solve_s`
/// row each).
pub const PROVE_DESIGNS: [&str; 3] = ["CLZ", "DR", "GSM"];
/// Designs of the `search` workload (one `milp.solve_s` row each).
pub const SEARCH_DESIGNS: [&str; 5] = ["RS", "GFMUL", "XORR", "CORDIC", "MT"];

/// Span-derived metrics and their source spans (outermost inclusive
/// time).
const SPAN_METRICS: [(&str, &[&str]); 17] = [
    ("milp.relax_s", &["milp.relax"]),
    ("milp.analysis_s", &["structural-analysis"]),
    ("milp.presolve_s", &["presolve"]),
    ("milp.cutloop_s", &["cut-round"]),
    ("milp.dive_s", &["dive"]),
    ("decompose.s", &["decompose", "partition-bound"]),
    ("ir.parse_s", &["ir.parse"]),
    ("analyze.simplify_s", &["analyze.simplify"]),
    ("analyze.dataflow_s", &["analyze.dataflow"]),
    ("cuts.raw_enumerate_s", &["cuts.raw_enumerate"]),
    ("cuts.priority_s", &["cuts.priority"]),
    ("baseline.schedule_s", &["baseline.schedule"]),
    ("formulation.build_s", &["formulation.build"]),
    ("flows.model_size_s", &["flows.model_size"]),
    ("flows.run_s", &["flows.run"]),
    ("netlist.qor_s", &["qor"]),
    ("verify.equivalence_s", &["verify.equivalence"]),
];

/// Counts a workload adds to a round under these names.
const COUNTS: [(&str, &str); 27] = [
    ("milp.lp_iters", "lower"),
    ("milp.nodes", "lower"),
    ("milp.cut_rounds", "lower"),
    ("milp.cuts_active", "higher"),
    ("milp.presolve_rows_removed", "higher"),
    ("milp.probe_fixings", "higher"),
    ("milp.cliques", "higher"),
    ("milp.orbits", "higher"),
    ("milp.orbital_fixings", "higher"),
    ("milp.implication_fixings", "higher"),
    ("decompose.subproblems", "lower"),
    ("decompose.stitched", "higher"),
    ("sweep.contexts", "lower"),
    ("sweep.bases_deduped", "higher"),
    ("resolve.solves", "lower"),
    ("resolve.cold_solves", "lower"),
    ("resolve.cached_results", "higher"),
    ("resolve.incumbent_seeds", "higher"),
    ("resolve.warm_hits", "higher"),
    ("ir.nodes", "lower"),
    ("analyze.nodes_after", "lower"),
    ("cuts.enumerated", "lower"),
    ("cuts.kept", "lower"),
    ("formulation.vars", "lower"),
    ("formulation.rows", "lower"),
    ("determinism.mismatches", "lower"),
    ("ops", "higher"),
];

/// The per-layer metrics, reported by the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("milp.lp_iters_per_s", "1/s", "higher"),
        def("milp.nodes_per_s", "1/s", "higher"),
        def("milp.iters_per_node", "count", "lower"),
        def("milp.warm_hit_rate", "ratio", "higher"),
        def("milp.root_analysis_s", "s", "lower"),
        def("milp.solve_s", "s", "lower"),
        def("sweep.setup_s", "s", "lower"),
        def("cuts.kept_ratio", "ratio", "lower"),
        def("bound_gap", "ratio", "lower"),
        def("error_rate", "ratio", "lower"),
        def("trace.overhead_pct", "%", "lower"),
    ];
    v.extend(SPAN_METRICS.iter().map(|(n, _)| def(*n, "s", "lower")));
    v.extend(COUNTS.iter().map(|(n, b)| def(*n, "count", b)));
    v.extend(
        PROVE_DESIGNS
            .iter()
            .map(|d| def(format!("flows.run_s.{d}"), "s", "lower")),
    );
    v.extend(
        PROVE_DESIGNS
            .iter()
            .chain(SEARCH_DESIGNS.iter())
            .map(|d| def(format!("milp.solve_s.{d}"), "s", "lower")),
    );
    v.extend(
        trace::LAYERS
            .iter()
            .map(|l| def(format!("self_s.{l}"), "s", "lower")),
    );
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// All per-layer values of one round. `spans` (already nested) is
/// present for traced rounds.
pub fn round_metrics(r: &crate::Round, spans: Option<&[trace::Span]>) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = r
        .values
        .iter()
        .filter(|(k, _)| !k.starts_with('_'))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let get = |k: &str| r.values.get(k).copied().unwrap_or(0.0);
    let solve_s = get("milp.solve_s");
    m.insert(
        "milp.lp_iters_per_s".into(),
        ratio(get("milp.lp_iters"), solve_s),
    );
    m.insert("milp.nodes_per_s".into(), ratio(get("milp.nodes"), solve_s));
    m.insert(
        "milp.iters_per_node".into(),
        ratio(get("milp.lp_iters"), get("milp.nodes")),
    );
    m.insert(
        "milp.warm_hit_rate".into(),
        ratio(get("_milp.warm_hits"), get("_milp.warm_attempts")),
    );
    m.insert(
        "cuts.kept_ratio".into(),
        ratio(get("cuts.kept"), get("cuts.enumerated")),
    );
    m.insert(
        "bound_gap".into(),
        ratio(get("_bound_gap_sum"), get("_bound_gap_n")),
    );
    m.insert("ops".into(), r.attempted as f64);
    if let Some(spans) = spans {
        for (name, sources) in SPAN_METRICS {
            m.insert(name.into(), trace::outer_total(spans, sources));
        }
        m.insert("milp.root_analysis_s".into(), trace::root_phase(spans));
        for (layer, s) in trace::layer_self(spans) {
            m.insert(format!("self_s.{layer}"), s);
        }
    }
    m
}

/// End-to-end values of an untraced run.
pub fn end_to_end_values(out: &Outcome) -> BTreeMap<String, f64> {
    // Rounds alternate over the CPUs, so the plain median weighs them
    // alike; over six ten-run sets it spread no more than the mean of
    // per-CPU medians.
    let walls: Vec<f64> = out.rounds.iter().map(|r| r.timed_s).collect();
    let first = out.rounds.first().map(|r| &r.metrics);
    let count = |k: &str| first.and_then(|m| m.get(k)).copied().unwrap_or(0.0);
    let peaks: Vec<f64> = out.rounds.iter().map(|r| r.peak_rss_mb).collect();
    BTreeMap::from([
        ("setup_s".to_string(), balanced_median(&out.setup_s)),
        ("wall_s".to_string(), median(&walls)),
        ("luts".to_string(), count("luts")),
        ("ffs".to_string(), count("ffs")),
        ("peak_rss_mb".to_string(), median(&peaks)),
    ])
}

/// Per-layer values of a traced run: medians over the traced rounds,
/// plus the tracing overhead against the untraced rounds.
pub fn per_layer_values(out: &Outcome) -> BTreeMap<String, f64> {
    let traced: Vec<_> = out.rounds.iter().filter(|r| r.traced).collect();
    let plain: Vec<(usize, f64)> = out
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| (r.cpu, r.timed_s))
        .collect();
    let mut m = BTreeMap::new();
    for d in per_layer() {
        let xs: Vec<f64> = traced
            .iter()
            .map(|r| r.metrics.get(&d.name).copied().unwrap_or(0.0))
            .collect();
        m.insert(d.name, median(&xs));
    }
    let with: Vec<(usize, f64)> = traced.iter().map(|r| (r.cpu, r.timed_s)).collect();
    let base = balanced_median(&plain);
    m.insert(
        "trace.overhead_pct".into(),
        ratio(balanced_median(&with) - base, base) * 100.0,
    );
    m.insert(
        "error_rate".into(),
        ratio(out.failed as f64, out.attempted as f64),
    );
    m.insert("determinism.mismatches".into(), out.mismatches as f64);
    m
}
