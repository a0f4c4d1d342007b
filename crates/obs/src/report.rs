//! Per-solve flight recorder: the [`SolveReport`] behind `pipemap
//! report`.
//!
//! A report is assembled entirely from a captured [`Trace`]: the solver
//! layers emit summary instants (`milp-stats`, `search-stats`,
//! `cut-round-bound`, `resolve-stats`, `decompose-done`, …) alongside
//! their spans, and this module folds spans into wall-clock **phase
//! attribution** and instants into **gap-closure attribution** — which
//! cut families moved the root bound and by how much, what branching
//! and the partition bound contributed, where incumbents came from, how
//! warm starts performed and how re-solves were served. The result
//! answers "why was this solve slow / why did it time out" without
//! opening a Perfetto UI.
//!
//! Every objective value in the trace is in the caller's model space.
//! The solver's own events (the `search-stats`, `cut-round-bound` and
//! `incumbent-found` instants, and the workers' `node` spans) are read
//! only from inside the flow's `milp-solve` span: decomposition
//! sub-solves run the same solver before and after it, on models of
//! their own.
//!
//! Reports render two ways: [`SolveReport::render`] (human-readable
//! diagnosis) and [`SolveReport::to_json`] (schema
//! `pipemap-solve-report-v1`, validated by `trace-check`). A saved
//! Chrome trace can be re-ingested with [`trace_from_chrome`], so
//! `pipemap report trace.json` works on yesterday's artifact.

use crate::json::{parse, Value};
use crate::tree::{phase_tree, PhaseNode};
use crate::{ArgValue, Event, EventKind, Trace};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Schema identifier embedded in the JSON twin.
pub const REPORT_SCHEMA: &str = "pipemap-solve-report-v1";

/// One wall-clock phase slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSlice {
    /// Phase (span) name; `"(unattributed)"` for the remainder.
    pub name: String,
    /// Summed duration, microseconds.
    pub total_us: u64,
    /// Number of span instances merged in.
    pub count: usize,
}

/// One branch-and-bound worker lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSlice {
    /// Lane display name (`bb-worker-N`).
    pub lane: String,
    /// Time spent inside top-level `node` spans, microseconds.
    pub busy_us: u64,
    /// Nodes processed by this worker.
    pub nodes: u64,
}

/// One gap-closure attribution entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Feature name (`cuts:gomory`, `branching`,
    /// `decompose:partition-bound`, `incumbents:lns`, …).
    pub name: String,
    /// What the value measures: `root-bound`, `tree-bound`, or
    /// `objective`.
    pub kind: String,
    /// Attributed movement magnitude (objective units).
    pub value: f64,
    /// Human-readable qualifier.
    pub detail: String,
}

/// Warm-start efficacy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmSummary {
    /// Dual warm-start attempts.
    pub attempts: u64,
    /// Attempts that produced a usable re-optimization.
    pub hits: u64,
    /// Why warm starts were skipped entirely, when they were.
    pub skip_reason: Option<String>,
}

/// One cut-loop round's root-bound movement.
#[derive(Debug, Clone, PartialEq)]
pub struct CutRound {
    /// Round number (0-based).
    pub round: u64,
    /// Root LP objective before the round's cuts.
    pub obj_before: f64,
    /// Root LP objective after.
    pub obj_after: f64,
    /// The round re-optimized from the previous round's basis; `false`
    /// for a cold solve (round 0, or a refused warm start).
    pub warm: bool,
    /// Simplex iterations of the round's LP.
    pub lp_iters: u64,
    /// Cuts added this round per family, name-sorted.
    pub added: Vec<(String, u64)>,
}

/// One incumbent in the solve timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Incumbent {
    /// Microseconds since trace epoch.
    pub ts_us: u64,
    /// Incumbent objective.
    pub objective: f64,
    /// Where it came from (`branch` or `lns`).
    pub source: String,
}

/// The assembled flight-recorder artifact for one solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveReport {
    /// Wall-clock the phase attribution reconciles against
    /// (the flow span's duration, or the whole trace), microseconds.
    pub wall_us: u64,
    /// Final solver status, when a `milp-stats` instant was recorded.
    pub status: Option<String>,
    /// Final objective.
    pub objective: Option<f64>,
    /// Final best bound.
    pub best_bound: Option<f64>,
    /// Relative gap at the end of the solve.
    pub gap_rel: Option<f64>,
    /// Branch-and-bound nodes processed.
    pub nodes: Option<u64>,
    /// Simplex iterations.
    pub lp_iterations: Option<u64>,
    /// Model columns.
    pub variables: Option<u64>,
    /// Model rows.
    pub constraints: Option<u64>,
    /// Which subsystem produced the final incumbent.
    pub incumbent_source: Option<String>,
    /// Top-level wall-clock attribution; sums to `wall_us` (an
    /// `"(unattributed)"` slice absorbs the remainder).
    pub phases: Vec<PhaseSlice>,
    /// Attribution inside the MILP solve itself.
    pub solve_phases: Vec<PhaseSlice>,
    /// Per-worker tree-search load.
    pub workers: Vec<WorkerSlice>,
    /// Gap-closure attribution, largest movement first.
    pub features: Vec<Feature>,
    /// Name of the largest-movement feature.
    pub top_feature: Option<String>,
    /// Warm-start efficacy, when the search reported it.
    pub warm: Option<WarmSummary>,
    /// Re-solve counters (`resolve-stats` args).
    pub resolve: Vec<(String, f64)>,
    /// `(subproblems, stitched)` from the LNS decompose pass.
    pub lns: Option<(u64, u64)>,
    /// Cut-loop rounds in order.
    pub cut_rounds: Vec<CutRound>,
    /// Incumbent timeline in trace order.
    pub incumbents: Vec<Incumbent>,
    /// Events lost to the sink bound (attribution is partial if > 0).
    pub dropped_events: usize,
    /// Human-readable findings, most significant first.
    pub diagnosis: Vec<String>,
}

fn arg_f64(e: &Event, key: &str) -> Option<f64> {
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::Int(n) => Some(*n as f64),
            ArgValue::UInt(n) => Some(*n as f64),
            ArgValue::Float(f) => Some(*f),
            ArgValue::Str(_) => None,
        })
}

fn arg_u64(e: &Event, key: &str) -> Option<u64> {
    arg_f64(e, key).map(|v| v.max(0.0) as u64)
}

fn arg_str<'e>(e: &'e Event, key: &str) -> Option<&'e str> {
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

fn slices(children: &[PhaseNode], own_total: u64) -> Vec<PhaseSlice> {
    let mut out: Vec<PhaseSlice> = children
        .iter()
        .map(|c| PhaseSlice {
            name: c.name.clone(),
            total_us: c.total_us,
            count: c.count,
        })
        .collect();
    let attributed: u64 = out.iter().map(|s| s.total_us).sum();
    if own_total > attributed {
        out.push(PhaseSlice {
            name: "(unattributed)".into(),
            total_us: own_total - attributed,
            count: 1,
        });
    }
    out
}

fn find_node<'t>(nodes: &'t [PhaseNode], name: &str) -> Option<&'t PhaseNode> {
    for n in nodes {
        if n.name == name {
            return Some(n);
        }
        if let Some(hit) = find_node(&n.children, name) {
            return Some(hit);
        }
    }
    None
}

/// The `[begin, end]` timestamps of the last `milp-solve` span, or `None`
/// when the trace has none.
fn solve_window(trace: &Trace) -> Option<(u64, u64)> {
    let mut begin = None;
    let mut window = None;
    for e in trace.events.iter().filter(|e| e.name == "milp-solve") {
        match e.kind {
            EventKind::Begin => begin = Some(e.ts_us),
            EventKind::End => {
                if let Some(b) = begin.take() {
                    window = Some((b, e.ts_us));
                }
            }
            _ => {}
        }
    }
    window
}

/// Assemble a [`SolveReport`] from a captured trace.
pub fn build(trace: &Trace) -> SolveReport {
    let mut r = SolveReport {
        dropped_events: trace.dropped,
        ..SolveReport::default()
    };

    // ---- wall-clock phase attribution -------------------------------
    let tree = phase_tree(trace);
    let flow = tree.roots.iter().find(|n| n.name.starts_with("flow:"));
    match flow {
        Some(f) => {
            r.wall_us = f.total_us;
            r.phases = slices(&f.children, f.total_us);
        }
        None => {
            r.wall_us = tree.wall_us;
            r.phases = slices(&tree.roots, tree.wall_us);
        }
    }
    if let Some(solve) = find_node(&tree.roots, "milp-solve") {
        r.solve_phases = slices(&solve.children, solve.total_us);
    }

    // The flow's own solve: decomposition sub-solves run the same solver,
    // with their own worker lanes, before and after it.
    let window = solve_window(trace);
    let in_solve = |e: &Event| window.is_none_or(|(b, end)| (b..=end).contains(&e.ts_us));

    // ---- per-worker tree-search load --------------------------------
    let mut lane_names: BTreeMap<u32, String> = BTreeMap::new();
    for e in &trace.events {
        if let EventKind::LaneName(n) = &e.kind {
            lane_names.insert(e.lane, n.clone());
        }
    }
    let mut per_lane: BTreeMap<u32, (u64, u64, usize, u64)> = BTreeMap::new();
    // (busy_us, nodes, node_depth, open_ts) per lane.
    for e in &trace.events {
        if e.name != "node" || !in_solve(e) {
            continue;
        }
        let s = per_lane.entry(e.lane).or_default();
        match e.kind {
            EventKind::Begin => {
                if s.2 == 0 {
                    s.3 = e.ts_us;
                }
                s.2 += 1;
            }
            EventKind::End => {
                s.2 = s.2.saturating_sub(1);
                if s.2 == 0 {
                    s.0 += e.ts_us.saturating_sub(s.3);
                    s.1 += 1;
                }
            }
            _ => {}
        }
    }
    for (lane, (busy_us, nodes, _, _)) in &per_lane {
        let name = lane_names
            .get(lane)
            .cloned()
            .unwrap_or_else(|| format!("lane-{lane}"));
        if name.starts_with("bb-worker") {
            r.workers.push(WorkerSlice {
                lane: name,
                busy_us: *busy_us,
                nodes: *nodes,
            });
        }
    }
    r.workers.sort_by(|a, b| a.lane.cmp(&b.lane));

    // ---- summary instants -------------------------------------------
    let finite = |v: Option<f64>| v.filter(|v| v.is_finite());
    // The tree's bound at its root LP and at its end.
    let mut tree_root: Option<f64> = None;
    let mut tree_end: Option<f64> = None;
    // `(bound, groups solved)` of the partition-bound pass, when it ran.
    let mut partition: Option<(f64, u64)> = None;
    for e in &trace.events {
        if e.kind != EventKind::Instant {
            continue;
        }
        let solver_instant = matches!(
            e.name.as_ref(),
            "search-stats" | "cut-round-bound" | "incumbent-found"
        );
        if solver_instant && !in_solve(e) {
            continue;
        }
        match e.name.as_ref() {
            "milp-stats" => {
                r.status = arg_str(e, "status").map(str::to_string);
                r.objective = arg_f64(e, "objective");
                r.best_bound = arg_f64(e, "best_bound");
                r.gap_rel = arg_f64(e, "gap_rel");
                r.nodes = arg_u64(e, "nodes");
                r.lp_iterations = arg_u64(e, "lp_iterations");
                r.variables = arg_u64(e, "variables");
                r.constraints = arg_u64(e, "constraints");
                r.incumbent_source = arg_str(e, "incumbent_source").map(str::to_string);
            }
            "search-stats" => {
                let skip = arg_str(e, "warm_skip")
                    .filter(|s| !s.is_empty() && *s != "none")
                    .map(str::to_string);
                r.warm = Some(WarmSummary {
                    attempts: arg_u64(e, "warm_attempts").unwrap_or(0),
                    hits: arg_u64(e, "warm_hits").unwrap_or(0),
                    skip_reason: skip,
                });
                tree_root = finite(arg_f64(e, "root_bound"));
                tree_end = finite(arg_f64(e, "best_bound"));
            }
            "cut-round-bound" => {
                let mut added: Vec<(String, u64)> = Vec::new();
                for fam in ["clique", "cover", "implication", "gomory"] {
                    if let Some(c) = arg_u64(e, fam) {
                        if c > 0 {
                            added.push((fam.to_string(), c));
                        }
                    }
                }
                let round = CutRound {
                    round: arg_u64(e, "round").unwrap_or(0),
                    obj_before: arg_f64(e, "obj_before").unwrap_or(f64::NAN),
                    obj_after: arg_f64(e, "obj_after").unwrap_or(f64::NAN),
                    warm: arg_u64(e, "warm") == Some(1),
                    lp_iters: arg_u64(e, "lp_iters").unwrap_or(0),
                    added,
                };
                r.cut_rounds.push(round);
            }
            "resolve-stats" => {
                r.resolve = e
                    .args
                    .iter()
                    .filter_map(|(k, _)| arg_f64(e, k).map(|v| (k.to_string(), v)))
                    .collect();
                r.resolve.sort_by(|a, b| a.0.cmp(&b.0));
            }
            "partition-bound" => {
                partition = Some((
                    arg_f64(e, "bound").unwrap_or(f64::NAN),
                    arg_u64(e, "groups_solved").unwrap_or(0),
                ));
            }
            "decompose-done" => {
                r.lns = Some((
                    arg_u64(e, "subproblems").unwrap_or(0),
                    arg_u64(e, "stitched").unwrap_or(0),
                ));
            }
            "incumbent-found" => {
                if let Some(obj) = arg_f64(e, "objective") {
                    r.incumbents.push(Incumbent {
                        ts_us: e.ts_us,
                        objective: obj,
                        source: "branch".into(),
                    });
                }
            }
            "decompose-stitch" => {
                if let Some(obj) = arg_f64(e, "objective") {
                    r.incumbents.push(Incumbent {
                        ts_us: e.ts_us,
                        objective: obj,
                        source: "lns".into(),
                    });
                }
            }
            _ => {}
        }
    }
    r.incumbents.sort_by_key(|i| i.ts_us);

    // ---- gap-closure attribution ------------------------------------
    // Cut families: each round's root-bound movement is split across the
    // families in proportion to the cuts they added that round.
    let mut family_delta: BTreeMap<String, f64> = BTreeMap::new();
    let mut family_cuts: BTreeMap<String, u64> = BTreeMap::new();
    for round in &r.cut_rounds {
        let delta = (round.obj_after - round.obj_before).abs();
        let total: u64 = round.added.iter().map(|(_, c)| c).sum();
        for (fam, c) in &round.added {
            *family_cuts.entry(fam.clone()).or_default() += c;
            if total > 0 && delta.is_finite() {
                *family_delta.entry(fam.clone()).or_default() += delta * *c as f64 / total as f64;
            }
        }
    }
    for (fam, delta) in &family_delta {
        r.features.push(Feature {
            name: format!("cuts:{fam}"),
            kind: "root-bound".into(),
            value: *delta,
            detail: format!("{} cuts", family_cuts.get(fam).copied().unwrap_or(0)),
        });
    }
    // The tree moves the bound from its root LP to its own final bound;
    // the partition bound, when it ran, lifts it further to the flow's.
    let tree_end = tree_end.or(r.best_bound);
    if let (Some(end), Some(root)) = (tree_end, tree_root) {
        let moved = (end - root).abs();
        if moved.is_finite() {
            r.features.push(Feature {
                name: "branching".into(),
                kind: "tree-bound".into(),
                value: moved,
                detail: format!("bound {root:.4} -> {end:.4} in the tree"),
            });
        }
    }
    if let Some((pb, groups)) = partition {
        let (from, to) = (
            tree_end.unwrap_or(f64::NAN),
            r.best_bound.unwrap_or(f64::NAN),
        );
        r.features.push(Feature {
            name: "decompose:partition-bound".into(),
            kind: "tree-bound".into(),
            value: (to - from).max(0.0),
            detail: format!("bound {from:.4} -> {to:.4}; {groups} group(s) summed to {pb:.4}"),
        });
    }
    // Objective side: attribute each incumbent improvement to its source.
    let mut source_gain: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let mut best = f64::INFINITY;
    for inc in &r.incumbents {
        if inc.objective < best {
            let s = source_gain.entry(inc.source.clone()).or_default();
            if best.is_finite() {
                s.0 += best - inc.objective;
            }
            s.1 += 1;
            best = inc.objective;
        }
    }
    for (source, (gain, count)) in &source_gain {
        r.features.push(Feature {
            name: format!("incumbents:{source}"),
            kind: "objective".into(),
            value: *gain,
            detail: format!("{count} improving incumbent(s)"),
        });
    }
    r.features.sort_by(|a, b| {
        b.value
            .partial_cmp(&a.value)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.name.cmp(&b.name))
    });
    r.top_feature = r
        .features
        .iter()
        .find(|f| f.value > 0.0)
        .or(r.features.first())
        .map(|f| f.name.clone());

    r.diagnosis = diagnose(&r);
    r
}

fn diagnose(r: &SolveReport) -> Vec<String> {
    let mut out = Vec::new();
    let wall_ms = r.wall_us as f64 / 1e3;
    match r.status.as_deref() {
        Some("timed-out") => {
            let gap = r
                .gap_rel
                .map(|g| format!(" with a {:.1}% gap open", g * 100.0))
                .unwrap_or_default();
            out.push(format!("solve timed out after {wall_ms:.0} ms{gap}"));
        }
        Some(status) => out.push(format!("solve finished {status} in {wall_ms:.0} ms")),
        None => out.push(format!(
            "trace covers {wall_ms:.0} ms (no milp-stats instant)"
        )),
    }
    if let Some(top) = r.phases.iter().max_by_key(|p| p.total_us) {
        if r.wall_us > 0 {
            out.push(format!(
                "{:.0}% of wall went to {}",
                top.total_us as f64 * 100.0 / r.wall_us as f64,
                top.name
            ));
        }
    }
    if let Some(f) = r.features.first() {
        if f.value > 0.0 {
            out.push(format!(
                "top gap-closing feature: {} (moved {:.4}, {})",
                f.name, f.value, f.detail
            ));
        }
    }
    if let Some(w) = &r.warm {
        if let Some(reason) = &w.skip_reason {
            out.push(format!("warm starts skipped: {reason}"));
        } else if w.attempts > 0 {
            out.push(format!(
                "warm starts hit {}/{} ({:.0}%)",
                w.hits,
                w.attempts,
                w.hits as f64 * 100.0 / w.attempts as f64
            ));
        }
    }
    if let Some((subs, stitched)) = r.lns {
        if subs > 0 {
            out.push(format!("LNS stitched {stitched}/{subs} region solutions"));
        }
    }
    if r.dropped_events > 0 {
        out.push(format!(
            "{} events dropped (sink full) — attribution is partial",
            r.dropped_events
        ));
    }
    out
}

// ---- rendering ------------------------------------------------------

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

impl SolveReport {
    /// Render the human-readable diagnosis.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("solve report  (wall {:.3} ms", ms(self.wall_us)));
        if let Some(s) = &self.status {
            out.push_str(&format!(", status {s}"));
        }
        if let Some(o) = self.objective {
            out.push_str(&format!(", objective {o}"));
        }
        if let Some(b) = self.best_bound {
            out.push_str(&format!(", bound {b}"));
        }
        if let Some(g) = self.gap_rel {
            out.push_str(&format!(", gap {:.1}%", g * 100.0));
        }
        out.push_str(")\n\n");

        let table = |out: &mut String, title: &str, slices: &[PhaseSlice], wall: u64| {
            if slices.is_empty() {
                return;
            }
            out.push_str(&format!("{title}\n"));
            for s in slices {
                let pct = if wall > 0 {
                    s.total_us as f64 * 100.0 / wall as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {:<28} {:>10.3} ms {:>6.1}%  x{}\n",
                    s.name,
                    ms(s.total_us),
                    pct,
                    s.count
                ));
            }
            out.push('\n');
        };
        table(&mut out, "phase attribution", &self.phases, self.wall_us);
        let solve_wall: u64 = self.solve_phases.iter().map(|s| s.total_us).sum();
        table(
            &mut out,
            "inside milp-solve",
            &self.solve_phases,
            solve_wall,
        );

        if !self.workers.is_empty() {
            out.push_str("workers\n");
            for w in &self.workers {
                out.push_str(&format!(
                    "  {:<28} busy {:>10.3} ms  nodes {}\n",
                    w.lane,
                    ms(w.busy_us),
                    w.nodes
                ));
            }
            out.push('\n');
        }

        if !self.features.is_empty() {
            out.push_str("gap closure\n");
            for f in &self.features {
                out.push_str(&format!(
                    "  {:<28} {:>12.4}  [{}]  {}\n",
                    f.name, f.value, f.kind, f.detail
                ));
            }
            if let Some(top) = &self.top_feature {
                out.push_str(&format!("  top feature: {top}\n"));
            }
            out.push('\n');
        }

        if !self.cut_rounds.is_empty() {
            out.push_str("cut rounds\n");
            for c in &self.cut_rounds {
                let fams: Vec<String> = c.added.iter().map(|(f, n)| format!("{f} {n}")).collect();
                out.push_str(&format!(
                    "  round {:<3} {:<4} {:>7} iters  obj {:.4} -> {:.4}  ({})\n",
                    c.round,
                    if c.warm { "warm" } else { "cold" },
                    c.lp_iters,
                    c.obj_before,
                    c.obj_after,
                    fams.join(", ")
                ));
            }
            out.push('\n');
        }

        if !self.resolve.is_empty() {
            out.push_str("resolve counters\n");
            for (k, v) in &self.resolve {
                out.push_str(&format!("  {k:<28} {v}\n"));
            }
            out.push('\n');
        }

        out.push_str("diagnosis\n");
        for d in &self.diagnosis {
            out.push_str(&format!("  - {d}\n"));
        }
        out
    }

    /// Render the machine-readable JSON twin
    /// (schema `pipemap-solve-report-v1`).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\"schema\": ");
        jstr(&mut o, REPORT_SCHEMA);
        o.push_str(&format!(", \"wall_us\": {}", self.wall_us));
        jopt_str(&mut o, "status", self.status.as_deref());
        jopt_num(&mut o, "objective", self.objective);
        jopt_num(&mut o, "best_bound", self.best_bound);
        jopt_num(&mut o, "gap_rel", self.gap_rel);
        jopt_num(&mut o, "nodes", self.nodes.map(|v| v as f64));
        jopt_num(
            &mut o,
            "lp_iterations",
            self.lp_iterations.map(|v| v as f64),
        );
        jopt_num(&mut o, "variables", self.variables.map(|v| v as f64));
        jopt_num(&mut o, "constraints", self.constraints.map(|v| v as f64));
        jopt_str(&mut o, "incumbent_source", self.incumbent_source.as_deref());

        let phase_arr = |o: &mut String, key: &str, slices: &[PhaseSlice]| {
            o.push_str(&format!(", \"{key}\": ["));
            for (i, s) in slices.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str("{\"name\": ");
                jstr(o, &s.name);
                o.push_str(&format!(
                    ", \"total_us\": {}, \"count\": {}}}",
                    s.total_us, s.count
                ));
            }
            o.push(']');
        };
        phase_arr(&mut o, "phases", &self.phases);
        phase_arr(&mut o, "solve_phases", &self.solve_phases);

        o.push_str(", \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str("{\"lane\": ");
            jstr(&mut o, &w.lane);
            o.push_str(&format!(
                ", \"busy_us\": {}, \"nodes\": {}}}",
                w.busy_us, w.nodes
            ));
        }
        o.push(']');

        o.push_str(", \"features\": [");
        for (i, f) in self.features.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str("{\"name\": ");
            jstr(&mut o, &f.name);
            o.push_str(", \"kind\": ");
            jstr(&mut o, &f.kind);
            o.push_str(", \"value\": ");
            jnum(&mut o, f.value);
            o.push_str(", \"detail\": ");
            jstr(&mut o, &f.detail);
            o.push('}');
        }
        o.push(']');
        jopt_str(&mut o, "top_feature", self.top_feature.as_deref());

        match &self.warm {
            Some(w) => {
                o.push_str(&format!(
                    ", \"warm\": {{\"attempts\": {}, \"hits\": {}, \"skip_reason\": ",
                    w.attempts, w.hits
                ));
                match &w.skip_reason {
                    Some(s) => jstr(&mut o, s),
                    None => o.push_str("null"),
                }
                o.push('}');
            }
            None => o.push_str(", \"warm\": null"),
        }

        o.push_str(", \"resolve\": {");
        for (i, (k, v)) in self.resolve.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            jstr(&mut o, k);
            o.push_str(": ");
            jnum(&mut o, *v);
        }
        o.push('}');

        match self.lns {
            Some((subs, stitched)) => o.push_str(&format!(
                ", \"lns\": {{\"subproblems\": {subs}, \"stitched\": {stitched}}}"
            )),
            None => o.push_str(", \"lns\": null"),
        }

        o.push_str(", \"cut_rounds\": [");
        for (i, c) in self.cut_rounds.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str(&format!("{{\"round\": {}, \"obj_before\": ", c.round));
            jnum(&mut o, c.obj_before);
            o.push_str(", \"obj_after\": ");
            jnum(&mut o, c.obj_after);
            o.push_str(&format!(
                ", \"warm\": {}, \"lp_iters\": {}",
                c.warm, c.lp_iters
            ));
            o.push_str(", \"added\": {");
            for (j, (f, n)) in c.added.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                jstr(&mut o, f);
                o.push_str(&format!(": {n}"));
            }
            o.push_str("}}");
        }
        o.push(']');

        o.push_str(", \"incumbents\": [");
        for (i, inc) in self.incumbents.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            o.push_str(&format!("{{\"ts_us\": {}, \"objective\": ", inc.ts_us));
            jnum(&mut o, inc.objective);
            o.push_str(", \"source\": ");
            jstr(&mut o, &inc.source);
            o.push('}');
        }
        o.push(']');

        o.push_str(&format!(", \"dropped_events\": {}", self.dropped_events));
        o.push_str(", \"diagnosis\": [");
        for (i, d) in self.diagnosis.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            jstr(&mut o, d);
        }
        o.push_str("]}\n");
        o
    }
}

fn jstr(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn jnum(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

fn jopt_num(out: &mut String, key: &str, v: Option<f64>) {
    out.push_str(&format!(", \"{key}\": "));
    match v {
        Some(v) => jnum(out, v),
        None => out.push_str("null"),
    }
}

fn jopt_str(out: &mut String, key: &str, v: Option<&str>) {
    out.push_str(&format!(", \"{key}\": "));
    match v {
        Some(s) => jstr(out, s),
        None => out.push_str("null"),
    }
}

// ---- Chrome trace re-ingestion --------------------------------------

/// Reconstruct a [`Trace`] from a saved Chrome trace-event JSON
/// document, so `pipemap report` can run on a trace file instead of a
/// live solve. Argument keys are interned (the trace format has a small
/// fixed vocabulary).
///
/// # Errors
///
/// Returns a message when the document is not a Chrome trace.
pub fn trace_from_chrome(text: &str) -> Result<Trace, String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = match (&doc, doc.get("traceEvents")) {
        (_, Some(Value::Arr(evs))) => evs.as_slice(),
        (Value::Arr(evs), _) => evs.as_slice(),
        _ => return Err("no traceEvents array".into()),
    };
    let mut interned: BTreeMap<String, &'static str> = BTreeMap::new();
    let mut intern = |s: &str| -> &'static str {
        if let Some(k) = interned.get(s) {
            return k;
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        interned.insert(s.to_string(), leaked);
        leaked
    };
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let lane = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u32;
        let ts_us = ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0).max(0.0) as u64;
        let mut args = Vec::new();
        if let Some(Value::Obj(map)) = ev.get("args") {
            for (k, v) in map {
                let av = match v {
                    Value::Num(n) => ArgValue::Float(*n),
                    Value::Str(s) => ArgValue::Str(s.clone()),
                    Value::Bool(b) => ArgValue::Str(b.to_string()),
                    _ => continue,
                };
                args.push((intern(k), av));
            }
        }
        let kind = match ph {
            "B" => EventKind::Begin,
            "E" => EventKind::End,
            "i" => EventKind::Instant,
            "C" => {
                let v = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                EventKind::Counter(v)
            }
            "M" => {
                if name != "thread_name" {
                    continue;
                }
                let n = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                EventKind::LaneName(n)
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        };
        out.push(Event {
            name: Cow::Owned(name),
            kind,
            ts_us,
            lane,
            args,
        });
    }
    Ok(Trace {
        events: out,
        dropped: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instant_with, lane_guard, span, span_with, take, test_lock};

    fn sample_trace() -> Trace {
        let _ = take();
        crate::enable();
        crate::lane_name("main");
        {
            let _f = span("flow:test");
            {
                let _b = span("milp-build");
                std::hint::black_box(0u64);
            }
            {
                let _s = span("milp-solve");
                {
                    let _p = span("presolve");
                    std::hint::black_box(0u64);
                }
                instant_with(
                    "cut-round-bound",
                    vec![
                        ("round", 1u64.into()),
                        ("obj_before", 10.0.into()),
                        ("obj_after", 12.5.into()),
                        ("warm", 1u64.into()),
                        ("lp_iters", 17u64.into()),
                        ("gomory", 3u64.into()),
                        ("cover", 1u64.into()),
                    ],
                );
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let _lane = lane_guard("bb-worker-0");
                        for _ in 0..2 {
                            let _n = span_with("node", vec![("depth", 1u64.into())]);
                            std::hint::black_box(0u64);
                        }
                        instant_with("incumbent-found", vec![("objective", 20.0.into())]);
                        instant_with("incumbent-found", vec![("objective", 16.0.into())]);
                    });
                });
                instant_with(
                    "search-stats",
                    vec![
                        ("warm_attempts", 5u64.into()),
                        ("warm_hits", 4u64.into()),
                        ("warm_skip", "none".into()),
                        ("root_bound", 12.5.into()),
                    ],
                );
            }
            instant_with(
                "milp-stats",
                vec![
                    ("status", "Optimal".into()),
                    ("objective", 16.0.into()),
                    ("best_bound", 16.0.into()),
                    ("gap_rel", 0.0.into()),
                    ("nodes", 2u64.into()),
                    ("lp_iterations", 40u64.into()),
                    ("variables", 10u64.into()),
                    ("constraints", 8u64.into()),
                    ("incumbent_source", "branch".into()),
                ],
            );
        }
        crate::disable();
        take()
    }

    #[test]
    fn report_attributes_phases_and_features() {
        let _l = test_lock();
        let trace = sample_trace();
        let r = build(&trace);
        assert_eq!(r.status.as_deref(), Some("Optimal"));
        assert_eq!(r.objective, Some(16.0));
        // Phases sum exactly to the flow wall (unattributed absorbs).
        let total: u64 = r.phases.iter().map(|p| p.total_us).sum();
        assert_eq!(total, r.wall_us);
        assert!(r.phases.iter().any(|p| p.name == "milp-solve"));
        assert_eq!(r.workers.len(), 1);
        assert_eq!(r.workers[0].nodes, 2);
        // Cut family attribution: 2.5 split 3:1 gomory:cover.
        let gom = r.features.iter().find(|f| f.name == "cuts:gomory").unwrap();
        assert!((gom.value - 2.5 * 0.75).abs() < 1e-9);
        assert_eq!(r.cut_rounds.len(), 1);
        assert!(r.cut_rounds[0].warm);
        assert_eq!(r.cut_rounds[0].lp_iters, 17);
        // Incumbent improvement 20 -> 16 attributed to branch.
        let inc = r
            .features
            .iter()
            .find(|f| f.name == "incumbents:branch")
            .unwrap();
        assert!((inc.value - 4.0).abs() < 1e-9);
        assert!(r.top_feature.is_some());
        assert!(r.warm.as_ref().unwrap().skip_reason.is_none());
        assert!(!r.diagnosis.is_empty());
        let text = r.render();
        assert!(text.contains("phase attribution"));
        assert!(text.contains("top feature"));
        assert!(text.contains("warm      17 iters"));
    }

    #[test]
    fn json_twin_parses_and_roundtrips_through_chrome() {
        let _l = test_lock();
        let trace = sample_trace();
        let direct = build(&trace);
        let js = direct.to_json();
        let v = parse(&js).expect("report JSON parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(REPORT_SCHEMA));
        assert!(v.get("phases").and_then(Value::as_arr).is_some());
        assert!(js.contains("\"warm\": true, \"lp_iters\": 17"));
        // Re-ingest the Chrome export and rebuild: same attribution.
        let chrome = crate::chrome::to_chrome_trace(&trace);
        let again = build(&trace_from_chrome(&chrome).expect("chrome parses"));
        assert_eq!(again.status, direct.status);
        assert_eq!(again.phases, direct.phases);
        assert_eq!(again.workers, direct.workers);
        assert_eq!(again.top_feature, direct.top_feature);
        assert_eq!(again.cut_rounds, direct.cut_rounds);
    }

    /// An event at `ts_us` on `lane`.
    fn ev(ts_us: u64, lane: u32, kind: EventKind, name: &'static str, args: crate::Args) -> Event {
        Event {
            name: Cow::Borrowed(name),
            kind,
            ts_us,
            lane,
            args,
        }
    }

    /// A timed-out decomposition flow on lane 0: a refinement sub-solve
    /// (its worker on lane 1) before the main `milp-solve` span (its
    /// worker on lane 2) and a partition-bound sub-solve (lane 3) after
    /// it, each with solver instants of its own. The partition bound
    /// lifts the tree's final bound 50 to `final_bound`.
    fn decomposed_trace(final_bound: f64) -> Trace {
        use EventKind::{Begin, End, Instant, LaneName};
        let search = |warm: u64, root: f64, end: f64| -> crate::Args {
            vec![
                ("warm_attempts", warm.into()),
                ("warm_hits", warm.into()),
                ("warm_skip", "none".into()),
                ("root_bound", root.into()),
                ("best_bound", end.into()),
            ]
        };
        let objective = |v: f64| -> crate::Args { vec![("objective", v.into())] };
        let worker = |lane: u32, ts: u64| {
            [
                ev(ts, lane, LaneName("bb-worker-0".into()), "", vec![]),
                ev(ts + 1, lane, Begin, "node", vec![]),
                ev(ts + 2, lane, End, "node", vec![]),
            ]
        };
        let mut events = vec![ev(0, 0, Begin, "flow:test", vec![])];
        events.extend(worker(1, 1));
        events.extend([
            ev(4, 1, Instant, "incumbent-found", objective(80.0)),
            ev(5, 0, Instant, "search-stats", search(9, 70.0, 80.0)),
            ev(6, 0, Instant, "decompose-stitch", objective(60.0)),
            ev(10, 0, Begin, "milp-solve", vec![]),
            ev(
                11,
                0,
                Instant,
                "cut-round-bound",
                vec![
                    ("round", 0u64.into()),
                    ("obj_before", 45.0.into()),
                    ("obj_after", 46.0.into()),
                    ("clique", 2u64.into()),
                ],
            ),
        ]);
        events.extend(worker(2, 12));
        events.extend([
            ev(15, 2, Instant, "incumbent-found", objective(58.0)),
            ev(16, 2, Instant, "incumbent-found", objective(56.0)),
            ev(17, 0, Instant, "search-stats", search(120, 46.0, 50.0)),
            ev(20, 0, End, "milp-solve", vec![]),
        ]);
        events.extend(worker(3, 21));
        events.extend([
            ev(24, 3, Instant, "incumbent-found", objective(5.0)),
            ev(25, 0, Instant, "search-stats", search(3, 1.0, 2.0)),
            ev(
                26,
                0,
                Instant,
                "partition-bound",
                vec![("bound", 52.3.into()), ("groups_solved", 4u64.into())],
            ),
            ev(
                27,
                0,
                Instant,
                "milp-stats",
                vec![
                    ("status", "timed-out".into()),
                    ("objective", 56.0.into()),
                    ("best_bound", final_bound.into()),
                    ("gap_rel", ((56.0 - final_bound) / 56.0).into()),
                ],
            ),
            ev(30, 0, End, "flow:test", vec![]),
        ]);
        Trace { events, dropped: 0 }
    }

    fn feature<'r>(r: &'r SolveReport, name: &str) -> &'r Feature {
        r.features
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no {name} feature in {:?}", r.features))
    }

    #[test]
    fn solver_events_come_from_the_main_solve_only() {
        let r = build(&decomposed_trace(53.0));
        let warm = r.warm.as_ref().expect("search-stats");
        assert_eq!((warm.hits, warm.attempts), (120, 120));
        let branching = feature(&r, "branching");
        assert_eq!(branching.value, 4.0);
        assert_eq!(branching.detail, "bound 46.0000 -> 50.0000 in the tree");
        let incumbents: Vec<(f64, &str)> = r
            .incumbents
            .iter()
            .map(|i| (i.objective, i.source.as_str()))
            .collect();
        assert_eq!(
            incumbents,
            [(60.0, "lns"), (58.0, "branch"), (56.0, "branch")]
        );
        assert_eq!(feature(&r, "incumbents:branch").value, 4.0);
        assert_eq!(r.cut_rounds.len(), 1);
        assert_eq!(r.workers.len(), 1);
        assert_eq!(r.workers[0].nodes, 1);
    }

    #[test]
    fn partition_bound_lift_is_its_own_feature() {
        let lifted = build(&decomposed_trace(53.0));
        let pb = feature(&lifted, "decompose:partition-bound");
        assert_eq!(pb.kind, "tree-bound");
        assert_eq!(pb.value, 3.0);
        // A partition bound that lifts nothing is still listed.
        let flat = build(&decomposed_trace(50.0));
        assert_eq!(feature(&flat, "decompose:partition-bound").value, 0.0);
        assert_eq!(feature(&flat, "branching").value, 4.0);
    }

    #[test]
    fn timed_out_solve_states_its_open_gap() {
        let r = build(&decomposed_trace(42.0));
        assert_eq!(
            r.diagnosis[0], "solve timed out after 0 ms with a 25.0% gap open",
            "{:?}",
            r.diagnosis
        );
    }
}
