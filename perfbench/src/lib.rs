//! # pipemap-perfbench
//!
//! The repository's benchmark: two closed-loop workloads over the
//! pipemap flows, each run in its own process with one solver thread.
//! A run measures end-to-end metrics with tracing off; a traced run
//! (`--trace 1`) alternates untraced and traced rounds and reports the
//! per-layer metrics from the benchmark's own spans around public calls
//! plus the spans the program already emits. See `README.md` beside
//! this crate for the workloads, the metrics and why each was chosen.

use std::collections::BTreeMap;
use std::time::Instant;

pub mod affinity;
pub mod frontend;
pub mod metrics;
pub mod prove;
pub mod search;
pub mod stimulus;
pub mod sweep;
pub mod trace;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MILP-map `run_flow` to a proof of optimality, and an incremental
    /// `run_sweep` over an II list and a weight path.
    Prove,
    /// A fixed node budget on the models that time out.
    Search,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Prove, Workload::Search];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Prove => "prove",
            Workload::Search => "search",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's designs, or tiny ones for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The designs the benchmark is defined on.
    Full,
    /// Small stand-ins that finish in well under a second.
    Tiny,
}

/// What one pass over a workload's operations produced.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Seconds inside the timed sections (what `wall_s` reports).
    pub timed_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Failure messages, one per failed check.
    pub problems: Vec<String>,
    /// Counts and directly measured timings, summed over the round.
    pub values: BTreeMap<String, f64>,
}

impl Round {
    /// Add `v` to the round's value `key`.
    pub fn add(&mut self, key: impl Into<String>, v: f64) {
        *self.values.entry(key.into()).or_default() += v;
    }

    /// Close one operation: it failed when any of its checks did.
    pub fn finish_op(&mut self, name: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{name}: {p}")));
        }
    }

    /// Time `f` into [`Round::timed_s`].
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.timed_s += dt;
        (out, dt)
    }
}

/// A workload ready to run rounds.
pub trait Bench {
    /// Run every operation of the workload once, checking each result.
    fn round(&mut self, out: &mut Round);
}

/// Build a workload's inputs from `seed` (the set-up `setup_s` times).
///
/// # Errors
///
/// Returns a message when a design cannot be generated or prepared.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        Workload::Prove => Box::new(prove::Prove::setup(size, seed)?),
        Workload::Search => Box::new(search::Search::setup(size, seed)?),
    })
}

/// The metrics of one round, with where and whether it was traced.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Recorded with tracing on.
    pub traced: bool,
    /// CPU the round was pinned to (0 when pinning is unavailable).
    pub cpu: usize,
    /// Seconds in the timed sections.
    pub timed_s: f64,
    /// Peak resident set of the round and the set-up burst before it, in
    /// MiB (the process's peak so far where it cannot be reset).
    pub peak_rss_mb: f64,
    /// Per-layer metric values of this round.
    pub metrics: BTreeMap<String, f64>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up, with the CPU it ran on.
    pub setup_s: Vec<(usize, f64)>,
    /// Every round, in execution order.
    pub rounds: Vec<RoundStats>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, plus rounds whose counts did not repeat.
    pub failed: u64,
    /// Rounds whose deterministic counts differed from the first round.
    pub mismatches: u64,
    /// Every failure message.
    pub problems: Vec<String>,
    /// The traced rounds' spans, nested (parents index this list).
    pub spans: Vec<trace::Span>,
}

/// Counts that must repeat exactly from round to round with one solver
/// thread.
pub const DETERMINISTIC: [&str; 5] = ["milp.nodes", "milp.lp_iters", "bound_gap", "luts", "ffs"];

/// Run rounds of `bench` for about `seconds` (one round at least),
/// calling `before_round` with the round's CPU ahead of each. Rounds
/// rotate over the allowed CPUs (see [`affinity`]). With `traced`, rounds
/// alternate untraced / traced, starting untraced, each pair on one CPU,
/// and end on a traced round.
pub fn measure(
    bench: &mut dyn Bench,
    seconds: f64,
    traced: bool,
    before_round: &mut dyn FnMut(usize),
) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let cpus = affinity::allowed_cpus();
    loop {
        let k = out.rounds.len();
        let slot = if traced { k / 2 } else { k };
        let cpu = match cpus.get(slot % cpus.len().max(1)) {
            Some(&c) if affinity::pin(c) => c,
            _ => 0,
        };
        before_round(cpu);
        // Each round's own memory peak. The workload's inputs stay
        // resident, so they count; the throwaway set-ups timed in the
        // burst do not.
        reset_peak_rss();
        let on = traced && k % 2 == 1;
        let mark = trace::len();
        if on {
            trace::start();
        }
        let t0 = Instant::now();
        let mut r = Round::default();
        bench.round(&mut r);
        walls.push(t0.elapsed().as_secs_f64());
        let peak = peak_rss_mb();
        let mut spans = Vec::new();
        if on {
            trace::stop();
            spans = trace::spans_since(mark);
            trace::nest(&mut spans);
        }
        let m = metrics::round_metrics(&r, on.then_some(spans.as_slice()));
        if let Some(first) = out.rounds.first() {
            let differs: Vec<&str> = DETERMINISTIC
                .into_iter()
                .filter(|key| first.metrics.get(*key) != m.get(*key))
                .collect();
            if !differs.is_empty() {
                out.mismatches += 1;
                out.failed += 1;
                out.problems.push(format!(
                    "round {k}: counts differ from round 0: {differs:?}"
                ));
            }
        }
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.problems.extend(r.problems);
        let base = out.spans.len();
        out.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        out.rounds.push(RoundStats {
            traced: on,
            cpu,
            timed_s: r.timed_s,
            peak_rss_mb: peak,
            metrics: m,
        });
        // Stop when the next round would end past the budget more often
        // than not (half a round of expected overrun at most).
        let n = out.rounds.len();
        let next = median(&walls);
        let done = start.elapsed().as_secs_f64() + 0.5 * next >= seconds && (!traced || n % 2 == 0);
        if done {
            break;
        }
    }
    affinity::restrict(&cpus);
    out
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Reset this process's `VmHWM` to its current resident set (Linux 4.0
/// and later). Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of timed set-ups before the run and again before every round.
/// Most set-ups take milliseconds, so `setup_s` is the median of hundreds
/// of them, sampled across the whole run as the rounds are.
pub const SETUP_BURST_S: f64 = 0.1;

/// Run a workload end to end: a burst of set-ups whose last one is
/// measured (the first, cold set-ups are not timed), then rounds for
/// about `seconds`, each preceded by a burst of timed set-ups.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let burst = |times: &mut Vec<f64>| -> Result<Box<dyn Bench>, String> {
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            let b = setup(workload, size, seed)?;
            times.push(t0.elapsed().as_secs_f64());
            if started.elapsed().as_secs_f64() >= SETUP_BURST_S {
                return Ok(b);
            }
        }
    };
    let mut bench = burst(&mut Vec::new())?;
    let mut setup_s = Vec::new();
    let mut out = measure(bench.as_mut(), seconds, traced, &mut |cpu| {
        let mut times = Vec::new();
        // The same inputs already set up once, so this cannot fail.
        drop(burst(&mut times));
        setup_s.extend(times.into_iter().map(|t| (cpu, t)));
    });
    out.setup_s = setup_s;
    Ok(out)
}

/// The result object: `correct`, `attempted`, `failed` and every
/// end-to-end metric (untraced) or every per-layer metric (traced).
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let values = if traced {
        metrics::per_layer_values(out)
    } else {
        metrics::end_to_end_values(out)
    };
    let defs = if traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(&d.name).copied().unwrap_or(0.0);
            // Adding 0.0 turns an empty sum's -0.0 into 0.0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// A seeded permutation of `0..n`: the order a round visits designs.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = pipemap_ir::XorShift64::new(seed ^ 0x005E_ED0F_0DE5);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Add one MILP solve's counters to a round.
pub(crate) fn add_solve(
    out: &mut Round,
    nodes: usize,
    lp_iters: usize,
    s: &pipemap_milp::SolverStats,
) {
    let counts = [
        ("milp.nodes", nodes),
        ("milp.lp_iters", lp_iters),
        ("milp.cut_rounds", s.cut_rounds),
        (
            "milp.cuts_active",
            s.clique_cuts + s.cover_cuts + s.implication_cuts + s.gomory_cuts,
        ),
        ("milp.presolve_rows_removed", s.presolve_rows_removed),
        ("milp.probe_fixings", s.probe_fixings),
        ("milp.cliques", s.clique_table),
        ("milp.orbits", s.symmetry_orbits),
        ("milp.orbital_fixings", s.orbital_fixings),
        ("milp.implication_fixings", s.implication_fixings),
        ("_milp.warm_attempts", s.warm_attempts),
        ("_milp.warm_hits", s.warm_hits),
    ];
    for (k, v) in counts {
        out.add(k, v as f64);
    }
}

/// Add a re-solve context's reuse counters to a round.
pub(crate) fn add_resolve(out: &mut Round, r: &pipemap_milp::ResolveStats) {
    let counts = [
        ("resolve.solves", r.solves),
        ("resolve.cold_solves", r.cold_solves),
        ("resolve.cached_results", r.cached_results),
        ("resolve.incumbent_seeds", r.incumbent_seeds),
        ("resolve.warm_hits", r.warm_hits),
    ];
    for (k, v) in counts {
        out.add(k, v as f64);
    }
}

/// The static verifier's verdict on an implementation, as failure text.
pub(crate) fn implementation_problem(
    dfg: &pipemap_ir::Dfg,
    target: &pipemap_ir::Target,
    imp: &pipemap_netlist::Implementation,
) -> Option<String> {
    let diags = pipemap_verify::check_implementation(dfg, target, imp);
    diags.has_errors().then(|| {
        let codes: Vec<&str> = diags.codes().into_iter().map(|c| c.as_str()).collect();
        format!(
            "check_implementation: {} error(s) {codes:?}",
            diags.error_count()
        )
    })
}
