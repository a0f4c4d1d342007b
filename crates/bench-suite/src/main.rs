//! MILP solver benchmark harness: runs the mapping-aware MILP flow on
//! the Table 1 suite twice in the same process — once with the cold
//! serial solver (no presolve, no warm starts, no structural analysis,
//! one thread) and once with the full optimized pipeline (presolve, warm
//! starts, probing, certified cuts, Gomory tableau cuts and
//! feedback-guided incumbent decomposition) — asserts the objectives are
//! identical, and writes the timings plus solver counters to
//! `BENCH_milp.json`.
//!
//! Exit status is non-zero when any benchmark's optimized objective
//! diverges from the baseline: the performance work must never change
//! the optimum.
//!
//! The `resolve` sub-mode instead benchmarks the *incremental re-solve
//! engine*: it replays an II × K × weight design-space sweep twice —
//! once rebuilding and cold-solving every point, once editing one
//! `ResolveContext` per structural base in place — asserts the two
//! paths report identical objectives on every completed point, and
//! writes `BENCH_resolve.json`.
//!
//! The `paper` sub-mode prints one of the paper's tables, figures or
//! ablations (see `pipemap_bench_suite::paper`).
//!
//! ```text
//! cargo run -p pipemap-bench-suite -- --quick --jobs 2
//! cargo run -p pipemap-bench-suite -- resolve --quick
//! cargo run --release -p pipemap-bench-suite -- paper table1 --time-limit 60
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

mod compare;

use pipemap_bench_suite::paper::Experiment;
use pipemap_bench_suite::{all, by_name, Benchmark};
use pipemap_core::{
    milp_map_model_size_raw, run_flow, run_sweep, Flow, FlowOptions, FlowResult, MilpStats,
    SweepConfig,
};
use pipemap_milp::Status;

struct Args {
    mode: Mode,
    quick: bool,
    jobs: usize,
    out: String,
    time_limit: u64,
    only: Option<String>,
    skip_cold: bool,
    overhead_check: bool,
    experiment: Option<Experiment>,
    compare_files: Vec<String>,
    wall_tol_pct: f64,
    allow_missing: bool,
    no_history: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Milp,
    Resolve,
    Compare,
    Paper,
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: Mode::Milp,
        quick: false,
        jobs: 1,
        out: String::new(), // defaulted per mode below
        time_limit: 0,      // 0 = pick by mode below
        only: None,
        skip_cold: false,
        overhead_check: false,
        experiment: None,
        compare_files: Vec::new(),
        wall_tol_pct: 50.0,
        allow_missing: false,
        no_history: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "milp" => args.mode = Mode::Milp,
            "resolve" => args.mode = Mode::Resolve,
            "compare" => args.mode = Mode::Compare,
            "paper" => args.mode = Mode::Paper,
            "--wall-tol-pct" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--wall-tol-pct needs a percentage"));
                args.wall_tol_pct = v
                    .parse()
                    .unwrap_or_else(|_| usage("--wall-tol-pct needs a number"));
            }
            "--allow-missing" => args.allow_missing = true,
            "--no-history" => args.no_history = true,
            "--quick" => args.quick = true,
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| usage("--jobs needs a value"));
                args.jobs = v
                    .parse()
                    .unwrap_or_else(|_| usage("--jobs needs an integer"));
            }
            "--out" => {
                args.out = it.next().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--bench" => {
                args.only = Some(it.next().unwrap_or_else(|| usage("--bench needs a name")));
            }
            "--skip-cold" => args.skip_cold = true,
            "--overhead-check" => args.overhead_check = true,
            "--time-limit" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--time-limit needs seconds"));
                args.time_limit = v
                    .parse()
                    .unwrap_or_else(|_| usage("--time-limit needs an integer"));
            }
            "--help" | "-h" => {
                println!(
                    "pipemap-bench-suite: cold-vs-optimized MILP solve benchmark\n\n\
                     USAGE: pipemap-bench-suite [milp|resolve] [--quick] [--jobs N] [--out PATH] [--time-limit S]\n\
                     \x20      pipemap-bench-suite paper EXPERIMENT [--time-limit S] [--bench NAME]\n\n\
                     milp           cold-vs-optimized solver A/B over the Table 1 suite (default)\n\
                     resolve        incremental re-solve engine benchmark: II*K*weight sweep\n\
                     \x20              cold vs in-place re-solves\n\
                     paper EXPERIMENT  print one of the paper's artifacts: table1, table2, fig1,\n\
                     \x20              fig2, ablation_alpha_beta, ablation_k, ablation_ii,\n\
                     \x20              ablation_scaling (--bench filters table1)\n\
                     compare BASELINE.json CANDIDATE.json\n\
                     \x20              regression gate between two milp-mode reports; exits non-zero\n\
                     \x20              when the candidate regresses (status, objective, gap, model\n\
                     \x20              size tight; wall-clock and node counts generous)\n\
                     --wall-tol-pct P  compare: extra wall-clock allowance in percent (default 50)\n\
                     --allow-missing   compare: skip baseline benchmarks absent from the candidate\n\
                     --no-history   skip appending this run to results/bench_history.jsonl\n\
                     --quick        kernels only with a short solver budget (CI smoke)\n\
                     --jobs N       worker threads for the optimized pass, capped at the core count (default 1; 0 = all cores)\n\
                     --out PATH     JSON report path (default BENCH_milp.json / BENCH_resolve.json)\n\
                     --bench NAME   run a single benchmark by Table 1 name\n\
                     --time-limit S per-solve wall-clock budget in seconds\n\
                     --overhead-check  assert disabled-mode tracing overhead and\n\
                     \x20              metrics-enabled-but-unexported overhead are each < 2%, then exit"
                );
                std::process::exit(0);
            }
            other if args.mode == Mode::Compare && !other.starts_with('-') => {
                args.compare_files.push(other.to_string());
            }
            other
                if args.mode == Mode::Paper
                    && args.experiment.is_none()
                    && !other.starts_with('-') =>
            {
                args.experiment = Some(
                    Experiment::from_name(other)
                        .unwrap_or_else(|| usage(&format!("unknown paper experiment {other}"))),
                );
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.time_limit == 0 {
        args.time_limit = match args.mode {
            Mode::Milp => {
                if args.quick {
                    20
                } else {
                    60
                }
            }
            Mode::Resolve => {
                if args.quick {
                    5
                } else {
                    15
                }
            }
            Mode::Compare => 1,
            Mode::Paper => args.experiment.map_or(0, Experiment::default_limit_secs),
        };
    }
    if args.out.is_empty() {
        args.out = match args.mode {
            Mode::Milp | Mode::Compare | Mode::Paper => "BENCH_milp.json".to_string(),
            Mode::Resolve => "BENCH_resolve.json".to_string(),
        };
    }
    if args.jobs == 0 {
        args.jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("pipemap-bench-suite: {msg} (try --help)");
    std::process::exit(2);
}

/// Assert the cost of *disabled* tracing instrumentation is negligible:
/// run one benchmark with tracing enabled to count how many events its
/// instrumentation sites emit, measure the per-call cost of a disabled
/// site (one relaxed atomic load), and bound the disabled-mode overhead
/// by `per_call * events / wall`. Exits non-zero above 2%.
fn overhead_check(benches: &[Benchmark], budget: Duration) -> ! {
    let b = &benches[0];
    let opts = FlowOptions {
        time_limit: budget,
        ..FlowOptions::default()
    };
    pipemap_obs::enable();
    let start = Instant::now();
    let run = run_flow(&b.dfg, &b.target, Flow::MilpMap, &opts);
    let wall = start.elapsed();
    pipemap_obs::disable();
    let trace = pipemap_obs::take();
    if let Err(e) = run {
        eprintln!("[bench] overhead-check: {} failed: {e}", b.name);
        std::process::exit(1);
    }
    // Spans emit two events per site; counting one disabled check per
    // *event* therefore over-estimates the number of sites hit.
    let sites = trace.events.len() + trace.dropped;

    const PROBES: u32 = 10_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBES {
        let g = pipemap_obs::span("overhead-probe");
        std::hint::black_box(&g);
    }
    let per_call_ns = t0.elapsed().as_nanos() as f64 / f64::from(PROBES);

    let overhead = per_call_ns * sites as f64 / (wall.as_nanos() as f64).max(1.0);
    eprintln!(
        "[bench] overhead-check: {} emitted {sites} event(s) in {:.1} ms; \
         disabled site costs {per_call_ns:.1} ns -> {:.4}% of wall (limit 2%)",
        b.name,
        ms(wall),
        overhead * 100.0
    );
    if overhead >= 0.02 {
        eprintln!("[bench] overhead-check FAILED: disabled-mode tracing overhead >= 2%");
        std::process::exit(1);
    }

    // Second probe: metrics enabled but never exported. Run the same
    // benchmark with the registry live to count how many counter
    // increments and histogram/gauge records the solve performs, measure
    // the per-record cost (atomic fetch-adds on a leaked handle), and
    // bound the overhead by `per_record * updates / wall`.
    use pipemap_obs::metrics::{self, MetricValue};
    metrics::reset();
    metrics::enable();
    let start = Instant::now();
    let run = run_flow(&b.dfg, &b.target, Flow::MilpMap, &opts);
    let wall_m = start.elapsed();
    metrics::disable();
    let snap = metrics::snapshot();
    metrics::reset();
    if let Err(e) = run {
        eprintln!("[bench] overhead-check (metrics): {} failed: {e}", b.name);
        std::process::exit(1);
    }
    // Gauges overwrite rather than accumulate, so their update counts
    // are invisible in the snapshot; counting each as one update
    // under-states them, but gauge sets are O(1) per solve while
    // counters and histograms fire per LP iteration / node / cut.
    let updates: u64 = snap
        .metrics
        .iter()
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            MetricValue::Gauge(_) => 1,
            MetricValue::Histogram(h) => h.count,
        })
        .sum();
    let h = metrics::histogram("overhead-probe");
    let t0 = Instant::now();
    for i in 0..PROBES {
        h.record(f64::from(i % 97));
    }
    let per_record_ns = t0.elapsed().as_nanos() as f64 / f64::from(PROBES);
    metrics::reset();
    let m_overhead = per_record_ns * updates as f64 / (wall_m.as_nanos() as f64).max(1.0);
    eprintln!(
        "[bench] overhead-check: {} performed {updates} metric update(s) in {:.1} ms; \
         one record costs {per_record_ns:.1} ns -> {:.4}% of wall (limit 2%)",
        b.name,
        ms(wall_m),
        m_overhead * 100.0
    );
    if m_overhead >= 0.02 {
        eprintln!("[bench] overhead-check FAILED: metrics-enabled overhead >= 2%");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// One measured solve: wall-clock plus the solver counters.
struct Measured {
    name: &'static str,
    wall: Duration,
    milp: MilpStats,
}

fn measure(b: &Benchmark, opts: &FlowOptions) -> Result<Measured, String> {
    let start = Instant::now();
    let r: FlowResult =
        run_flow(&b.dfg, &b.target, Flow::MilpMap, opts).map_err(|e| format!("{}: {e}", b.name))?;
    let wall = start.elapsed();
    let milp = r
        .milp
        .ok_or_else(|| format!("{}: MILP flow returned no solver stats", b.name))?;
    Ok(Measured {
        name: b.name,
        wall,
        milp,
    })
}

/// Run `f` over the benchmarks on `jobs` scoped worker threads (atomic
/// work index), collecting results back in suite order.
///
/// The worker count is capped at the machine's available parallelism:
/// fanning more concurrent time-limited solves than there are cores
/// time-slices each benchmark's wall-clock budget into a fraction of
/// real compute, while the serial cold baseline enjoys a whole core —
/// distorting every per-benchmark wall, node count, and gap in the
/// comparison. `--jobs` is an upper bound, not a demand.
fn fan_out<F>(benches: &[Benchmark], jobs: usize, f: F) -> Vec<Result<Measured, String>>
where
    F: Fn(&Benchmark) -> Result<Measured, String> + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Measured, String>>>> =
        benches.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1).min(benches.len().max(1)).min(cores) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(b) = benches.get(i) else { break };
                let r = f(b);
                *slots[i].lock().expect("slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot").expect("worker filled slot"))
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// JSON has no infinities; map them to `null`.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `resolve` sub-mode: benchmark the incremental re-solve engine.
fn resolve_main(args: &Args) -> ! {
    let mut benches = all();
    if args.quick {
        benches.retain(|b| b.name == "CLZ");
    } else if args.only.is_none() {
        // The sweep set: four model shapes where the engine's reuse
        // levers genuinely apply — II does not bind these kernels, so
        // consecutive II values formulate identical bases and dedup can
        // replay them. On II-binding models (e.g. GSM) every point that
        // hits the per-point budget costs the full budget on *both*
        // sides, so sweep wall-clock is cap-bound and no re-solve
        // engine can improve it; `--bench NAME` still covers them.
        benches.retain(|b| ["CLZ", "XORR", "GFMUL", "CORDIC"].contains(&b.name));
    }
    if let Some(name) = &args.only {
        benches.retain(|b| b.name.eq_ignore_ascii_case(name));
        if benches.is_empty() {
            usage(&format!("unknown benchmark {name}"));
        }
    }
    let budget = Duration::from_secs(args.time_limit);
    let cfg_base = SweepConfig {
        time_limit: budget,
        jobs: args.jobs,
        ..SweepConfig::default()
    };
    let cfg_base = if args.quick {
        SweepConfig {
            ii_values: vec![1, 2],
            k_values: vec![4],
            // A monotone path in weight space: each point's optimum
            // seeds the next as a near-optimal incumbent.
            weights: vec![(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.25, 0.75, 0.0)],
            ..cfg_base
        }
    } else {
        cfg_base
    };

    let mut errors: Vec<String> = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    let mut rows = String::new();
    let (mut grand_cold, mut grand_incr) = (0.0f64, 0.0f64);
    let mut first_row = true;
    eprintln!(
        "[bench] resolve: {} benchmark(s), {} sweep point(s) each, {} s/point budget",
        benches.len(),
        cfg_base.ii_values.len() * cfg_base.k_values.len() * cfg_base.weights.len(),
        args.time_limit
    );
    for b in &benches {
        let warm = match run_sweep(
            &b.dfg,
            &b.target,
            &SweepConfig {
                incremental: true,
                ..cfg_base.clone()
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("{}: incremental sweep: {e}", b.name));
                continue;
            }
        };
        let cold = match run_sweep(
            &b.dfg,
            &b.target,
            &SweepConfig {
                incremental: false,
                ..cfg_base.clone()
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("{}: cold sweep: {e}", b.name));
                continue;
            }
        };
        let cold_ms = ms(cold.total_wall);
        let incr_ms = ms(warm.total_wall) + ms(warm.setup_wall);
        grand_cold += cold_ms;
        grand_incr += incr_ms;
        let rs = warm.resolve.unwrap_or_default();
        let mut points = String::new();
        for (i, (w, c)) in warm.points.iter().zip(cold.points.iter()).enumerate() {
            // The equality contract binds completed searches: both
            // points optimal with different objectives is a bug. A
            // timed-out point returns an incumbent, recorded as null
            // match rather than compared.
            let comparable = w.status == Status::Optimal && c.status == Status::Optimal;
            let matched = if comparable {
                let m = (w.objective - c.objective).abs() <= 1e-6;
                if !m {
                    mismatches.push(format!(
                        "{} ii={} k={} alpha={}: incremental {} vs cold {}",
                        b.name, w.ii, w.k, w.alpha, w.objective, c.objective
                    ));
                }
                m.to_string()
            } else {
                "null".to_string()
            };
            points.push_str(&format!(
                "        {{\"ii\": {}, \"ii_achieved\": {}, \"k\": {}, \"alpha\": {}, \"beta\": {}, \
                 \"gamma\": {}, \"status\": \"{}\", \"objective\": {}, \"cold_objective\": {}, \
                 \"wall_ms\": {:.3}, \"cold_wall_ms\": {:.3}, \"warm_hit\": {}, \
                 \"objective_match\": {matched}}}{}\n",
                w.ii,
                w.ii_achieved,
                w.k,
                w.alpha,
                w.beta,
                w.gamma,
                w.status,
                jnum(w.objective),
                jnum(c.objective),
                ms(w.wall),
                ms(c.wall),
                w.warm_hit,
                if i + 1 < warm.points.len() { "," } else { "" },
            ));
        }
        rows.push_str(&format!(
            "    {}{{\"name\": \"{}\", \"points\": [\n{points}      ],\n      \
             \"cold_total_ms\": {cold_ms:.3}, \"incremental_total_ms\": {:.3}, \
             \"setup_ms\": {:.3}, \"speedup\": {:.3}, \"contexts\": {}, \
             \"bases_deduped\": {},\n      \
             \"resolve\": {{\"solves\": {}, \"cached_results\": {}, \"cold_solves\": {}, \
             \"incumbent_seeds\": {}}}}}\n",
            if first_row { "" } else { "," },
            json_escape(b.name),
            ms(warm.total_wall),
            ms(warm.setup_wall),
            cold_ms / incr_ms.max(1e-9),
            warm.contexts,
            warm.bases_deduped,
            rs.solves,
            rs.cached_results,
            rs.cold_solves,
            rs.incumbent_seeds,
        ));
        first_row = false;
        eprintln!(
            "[bench] {:>8}: cold {cold_ms:>9.1} ms -> incremental {incr_ms:>9.1} ms \
             ({:.2}x, {} base(s) deduped, incumbent seeds {}, cached {})",
            b.name,
            cold_ms / incr_ms.max(1e-9),
            warm.bases_deduped,
            rs.incumbent_seeds,
            rs.cached_results,
        );
    }

    let speedup = grand_cold / grand_incr.max(1e-9);
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!(
        "  \"suite\": \"{}\",\n",
        if args.quick { "quick" } else { "full" }
    ));
    j.push_str("  \"mode\": \"resolve\",\n");
    j.push_str(&format!("  \"jobs\": {},\n", args.jobs));
    j.push_str(&format!("  \"time_limit_s\": {},\n", args.time_limit));
    j.push_str(&format!("  \"cold_total_ms\": {grand_cold:.3},\n"));
    j.push_str(&format!("  \"incremental_total_ms\": {grand_incr:.3},\n"));
    j.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
    j.push_str(&format!(
        "  \"objectives_match\": {},\n",
        mismatches.is_empty()
    ));
    j.push_str("  \"benchmarks\": [\n");
    j.push_str(&rows);
    j.push_str("  ],\n");
    j.push_str("  \"errors\": [");
    for (i, e) in errors.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("\"{}\"", json_escape(e)));
    }
    j.push_str("]\n}\n");
    if let Err(e) = std::fs::write(&args.out, &j) {
        eprintln!("[bench] cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    if !args.no_history {
        compare::append_history(&format!(
            "{{\"ts\": {}, \"mode\": \"resolve\", \"suite\": \"{}\", \"jobs\": {}, \
             \"time_limit_s\": {}, \"cold_total_ms\": {grand_cold:.3}, \
             \"incremental_total_ms\": {grand_incr:.3}, \"speedup\": {speedup:.3}, \
             \"objectives_match\": {}, \
             \"errors\": {}}}",
            compare::unix_ts(),
            if args.quick { "quick" } else { "full" },
            args.jobs,
            args.time_limit,
            mismatches.is_empty(),
            errors.len(),
        ));
    }
    eprintln!(
        "[bench] total: cold {grand_cold:.1} ms, incremental {grand_incr:.1} ms, \
         speedup {speedup:.2}x -> {}",
        args.out
    );
    for m in &mismatches {
        eprintln!("[bench] OBJECTIVE MISMATCH {m}");
    }
    for e in &errors {
        eprintln!("[bench] ERROR {e}");
    }
    if !mismatches.is_empty() || !errors.is_empty() {
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// The `paper` sub-mode: print one of the paper's artifacts.
fn paper_main(args: &Args) {
    let experiment = args.experiment.unwrap_or_else(|| {
        let names: Vec<&str> = Experiment::ALL.iter().map(|e| e.name()).collect();
        usage(&format!("paper needs an experiment: {}", names.join(", ")))
    });
    if let Some(name) = &args.only {
        if experiment != Experiment::Table1 {
            usage("--bench applies to paper table1 only");
        }
        if by_name(name).is_none() {
            usage(&format!("unknown benchmark {name}"));
        }
    }
    experiment.print(Duration::from_secs(args.time_limit), args.only.as_deref());
}

fn main() {
    let args = parse_args();
    if args.mode == Mode::Compare {
        let [base, cand] = args.compare_files.as_slice() else {
            usage("compare needs exactly two report paths: BASELINE.json CANDIDATE.json");
        };
        compare::compare_main(
            base,
            cand,
            &compare::CompareOpts {
                wall_tol_pct: args.wall_tol_pct,
                allow_missing: args.allow_missing,
            },
        );
    }
    if args.mode == Mode::Resolve {
        resolve_main(&args);
    }
    if args.mode == Mode::Paper {
        paper_main(&args);
        return;
    }
    let mut benches = all();
    if args.quick {
        // CI smoke set: the two benchmarks whose MILP-map models the
        // optimized solver proves optimal within seconds — CLZ (cold
        // times out; shows the warm-start/presolve win) and GSM (both
        // passes finish; exercises the objective-equivalence check).
        benches.retain(|b| b.name == "CLZ" || b.name == "GSM");
    }
    if let Some(name) = &args.only {
        benches.retain(|b| b.name.eq_ignore_ascii_case(name));
        if benches.is_empty() {
            usage(&format!("unknown benchmark {name}"));
        }
    }
    let budget = Duration::from_secs(args.time_limit);
    if args.overhead_check {
        overhead_check(&benches, budget);
    }

    // Model-size audit: build (without solving) each benchmark's
    // MILP-map model over the raw K-feasible cut pool — the enumeration
    // the priority-cut analysis starts from, with no pruning of any
    // kind — so the report can state how much smaller the certified
    // pruning makes the model a solver actually sees. Indexed by suite
    // order.
    let size_opts = FlowOptions::default();
    let unpruned: Vec<Option<(usize, usize, usize)>> = benches
        .iter()
        .map(|b| milp_map_model_size_raw(&b.dfg, &b.target, &size_opts).ok())
        .collect();

    // Phase 1: the serial cold baseline — one thread, no presolve, no
    // warm starts, benchmarks strictly one after another.
    let cold_opts = FlowOptions {
        time_limit: budget,
        jobs: 1,
        presolve: false,
        warm_start: false,
        probing: false,
        cuts: false,
        // Both passes solve the *same* certified-pruned model: the
        // cold/optimized delta then measures solver features alone, and
        // `objectives_match` compares like against like. The size audit
        // above holds the raw-pool yardstick.
        priority_cuts: true,
        ..FlowOptions::default()
    };
    let cold_start = Instant::now();
    let cold: Vec<Result<Measured, String>> = if args.skip_cold {
        Vec::new()
    } else {
        eprintln!(
            "[bench] phase 1/2: serial cold baseline over {} benchmarks",
            benches.len()
        );
        benches.iter().map(|b| measure(b, &cold_opts)).collect()
    };
    let cold_total = cold_start.elapsed();

    // Phase 2: the optimized pipeline — presolve + dual-simplex warm
    // starts, benchmarks fanned across `--jobs` workers. Each solve
    // stays single-threaded: outer (per-benchmark) parallelism composes
    // better than oversubscribing the cores with solver threads, and it
    // keeps the per-solve node counts comparable to the baseline. The
    // CLI exposes the solver's own thread count for single solves.
    let opt_opts = FlowOptions {
        time_limit: budget,
        jobs: 1,
        presolve: true,
        warm_start: true,
        priority_cuts: true,
        gomory_cuts: true,
        decompose: true,
        ..FlowOptions::default()
    };
    let workers = args
        .jobs
        .max(1)
        .min(benches.len().max(1))
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    eprintln!(
        "[bench] phase 2/2: optimized pass (presolve + warm starts, --jobs {}, {} worker(s))",
        args.jobs, workers
    );
    let opt_start = Instant::now();
    let optimized = fan_out(&benches, args.jobs, |b| measure(b, &opt_opts));
    let opt_total = opt_start.elapsed();

    // Compare and report. The solver-equivalence contract only binds
    // completed searches: when both passes prove optimality the
    // objectives must be bit-identical, and a divergence fails the run.
    // A pass that hit its time budget returns an incumbent, not the
    // optimum, so those rows are recorded but not compared.
    let mut rows: Vec<(usize, Option<&Measured>, &Measured)> = Vec::new();
    let mut mismatches = Vec::new();
    let mut errors = Vec::new();
    for (i, o) in optimized.iter().enumerate() {
        let o = match o {
            Ok(o) => o,
            Err(e) => {
                errors.push(e.clone());
                continue;
            }
        };
        let c = match cold.get(i) {
            Some(Ok(c)) => Some(c),
            Some(Err(e)) => {
                errors.push(e.clone());
                continue;
            }
            None => None,
        };
        if let Some(c) = c {
            let both_optimal = c.milp.status == Status::Optimal && o.milp.status == Status::Optimal;
            if both_optimal && (c.milp.objective - o.milp.objective).abs() > 1e-6 {
                mismatches.push(format!(
                    "{}: cold objective {} vs optimized {}",
                    c.name, c.milp.objective, o.milp.objective
                ));
            }
        }
        rows.push((i, c, o));
    }

    let speedup = cold_total.as_secs_f64() / opt_total.as_secs_f64().max(1e-9);
    // Speedup over the benchmarks the optimized pass proves optimal.
    // The cold wall-clock is capped at the per-solve budget, so this is
    // a *lower bound* on the true speedup whenever the cold pass timed
    // out (its real solve time is unknown but larger).
    let (mut comp_cold, mut comp_opt, mut comp_n) = (0.0f64, 0.0f64, 0usize);
    for (_, c, o) in &rows {
        if let Some(c) = c {
            if o.milp.status == Status::Optimal {
                comp_cold += c.wall.as_secs_f64();
                comp_opt += o.wall.as_secs_f64();
                comp_n += 1;
            }
        }
    }
    // No benchmark completed -> the ratio is 0/0 noise, not a bound;
    // the report says `null` rather than a meaningless number.
    let comp_speedup = (comp_n > 0 && comp_opt > 0.0).then(|| comp_cold / comp_opt);
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!(
        "  \"suite\": \"{}\",\n",
        if args.quick { "quick" } else { "full" }
    ));
    j.push_str(&format!("  \"jobs\": {},\n", args.jobs));
    j.push_str(&format!("  \"time_limit_s\": {},\n", args.time_limit));
    if !args.skip_cold {
        j.push_str(&format!("  \"cold_total_ms\": {:.3},\n", ms(cold_total)));
        j.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
        j.push_str(&format!("  \"completed_count\": {comp_n},\n"));
        j.push_str(&format!(
            "  \"completed_speedup_lower_bound\": {},\n",
            comp_speedup.map_or("null".to_string(), |s| format!("{s:.3}"))
        ));
    }
    j.push_str(&format!(
        "  \"optimized_total_ms\": {:.3},\n",
        ms(opt_total)
    ));
    j.push_str(&format!(
        "  \"objectives_match\": {},\n",
        mismatches.is_empty()
    ));
    j.push_str("  \"benchmarks\": [\n");
    for (i, (bi, c, o)) in rows.iter().enumerate() {
        let s = &o.milp.solver;
        // Unpruned model sizes come from the no-solve audit pass; a
        // benchmark whose audit build failed records `null` for them.
        let (uv, uc, ucuts) = unpruned[*bi].map_or_else(
            || ("null".to_string(), "null".to_string(), "null".to_string()),
            |(v, r, t)| (v.to_string(), r.to_string(), t.to_string()),
        );
        // No warm starts attempted -> the rate is undefined, not 0.
        let hit = s
            .warm_hit_rate()
            .map_or("null".to_string(), |h| format!("{h:.4}"));
        let gap = pipemap_milp::relative_gap(o.milp.objective, o.milp.best_bound);
        let mut curve = String::new();
        for (k, p) in s.convergence.iter().enumerate() {
            if k > 0 {
                curve.push_str(", ");
            }
            curve.push_str(&format!(
                "{{\"t_ms\": {:.3}, \"objective\": {}, \"bound\": {}, \"gap_rel\": {}}}",
                p.t_ms,
                jnum(p.objective),
                jnum(p.bound),
                p.gap_rel()
                    .map_or("null".to_string(), |g| format!("{g:.6}"))
            ));
        }
        let cold_part = match c {
            Some(c) => {
                // Both passes capped at the same budget -> the wall-clock
                // ratio says nothing about solver speed; record null
                // (matching the warm_hit_rate convention for "undefined").
                let both_timed_out =
                    c.milp.status == Status::TimedOut && o.milp.status == Status::TimedOut;
                let per_speedup = if both_timed_out {
                    "null".to_string()
                } else {
                    format!(
                        "{:.3}",
                        c.wall.as_secs_f64() / o.wall.as_secs_f64().max(1e-9)
                    )
                };
                format!(
                    "\"cold\": {{\"wall_ms\": {:.3}, \"nodes\": {}, \"lp_iterations\": {}, \
                     \"objective\": {}, \"status\": \"{}\"}},\n      \"speedup\": {per_speedup},\n      ",
                    ms(c.wall),
                    c.milp.nodes,
                    c.milp.lp_iterations,
                    jnum(c.milp.objective),
                    c.milp.status,
                )
            }
            None => String::new(),
        };
        let workers = s
            .nodes_per_worker
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"objective\": {}, \"best_bound\": {}, \
             \"mip_gap_rel\": {}, \"status\": \"{}\",\n      {}\
             \"optimized\": {{\"wall_ms\": {:.3}, \"nodes\": {}, \"lp_iterations\": {}, \
             \"milp_vars\": {}, \"milp_constraints\": {}, \
             \"cuts_enumerated\": {}, \"cuts_pruned\": {}, \
             \"milp_vars_unpruned\": {}, \"milp_constraints_unpruned\": {}, \"cuts_unpruned\": {}, \
             \"warm_attempts\": {}, \"warm_hits\": {}, \"warm_hit_rate\": {}, \
             \"presolve_rows_removed\": {}, \"presolve_cols_fixed\": {}, \
             \"presolve_bounds_tightened\": {}, \"presolve_coeffs_reduced\": {}, \
             \"probe_vars\": {}, \"probe_fixings\": {}, \"probe_implications\": {}, \
             \"clique_table\": {}, \"clique_cuts\": {}, \"cover_cuts\": {}, \"implication_cuts\": {}, \
             \"cut_rounds\": {}, \"cuts_aged_out\": {}, \"implication_fixings\": {}, \
             \"gomory_cuts\": {}, \"subproblems_solved\": {}, \
             \"stitched_incumbents\": {}, \"incumbent_source\": \"{}\", \
             \"warm_skip_reason\": {}, \
             \"nodes_per_worker\": [{}],\n      \"convergence\": [{}]}}}}{}\n",
            json_escape(o.name),
            jnum(o.milp.objective),
            jnum(o.milp.best_bound),
            gap.map_or("null".to_string(), |g| format!("{g:.6}")),
            o.milp.status,
            cold_part,
            ms(o.wall),
            o.milp.nodes,
            o.milp.lp_iterations,
            o.milp.variables,
            o.milp.constraints,
            o.milp.cuts_enumerated,
            o.milp.cuts_pruned,
            uv,
            uc,
            ucuts,
            s.warm_attempts,
            s.warm_hits,
            hit,
            s.presolve_rows_removed,
            s.presolve_cols_fixed,
            s.presolve_bounds_tightened,
            s.presolve_coeffs_reduced,
            s.probe_vars,
            s.probe_fixings,
            s.probe_implications,
            s.clique_table,
            s.clique_cuts,
            s.cover_cuts,
            s.implication_cuts,
            s.cut_rounds,
            s.cuts_aged_out,
            s.implication_fixings,
            s.gomory_cuts,
            o.milp.subproblems_solved,
            o.milp.stitched_incumbents,
            o.milp.incumbent_source,
            s.warm_skip_reason
                .map_or("null".to_string(), |r| format!("\"{}\"", json_escape(r))),
            workers,
            curve,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"errors\": [");
    for (i, e) in errors.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("\"{}\"", json_escape(e)));
    }
    j.push_str("]\n}\n");
    if let Err(e) = std::fs::write(&args.out, &j) {
        eprintln!("[bench] cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    if !args.no_history {
        // One line per run: enough to chart a trend or feed `compare`
        // by hand, small enough to commit the file if a project wants a
        // durable record.
        let mut hb = String::new();
        for (i, (_, _, o)) in rows.iter().enumerate() {
            if i > 0 {
                hb.push_str(", ");
            }
            let gap = pipemap_milp::relative_gap(o.milp.objective, o.milp.best_bound);
            hb.push_str(&format!(
                "{{\"name\": \"{}\", \"status\": \"{}\", \"objective\": {}, \
                 \"best_bound\": {}, \"gap_rel\": {}, \"wall_ms\": {:.3}, \"nodes\": {}, \
                 \"warm_hit_rate\": {}}}",
                json_escape(o.name),
                o.milp.status,
                jnum(o.milp.objective),
                jnum(o.milp.best_bound),
                gap.map_or("null".to_string(), |g| format!("{g:.6}")),
                ms(o.wall),
                o.milp.nodes,
                o.milp
                    .solver
                    .warm_hit_rate()
                    .map_or("null".to_string(), |h| format!("{h:.4}")),
            ));
        }
        compare::append_history(&format!(
            "{{\"ts\": {}, \"mode\": \"milp\", \"suite\": \"{}\", \"jobs\": {}, \
             \"time_limit_s\": {}, \"optimized_total_ms\": {:.3}, \"cold_total_ms\": {}, \
             \"objectives_match\": {}, \"errors\": {}, \"benchmarks\": [{hb}]}}",
            compare::unix_ts(),
            if args.quick { "quick" } else { "full" },
            args.jobs,
            args.time_limit,
            ms(opt_total),
            if args.skip_cold {
                "null".to_string()
            } else {
                format!("{:.3}", ms(cold_total))
            },
            mismatches.is_empty(),
            errors.len(),
        ));
    }

    for (bi, c, o) in &rows {
        let s = &o.milp.solver;
        let cold_part = match c {
            Some(c) => format!(
                "cold {:>9.1} ms ({} nodes, {}) -> ",
                ms(c.wall),
                c.milp.nodes,
                c.milp.status
            ),
            None => String::new(),
        };
        let raw_vars = unpruned[*bi].map_or("?".to_string(), |(v, _, _)| v.to_string());
        eprintln!(
            "[bench] {:>8}: {}optimized {:>9.1} ms ({} nodes, {}, warm {}/{}, {} hit, \
             {} vars of {} raw, {} cut(s) pruned)",
            o.name,
            cold_part,
            ms(o.wall),
            o.milp.nodes,
            o.milp.status,
            s.warm_hits,
            s.warm_attempts,
            s.warm_hit_rate()
                .map_or("n/a".to_string(), |h| format!("{:.0}%", h * 100.0)),
            o.milp.variables,
            raw_vars,
            o.milp.cuts_pruned,
        );
    }
    if args.skip_cold {
        eprintln!(
            "[bench] total: optimized {:.1} ms -> {}",
            ms(opt_total),
            args.out
        );
    } else {
        eprintln!(
            "[bench] total: cold {:.1} ms, optimized {:.1} ms, speedup {:.2}x -> {}",
            ms(cold_total),
            ms(opt_total),
            speedup,
            args.out
        );
        if let Some(s) = comp_speedup {
            eprintln!(
                "[bench] completed-to-optimality subset ({comp_n} benchmarks): \
                 >= {s:.2}x (cold capped at the {} s budget)",
                args.time_limit
            );
        }
    }
    for m in &mismatches {
        eprintln!("[bench] OBJECTIVE MISMATCH {m}");
    }
    for e in &errors {
        eprintln!("[bench] ERROR {e}");
    }
    if !mismatches.is_empty() || !errors.is_empty() {
        std::process::exit(1);
    }
}
