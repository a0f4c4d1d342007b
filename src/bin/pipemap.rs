//! `pipemap` — command-line front end for the mapping-aware pipeline
//! synthesis flows.
//!
//! ```text
//! pipemap info     <file.pmir>
//! pipemap dot      <file.pmir> [--flow FLOW ...]      # graphviz to stdout
//! pipemap schedule <file.pmir> [--flow FLOW] [--limit SECS] [--ii N] [--k N] [--jobs N]
//! pipemap verilog  <file.pmir> [--flow FLOW] [--module NAME] [...]
//! pipemap lint     <file.pmir> [--json]               # static IR lint (P0xxx)
//! pipemap lint     --codes                            # lint-code registry
//! pipemap analyze  <file.pmir> [--json] [--dot] [--ii N] [--k N]
//! pipemap verify   <file.pmir> [--limit SECS] [--ii N] [--k N] [--json]
//! pipemap bench    <NAME>      [--limit SECS]         # built-in benchmark
//! pipemap run      <NAME>                             # alias for bench
//! pipemap sweep    <file.pmir> [--ii-list 1,2,4] [--k-list 4,6] [--resolve on|off] [--audit]
//! pipemap report   <file.pmir|NAME|trace.json> [--flow FLOW] [--json] [--report-out FILE]
//! ```
//!
//! `FLOW` is one of `hls`, `base`, `map` (default), `heur`. Flags may
//! appear before or after the subcommand.
//!
//! `--jobs N` sets the MILP branch-and-bound worker-thread count (and
//! runs the flows of `verify`/`bench` concurrently); `--jobs 0` uses all
//! available cores. The solver is deterministic in `--jobs`: every
//! thread count returns the identical status, objective, and schedule.
//!
//! `--probing on|off` and `--cuts on|off` toggle the solver's structural
//! analysis (both on by default): probing-based fixings/implications and
//! root clique/cover cut separation.
//!
//! `--gomory-cuts on|off` (off by default) adds Gomory mixed-integer
//! cuts read off the optimal simplex tableau to the root cut loop; each
//! shipped cut carries a derivation certificate audited by the `P07xx`
//! verify pass. `--decompose on|off` (off by default) refines the warm
//! incumbent before branch-and-bound by re-solving MFFC-cone subgraphs
//! against a frozen complement, ordered by LP-relaxation fractionality.
//!
//! `sweep` explores the II × K × weight design space over one editable
//! re-solve context per structural base: each weight point starts from
//! the previous point's optimum as its incumbent, and a base that
//! formulates the same model as the previous one replays its results.
//! `--resolve on|off` (on by default) switches only `sweep`: off
//! rebuilds and cold-solves every point. `--audit` re-checks every
//! incremental sweep point against a from-scratch solve.
//!
//! `--priority-cuts on|off` toggles the certified priority-cut analysis
//! in front of the mapping-aware MILP (off by default — the ranked
//! truncation trades mapping quality for a much smaller model): dominated
//! and provably-dead cuts are pruned with machine-checkable certificates
//! and the survivors ranked down to `--max-cuts-per-root N` (default 4)
//! cuts per node, shrinking the MILP before branch-and-bound starts.
//!
//! `--trace FILE` writes a Chrome trace-event JSON of the run (load it
//! in Perfetto or `chrome://tracing`; one lane per flow/solver worker);
//! `--metrics` prints the merged phase-time tree to stderr. Both are
//! pure observers: results are identical with tracing on or off.
//!
//! `--metrics-out FILE` writes the typed metrics registry (counters,
//! gauges, log-linear histograms of LP solve times/iterations, node and
//! dive depths, cut violations) as JSON; `--metrics-prom FILE` writes
//! the same snapshot in Prometheus text exposition format. Either flag
//! enables metric collection for the run; like tracing, collection is a
//! pure observer behind one relaxed atomic check.
//!
//! `report` is the solve flight recorder: it runs the flow traced (or
//! re-ingests a `--trace` Chrome JSON written earlier) and renders a
//! structured `SolveReport` — wall-clock attributed to phases, gap
//! closure attributed to features (cut families, warm starts, incumbent
//! provenance), per-worker tree-search balance, and a diagnosis naming
//! the top gap-closing feature. `--json` prints the machine-readable
//! twin instead; `--report-out FILE` writes it alongside the human text.
//!
//! `lint` parses the textual IR and runs the well-formedness pass,
//! reporting every finding with its stable `P0xxx` code and source span;
//! `analyze` runs the bit-level dataflow analyses and proof-carrying
//! simplification, reporting per-node facts and the cut/MILP-size
//! savings (`--dot` renders the facts as a shaded graphviz graph);
//! `verify` additionally runs *all* scheduling flows, the differential
//! flow checker (legality, QoR recount, simulation equivalence, RTL
//! lint, analyze-pre-pass replay), and the `P06xx` priority-cut pruning
//! audit (certificate re-derivation, cover-feasibility recount,
//! objective-invariance spot-check).
//!
//! Exit codes for `lint` and `verify`: 0 when clean *or* only
//! warning/info diagnostics fired, 1 when any error-severity diagnostic
//! fired. `--deny-warnings` promotes warnings to exit 1 as well.

use std::error::Error;
use std::process::ExitCode;
use std::time::Duration;

use pipemap::analyze::Analysis;
use pipemap::core::{run_flow, Flow, FlowOptions};
use pipemap::ir::{parse_dfg, to_dot, to_dot_styled, Dfg, InputStreams, Target};
use pipemap::netlist::{schedule_report, to_verilog, verify_functional};
use pipemap::report::analyze_report;
use pipemap::verify::{check_flows_with_graphs, lint_text, Code, FlowCheckOptions};

struct Args {
    positional: Vec<String>,
    flow: Flow,
    /// The flow knobs the flags set: `--ii`, `--limit`, `--jobs`,
    /// `--probing`, `--cuts`, `--gomory-cuts`, `--decompose`,
    /// `--priority-cuts` and `--max-cuts-per-root`.
    opts: FlowOptions,
    k: u32,
    module: String,
    json: bool,
    codes: bool,
    dot: bool,
    trace: Option<String>,
    metrics: bool,
    metrics_out: Option<String>,
    metrics_prom: Option<String>,
    report_out: Option<String>,
    deny_warnings: bool,
    resolve: bool,
    audit: bool,
    ii_list: Option<Vec<u32>>,
    k_list: Option<Vec<u32>>,
}

fn parse_switch(flag: &str, v: Option<String>) -> Result<bool, String> {
    match v.as_deref() {
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        _ => Err(format!("{flag} needs `on` or `off`")),
    }
}

fn parse_u32_list(flag: &str, v: Option<String>) -> Result<Vec<u32>, String> {
    let raw = v.ok_or_else(|| format!("{flag} needs a comma-separated list, e.g. 1,2,4"))?;
    let list: Result<Vec<u32>, _> = raw.split(',').map(|s| s.trim().parse::<u32>()).collect();
    match list {
        Ok(l) if !l.is_empty() => Ok(l),
        _ => Err(format!("{flag}: could not parse `{raw}` as a u32 list")),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        flow: Flow::MilpMap,
        opts: FlowOptions {
            time_limit: Duration::from_secs(30),
            ..FlowOptions::default()
        },
        k: 4,
        module: "pipeline".into(),
        json: false,
        codes: false,
        dot: false,
        trace: None,
        metrics: false,
        metrics_out: None,
        metrics_prom: None,
        report_out: None,
        deny_warnings: false,
        resolve: true,
        audit: false,
        ii_list: None,
        k_list: None,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--flow" => {
                let v = argv.next().ok_or("--flow needs a value")?;
                a.flow = match v.as_str() {
                    "hls" => Flow::HlsTool,
                    "base" => Flow::MilpBase,
                    "map" => Flow::MilpMap,
                    "heur" => Flow::MappedHeuristic,
                    other => return Err(format!("unknown flow `{other}`")),
                };
            }
            "--limit" => {
                a.opts.time_limit = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .map(Duration::from_secs)
                    .ok_or("--limit needs seconds")?;
            }
            "--ii" => {
                a.opts.ii = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--ii needs a number")?;
            }
            "--k" => {
                a.k = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--k needs a number")?;
            }
            "--module" => {
                a.module = argv.next().ok_or("--module needs a name")?;
            }
            "--jobs" => {
                let j: usize = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--jobs needs a thread count (0 = all cores)")?;
                a.opts.jobs = if j == 0 {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                } else {
                    j
                };
            }
            "--trace" => {
                a.trace = Some(argv.next().ok_or("--trace needs an output file")?);
            }
            "--metrics-out" => {
                a.metrics_out = Some(argv.next().ok_or("--metrics-out needs an output file")?);
            }
            "--metrics-prom" => {
                a.metrics_prom = Some(argv.next().ok_or("--metrics-prom needs an output file")?);
            }
            "--report-out" => {
                a.report_out = Some(argv.next().ok_or("--report-out needs an output file")?);
            }
            "--probing" => a.opts.probing = parse_switch("--probing", argv.next())?,
            "--cuts" => a.opts.cuts = parse_switch("--cuts", argv.next())?,
            "--gomory-cuts" => a.opts.gomory_cuts = parse_switch("--gomory-cuts", argv.next())?,
            "--decompose" => a.opts.decompose = parse_switch("--decompose", argv.next())?,
            "--priority-cuts" => {
                a.opts.priority_cuts = parse_switch("--priority-cuts", argv.next())?;
            }
            "--max-cuts-per-root" => {
                a.opts.max_cuts_per_root = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--max-cuts-per-root needs a count >= 1")?;
            }
            "--resolve" => a.resolve = parse_switch("--resolve", argv.next())?,
            "--audit" => a.audit = true,
            "--ii-list" => {
                a.ii_list = Some(parse_u32_list("--ii-list", argv.next())?);
            }
            "--k-list" => {
                a.k_list = Some(parse_u32_list("--k-list", argv.next())?);
            }
            "--deny-warnings" => a.deny_warnings = true,
            "--metrics" => a.metrics = true,
            "--json" => a.json = true,
            "--codes" => a.codes = true,
            "--dot" => a.dot = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            other => a.positional.push(other.to_string()),
        }
    }
    Ok(a)
}

fn load(path: &str) -> Result<Dfg, Box<dyn Error>> {
    let src = std::fs::read_to_string(path)?;
    Ok(parse_dfg(&src)?)
}

fn target(a: &Args) -> Target {
    Target {
        k: a.k,
        ..Target::default()
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    // Flags may appear anywhere; the first positional is the subcommand.
    let mut a = parse_args(std::env::args().skip(1)).map_err(|e| -> Box<dyn Error> { e.into() })?;
    if a.positional.is_empty() {
        eprintln!(
            "usage: pipemap <info|dot|schedule|verilog|lint|analyze|verify|bench|run|sweep> ..."
        );
        return Err("missing subcommand".into());
    }
    let cmd = a.positional.remove(0);

    // `report` on a flow input needs the trace even without --trace; a
    // `report` on an existing Chrome JSON re-ingests it instead.
    let report_run = cmd == "report" && a.positional.first().is_some_and(|p| !p.ends_with(".json"));
    let tracing = a.trace.is_some() || a.metrics || report_run;
    let metering = a.metrics_out.is_some() || a.metrics_prom.is_some();
    if tracing {
        pipemap::obs::enable();
    }
    if metering {
        pipemap::obs::metrics::enable();
    }
    let result = dispatch(&cmd, &a);
    if metering {
        pipemap::obs::metrics::disable();
        let snap = pipemap::obs::metrics::snapshot();
        if let Some(path) = &a.metrics_out {
            std::fs::write(path, pipemap::obs::metrics::to_json(&snap))?;
            eprintln!("metrics: {} metric(s) -> {path}", snap.len());
        }
        if let Some(path) = &a.metrics_prom {
            std::fs::write(path, pipemap::obs::metrics::to_prometheus(&snap))?;
            eprintln!(
                "metrics: {} metric(s) -> {path} (Prometheus text)",
                snap.len()
            );
        }
    }
    if tracing {
        pipemap::obs::disable();
        let trace = pipemap::obs::take();
        if let Some(path) = &a.trace {
            std::fs::write(path, pipemap::obs::chrome::to_chrome_trace(&trace))?;
            eprintln!(
                "trace: {} event(s) -> {path} (open in Perfetto or chrome://tracing)",
                trace.events.len()
            );
        }
        if a.metrics {
            eprint!("{}", pipemap::obs::tree::phase_tree(&trace).render());
        }
        if report_run && result.is_ok() {
            emit_report(&trace, &a)?;
        }
    }
    result
}

/// Build the [`SolveReport`](pipemap::obs::report::SolveReport) from a
/// captured trace and write it as asked: human text to stdout (or the
/// JSON twin with `--json`), plus `--report-out FILE` for the twin.
fn emit_report(trace: &pipemap::obs::Trace, a: &Args) -> Result<(), Box<dyn Error>> {
    let report = pipemap::obs::report::build(trace);
    if let Some(path) = &a.report_out {
        std::fs::write(path, report.to_json())?;
        eprintln!("report: -> {path}");
    }
    if a.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

fn dispatch(cmd: &str, a: &Args) -> Result<(), Box<dyn Error>> {
    match cmd {
        "info" => {
            let path = a.positional.first().ok_or("info needs a .pmir file")?;
            let dfg = load(path)?;
            let s = dfg.stats();
            println!("graph     : {}", dfg.name());
            println!("nodes     : {}", s.nodes);
            println!("lut ops   : {}", s.lut_ops);
            println!("black box : {}", s.black_box_ops);
            println!("inputs    : {}", s.inputs);
            println!("outputs   : {}", s.outputs);
            println!(
                "edges     : {} ({} loop-carried)",
                s.edges, s.loop_carried_edges
            );
            println!("memories  : {}", dfg.memories().len());
        }
        "dot" => {
            let path = a.positional.first().ok_or("dot needs a .pmir file")?;
            let dfg = load(path)?;
            let r = run_flow(&dfg, &target(a), a.flow, &a.opts)?;
            let sched = r.implementation.schedule.clone();
            print!("{}", to_dot(&r.dfg, Some(&|v| sched.cycle(v))));
        }
        "schedule" => {
            let path = a.positional.first().ok_or("schedule needs a .pmir file")?;
            let dfg = load(path)?;
            let t = target(a);
            let r = run_flow(&dfg, &t, a.flow, &a.opts)?;
            print!("{}", schedule_report(&r.dfg, &t, &r.implementation));
            let ins = InputStreams::random(&r.dfg, 16, 1);
            verify_functional(&r.dfg, &t, &r.implementation, &ins, 16)?;
            println!("functional check: ok (16 iterations vs reference interpreter)");
            if let Some(p) = &r.analysis {
                println!(
                    "analyze pre-pass: {} rewrite(s) | nodes {} -> {} | {} bit(s) pruned \
                     | cuts {} -> {}",
                    p.rewrites,
                    p.nodes_before,
                    p.nodes_after,
                    p.bits_pruned,
                    p.cuts_before,
                    p.cuts_after
                );
            }
            if let Some(s) = &r.milp {
                println!(
                    "solver: {} in {:.2?} | {} B&B nodes | {} vars | {} rows | {} job(s)",
                    s.status, s.solve_time, s.nodes, s.variables, s.constraints, s.solver.jobs
                );
                println!(
                    "        cuts: {} enumerated | {} pruned by priority-cut analysis | {} in model",
                    s.cuts_enumerated, s.cuts_pruned, s.total_cuts
                );
                let hit = s
                    .solver
                    .warm_hit_rate()
                    .map_or("-".to_string(), |h| format!("{:.1}%", h * 100.0));
                println!(
                    "        {} simplex iters | warm starts {}/{} ({hit}) | presolve \
                     -{} rows, {} cols fixed, {} bounds tightened, {} coeffs reduced",
                    s.lp_iterations,
                    s.solver.warm_hits,
                    s.solver.warm_attempts,
                    s.solver.presolve_rows_removed,
                    s.solver.presolve_cols_fixed,
                    s.solver.presolve_bounds_tightened,
                    s.solver.presolve_coeffs_reduced
                );
                println!(
                    "        analysis: {} probed -> {} fixing(s), {} implication(s) \
                     | {} clique(s) -> {} clique + {} cover + {} implication cut(s) in {} round(s), {} aged out \
                     | {} implied fixing(s) in tree",
                    s.solver.probe_vars,
                    s.solver.probe_fixings,
                    s.solver.probe_implications,
                    s.solver.clique_table,
                    s.solver.clique_cuts,
                    s.solver.cover_cuts,
                    s.solver.implication_cuts,
                    s.solver.cut_rounds,
                    s.solver.cuts_aged_out,
                    s.solver.implication_fixings
                );
                if s.solver.gomory_cuts > 0 || s.subproblems_solved > 0 {
                    println!(
                        "        gomory: {} cut(s) | decompose: {} subproblem(s) -> {} \
                         stitched incumbent(s) | incumbent from {}",
                        s.solver.gomory_cuts,
                        s.subproblems_solved,
                        s.stitched_incumbents,
                        s.incumbent_source
                    );
                }
                if s.status == pipemap::milp::Status::TimedOut {
                    let gap = pipemap::milp::relative_gap(s.objective, s.best_bound)
                        .map_or("-".to_string(), |g| format!("{:.2}%", g * 100.0));
                    println!(
                        "        timed out: incumbent {:.4} | bound {:.4} | relative gap {gap}",
                        s.objective, s.best_bound
                    );
                }
            }
        }
        "verilog" => {
            let path = a.positional.first().ok_or("verilog needs a .pmir file")?;
            let dfg = load(path)?;
            let t = target(a);
            let r = run_flow(&dfg, &t, a.flow, &a.opts)?;
            print!("{}", to_verilog(&r.dfg, &t, &r.implementation, &a.module)?);
        }
        "lint" => {
            if a.codes {
                println!("{:<6} {:<8} summary", "code", "severity");
                for &c in Code::ALL {
                    println!(
                        "{:<6} {:<8} {}",
                        c.as_str(),
                        c.severity().to_string(),
                        c.summary()
                    );
                }
                return Ok(());
            }
            let path = a.positional.first().ok_or("lint needs a .pmir file")?;
            let src = std::fs::read_to_string(path)?;
            let (mut ds, _) = lint_text(&src);
            ds.sort();
            if a.json {
                println!("{}", ds.render_json());
            } else if ds.is_empty() {
                println!("{path}: clean ({} lints checked)", Code::ALL.len());
            } else {
                print!("{}", ds.render_human(path));
            }
            if ds.has_errors() || (a.deny_warnings && ds.warning_count() > 0) {
                return Err(format!(
                    "{} error(s), {} warning(s)",
                    ds.error_count(),
                    ds.warning_count()
                )
                .into());
            }
        }
        "analyze" => {
            let path = a.positional.first().ok_or("analyze needs a .pmir file")?;
            let dfg = load(path)?;
            if a.dot {
                let analysis = Analysis::run(&dfg)?;
                print!(
                    "{}",
                    to_dot_styled(&dfg, None, Some(&|v| analysis.dot_style(&dfg, v)))
                );
                return Ok(());
            }
            let report = analyze_report(&dfg, &target(a), a.opts.ii)?;
            if a.json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
        }
        "verify" => {
            let path = a.positional.first().ok_or("verify needs a .pmir file")?;
            let src = std::fs::read_to_string(path)?;
            let (mut ds, dfg) = lint_text(&src);
            if let Some(dfg) = dfg.filter(|_| !ds.has_errors()) {
                let t = target(a);
                // `run_all_flows` runs the three flows concurrently when
                // --jobs > 1; results keep Flow::ALL order either way.
                let results = pipemap::core::run_all_flows(&dfg, &t, &a.opts)?;
                let flows: Vec<(&str, &Dfg, _)> = results
                    .iter()
                    .map(|r| (r.flow.label(), &r.dfg, &r.implementation))
                    .collect();
                ds.merge(check_flows_with_graphs(
                    &dfg,
                    &t,
                    &flows,
                    &FlowCheckOptions::default(),
                ));
                // P06xx: run the certified priority-cut pruning exactly
                // as the MILP-map flow would and audit every certificate.
                let prune = pipemap::cuts::priority_cuts(
                    &dfg,
                    &pipemap::cuts::CutConfig::for_target(&t),
                    &pipemap::cuts::PruneConfig {
                        max_cuts_per_root: a.opts.max_cuts_per_root,
                        ..pipemap::cuts::PruneConfig::default()
                    },
                );
                ds.merge(pipemap::verify::check_priority_cuts(&dfg, &prune));
            }
            ds.sort();
            if a.json {
                println!("{}", ds.render_json());
            } else if ds.is_empty() {
                println!(
                    "{path}: all {} flows verifier-clean and simulation-equivalent; \
                     priority-cut certificates audit clean",
                    Flow::ALL.len()
                );
            } else {
                print!("{}", ds.render_human(path));
            }
            if ds.has_errors() || (a.deny_warnings && ds.warning_count() > 0) {
                return Err(format!(
                    "{} error(s), {} warning(s)",
                    ds.error_count(),
                    ds.warning_count()
                )
                .into());
            }
        }
        "bench" | "run" => {
            let name = a.positional.first().ok_or("bench needs a benchmark name")?;
            let bench = pipemap::bench_suite::by_name(name)
                .ok_or("unknown benchmark (CLZ, XORR, GFMUL, CORDIC, MT, AES, RS, DR, GSM)")?;
            println!(
                "{:<10} {:>7} {:>6} {:>6} {:>6} {:>4} {:>10} {:>9} {:>9}",
                "method", "CP(ns)", "LUT", "FF", "depth", "II", "wall", "nodes", "warm-hit"
            );
            for flow in Flow::EXTENDED {
                let started = std::time::Instant::now();
                let r = run_flow(&bench.dfg, &bench.target, flow, &a.opts)?;
                let wall = started.elapsed();
                let (nodes, hit) = r.milp.as_ref().map_or_else(
                    || ("-".to_string(), "-".to_string()),
                    |s| {
                        (
                            s.nodes.to_string(),
                            s.solver
                                .warm_hit_rate()
                                .map_or("-".to_string(), |h| format!("{:.0}%", h * 100.0)),
                        )
                    },
                );
                println!(
                    "{:<10} {:>7.2} {:>6} {:>6} {:>6} {:>4} {:>10} {:>9} {:>9}",
                    r.flow.label(),
                    r.qor.cp_ns,
                    r.qor.luts,
                    r.qor.ffs,
                    r.qor.depth,
                    r.ii,
                    format!("{wall:.2?}"),
                    nodes,
                    hit
                );
            }
        }
        "sweep" => {
            let name = a
                .positional
                .first()
                .ok_or("sweep needs a .pmir file or a benchmark name")?;
            let (dfg, t) = if std::path::Path::new(name).exists() {
                (load(name)?, target(a))
            } else {
                let b = pipemap::bench_suite::by_name(name)
                    .ok_or("sweep needs a .pmir file or a known benchmark name")?;
                (b.dfg, b.target)
            };
            let mut cfg = pipemap::core::SweepConfig {
                time_limit: a.opts.time_limit,
                jobs: a.opts.jobs,
                incremental: a.resolve,
                audit: a.audit,
                ..pipemap::core::SweepConfig::default()
            };
            if let Some(l) = &a.ii_list {
                cfg.ii_values = l.clone();
            }
            if let Some(l) = &a.k_list {
                cfg.k_values = l.clone();
            }
            let rep = pipemap::core::run_sweep(&dfg, &t, &cfg)?;
            println!(
                "{:<3} {:>3} {:>2} {:>6} {:>6} {:>6} {:>9} {:>12} {:>10} {:>5} {:>5}",
                "ii",
                "ach",
                "k",
                "alpha",
                "beta",
                "gamma",
                "status",
                "objective",
                "wall",
                "warm",
                "audit"
            );
            for p in &rep.points {
                println!(
                    "{:<3} {:>3} {:>2} {:>6.2} {:>6.2} {:>6.2} {:>9} {:>12.4} {:>10} {:>5} {:>5}",
                    p.ii,
                    p.ii_achieved,
                    p.k,
                    p.alpha,
                    p.beta,
                    p.gamma,
                    p.status.to_string(),
                    p.objective,
                    format!("{:.2?}", p.wall),
                    if p.warm_hit { "yes" } else { "no" },
                    p.audit_ok.map_or("-", |ok| if ok { "ok" } else { "FAIL" }),
                );
            }
            println!(
                "sweep: {} point(s) over {} structural base(s) in {:.2?} (+{:.2?} shared setup), mode {}",
                rep.points.len(),
                rep.contexts,
                rep.total_wall,
                rep.setup_wall,
                if a.resolve { "incremental" } else { "cold" },
            );
            if let Some(rs) = &rep.resolve {
                println!(
                    "       reuse: {} solve(s) | {} cached | {} cold | {} base(s) deduped \
                     | {} incumbent seed(s)",
                    rs.solves,
                    rs.cached_results,
                    rs.cold_solves,
                    rep.bases_deduped,
                    rs.incumbent_seeds,
                );
            }
            if rep.audit_failures > 0 {
                return Err(format!(
                    "{} sweep point(s) diverged from the from-scratch audit",
                    rep.audit_failures
                )
                .into());
            }
        }
        "report" => {
            let input = a
                .positional
                .first()
                .ok_or("report needs a .pmir file, benchmark name, or trace.json")?;
            if input.ends_with(".json") {
                // Re-ingest a Chrome trace written by `--trace` earlier;
                // no flow runs, so the surrounding tracing harness in
                // `run` is off and the report is emitted right here.
                let text = std::fs::read_to_string(input)?;
                let trace = pipemap::obs::report::trace_from_chrome(&text)
                    .map_err(|e| format!("{input}: {e}"))?;
                emit_report(&trace, a)?;
            } else {
                // Run the flow traced; `run` takes the trace and emits
                // the report after this returns. The solved QoR goes to
                // stderr so stdout stays pure report.
                let (dfg, t) = if std::path::Path::new(input).exists() {
                    (load(input)?, target(a))
                } else {
                    let b = pipemap::bench_suite::by_name(input).ok_or(
                        "report needs a .pmir file, a known benchmark name, or a --trace JSON",
                    )?;
                    (b.dfg, b.target)
                };
                let r = run_flow(&dfg, &t, a.flow, &a.opts)?;
                eprintln!(
                    "solved: {} | CP {:.2}ns | {} LUT | {} FF | II {}",
                    r.flow.label(),
                    r.qor.cp_ns,
                    r.qor.luts,
                    r.qor.ffs,
                    r.ii
                );
            }
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            return Err("unknown subcommand".into());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
