//! The paper's evaluation artifacts, one generator per experiment.
//! `pipemap-bench-suite paper <name>` prints one to stdout; `results/`
//! archives each output under the same name.
//!
//! | artifact | experiment |
//! |---|---|
//! | Table 1 (CP/LUT/FF, three flows × nine benchmarks) | `table1` |
//! | Table 2 (MILP runtimes and model sizes) | `table2` |
//! | Figure 1 (RS encoder: additive vs mapped schedule) | `fig1` |
//! | Figure 2 (word-level cut enumeration on the same kernel) | `fig2` |
//! | Ablation A (α/β LUT-vs-FF trade-off sweep) | `ablation_alpha_beta` |
//! | Ablation B (LUT input count K sweep) | `ablation_k` |
//! | Ablation C (initiation interval sweep) | `ablation_ii` |
//! | Ablation D (MILP model size vs problem size) | `ablation_scaling` |
//!
//! A flow may schedule a rewrite of its input (the MILP-map flow's
//! analyze pre-pass), so every result is simulated and reported against
//! the graph it scheduled, [`FlowResult::dfg`].

use std::time::{Duration, Instant};

use pipemap_core::{run_flow, CoreError, Flow, FlowOptions, FlowResult};
use pipemap_cuts::{cone_nodes, CutConfig, CutDb};
use pipemap_ir::{InputStreams, Op, Target};
use pipemap_netlist::verify_functional;

use crate::{all, by_name, rs_encoder_fig1, xorr, Benchmark};

/// Iterations of the functional cross-check of every Table 1 row.
const VERIFY_ITERS: usize = 32;

/// One paper experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: CP/LUT/FF of the three flows on the nine benchmarks.
    Table1,
    /// Table 2: MILP-base vs MILP-map solve time and model size.
    Table2,
    /// Figure 1: the RS encoder kernel, additive vs mapped schedule.
    Fig1,
    /// Figure 2: word-level cut enumeration on the Fig. 1 kernel.
    Fig2,
    /// Ablation A: the Eq. 15 α/β weight sweep.
    AblationAlphaBeta,
    /// Ablation B: the LUT input count K sweep.
    AblationK,
    /// Ablation C: the initiation interval sweep.
    AblationIi,
    /// Ablation D: MILP model size and runtime vs XORR tree size.
    AblationScaling,
}

impl Experiment {
    /// Every experiment, in the paper's order.
    pub const ALL: [Experiment; 8] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Fig1,
        Experiment::Fig2,
        Experiment::AblationAlphaBeta,
        Experiment::AblationK,
        Experiment::AblationIi,
        Experiment::AblationScaling,
    ];

    /// The command-line name, which is also the `results/` file stem.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Fig1 => "fig1",
            Experiment::Fig2 => "fig2",
            Experiment::AblationAlphaBeta => "ablation_alpha_beta",
            Experiment::AblationK => "ablation_k",
            Experiment::AblationIi => "ablation_ii",
            Experiment::AblationScaling => "ablation_scaling",
        }
    }

    /// Look an experiment up by its command-line name.
    pub fn from_name(name: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Per-solve time limit in seconds when none is given (Fig. 2
    /// solves nothing and ignores it).
    pub fn default_limit_secs(self) -> u64 {
        match self {
            Experiment::Table1 | Experiment::Table2 => 60,
            Experiment::Fig1 | Experiment::AblationScaling => 30,
            Experiment::Fig2
            | Experiment::AblationAlphaBeta
            | Experiment::AblationK
            | Experiment::AblationIi => 20,
        }
    }

    /// Print the experiment to stdout, every solve under `limit`.
    /// `only` restricts Table 1 to one benchmark (by its case-insensitive
    /// name); the other experiments ignore it.
    pub fn print(self, limit: Duration, only: Option<&str>) {
        match self {
            Experiment::Table1 => table1(limit, only),
            Experiment::Table2 => table2(limit),
            Experiment::Fig1 => fig1(limit),
            Experiment::Fig2 => fig2(),
            Experiment::AblationAlphaBeta => ablation_alpha_beta(limit),
            Experiment::AblationK => ablation_k(limit),
            Experiment::AblationIi => ablation_ii(limit),
            Experiment::AblationScaling => ablation_scaling(limit),
        }
    }
}

/// One flow's Table 1 row: the flow outcome and whether its pipeline
/// simulated equal to the reference interpreter.
#[derive(Debug)]
pub struct Table1Row {
    /// The flow outcome.
    pub result: FlowResult,
    /// The cycle-accurate simulation of [`FlowResult::implementation`]
    /// matched the reference interpreter on [`FlowResult::dfg`].
    pub functional: bool,
}

/// Run the three Table 1 flows on `bench` and simulate each result.
///
/// # Errors
///
/// Propagates the first flow failure.
pub fn table1_rows(bench: &Benchmark, time_limit: Duration) -> Result<Vec<Table1Row>, CoreError> {
    let opts = options(time_limit);
    Flow::ALL
        .iter()
        .map(|&flow| {
            let result = run_flow(&bench.dfg, &bench.target, flow, &opts)?;
            let functional = simulates(&result, &bench.target, VERIFY_ITERS, 0xC0FFEE);
            Ok(Table1Row { result, functional })
        })
        .collect()
}

/// Whether `r`'s pipeline, run for `iters` iterations on seeded random
/// inputs, matches the reference interpreter on the graph it scheduled.
fn simulates(r: &FlowResult, target: &Target, iters: usize, seed: u64) -> bool {
    let ins = InputStreams::random(&r.dfg, iters, seed);
    verify_functional(&r.dfg, target, &r.implementation, &ins, iters).is_ok()
}

/// `(value - base) / base` as a percentage string like the paper's Table 1.
fn pct(value: u64, base: u64) -> String {
    if base == 0 {
        return if value == 0 {
            "(+0.0%)".into()
        } else {
            "(n/a)".into()
        };
    }
    let p = (value as f64 - base as f64) / base as f64 * 100.0;
    format!("({p:+.1}%)")
}

fn options(time_limit: Duration) -> FlowOptions {
    FlowOptions {
        time_limit,
        ..FlowOptions::default()
    }
}

/// Table 1: CP / LUT / FF for the three flows on all nine benchmarks,
/// percentages relative to the HLS-tool row.
fn table1(limit: Duration, only: Option<&str>) {
    println!(
        "Table 1: resource usage comparison. Target clock period 10 ns, II = 1 (bumped if infeasible)."
    );
    println!("MILP time limit {limit:?} per flow; percentages relative to the HLS Tool row.");
    println!();
    println!(
        "{:<8} {:<22} {:<10} {:>7} {:>6} {:>9} {:>6} {:>9}  {:>3} {:>5} {:>4}",
        "Design", "Domain", "Method", "CP(ns)", "LUT", "%", "FF", "%", "II", "Depth", "Sim"
    );
    println!("{}", "-".repeat(100));
    for bench in all() {
        if only.is_some_and(|name| !bench.name.eq_ignore_ascii_case(name)) {
            continue;
        }
        match table1_rows(&bench, limit) {
            Ok(rows) => {
                let base = &rows[0].result.qor;
                let (bl, bf) = (base.luts, base.ffs);
                for (i, row) in rows.iter().enumerate() {
                    let q = &row.result.qor;
                    let (lp, fp) = if i == 0 {
                        (String::new(), String::new())
                    } else {
                        (pct(q.luts, bl), pct(q.ffs, bf))
                    };
                    println!(
                        "{:<8} {:<22} {:<10} {:>7.2} {:>6} {:>9} {:>6} {:>9}  {:>3} {:>5} {:>4}",
                        if i == 0 { bench.name } else { "" },
                        if i == 0 { bench.domain } else { "" },
                        row.result.flow.label(),
                        q.cp_ns,
                        q.luts,
                        lp,
                        q.ffs,
                        fp,
                        q.ii,
                        q.depth,
                        if row.functional { "ok" } else { "FAIL" },
                    );
                }
                println!();
            }
            Err(e) => println!("{:<8} ERROR: {e}\n", bench.name),
        }
    }
}

/// Table 2: MILP solver runtime per benchmark for MILP-base vs MILP-map,
/// plus the model sizes driving it (the paper notes runtime scales with
/// the number of unique constraints, which the enumerated cuts drive).
fn table2(limit: Duration) {
    let opts = options(limit);
    println!("Table 2: MILP solver runtime per benchmark (limit {limit:?}).");
    println!("\"Ops\" is the CDFG node count — the analog of the paper's LLVM-instruction column.");
    println!();
    println!(
        "{:<8} {:>5} | {:>10} {:>7} {:>7} {:>9} | {:>10} {:>7} {:>7} {:>7} {:>9}",
        "Design",
        "Ops",
        "base(s)",
        "vars",
        "rows",
        "status",
        "map(s)",
        "vars",
        "rows",
        "cuts",
        "status"
    );
    println!("{}", "-".repeat(108));
    let mut sums = [0.0f64; 2];
    let mut n = 0u32;
    for bench in all() {
        let ops = bench.dfg.stats().nodes;
        let mut cells: Vec<String> = Vec::new();
        for (k, flow) in [Flow::MilpBase, Flow::MilpMap].into_iter().enumerate() {
            match run_flow(&bench.dfg, &bench.target, flow, &opts) {
                Ok(r) => {
                    let s = r.milp.expect("milp stats on milp flows");
                    let t = s.solve_time.as_secs_f64();
                    sums[k] += t;
                    cells.push(if k == 0 {
                        format!(
                            "{:>10.1} {:>7} {:>7} {:>9}",
                            t, s.variables, s.constraints, s.status
                        )
                    } else {
                        format!(
                            "{:>10.1} {:>7} {:>7} {:>7} {:>9}",
                            t, s.variables, s.constraints, s.total_cuts, s.status
                        )
                    });
                }
                Err(e) => cells.push(format!("error: {e}")),
            }
        }
        n += 1;
        println!("{:<8} {:>5} | {} | {}", bench.name, ops, cells[0], cells[1]);
    }
    println!("{}", "-".repeat(108));
    println!(
        "{:<8} {:>5} | {:>10.1} | {:>10.1}   (mean seconds, base vs map)",
        "Mean",
        "",
        sums[0] / f64::from(n),
        sums[1] / f64::from(n)
    );
}

/// Figure 1: the Reed-Solomon encoder kernel scheduled by the additive
/// flow (3 pipeline stages, 3 LUTs) versus the mapping-aware flow
/// (1 stage, 2 LUTs). Target period 5 ns; every logic operation or LUT
/// costs 2 ns, as in the paper's illustration.
fn fig1(limit: Duration) {
    let (dfg, _) = rs_encoder_fig1();
    let target = Target::fig1();
    let opts = options(limit);

    println!("Figure 1: pipeline schedule for the Reed-Solomon encoder kernel");
    println!("(T_cp = 5 ns; each logic operation or LUT incurs 2 ns; II = 1)\n");
    println!("{dfg}\n");

    for (flow, label) in [
        (Flow::HlsTool, "(a) additive-delay schedule (suboptimal)"),
        (Flow::MilpMap, "(b) mapping-aware schedule (optimal)"),
    ] {
        let r = run_flow(&dfg, &target, flow, &opts).expect("flow runs");
        let g = &r.dfg;
        println!("{label}");
        println!(
            "  stages: {}   LUTs: {}   FFs: {}   CP: {:.2} ns",
            r.qor.depth, r.qor.luts, r.qor.ffs, r.qor.cp_ns
        );
        for (id, node) in g.iter() {
            if matches!(node.op, Op::Input | Op::Const(_) | Op::Output) {
                continue;
            }
            let cycle = r.implementation.schedule.cycle(id);
            match r.implementation.cover.cut(id) {
                Some(cut) => {
                    let cone: Vec<String> =
                        cone_nodes(g, id, cut).iter().map(|&n| g.label(n)).collect();
                    println!(
                        "    cycle {cycle}: LUT root {} <- cut {} (cone: {})",
                        g.label(id),
                        cut,
                        cone.join(", ")
                    );
                }
                None => println!(
                    "    cycle {cycle}: {} absorbed into a consumer's LUT",
                    g.label(id)
                ),
            }
        }
        let ok = simulates(&r, &target, 64, 7);
        println!(
            "  functional check vs reference interpreter: {}\n",
            if ok { "ok" } else { "FAIL" }
        );
    }
    println!("Paper reference: (a) 3 LUTs / 3 pipeline stages, (b) 2 LUTs / 1 stage.");
}

/// Figure 2: word-level cut enumeration for the Reed-Solomon encoder
/// kernel, including the MSB-only signed-compare special case (node C)
/// and the loop-carried boundary signal `E@-1`.
fn fig2() {
    let (dfg, [_, _, c, _, e]) = rs_encoder_fig1();
    let target = Target::fig1();
    let db = CutDb::enumerate(&dfg, &CutConfig::for_target(&target));

    println!(
        "Figure 2: cut enumeration for the Reed-Solomon encoder (K = {}, 2-bit ops)\n",
        target.k
    );
    println!("{dfg}\n");
    println!("Enumerated K-feasible cuts per node (unit cut first):");
    print!("{}", db.dump(&dfg));
    println!();

    // Per-bit dependence highlights the paper calls out.
    println!("Bit-level dependence highlights:");
    println!("  A = s >> 1         : A[j] depends on s[j+1] (shifted single bit)");
    println!("  B = t ^ A          : B[j] depends on t[j], A[j] (bitwise)");
    println!("  C = (B >= 0) signed: C depends on B[1] only (MSB sign test)");
    println!(
        "  -> deepest cut of C reaches the primary inputs: {}",
        db.cuts(c)
            .cuts()
            .iter()
            .map(|cut| cut.to_string())
            .collect::<Vec<_>>()
            .join("  ")
    );
    let has_loop = db
        .cuts(e)
        .cuts()
        .iter()
        .any(|cut| cut.inputs().iter().any(|s| s.node == e && s.dist == 1));
    println!(
        "  E's cuts include the registered feedback signal E@-1: {}",
        if has_loop { "yes" } else { "no" }
    );
    println!("  total cuts enumerated: {}", db.total_cuts());
}

/// Ablation A: sweep the Eq. 15 weights α (LUTs) vs β (registers) and
/// watch the LUT/FF trade-off move — the knob the paper exposes but only
/// evaluates at α = β = 0.5.
fn ablation_alpha_beta(limit: Duration) {
    println!("Ablation A: alpha/beta sweep of the MILP-map objective (Eq. 15)\n");
    for name in ["CLZ", "GFMUL"] {
        let bench = by_name(name).expect("benchmark exists");
        println!("{name}:");
        println!(
            "{:>6} {:>6} | {:>6} {:>6} {:>6}",
            "alpha", "beta", "LUT", "FF", "depth"
        );
        for step in 0..=4 {
            let alpha = f64::from(step) / 4.0;
            let beta = 1.0 - alpha;
            let opts = FlowOptions {
                alpha,
                beta,
                ..options(limit)
            };
            match run_flow(&bench.dfg, &bench.target, Flow::MilpMap, &opts) {
                Ok(r) => println!(
                    "{:>6.2} {:>6.2} | {:>6} {:>6} {:>6}",
                    alpha, beta, r.qor.luts, r.qor.ffs, r.qor.depth
                ),
                Err(e) => println!("{alpha:>6.2} {beta:>6.2} | error: {e}"),
            }
        }
        println!();
    }
    println!("Expectation: growing beta trades LUTs for fewer registers and vice versa.");
}

/// Ablation B: sweep the LUT input count K (the paper notes cut
/// enumeration is exponential in K but fast for the practical K ≤ 6) and
/// report cut counts, enumeration time, and MILP-map QoR.
fn ablation_k(limit: Duration) {
    println!("Ablation B: LUT input count K sweep\n");
    let opts = options(limit);
    for name in ["GFMUL", "XORR", "RS"] {
        let bench = by_name(name).expect("benchmark exists");
        println!("{name}:");
        println!(
            "{:>3} | {:>7} {:>12} | {:>6} {:>6} {:>6}",
            "K", "cuts", "enum time", "LUT", "FF", "depth"
        );
        for k in [2u32, 4, 6] {
            let target = Target {
                k,
                ..bench.target.clone()
            };
            let t0 = Instant::now();
            let db = CutDb::enumerate(&bench.dfg, &CutConfig::for_target(&target));
            let enum_time = t0.elapsed();
            match run_flow(&bench.dfg, &target, Flow::MilpMap, &opts) {
                Ok(r) => println!(
                    "{:>3} | {:>7} {:>12?} | {:>6} {:>6} {:>6}",
                    k,
                    db.total_cuts(),
                    enum_time,
                    r.qor.luts,
                    r.qor.ffs,
                    r.qor.depth
                ),
                Err(e) => println!(
                    "{k:>3} | {:>7} {enum_time:>12?} | error: {e}",
                    db.total_cuts()
                ),
            }
        }
        println!();
    }
    println!(
        "Expectation: cut counts grow with K; bigger K absorbs more logic (fewer LUTs/stages)."
    );
}

/// Ablation C: sweep the initiation interval and watch the register
/// objective fold (Eq. 13 folds liveness modulo II; larger II shares
/// registers across fewer concurrent iterations).
fn ablation_ii(limit: Duration) {
    println!("Ablation C: initiation interval sweep (MILP-map)\n");
    for name in ["CORDIC", "GSM", "AES"] {
        let bench = by_name(name).expect("benchmark exists");
        println!("{name}:");
        println!(
            "{:>9} | {:>4} {:>6} {:>6} {:>6}",
            "target II", "II", "LUT", "FF", "depth"
        );
        for ii in [1u32, 2, 4] {
            let opts = FlowOptions {
                ii,
                ..options(limit)
            };
            match run_flow(&bench.dfg, &bench.target, Flow::MilpMap, &opts) {
                Ok(r) => println!(
                    "{:>9} | {:>4} {:>6} {:>6} {:>6}",
                    ii, r.ii, r.qor.luts, r.qor.ffs, r.qor.depth
                ),
                Err(e) => println!("{ii:>9} | error: {e}"),
            }
        }
        println!();
    }
    println!("Expectation: relaxing the throughput constraint cannot increase the optimum's area.");
}

/// Ablation D: MILP scalability. The paper's Table 2 discussion notes
/// that solver runtime scales with the number of unique constraints,
/// which the number of enumerated cuts drives. Sweep the XORR
/// reduction-tree size and report model size and solve time for both
/// MILP variants.
fn ablation_scaling(limit: Duration) {
    println!("Ablation D: MILP model size and runtime vs problem size (XORR trees)\n");
    println!(
        "{:>5} {:>6} | {:>8} {:>8} {:>9} {:>10} | {:>8} {:>8} {:>8} {:>9} {:>10}",
        "n",
        "nodes",
        "b.vars",
        "b.rows",
        "b.status",
        "b.time",
        "m.vars",
        "m.rows",
        "m.cuts",
        "m.status",
        "m.time"
    );
    let opts = options(limit);
    for n in [8usize, 16, 32, 64] {
        let bench = xorr(n, 2);
        let mut cells = Vec::new();
        for flow in [Flow::MilpBase, Flow::MilpMap] {
            match run_flow(&bench.dfg, &bench.target, flow, &opts) {
                Ok(r) => {
                    let s = r.milp.expect("stats");
                    let time = s.solve_time.as_secs_f64();
                    let status = s.status.to_string();
                    cells.push(if flow == Flow::MilpBase {
                        format!(
                            "{:>8} {:>8} {:>9} {:>9.2}s",
                            s.variables, s.constraints, status, time
                        )
                    } else {
                        format!(
                            "{:>8} {:>8} {:>8} {:>9} {:>9.2}s",
                            s.variables, s.constraints, s.total_cuts, status, time
                        )
                    });
                }
                Err(e) => cells.push(format!("error: {e}")),
            }
        }
        println!(
            "{:>5} {:>6} | {} | {}",
            n,
            bench.dfg.stats().nodes,
            cells[0],
            cells[1]
        );
    }
    println!("\nExpectation: MILP-map rows/cuts and runtime grow much faster than MILP-base,");
    println!("mirroring the paper's Table 2 (base finishes in seconds, map hits the limit).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(99, 171), "(-42.1%)");
        assert_eq!(pct(226, 221), "(+2.3%)");
        assert_eq!(pct(0, 257), "(-100.0%)");
        assert_eq!(pct(0, 0), "(+0.0%)");
    }

    #[test]
    fn experiment_names_round_trip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::from_name(e.name()), Some(e));
        }
        assert_eq!(Experiment::from_name("table3"), None);
    }
}
