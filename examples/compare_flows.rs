//! Compare the paper's three Table 1 flows — plus the future-work
//! mapping-aware list-scheduling heuristic — on one benchmark.
//!
//! ```text
//! cargo run --release --example compare_flows -- [BENCH] [LIMIT_SECS]
//! ```
//!
//! `BENCH` is one of CLZ, XORR, GFMUL, CORDIC, MT, AES, RS, DR, GSM
//! (default GFMUL).

use std::error::Error;
use std::time::Duration;

use pipemap::bench_suite::by_name;
use pipemap::core::{run_flow, Flow, FlowOptions};
use pipemap::ir::InputStreams;
use pipemap::netlist::verify_functional;
use pipemap::verify::{check_flows_with_graphs, FlowCheckOptions};

fn main() -> Result<(), Box<dyn Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "GFMUL".into());
    let limit = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let bench = by_name(&name).ok_or("unknown benchmark name")?;
    let stats = bench.dfg.stats();
    println!(
        "{} — {} ({}): {} nodes, {} LUT ops, {} black boxes\n",
        bench.name,
        bench.description,
        bench.domain,
        stats.nodes,
        stats.lut_ops,
        stats.black_box_ops
    );

    let opts = FlowOptions {
        time_limit: Duration::from_secs(limit),
        ..FlowOptions::default()
    };
    println!(
        "{:<10} {:>7} {:>6} {:>6} {:>6} {:>4}",
        "method", "CP(ns)", "LUT", "FF", "depth", "II"
    );
    let mut results = Vec::new();
    for flow in Flow::EXTENDED {
        let r = run_flow(&bench.dfg, &bench.target, flow, &opts)?;
        // The implementation refers to the graph the flow scheduled,
        // which the analyze pre-pass may have rewritten.
        let ins = InputStreams::random(&r.dfg, 32, 9);
        verify_functional(&r.dfg, &bench.target, &r.implementation, &ins, 32)?;
        println!(
            "{:<10} {:>7.2} {:>6} {:>6} {:>6} {:>4}",
            r.flow.label(),
            r.qor.cp_ns,
            r.qor.luts,
            r.qor.ffs,
            r.qor.depth,
            r.ii
        );
        if let Some(s) = &r.milp {
            println!(
                "           ({} in {:?}, {} nodes, {} vars, {} rows, {} cuts)",
                s.status, s.solve_time, s.nodes, s.variables, s.constraints, s.total_cuts
            );
        }
        results.push(r);
    }

    // Every flow output must also be clean under the full static verifier
    // (legality, QoR recount, RTL lint, differential simulation).
    let labeled: Vec<(&str, _, _)> = results
        .iter()
        .map(|r| (r.flow.label(), &r.dfg, &r.implementation))
        .collect();
    let ds = check_flows_with_graphs(
        &bench.dfg,
        &bench.target,
        &labeled,
        &FlowCheckOptions::default(),
    );
    if ds.has_errors() {
        eprintln!("{}", ds.render_human(bench.name));
        return Err(format!("verifier found {} error(s)", ds.error_count()).into());
    }
    println!(
        "\nall {} implementations verifier-clean ({} warning(s)) and \
         equivalent to the reference interpreter",
        labeled.len(),
        ds.warning_count()
    );
    Ok(())
}
