//! Export a scheduled+mapped pipeline as structural Verilog.
//!
//! ```text
//! cargo run --release --example emit_verilog -- [BENCH]
//! ```

use std::error::Error;
use std::time::Duration;

use pipemap::bench_suite::by_name;
use pipemap::core::{run_flow, Flow, FlowOptions};
use pipemap::netlist::{schedule_report, to_verilog};

fn main() -> Result<(), Box<dyn Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "AES".into());
    let bench = by_name(&name).ok_or("unknown benchmark name")?;
    let opts = FlowOptions {
        time_limit: Duration::from_secs(15),
        ..FlowOptions::default()
    };
    let r = run_flow(&bench.dfg, &bench.target, Flow::MilpMap, &opts)?;

    println!("// ---- schedule report -------------------------------------");
    // The implementation refers to the graph the flow scheduled, which
    // the analyze pre-pass may have rewritten.
    for line in schedule_report(&r.dfg, &bench.target, &r.implementation).lines() {
        println!("// {line}");
    }
    println!();
    let rtl = to_verilog(
        &r.dfg,
        &bench.target,
        &r.implementation,
        &format!("{}_pipeline", name.to_lowercase()),
    )?;
    println!("{rtl}");
    Ok(())
}
