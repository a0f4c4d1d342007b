//! Quickstart: build a tiny kernel, run the mapping-aware flow, inspect
//! the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::error::Error;

use pipemap::core::{run_flow, Flow, FlowOptions};
use pipemap::ir::{DfgBuilder, InputStreams, Target};
use pipemap::netlist::verify_functional;

fn main() -> Result<(), Box<dyn Error>> {
    // A small logic kernel: out = ((a ^ b) & c) | (a >> 2).
    let mut b = DfgBuilder::new("quickstart");
    let a = b.input("a", 8);
    let x = b.input("b", 8);
    let c = b.input("c", 8);
    let t1 = b.xor(a, x);
    let t2 = b.and(t1, c);
    let t3 = b.shr(a, 2);
    let out = b.or(t2, t3);
    b.output("out", out);
    let dfg = b.finish()?;

    println!("kernel:\n{dfg}\n");

    // Schedule + map for a default 4-LUT device at a 10 ns clock, II = 1.
    let target = Target::default();
    let result = run_flow(&dfg, &target, Flow::MilpMap, &FlowOptions::default())?;

    println!(
        "mapping-aware result: {} LUTs, {} FFs, CP {:.2} ns, {} pipeline stage(s) at II={}",
        result.qor.luts, result.qor.ffs, result.qor.cp_ns, result.qor.depth, result.ii
    );
    if let Some(stats) = &result.milp {
        println!(
            "solver: {} in {:?} ({} B&B nodes, {} LP iterations)",
            stats.status, stats.solve_time, stats.nodes, stats.lp_iterations
        );
    }

    // Every implementation can be simulated cycle-accurately and checked
    // against the reference interpreter, on the graph the flow scheduled
    // (the analyze pre-pass may have rewritten the input).
    let ins = InputStreams::random(&result.dfg, 16, 42);
    verify_functional(&result.dfg, &target, &result.implementation, &ins, 16)?;
    println!("cycle-accurate simulation matches the reference interpreter");
    Ok(())
}
