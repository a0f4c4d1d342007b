//! Build a custom kernel with a loop-carried recurrence and black-box
//! memory, pipeline it, and verify it end to end — the full user journey
//! on the public API.
//!
//! The kernel is a toy stream scrambler:
//!
//! ```text
//! key   = rom[ctr]                 // black-box ROM read
//! mixed = (sample ^ key) + state'  // state' = state one iteration back
//! state = mixed rotated left by 3
//! out   = mixed
//! ```
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use std::error::Error;

use pipemap::core::{run_flow, Flow, FlowOptions};
use pipemap::ir::{DfgBuilder, InputStreams, Target};
use pipemap::netlist::{verify_functional, Qor};

fn main() -> Result<(), Box<dyn Error>> {
    const W: u32 = 16;
    let mut b = DfgBuilder::new("scrambler");
    let sample = b.input("sample", W);
    let ctr = b.input("ctr", 4);
    let rom = b.add_memory(
        "keys",
        W,
        (0..16u64).map(|i| (i * 0x9E37 + 0x1234) & 0xFFFF).collect(),
    );
    let key = b.load(rom, ctr);
    let xored = b.xor(sample, key);

    // Loop-carried state, rotated each iteration.
    let state_prev = b.placeholder(W);
    let mixed = b.add(xored, state_prev);
    let hi = b.shl(mixed, 3);
    let lo = b.shr(mixed, W - 3);
    let state = b.or(hi, lo);
    b.bind(state_prev, state, 1)?;
    b.set_init_value(state, 0xBEEF);

    b.output("scrambled", mixed);
    let dfg = b.finish()?;
    println!("custom kernel:\n{dfg}\n");

    // Software model for a few iterations, to show the graph means what
    // we think it means.
    let samples: Vec<u64> = vec![0x1111, 0x2222, 0x3333, 0x4444];
    let ctrs: Vec<u64> = vec![0, 1, 2, 3];
    let mut state_sw: u16 = 0xBEEF;
    let mut expected = Vec::new();
    for (s, c) in samples.iter().zip(&ctrs) {
        let key = (c * 0x9E37 + 0x1234) & 0xFFFF;
        let mixed = ((*s as u16) ^ (key as u16)).wrapping_add(state_sw);
        state_sw = mixed.rotate_left(3);
        expected.push(u64::from(mixed));
    }

    let mut ins = InputStreams::new();
    ins.set(dfg.inputs()[0], samples);
    ins.set(dfg.inputs()[1], ctrs);
    let trace = pipemap::ir::execute(&dfg, &ins, 4)?;
    let out = dfg.outputs()[0];
    let got: Vec<u64> = (0..4).map(|k| trace.value(k, out)).collect();
    assert_eq!(got, expected, "interpreter matches the software model");
    println!("interpreter matches the hand-written software model: {got:x?}\n");

    // Pipeline it three ways and compare.
    let target = Target::default();
    let opts = FlowOptions::default();
    for flow in Flow::ALL {
        let r = run_flow(&dfg, &target, flow, &opts)?;
        // Simulate on the graph the flow scheduled, which the analyze
        // pre-pass may have rewritten.
        let ver_ins = InputStreams::random(&r.dfg, 40, 77);
        verify_functional(&r.dfg, &target, &r.implementation, &ver_ins, 40)?;
        let Qor {
            luts,
            ffs,
            cp_ns,
            depth,
            ii,
            ..
        } = r.qor;
        println!(
            "{:<10} -> {luts:>3} LUTs, {ffs:>3} FFs, CP {cp_ns:>5.2} ns, depth {depth}, II {ii}",
            r.flow.label()
        );
    }
    println!("\nall flows verified cycle-accurately against the interpreter");
    Ok(())
}
