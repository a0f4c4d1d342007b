//! End-to-end integration: all three flows on real benchmarks, checked
//! for legality, functional correctness, and the paper's qualitative
//! ordering (mapping-aware ≤ mapping-agnostic ≤ heuristic in the Eq. 15
//! objective).

use std::time::Duration;

use pipemap::bench_suite::{by_name, rs_encoder_fig1};
use pipemap::core::{run_flow, Flow, FlowOptions};
use pipemap::ir::{InputStreams, Target};
use pipemap::netlist::{verify, verify_functional, Qor};

fn opts(secs: u64) -> FlowOptions {
    FlowOptions {
        time_limit: Duration::from_secs(secs),
        ..FlowOptions::default()
    }
}

fn objective(q: &Qor, o: &FlowOptions) -> f64 {
    o.alpha * q.luts as f64 + o.beta * q.ffs as f64
}

#[test]
fn fig1_kernel_all_flows() {
    let (dfg, _) = rs_encoder_fig1();
    let target = Target::fig1();
    let o = opts(10);
    let mut qors = Vec::new();
    for flow in Flow::ALL {
        let r = run_flow(&dfg, &target, flow, &o).expect("flow runs");
        // The implementation refers to the graph the flow scheduled
        // (`r.dfg`), which the analyze pre-pass may have rewritten.
        let ins = InputStreams::random(&r.dfg, 40, 3);
        verify(&r.dfg, &target, &r.implementation).expect("legal");
        verify_functional(&r.dfg, &target, &r.implementation, &ins, 40).expect("functional");
        qors.push(r.qor);
    }
    // Paper Fig. 1: additive needs 3 stages, mapped fits 1.
    assert!(qors[0].depth >= 3, "additive depth {}", qors[0].depth);
    assert_eq!(qors[2].depth, 1, "mapped depth");
    assert!(objective(&qors[2], &o) <= objective(&qors[0], &o) + 1e-9);
}

#[test]
fn milp_map_objective_never_worse_than_seeds() {
    for name in ["MT", "DR"] {
        let b = by_name(name).expect("exists");
        let o = opts(10);
        let hls = run_flow(&b.dfg, &b.target, Flow::HlsTool, &o).expect("hls");
        let map = run_flow(&b.dfg, &b.target, Flow::MilpMap, &o).expect("map");
        assert!(
            objective(&map.qor, &o) <= objective(&hls.qor, &o) + 1e-9,
            "{name}: map {:?} worse than hls {:?}",
            map.qor,
            hls.qor
        );
    }
}

#[test]
fn achieved_cp_respects_target() {
    for name in ["CLZ", "GFMUL", "AES", "GSM"] {
        let b = by_name(name).expect("exists");
        let o = opts(5);
        for flow in Flow::ALL {
            let r = run_flow(&b.dfg, &b.target, flow, &o).expect("flow");
            assert!(
                r.qor.cp_ns <= b.target.t_cp + 1e-6,
                "{name}/{flow}: CP {} > target {}",
                r.qor.cp_ns,
                b.target.t_cp
            );
        }
    }
}

#[test]
fn flows_are_deterministic() {
    let b = by_name("GFMUL").expect("exists");
    let o = opts(5);
    let r1 = run_flow(&b.dfg, &b.target, Flow::MilpMap, &o).expect("first");
    let r2 = run_flow(&b.dfg, &b.target, Flow::MilpMap, &o).expect("second");
    assert_eq!(r1.qor.luts, r2.qor.luts);
    assert_eq!(r1.qor.ffs, r2.qor.ffs);
    assert_eq!(r1.qor.depth, r2.qor.depth);
}

#[test]
fn ii_sweep_never_increases_area() {
    // Relaxing throughput cannot make the optimum worse (the II=1
    // solution space is a subset).
    let b = by_name("AES").expect("exists");
    let mut prev = f64::INFINITY;
    for ii in [1u32, 2] {
        let o = FlowOptions {
            ii,
            time_limit: Duration::from_secs(10),
            ..FlowOptions::default()
        };
        let r = run_flow(&b.dfg, &b.target, Flow::MilpMap, &o).expect("map");
        let cost = objective(&r.qor, &o);
        assert!(
            cost <= prev + 1e-9,
            "II {ii} cost {cost} worse than tighter II {prev}"
        );
        prev = cost;
    }
}

#[test]
fn simulated_occupancy_never_exceeds_priced_ffs() {
    use pipemap::netlist::{ff_count, simulate_with_stats};
    for name in ["GFMUL", "MT", "RS", "AES"] {
        let b = by_name(name).expect("exists");
        let o = opts(5);
        for flow in Flow::ALL {
            let r = run_flow(&b.dfg, &b.target, flow, &o).expect("flow");
            let ins = InputStreams::random(&r.dfg, 24, 21);
            let (_, stats) = simulate_with_stats(&r.dfg, &b.target, &r.implementation, &ins, 24)
                .expect("simulates");
            let ffs = ff_count(&r.dfg, &b.target, &r.implementation);
            assert!(
                stats.peak_register_bits <= ffs,
                "{name}/{flow}: peak occupancy {} > priced FFs {ffs}",
                stats.peak_register_bits
            );
        }
    }
}

#[test]
fn combinational_map_results_occupy_no_registers() {
    use pipemap::netlist::simulate_with_stats;
    let b = by_name("GFMUL").expect("exists");
    let o = opts(20);
    let map = run_flow(&b.dfg, &b.target, Flow::MilpMap, &o).expect("map");
    assert_eq!(map.qor.ffs, 0);
    let ins = InputStreams::random(&map.dfg, 16, 2);
    let (_, stats) =
        simulate_with_stats(&map.dfg, &b.target, &map.implementation, &ins, 16).expect("simulates");
    assert_eq!(stats.peak_register_bits, 0);
}

#[test]
fn gamma_objective_shares_dsps_across_slots() {
    // Two independent multiplies at II = 2: with the DSP term enabled the
    // exact scheduler spreads them across modulo slots so one DSP serves
    // both (the paper's §3.2 resource extension).
    use pipemap::ir::DfgBuilder;
    let mut b = DfgBuilder::new("share");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let z = b.input("z", 8);
    let p1 = b.mul(x, y);
    let p2 = b.mul(y, z);
    let n1 = b.not(p1);
    let n2 = b.not(p2);
    b.output("a", n1);
    b.output("b", n2);
    let dfg = b.finish().expect("valid");
    let target = Target::default();

    let mut o = opts(10);
    o.ii = 2;
    o.extra_latency = 1;
    o.gamma = 10.0;
    let r = run_flow(&dfg, &target, Flow::MilpMap, &o).expect("map");
    assert_eq!(r.ii, 2);
    assert_eq!(r.qor.dsps, 1, "DSP sharing expected: {:?}", r.qor);
    let ins = InputStreams::random(&r.dfg, 12, 4);
    verify_functional(&r.dfg, &target, &r.implementation, &ins, 12).expect("functional");
}
