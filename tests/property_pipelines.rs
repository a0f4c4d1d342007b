//! Property tests over randomly generated CDFGs: cut enumeration
//! invariants, scheduler legality, functional equivalence of every
//! produced pipeline with the reference interpreter, and zero-error
//! verification of every flow by the `pipemap-verify` static checker.
//!
//! Graphs come from [`pipemap::ir::random_dfg`] — a deterministic,
//! dependency-free generator (the offline stand-in for an external
//! property-testing crate). Each property sweeps a fixed seed range, so
//! a failure reproduces from its seed alone.

use pipemap::core::{run_flow, schedule_baseline, schedule_mapped_heuristic, Flow, FlowOptions};
use pipemap::cuts::{cone_nodes, CutConfig, CutDb};
use pipemap::ir::{random_dfg, Dfg, InputStreams, RandomDfgConfig, Target};
use pipemap::netlist::{verify, verify_functional};
use pipemap::verify::check_flows_with_graphs;

const CASES: u64 = 48;

fn cfg() -> RandomDfgConfig {
    RandomDfgConfig::default()
}

/// Every enumerated non-unit cut is K-feasible, the unit cut comes
/// first, and every cut's cone is extractable.
#[test]
fn cut_enumeration_invariants() {
    for seed in 0..CASES {
        let dfg = random_dfg(seed, &cfg());
        let target = Target::default();
        let cut_cfg = CutConfig::for_target(&target);
        let db = CutDb::enumerate(&dfg, &cut_cfg);
        for (id, node) in dfg.iter() {
            let set = db.cuts(id);
            if !node.op.is_lut_mappable() {
                assert!(set.is_empty());
                continue;
            }
            assert!(!set.is_empty(), "seed {seed}: missing unit cut for {id}");
            for (i, cut) in set.cuts().iter().enumerate() {
                if i > 0 {
                    assert!(
                        cut.max_bit_support() <= cut_cfg.k,
                        "seed {seed}: cut {cut} of {id} exceeds K"
                    );
                }
                let cone = cone_nodes(&dfg, id, cut);
                assert!(cone.contains(&id));
                // The traced (bit-level) cone may be smaller than the
                // structural one when bits are shifted out or masked.
                assert!(
                    cone.len() as u32 >= cut.cone_size() || i == 0,
                    "seed {seed}: structural cone {} < traced {}",
                    cone.len(),
                    cut.cone_size()
                );
            }
        }
    }
}

/// The baseline flow always produces a legal, functionally correct
/// pipeline (II is bumped if needed).
#[test]
fn baseline_always_legal_and_correct() {
    for seed in 0..CASES {
        let dfg = random_dfg(seed, &cfg());
        let target = Target::default();
        let db = CutDb::enumerate(&dfg, &CutConfig::for_target(&target));
        let base = schedule_baseline(&dfg, &target, 1, &db).expect("baseline schedules");
        verify(&dfg, &target, &base.implementation).expect("legal");
        let ins = InputStreams::random(&dfg, 12, 0xFACE);
        verify_functional(&dfg, &target, &base.implementation, &ins, 12)
            .unwrap_or_else(|e| panic!("seed {seed}: functional: {e}"));
    }
}

/// The mapping-aware heuristic, when it succeeds, is legal and
/// functionally correct, and never uses a longer pipeline than the
/// additive baseline at the same II.
#[test]
fn mapped_heuristic_legal_and_no_deeper() {
    for seed in 0..CASES {
        let dfg = random_dfg(seed, &cfg());
        let target = Target::default();
        let db = CutDb::enumerate(&dfg, &CutConfig::for_target(&target));
        let base = schedule_baseline(&dfg, &target, 1, &db).expect("baseline schedules");
        if let Some(h) = schedule_mapped_heuristic(&dfg, &target, 1, &db) {
            verify(&dfg, &target, &h.implementation).expect("legal");
            let ins = InputStreams::random(&dfg, 12, 0xF00D);
            verify_functional(&dfg, &target, &h.implementation, &ins, 12)
                .unwrap_or_else(|e| panic!("seed {seed}: functional: {e}"));
            if h.ii == base.ii {
                assert!(
                    h.implementation.schedule.depth() <= base.implementation.schedule.depth(),
                    "seed {seed}: heuristic deeper than baseline"
                );
            }
        }
    }
}

/// The full MILP-map flow on random graphs: legal, functional, and no
/// worse than the heuristic baseline in the Eq. 15 objective.
#[test]
fn milp_map_flow_on_random_graphs() {
    for seed in 0..8 {
        let dfg = random_dfg(seed, &cfg());
        let target = Target::default();
        let opts = FlowOptions {
            time_limit: std::time::Duration::from_secs(2),
            ..FlowOptions::default()
        };
        let hls = run_flow(&dfg, &target, Flow::HlsTool, &opts).expect("hls");
        let map = run_flow(&dfg, &target, Flow::MilpMap, &opts).expect("map");
        let ins = InputStreams::random(&map.dfg, 12, 0xBEE);
        verify_functional(&map.dfg, &target, &map.implementation, &ins, 12)
            .unwrap_or_else(|e| panic!("seed {seed}: functional: {e}"));
        if map.ii == hls.ii {
            let cost =
                |q: &pipemap::netlist::Qor| opts.alpha * q.luts as f64 + opts.beta * q.ffs as f64;
            assert!(
                cost(&map.qor) <= cost(&hls.qor) + 1e-9,
                "seed {seed}: map {:?} worse than hls {:?}",
                map.qor,
                hls.qor
            );
        }
    }
}

/// Every schedule produced by all three paper flows passes the full
/// static verifier with zero error diagnostics, and the flows are
/// simulation-equivalent (differential check, including the RTL lint at
/// II = 1).
#[test]
fn all_flows_verifier_clean() {
    for seed in 0..12 {
        let dfg = random_dfg(seed, &cfg());
        let target = Target::default();
        let opts = FlowOptions {
            time_limit: std::time::Duration::from_secs(2),
            ..FlowOptions::default()
        };
        let results: Vec<_> = Flow::ALL
            .iter()
            .map(|&f| {
                let r = run_flow(&dfg, &target, f, &opts)
                    .unwrap_or_else(|e| panic!("seed {seed}: flow {}: {e}", f.label()));
                (f.label(), r)
            })
            .collect();
        let flows: Vec<(&str, &Dfg, _)> = results
            .iter()
            .map(|(l, r)| (*l, &r.dfg, &r.implementation))
            .collect();
        let ds = check_flows_with_graphs(&dfg, &target, &flows);
        assert!(
            !ds.has_errors(),
            "seed {seed}: verifier errors:\n{}",
            ds.render_human(dfg.name())
        );
    }
}
