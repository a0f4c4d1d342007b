//! One minimal, hand-built violation per `pipemap-verify` lint code:
//! corrupted IR, schedules, covers, and netlists must each be rejected
//! with exactly the right `P0xxx` diagnostic (never a panic), and the
//! textual front end must attach source spans.
//!
//! Three codes are differential cross-checks with no constructible
//! trigger: [`Code::QorMismatch`] (P0108) fires only when the two
//! independent area models disagree, [`Code::FlowsDiverge`] (P0302)
//! only when a *legal* implementation simulates differently from the
//! reference interpreter, and [`Code::FactUnsound`] (P0401) only when
//! a freshly derived dataflow fact contradicts a simulated value — all
//! signal toolchain bugs, not artifact corruption, so they are covered
//! by registry/severity tests plus the clean-path assertions here and
//! the property suite.

use pipemap::analyze::{simplify, Justification, Rewrite, RewriteKind};
use pipemap::cuts::{Cut, CutConfig, CutDb};
use pipemap::ir::{Dfg, DfgBuilder, Node, NodeId, Op, Port, Target};
use pipemap::netlist::{Cover, Implementation, Schedule};
use pipemap::verify::{
    check_analysis, check_flows, check_graph_equivalence, check_implementation,
    check_simplification, lint_dfg, lint_text, lint_verilog, Code, Severity,
};

// ---- helpers ---------------------------------------------------------------

fn unit_cover(dfg: &Dfg, target: &Target) -> Cover {
    let db = CutDb::enumerate(dfg, &CutConfig::trivial_only(target));
    Cover::new(dfg.node_ids().map(|v| db.cuts(v).unit().cloned()).collect())
}

/// x ^ y -> & x -> output, with a legal flat schedule.
fn simple() -> (Dfg, Vec<NodeId>, Target, Implementation) {
    let mut b = DfgBuilder::new("s");
    let x = b.input("x", 4);
    let y = b.input("y", 4);
    let t = b.xor(x, y);
    let u = b.and(t, x);
    let o = b.output("o", u);
    let g = b.finish().expect("valid");
    let target = Target::default();
    let d = target.lut_level_delay();
    let mut starts = vec![0.0; g.len()];
    starts[u.index()] = d;
    let imp = Implementation {
        schedule: Schedule::new(1, vec![0; g.len()], starts),
        cover: unit_cover(&g, &target),
    };
    (g, vec![x, y, t, u, o], target, imp)
}

fn text_codes(src: &str) -> Vec<Code> {
    lint_text(src).0.codes()
}

// ---- IR pass: P00xx --------------------------------------------------------

#[test]
fn p0001_bad_width_from_text() {
    let (ds, _) = lint_text("dfg d {\n  a: 77 = input\n  o: 77 = output a\n}\n");
    assert!(ds.has_code(Code::BadWidth), "{:?}", ds);
    let d = ds.iter().find(|d| d.code == Code::BadWidth).unwrap();
    assert_eq!(d.span.expect("span").line, 2);
}

#[test]
fn p0002_bad_arity_on_raw_graph() {
    let nodes = vec![
        Node {
            op: Op::Input,
            width: 8,
            ins: vec![],
        },
        Node {
            op: Op::Add,
            width: 8,
            ins: vec![Port::this_iter(NodeId(0))], // Add wants 2 operands
        },
    ];
    let g = Dfg::from_raw("arity", nodes, vec![], vec![], Default::default());
    let ds = lint_dfg(&g, None);
    assert!(ds.has_code(Code::BadArity), "{:?}", ds);
}

#[test]
fn p0003_dangling_port_from_undefined_name() {
    let (ds, dfg) = lint_text("dfg d {\n  a: 8 = input\n  o: 8 = output ghost\n}\n");
    assert!(dfg.is_some(), "lenient parse keeps the graph");
    assert!(ds.has_code(Code::DanglingPort), "{:?}", ds);
    let d = ds.iter().find(|d| d.code == Code::DanglingPort).unwrap();
    assert!(d.span.is_some());
}

#[test]
fn p0004_output_consumed_as_data() {
    let src = "dfg d {\n  a: 8 = input\n  z: 8 = output a\n  w: 8 = not z\n  o: 8 = output w\n}\n";
    let ds = lint_text(src).0;
    assert!(ds.has_code(Code::OutputHasConsumer), "{:?}", ds);
}

#[test]
fn p0005_width_mismatch_from_text() {
    let src = "dfg d {\n  a: 8 = input\n  b: 4 = input\n  c: 8 = add a, b\n  o: 8 = output c\n}\n";
    let ds = lint_text(src).0;
    assert!(ds.has_code(Code::WidthMismatch), "{:?}", ds);
    let d = ds.iter().find(|d| d.code == Code::WidthMismatch).unwrap();
    assert_eq!(d.span.expect("span").line, 4);
}

#[test]
fn p0006_load_from_empty_memory() {
    let src = "dfg d {\n  mem m: 8 = []\n  a: 8 = input\n  t: 8 = load.m a\n  o: 8 = output t\n}\n";
    let ds = lint_text(src).0;
    assert!(ds.has_code(Code::BadMemoryRef), "{:?}", ds);
}

#[test]
fn p0007_combinational_cycle_from_text() {
    let src = "dfg d {\n  a: 8 = not b\n  b: 8 = not a\n  o: 8 = output b\n}\n";
    let ds = lint_text(src).0;
    assert!(ds.has_code(Code::CombinationalCycle), "{:?}", ds);
}

#[test]
fn p0008_p0009_dead_code_are_warnings() {
    let src = "dfg d {\n  a: 8 = input\n  u: 8 = input\n  dead: 8 = not a\n  o: 8 = output a\n}\n";
    let ds = lint_text(src).0;
    assert!(ds.has_code(Code::DeadNode));
    assert!(ds.has_code(Code::UnusedInput));
    assert!(!ds.has_errors(), "dead code must not be an error: {:?}", ds);
}

#[test]
fn p0010_no_outputs() {
    let ds = lint_text("dfg d {\n  a: 8 = input\n  b: 8 = not a\n}\n").0;
    assert!(ds.has_code(Code::NoOutputs), "{:?}", ds);
}

#[test]
fn p0011_non_pow2_memory_is_info() {
    let src =
        "dfg d {\n  mem m: 8 = [1, 2, 3]\n  a: 8 = input\n  t: 8 = load.m a\n  o: 8 = output t\n}\n";
    let ds = lint_text(src).0;
    let d = ds.iter().find(|d| d.code == Code::NonPow2Memory).unwrap();
    assert_eq!(d.severity, Severity::Info);
}

#[test]
fn p0012_parse_error() {
    let (ds, dfg) = lint_text("this is not pmir at all");
    assert!(dfg.is_none());
    assert!(ds.has_code(Code::ParseError));
}

/// The acceptance bar for the textual front end: across small `.pmir`
/// inputs the linter reports at least 10 distinct codes, with source
/// spans on the node-anchored ones.
#[test]
fn textual_ir_reports_ten_plus_distinct_codes() {
    let snippets = [
        "dfg d {\n  a: 77 = input\n  o: 77 = output a\n}\n",
        "dfg d {\n  a: 8 = input\n  o: 8 = output ghost\n}\n",
        "dfg d {\n  a: 8 = input\n  z: 8 = output a\n  w: 8 = not z\n  o: 8 = output w\n}\n",
        "dfg d {\n  a: 8 = input\n  b: 4 = input\n  c: 8 = add a, b\n  o: 8 = output c\n}\n",
        "dfg d {\n  mem m: 8 = []\n  a: 8 = input\n  t: 8 = load.m a\n  o: 8 = output t\n}\n",
        "dfg d {\n  a: 8 = not b\n  b: 8 = not a\n  o: 8 = output b\n}\n",
        "dfg d {\n  a: 8 = input\n  u: 8 = input\n  dead: 8 = not a\n  o: 8 = output a\n}\n",
        "dfg d {\n  a: 8 = input\n}\n",
        "dfg d {\n  mem m: 8 = [1, 2, 3]\n  a: 8 = input\n  t: 8 = load.m a\n  o: 8 = output t\n}\n",
        "syntactic garbage",
    ];
    let mut distinct: Vec<Code> = snippets.iter().flat_map(|s| text_codes(s)).collect();
    distinct.sort_by_key(|c| c.as_str());
    distinct.dedup();
    assert!(
        distinct.len() >= 10,
        "only {} distinct codes: {:?}",
        distinct.len(),
        distinct
    );
    let spanned: usize = snippets
        .iter()
        .flat_map(|s| {
            let (ds, _) = lint_text(s);
            ds.into_iter()
                .filter(|d| d.span.is_some())
                .map(|d| d.code.as_str())
                .collect::<Vec<_>>()
        })
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(spanned >= 8, "only {spanned} distinct codes carried spans");
}

// ---- schedule & cover pass: P01xx ------------------------------------------

#[test]
fn p0101_missing_root() {
    let (g, ids, t, imp) = simple();
    let mut sel: Vec<Option<Cut>> = g.node_ids().map(|v| imp.cover.cut(v).cloned()).collect();
    sel[ids[2].index()] = None; // the xor vanishes from the cover
    let imp = Implementation {
        schedule: imp.schedule,
        cover: Cover::new(sel),
    };
    let ds = check_implementation(&g, &t, &imp);
    assert!(ds.has_code(Code::MissingRoot), "{:?}", ds);
}

#[test]
fn p0102_output_not_fed_by_root() {
    let (g, ids, t, imp) = simple();
    let mut sel: Vec<Option<Cut>> = g.node_ids().map(|v| imp.cover.cut(v).cloned()).collect();
    sel[ids[3].index()] = None; // the and feeding the output vanishes
    let imp = Implementation {
        schedule: imp.schedule,
        cover: Cover::new(sel),
    };
    let ds = check_implementation(&g, &t, &imp);
    assert!(ds.has_code(Code::OutputNotRoot), "{:?}", ds);
}

#[test]
fn p0103_dependence_violated() {
    let (g, ids, t, imp) = simple();
    let mut cycles = vec![0; g.len()];
    cycles[ids[2].index()] = 2; // producer after its consumers
    let imp = Implementation {
        schedule: Schedule::new(1, cycles, vec![0.0; g.len()]),
        cover: imp.cover,
    };
    let ds = check_implementation(&g, &t, &imp);
    assert!(ds.has_code(Code::DependenceViolated), "{:?}", ds);
}

#[test]
fn p0104_cycle_time_exceeded() {
    // Ten chained 8-bit adders in one cycle: ~12.8 ns > the 10 ns target.
    let mut b = DfgBuilder::new("deep");
    let x = b.input("x", 8);
    let mut acc = x;
    for _ in 0..10 {
        acc = b.add(acc, x);
    }
    b.output("o", acc);
    let g = b.finish().expect("valid");
    let t = Target::default();
    let imp = Implementation {
        schedule: Schedule::new(1, vec![0; g.len()], vec![0.0; g.len()]),
        cover: unit_cover(&g, &t),
    };
    let ds = check_implementation(&g, &t, &imp);
    assert!(ds.has_code(Code::CycleTimeExceeded), "{:?}", ds);
}

#[test]
fn p0105_resource_oversubscribed() {
    let mut b = DfgBuilder::new("dsp");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let m1 = b.raw_node(Op::Mul, 8, vec![Port::this_iter(x), Port::this_iter(y)]);
    let m2 = b.raw_node(Op::Mul, 8, vec![Port::this_iter(y), Port::this_iter(x)]);
    let s = b.add(m1, m2);
    b.output("o", s);
    let g = b.finish().expect("valid");
    let t = Target {
        mult_limit: Some(1),
        ..Target::default()
    };
    let imp = Implementation {
        schedule: Schedule::new(1, vec![0; g.len()], vec![0.0; g.len()]),
        cover: unit_cover(&g, &t),
    };
    let ds = check_implementation(&g, &t, &imp);
    assert!(ds.has_code(Code::ResourceOversubscribed), "{:?}", ds);
}

#[test]
fn p0106_cut_not_k_feasible() {
    // Enumerate under K=6, then verify against the 4-LUT device.
    let mut b = DfgBuilder::new("wide");
    let ins: Vec<NodeId> = (0..6).map(|i| b.input(format!("i{i}"), 1)).collect();
    let mut acc = ins[0];
    for &p in &ins[1..] {
        acc = b.xor(acc, p);
    }
    b.output("o", acc);
    let g = b.finish().expect("valid");
    let db = CutDb::enumerate(&g, &CutConfig::for_target(&Target::k6()));
    let wide = db
        .cuts(acc)
        .cuts()
        .iter()
        .find(|c| c.max_bit_support() > 4)
        .expect("a >4-input cut exists under K=6")
        .clone();
    let mut sel: Vec<Option<Cut>> = g.node_ids().map(|v| db.cuts(v).unit().cloned()).collect();
    sel[acc.index()] = Some(wide);
    let imp = Implementation {
        schedule: Schedule::new(1, vec![0; g.len()], vec![0.0; g.len()]),
        cover: Cover::new(sel),
    };
    let ds = check_implementation(&g, &Target::default(), &imp);
    assert!(ds.has_code(Code::CutNotKFeasible), "{:?}", ds);
}

#[test]
fn p0107_cone_inconsistent_cut_on_black_box() {
    let mut b = DfgBuilder::new("bb");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let m = b.raw_node(Op::Mul, 8, vec![Port::this_iter(x), Port::this_iter(y)]);
    let s = b.add(m, x);
    b.output("o", s);
    let g = b.finish().expect("valid");
    let t = Target::default();
    let cover = unit_cover(&g, &t);
    let donor = cover.cut(s).expect("add has a unit cut").clone();
    let mut sel: Vec<Option<Cut>> = g.node_ids().map(|v| cover.cut(v).cloned()).collect();
    sel[m.index()] = Some(donor); // a LUT cut on a hard multiplier
    let imp = Implementation {
        schedule: Schedule::new(1, vec![0; g.len()], vec![0.0; g.len()]),
        cover: Cover::new(sel),
    };
    let ds = check_implementation(&g, &t, &imp);
    assert!(ds.has_code(Code::ConeInconsistent), "{:?}", ds);
}

#[test]
fn p0108_qor_recount_agrees_on_legal_pipelines() {
    // QorMismatch is a cross-check between two independent area models;
    // a legal implementation must never trip it.
    let (g, _, t, imp) = simple();
    let ds = check_implementation(&g, &t, &imp);
    assert!(!ds.has_code(Code::QorMismatch), "{:?}", ds);
    assert!(Code::ALL.contains(&Code::QorMismatch));
    assert_eq!(Code::QorMismatch.severity(), Severity::Error);
}

#[test]
fn p0109_schedule_size_mismatch() {
    let (g, _, t, imp) = simple();
    let imp = Implementation {
        schedule: Schedule::new(1, vec![0; 2], vec![0.0; 2]),
        cover: imp.cover,
    };
    let ds = check_implementation(&g, &t, &imp);
    assert!(ds.has_code(Code::ScheduleSizeMismatch), "{:?}", ds);
}

#[test]
fn p0110_invalid_start_time() {
    let (g, ids, t, imp) = simple();
    let mut starts = vec![0.0; g.len()];
    starts[ids[2].index()] = f64::NAN;
    let imp = Implementation {
        schedule: Schedule::new(1, vec![0; g.len()], starts),
        cover: imp.cover,
    };
    let ds = check_implementation(&g, &t, &imp);
    assert!(ds.has_code(Code::InvalidStartTime), "{:?}", ds);
}

// ---- netlist pass: P02xx ---------------------------------------------------

#[test]
fn p0201_multiply_driven_net() {
    let src = "module m (\n  input wire clk,\n  output reg [3:0] o\n);\n\
               wire [3:0] a = 4'h1;\nwire [3:0] a = 4'h2;\n\
               always @(posedge clk) begin\n  o <= a;\nend\nendmodule\n";
    assert!(lint_verilog(src).has_code(Code::MultiplyDrivenNet));
}

#[test]
fn p0202_undeclared_identifier() {
    let src = "module m (\n  input wire clk,\n  output reg [3:0] o\n);\n\
               always @(posedge clk) begin\n  o <= ghost;\nend\nendmodule\n";
    assert!(lint_verilog(src).has_code(Code::UndeclaredIdentifier));
}

#[test]
fn p0203_unused_net_is_warning() {
    let src = "module m (\n  input wire clk,\n  output reg [3:0] o\n);\n\
               wire [3:0] dead = 4'h0;\n\
               always @(posedge clk) begin\n  o <= 4'h1;\nend\nendmodule\n";
    let ds = lint_verilog(src);
    assert!(ds.has_code(Code::UnusedNet));
    assert!(!ds.has_errors());
}

#[test]
fn p0204_net_width_mismatch() {
    let src = "module m (\n  input wire clk,\n  input wire [7:0] x,\n  output reg [3:0] o\n);\n\
               always @(posedge clk) begin\n  o <= x;\nend\nendmodule\n";
    assert!(lint_verilog(src).has_code(Code::NetWidthMismatch));
}

#[test]
fn p0205_p0206_structure_errors() {
    let src = "module m (\n  input wire clk\n);\nalways @(posedge clk) begin\n";
    let ds = lint_verilog(src);
    assert!(ds.has_code(Code::BeginEndImbalance));
    assert!(ds.has_code(Code::MissingModule));
}

#[test]
fn p0207_combinational_net_loop() {
    let src = "module m (\n  input wire clk,\n  output reg [0:0] o\n);\n\
               wire [0:0] a = b;\nwire [0:0] b = a;\n\
               always @(posedge clk) begin\n  o <= a;\nend\nendmodule\n";
    assert!(lint_verilog(src).has_code(Code::CombinationalNetLoop));
}

// ---- differential flow pass: P03xx -----------------------------------------

#[test]
fn p0301_flow_illegal_merges_details() {
    let (g, _, t, good) = simple();
    let bad = Implementation {
        schedule: Schedule::new(1, vec![0; 1], vec![0.0; 1]),
        cover: good.cover.clone(),
    };
    let ds = check_flows(&g, &t, &[("good", &good), ("bad", &bad)]);
    assert!(ds.has_code(Code::FlowIllegal), "{:?}", ds);
    assert!(ds.has_code(Code::ScheduleSizeMismatch));
    assert!(ds.iter().any(|d| d.message.starts_with("[bad]")));
}

#[test]
fn p0302_equivalent_flows_do_not_diverge() {
    // FlowsDiverge is the differential cross-check: legal covers of the
    // same graph implement the same function by construction, so only a
    // simulator/interpreter disagreement (a toolchain bug) can fire it.
    let (g, ids, t, flat) = simple();
    let mut cycles = vec![0; g.len()];
    cycles[ids[3].index()] = 1;
    cycles[ids[4].index()] = 1;
    let split = Implementation {
        schedule: Schedule::new(1, cycles, vec![0.0; g.len()]),
        cover: flat.cover.clone(),
    };
    let ds = check_flows(&g, &t, &[("flat", &flat), ("split", &split)]);
    assert!(!ds.has_code(Code::FlowsDiverge), "{:?}", ds);
    assert!(!ds.has_errors(), "{:?}", ds);
    assert!(Code::ALL.contains(&Code::FlowsDiverge));
    assert_eq!(Code::FlowsDiverge.severity(), Severity::Error);
}

#[test]
fn p0303_objective_regression_is_warning() {
    let (g, ids, t, flat) = simple();
    let mut cycles = vec![0; g.len()];
    cycles[ids[3].index()] = 1;
    cycles[ids[4].index()] = 1;
    let split = Implementation {
        schedule: Schedule::new(1, cycles, vec![0.0; g.len()]),
        cover: flat.cover.clone(),
    };
    let ds = check_flows(&g, &t, &[("flat", &flat), ("split", &split)]);
    let d = ds
        .iter()
        .find(|d| d.code == Code::ObjectiveRegression)
        .expect("split pays registers the flat schedule avoids");
    assert_eq!(d.severity, Severity::Warning);
}

// ---- dataflow-analysis audit: P04xx ----------------------------------------

#[test]
fn p0401_fresh_facts_are_sound_on_clean_graphs() {
    // FactUnsound is the differential cross-check of the analyze pass:
    // the audit derives its own facts, so only an analysis bug can fire
    // it. Clean path + registry entry, mirroring P0108/P0302.
    let (g, ..) = simple();
    let ds = check_analysis(&g, 16, 0x41);
    assert!(!ds.has_code(Code::FactUnsound), "{:?}", ds);
    assert!(!ds.has_errors(), "{:?}", ds);
    assert!(Code::ALL.contains(&Code::FactUnsound));
    assert_eq!(Code::FactUnsound.severity(), Severity::Error);
}

#[test]
fn p0402_forged_justification() {
    let mut b = DfgBuilder::new("j");
    let x = b.input("x", 8);
    let m = b.const_(0x0F, 8);
    let lo = b.and(x, m);
    b.output("o", lo);
    let g = b.finish().expect("valid");
    let mut out = simplify(&g).expect("simplifies");
    out.rewrites.push(Rewrite {
        node: NodeId(0),
        kind: RewriteKind::ConstFold { value: 0x42 },
        justification: Justification::KnownValue { value: 0x42 },
    });
    let ds = check_simplification(&g, &out, 8, 0x42);
    assert!(ds.has_code(Code::JustificationInvalid), "{:?}", ds);
}

#[test]
fn p0403_inequivalent_graphs_diverge_under_replay() {
    let mk = |op: Op| {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let z = match op {
            Op::Xor => b.xor(x, y),
            _ => b.and(x, y),
        };
        b.output("o", z);
        b.finish().expect("valid")
    };
    let ds = check_graph_equivalence("opt", &mk(Op::Xor), &mk(Op::And), 16, 0x43);
    assert!(ds.has_code(Code::SimplifyDiverged), "{:?}", ds);
    assert_eq!(Code::SimplifyDiverged.severity(), Severity::Error);
}

#[test]
fn p0404_p0405_constant_output_and_dead_input_bits_warn() {
    let mut b = DfgBuilder::new("w");
    let x = b.input("x", 16);
    let m = b.const_(0x0F, 16);
    let lo = b.and(x, m); // output high bits known 0; input high bits dead
    b.output("o", lo);
    let g = b.finish().expect("valid");
    let ds = check_analysis(&g, 16, 0x44);
    assert!(!ds.has_errors(), "{:?}", ds);
    for code in [Code::ConstantOutputBit, Code::DeadInputBit] {
        let d = ds.iter().find(|d| d.code == code).unwrap_or_else(|| {
            panic!("missing {code:?}: {}", ds.render_human("w"));
        });
        assert_eq!(d.severity, Severity::Warning);
    }
}

// ---- registry --------------------------------------------------------------

#[test]
fn registry_is_complete_and_stable() {
    assert!(Code::ALL.len() >= 30);
    let mut strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
    let n = strs.len();
    strs.sort();
    strs.dedup();
    assert_eq!(strs.len(), n, "duplicate code strings");
    for c in Code::ALL {
        assert!(c.as_str().starts_with('P'), "{c:?}");
        assert!(!c.summary().is_empty());
    }
}
