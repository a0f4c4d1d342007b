//! Pass 4: differential flow check.
//!
//! Given the implementations several scheduling flows produced for the
//! *same* graph, assert that every one of them is verifier-clean,
//! simulation-equivalent to the reference interpreter (and therefore to
//! each other), structurally lint-free as RTL, and — for the mapping-aware
//! flows — no worse than the first (baseline) flow on the paper's area
//! objective (Eq. 15) at the same II.
//!
//! This pass takes **pre-produced** implementations rather than invoking
//! the flows itself, so the scheduling crates can depend on this crate for
//! diagnostics without a dependency cycle.

use pipemap_ir::{Dfg, InputStreams, Target};
use pipemap_netlist::{to_verilog, verify_functional, Implementation, Qor};

use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::ir_pass::lint_dfg;
use crate::netlist_pass::lint_verilog;
use crate::sched_pass::check_implementation;

/// Random input vectors per differential simulation.
const VECTORS: usize = 24;
/// Seed for the input streams.
const SEED: u64 = 0xC0FFEE;
/// LUT weight of the objective (paper Eq. 15 α).
const ALPHA: f64 = 0.5;
/// FF weight of the objective (paper Eq. 15 β).
const BETA: f64 = 0.5;

/// The paper's area objective (Eq. 15) for one implementation, with
/// α = β = 0.5. DSPs carry no weight (γ = 0 in the §3.2 extension).
pub fn objective(q: &Qor) -> f64 {
    ALPHA * q.luts as f64 + BETA * q.ffs as f64
}

/// Differentially check a set of labeled flow outputs for one graph.
///
/// The first entry is treated as the baseline for the
/// [`Code::ObjectiveRegression`] comparison on [`objective`] (the paper
/// compares its MILP flows against the HLS tool's heuristic). Each flow
/// is simulated on 24 seeded random input vectors, and II = 1
/// implementations are also exported to Verilog and the RTL linted.
/// Flows whose implementation fails the legality pass are reported via
/// [`Code::FlowIllegal`] (with the underlying findings merged in,
/// prefixed by the flow label) and are excluded from simulation, which
/// could otherwise panic on corrupt covers.
pub fn check_flows(dfg: &Dfg, target: &Target, flows: &[(&str, &Implementation)]) -> Diagnostics {
    let with_graphs: Vec<(&str, &Dfg, &Implementation)> =
        flows.iter().map(|&(l, imp)| (l, dfg, imp)).collect();
    check_flows_with_graphs(dfg, target, &with_graphs)
}

/// [`check_flows`] for flows that may each have scheduled a *rewritten*
/// graph (e.g. the `pipemap-analyze` pre-pass of the MILP-map flow).
///
/// Each implementation is legality-checked and simulated against its own
/// graph; a flow graph differing from `dfg` is additionally linted and
/// replayed against the original via seeded vectors, reporting
/// [`Code::SimplifyDiverged`] on any output mismatch — so the
/// equivalence chain `implementation ≡ flow graph ≡ original` is closed
/// for every flow.
pub fn check_flows_with_graphs(
    dfg: &Dfg,
    target: &Target,
    flows: &[(&str, &Dfg, &Implementation)],
) -> Diagnostics {
    let mut ds = Diagnostics::new();

    // A broken graph makes every downstream judgment meaningless.
    let graph_ds = lint_dfg(dfg, None);
    if graph_ds.has_errors() {
        ds.merge(graph_ds);
        return ds;
    }

    let mut qors: Vec<Option<Qor>> = Vec::with_capacity(flows.len());

    for &(label, flow_dfg, imp) in flows {
        if flow_dfg != dfg {
            let fg_ds = lint_dfg(flow_dfg, None);
            if fg_ds.has_errors() {
                ds.push(Diagnostic::new(
                    Code::FlowIllegal,
                    format!(
                        "flow `{label}` scheduled a graph with {} lint error(s)",
                        fg_ds.error_count()
                    ),
                ));
                ds.merge(
                    fg_ds
                        .into_iter()
                        .map(|mut d| {
                            d.message = format!("[{label}/graph] {}", d.message);
                            d
                        })
                        .collect(),
                );
                qors.push(None);
                continue;
            }
            ds.merge(crate::analyze_pass::check_graph_equivalence(
                &format!("flow `{label}` pre-pass"),
                dfg,
                flow_dfg,
                VECTORS,
                SEED,
            ));
        }
        let ins = InputStreams::random(flow_dfg, VECTORS, SEED);
        let flow_ds = check_implementation(flow_dfg, target, imp);
        if flow_ds.has_errors() {
            ds.push(Diagnostic::new(
                Code::FlowIllegal,
                format!(
                    "flow `{label}` produced an illegal implementation \
                     ({} error(s) below)",
                    flow_ds.error_count()
                ),
            ));
            ds.merge(
                flow_ds
                    .into_iter()
                    .map(|mut d| {
                        d.message = format!("[{label}] {}", d.message);
                        d
                    })
                    .collect(),
            );
            qors.push(None);
            continue;
        }
        ds.merge(flow_ds); // keep warnings/info

        if let Err(e) = verify_functional(flow_dfg, target, imp, &ins, VECTORS) {
            ds.push(Diagnostic::new(
                Code::FlowsDiverge,
                format!("flow `{label}` diverges from the reference interpreter: {e}"),
            ));
            qors.push(None);
            continue;
        }

        if imp.schedule.ii() == 1 {
            if let Ok(rtl) = to_verilog(flow_dfg, target, imp, &format!("{}_{label}", dfg.name())) {
                let rtl_ds = lint_verilog(&rtl);
                if rtl_ds.has_errors() {
                    ds.push(Diagnostic::new(
                        Code::FlowIllegal,
                        format!(
                            "flow `{label}` emits RTL with {} structural error(s)",
                            rtl_ds.error_count()
                        ),
                    ));
                }
                ds.merge(
                    rtl_ds
                        .into_iter()
                        .map(|mut d| {
                            d.message = format!("[{label}/rtl] {}", d.message);
                            d
                        })
                        .collect(),
                );
            }
        }

        qors.push(Some(Qor::evaluate(flow_dfg, target, imp)));
    }

    // Objective comparison against the baseline (first flow), same II only.
    if let Some(Some(base)) = qors.first() {
        let base_obj = objective(base);
        for (i, q) in qors.iter().enumerate().skip(1) {
            let Some(q) = q else { continue };
            if q.ii != base.ii {
                continue;
            }
            let obj = objective(q);
            if obj > base_obj + 1e-9 {
                ds.push(Diagnostic::new(
                    Code::ObjectiveRegression,
                    format!(
                        "flow `{}` scores {obj:.1} on the area objective, worse \
                         than baseline `{}` at {base_obj:.1} (same II = {})",
                        flows[i].0, flows[0].0, q.ii
                    ),
                ));
            }
        }
    }

    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_cuts::{CutConfig, CutDb};
    use pipemap_ir::DfgBuilder;
    use pipemap_netlist::{Cover, Schedule};

    /// x^y -> &x -> +y with two legal implementations: flat (cycle 0) and
    /// split across two stages.
    fn setup() -> (Dfg, Target, Implementation, Implementation) {
        let mut b = DfgBuilder::new("d");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let t = b.xor(x, y);
        let u = b.and(t, x);
        let s = b.add(u, y);
        let o = b.output("o", s);
        let g = b.finish().expect("valid");
        let target = Target::default();
        let db = CutDb::enumerate(&g, &CutConfig::trivial_only(&target));
        let cover = Cover::new(g.node_ids().map(|v| db.cuts(v).unit().cloned()).collect());
        let d = target.lut_level_delay();
        let mut starts = vec![0.0; g.len()];
        starts[u.index()] = d;
        starts[s.index()] = 2.0 * d;
        let flat = Implementation {
            schedule: Schedule::new(1, vec![0; g.len()], starts),
            cover: cover.clone(),
        };
        let mut cycles = vec![0; g.len()];
        cycles[s.index()] = 1;
        cycles[o.index()] = 1;
        let split = Implementation {
            schedule: Schedule::new(1, cycles, vec![0.0; g.len()]),
            cover,
        };
        (g, target, flat, split)
    }

    #[test]
    fn equivalent_legal_flows_pass_with_regression_warning() {
        let (g, t, flat, split) = setup();
        let ds = check_flows(&g, &t, &[("flat", &flat), ("split", &split)]);
        // The split pipeline pays registers the flat one does not: that is
        // an objective regression (warning), but nothing is an error.
        assert!(!ds.has_errors(), "{}", ds.render_human("d"));
        assert!(ds.has_code(Code::ObjectiveRegression), "{:?}", ds);
    }

    #[test]
    fn illegal_flow_is_reported_and_skipped() {
        let (g, t, flat, mut split) = setup();
        // Corrupt the split flow: shrink its schedule.
        split.schedule = Schedule::new(1, vec![0; 2], vec![0.0; 2]);
        let ds = check_flows(&g, &t, &[("flat", &flat), ("split", &split)]);
        assert!(ds.has_code(Code::FlowIllegal), "{:?}", ds);
        assert!(ds.has_code(Code::ScheduleSizeMismatch));
    }

    #[test]
    fn broken_graph_short_circuits() {
        use pipemap_ir::{Node, NodeId, Op, Port};
        let nodes = vec![Node {
            op: Op::Not,
            width: 8,
            ins: vec![Port::this_iter(NodeId(7))],
        }];
        let g = Dfg::from_raw("broken", nodes, vec![], vec![], Default::default());
        let t = Target::default();
        let imp = Implementation {
            schedule: Schedule::new(1, vec![0], vec![0.0]),
            cover: Cover::new(vec![None]),
        };
        let ds = check_flows(&g, &t, &[("only", &imp)]);
        assert!(ds.has_code(Code::DanglingPort));
        assert!(ds.has_errors());
    }
}
