//! # pipemap-verify
//!
//! Diagnostics-driven static verifier and lint passes for the `pipemap`
//! project — a Rust reproduction of *"Area-Efficient Pipelining for
//! FPGA-Targeted High-Level Synthesis"* (Zhao, Tan, Dai, Zhang — DAC
//! 2015).
//!
//! Where the scheduling crates fail fast on the first violated invariant,
//! this crate is the *reporting* layer: every pass walks its whole input,
//! never panics on corrupted artifacts, and returns a [`Diagnostics`]
//! collection of stable-coded findings (`P0xxx`) with severities, optional
//! source spans into the textual `.pmir` format, and human/JSON renderers.
//!
//! Six passes:
//!
//! * [`lint_dfg`] / [`lint_text`] — IR well-formedness (`P00xx`): a total
//!   superset of [`Dfg::validate`](pipemap_ir::Dfg::validate) plus dead
//!   code and memory-shape lints,
//! * [`check_implementation`] — schedule & cover legality (`P01xx`): the
//!   paper's constraint system (Eqs. 2–14) plus K-feasibility, cone
//!   consistency, and an independent QoR recount,
//! * [`lint_verilog`] — structural RTL lint (`P02xx`) over the restricted
//!   subset [`pipemap_netlist::to_verilog`] emits,
//! * [`check_flows`] — differential flow check (`P03xx`): all flow outputs
//!   verifier-clean, simulation-equivalent, and mapping-aware flows no
//!   worse than the baseline on the area objective,
//! * [`check_analysis`] / [`check_simplification`] — dataflow-analysis
//!   audit (`P04xx`): every `pipemap-analyze` fact confronted with seeded
//!   simulation, every proof-carrying rewrite re-derived independently,
//!   and rewritten graphs replayed against their originals,
//! * [`check_milp_analysis`] / [`check_certified_cuts`] — MILP
//!   structural-analysis audit (`P05xx`): every probing fixing and
//!   implication chain replayed from pristine bounds, and every clique
//!   edge and cover cut re-checked against its witness row,
//! * [`check_priority_cuts`] — priority-cut pruning audit (`P06xx`):
//!   every dominance/liveness certificate re-derived from the graph, an
//!   independent cover-feasibility recount, and an objective-invariance
//!   spot-check solving raw-vs-pruned covering MILPs on small graphs,
//! * [`check_resolve`] — incremental re-solve audit (`P08xx`): the last
//!   incrementally re-optimized result confronted with a from-scratch
//!   solve of the identical model, an independent feasibility and
//!   integrality recheck of its assignment, and a consistency check of
//!   the engine's reuse counters.
//!
//! ```
//! use pipemap_verify::{lint_text, Code};
//!
//! let (diags, dfg) = lint_text("dfg d {\n  x: 8 = input\n  o: 8 = output x\n}\n");
//! assert!(dfg.is_some());
//! assert!(!diags.has_errors());
//! let (diags, _) = lint_text("not pmir at all");
//! assert!(diags.has_code(Code::ParseError));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyze_pass;
mod cuts_pass;
mod diag;
mod diff_pass;
mod ir_pass;
mod milp_pass;
mod netlist_pass;
mod resolve_pass;
mod sched_pass;

pub use analyze_pass::{check_analysis, check_graph_equivalence, check_simplification};
pub use cuts_pass::check_priority_cuts;
pub use diag::{Code, Diagnostic, Diagnostics, Severity};
pub use diff_pass::{check_flows, check_flows_with_graphs, objective};
pub use ir_pass::{lint_dfg, lint_text};
pub use milp_pass::{check_certified_cuts, check_milp_analysis};
pub use netlist_pass::lint_verilog;
pub use resolve_pass::check_resolve;
pub use sched_pass::check_implementation;
