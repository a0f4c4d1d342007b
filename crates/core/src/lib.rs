//! # pipemap-core
//!
//! The primary contribution of *"Area-Efficient Pipelining for
//! FPGA-Targeted High-Level Synthesis"* (DAC 2015): **mapping-aware modulo
//! scheduling** formulated as a mixed-integer linear program that schedules
//! operations and selects LUT cuts *simultaneously*, minimizing a weighted
//! sum of LUTs and pipeline registers under a throughput (II) constraint.
//!
//! Three flows are provided, matching the paper's evaluation:
//!
//! * [`Flow::HlsTool`] — an additive-delay heuristic modulo scheduler with
//!   register-bounded downstream mapping (the commercial-tool stand-in),
//! * [`Flow::MilpBase`] — the exact MILP with trivial cuts only,
//! * [`Flow::MilpMap`] — the full mapping-aware MILP (§3.2, Eqs. 2–15).
//!
//! ```no_run
//! use pipemap_core::{run_flow, Flow, FlowOptions};
//! use pipemap_ir::{DfgBuilder, Target};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DfgBuilder::new("demo");
//! let x = b.input("x", 8);
//! let y = b.input("y", 8);
//! let z = b.xor(x, y);
//! b.output("z", z);
//! let dfg = b.finish()?;
//!
//! let result = run_flow(&dfg, &Target::default(), Flow::MilpMap, &FlowOptions::default())?;
//! println!("LUTs: {}, FFs: {}", result.qor.luts, result.qor.ffs);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod bounds;
mod decompose;
mod error;
mod flows;
mod formulation;
mod sweep;

pub use baseline::{schedule_baseline, schedule_mapped_heuristic, BaselineResult};

/// Build the raw MILP model for a graph — exposed for profiling binaries
/// and the bench harness; not part of the stable scheduling API.
#[doc(hidden)]
pub fn debug_build_model(
    dfg: &pipemap_ir::Dfg,
    target: &pipemap_ir::Target,
    db: &pipemap_cuts::CutDb,
    ii: u32,
    m: u32,
    alpha: f64,
    beta: f64,
) -> pipemap_milp::Model {
    formulation::build(dfg, target, db, ii, m, alpha, beta).model
}
pub use error::CoreError;
pub use flows::{
    milp_map_model_size_raw, run_all_flows, run_flow, Flow, FlowOptions, FlowResult, MilpStats,
    PrePassStats,
};
pub use sweep::{run_sweep, SweepConfig, SweepPoint, SweepReport};
