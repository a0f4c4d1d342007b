//! # pipemap-bench-suite
//!
//! The nine benchmarks of the DAC'15 paper's evaluation (Table 1/2),
//! reconstructed as word-level CDFG generators, plus the pedagogical
//! Reed-Solomon encoder kernel of Fig. 1/2. The [`paper`] module
//! regenerates every table and figure of the evaluation from them.
//!
//! Each generator is parametric and *scaled down* relative to the paper's
//! LLVM instruction counts (86–2503) so that the from-scratch MILP solver
//! in `pipemap-milp` finishes in seconds to minutes instead of requiring
//! CPLEX; the operation mix, black-box usage, and recurrence structure of
//! each kernel are preserved. Default sizes are recorded per module and in
//! `EXPERIMENTS.md`.
//!
//! ```
//! use pipemap_bench_suite::{all, by_name};
//!
//! let suite = all();
//! assert_eq!(suite.len(), 9);
//! let clz = by_name("CLZ").expect("present");
//! assert!(clz.dfg.stats().lut_ops > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use pipemap_ir::{Dfg, Target};

mod aes;
mod clz;
mod cordic;
mod dr;
mod fig1;
mod gfmul;
mod gsm;
mod mt;
pub mod paper;
mod rs;
mod xorr;

pub use aes::{aes, sbox_table, soft_aes_round};
pub use clz::clz;
pub use cordic::{cordic, soft_cordic};
pub use dr::{dr, soft_dr, training_set};
pub use fig1::rs_encoder_fig1;
pub use gfmul::{gfmul, gfmul_into, soft_gfmul};
pub use gsm::{gsm, soft_gsm};
pub use mt::{mt, soft_mt_stream};
pub use rs::{rs, soft_rs};
pub use xorr::xorr;

/// Kernel vs. full application, as the paper divides Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// Compute-intensive loop/function, almost entirely logic/arithmetic.
    Kernel,
    /// Complete application with black-box (memory/DSP) operations.
    Application,
}

impl std::fmt::Display for BenchClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BenchClass::Kernel => "Kernel",
            BenchClass::Application => "Application",
        })
    }
}

/// One benchmark: a graph plus the metadata printed in Table 1.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short name (the paper's Design column).
    pub name: &'static str,
    /// Kernel or application.
    pub class: BenchClass,
    /// Domain column of Table 1.
    pub domain: &'static str,
    /// Description column of Table 1.
    pub description: &'static str,
    /// The benchmark graph.
    pub dfg: Dfg,
    /// Device model to evaluate on (paper: 10 ns target, 4-LUT).
    pub target: Target,
}

/// All nine benchmarks in the paper's Table 1 order.
pub fn all() -> Vec<Benchmark> {
    vec![
        clz::clz(32),
        xorr::xorr(64, 2),
        gfmul::gfmul(),
        cordic::cordic(5),
        mt::mt(),
        aes::aes(),
        rs::rs(),
        dr::dr(),
        gsm::gsm(),
    ]
}

/// Look up a benchmark by its Table 1 name (case-insensitive).
pub fn by_name(name: &str) -> Option<Benchmark> {
    all()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_valid() {
        let suite = all();
        let names: Vec<_> = suite.iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            ["CLZ", "XORR", "GFMUL", "CORDIC", "MT", "AES", "RS", "DR", "GSM"]
        );
        for b in &suite {
            assert!(b.dfg.validate().is_ok(), "{} invalid", b.name);
            assert!(!b.dfg.outputs().is_empty(), "{} has no outputs", b.name);
        }
    }

    #[test]
    fn kernels_have_no_black_boxes() {
        for b in all() {
            if b.class == BenchClass::Kernel {
                assert_eq!(
                    b.dfg.stats().black_box_ops,
                    0,
                    "{} should be pure logic",
                    b.name
                );
            }
        }
    }

    #[test]
    fn applications_use_black_boxes() {
        for name in ["AES", "DR", "GSM"] {
            let b = by_name(name).expect("exists");
            assert!(
                b.dfg.stats().black_box_ops > 0,
                "{} should contain black boxes",
                name
            );
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("gfmul").is_some());
        assert!(by_name("NOPE").is_none());
    }
}
