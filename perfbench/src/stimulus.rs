//! Reference outputs computed by the `ir` interpreter on the *original*
//! design during set-up, so a result is checked against values the run
//! under test did not produce (not even its simplified graph).

use std::collections::HashMap;

use pipemap_ir::{execute, Dfg, InputStreams, NodeId, Target};
use pipemap_netlist::{simulate, Implementation};

/// Seeded input vectors and the interpreter's outputs for them.
#[derive(Debug, Clone)]
pub struct Stimulus {
    iters: usize,
    /// Per primary input (in `Dfg::inputs` order), one value per iteration.
    inputs: Vec<Vec<u64>>,
    /// Per iteration, the primary outputs in `Dfg::outputs` order.
    reference: Vec<Vec<u64>>,
}

impl Stimulus {
    /// Interpret `dfg` on `iters` seeded vectors.
    ///
    /// # Errors
    ///
    /// Returns the interpreter's error as text.
    pub fn new(dfg: &Dfg, iters: usize, seed: u64) -> Result<Stimulus, String> {
        let ins = InputStreams::random(dfg, iters, seed);
        let tr = execute(dfg, &ins, iters).map_err(|e| format!("interpreter: {e}"))?;
        let inputs = dfg
            .inputs()
            .into_iter()
            .map(|i| (0..iters).map(|k| tr.value(k, i)).collect())
            .collect();
        let outs = dfg.outputs();
        let reference = (0..iters)
            .map(|k| outs.iter().map(|&o| tr.value(k, o)).collect())
            .collect();
        Ok(Stimulus {
            iters,
            inputs,
            reference,
        })
    }

    /// Simulate `imp` (scheduled over `dfg`, which may be a rewrite of the
    /// original with the same inputs and outputs in the same order) and
    /// compare every output of every iteration with the reference.
    ///
    /// # Errors
    ///
    /// Describes the first divergence or simulation error.
    pub fn check(&self, dfg: &Dfg, target: &Target, imp: &Implementation) -> Result<(), String> {
        let ids = dfg.inputs();
        if ids.len() != self.inputs.len() {
            return Err(format!(
                "{} inputs, reference has {}",
                ids.len(),
                self.inputs.len()
            ));
        }
        let ins: InputStreams = ids.into_iter().zip(self.inputs.iter().cloned()).collect();
        let got =
            simulate(dfg, target, imp, &ins, self.iters).map_err(|e| format!("simulation: {e}"))?;
        if got.len() != self.iters {
            return Err(format!(
                "{} iterations simulated, expected {}",
                got.len(),
                self.iters
            ));
        }
        // The simulator reports outputs by node id; the reference is in
        // `Dfg::outputs` order, which is what matches across a rewrite.
        let position: HashMap<NodeId, usize> = dfg
            .outputs()
            .into_iter()
            .enumerate()
            .map(|(i, o)| (o, i))
            .collect();
        for (k, (outs, want)) in got.iter().zip(&self.reference).enumerate() {
            if outs.len() != want.len() {
                return Err(format!(
                    "iteration {k}: {} outputs, reference has {}",
                    outs.len(),
                    want.len()
                ));
            }
            for &(o, v) in outs {
                let p = position[&o];
                if v != want[p] {
                    return Err(format!(
                        "iteration {k}: output {} is {v:#x}, reference {:#x}",
                        dfg.label(o),
                        want[p]
                    ));
                }
            }
        }
        Ok(())
    }
}
