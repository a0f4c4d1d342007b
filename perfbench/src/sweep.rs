//! The sweep operation of the `prove` workload: incremental `run_sweep`
//! on CLZ over an II list and a monotone weight path, chosen so every
//! point proves optimal. Between solves the `milp` layer sees edits
//! through `ResolveContext`, base deduplication and incumbent seeding.

use std::time::Duration;

use pipemap_bench_suite as suite;
use pipemap_core::{run_sweep, SweepConfig};
use pipemap_ir::{Dfg, Target};
use pipemap_milp::Status;

use crate::{add_resolve, trace, Bench, Round, Size};

/// One incremental sweep, checked point by point.
#[derive(Debug)]
pub struct Sweep {
    /// Optimum of every sweep point, in grid order (II, then weight),
    /// from a cold (non-incremental) sweep of the same grid.
    pub expected: Vec<f64>,
    dfg: Dfg,
    target: Target,
    cfg: SweepConfig,
}

impl Sweep {
    /// Set up the sweep. The grid is fixed, so the seed changes nothing.
    ///
    /// # Errors
    ///
    /// Returns a message when the cold reference sweep of the tiny grid
    /// fails.
    pub fn setup(size: Size, _seed: u64) -> Result<Sweep, String> {
        let weights = vec![(1.0, 0.0, 0.0), (0.75, 0.25, 0.0), (0.5, 0.5, 0.0)];
        let b = match size {
            Size::Full => suite::clz(32),
            Size::Tiny => suite::clz(8),
        };
        let (dfg, target) = (b.dfg, b.target);
        let cfg = SweepConfig {
            ii_values: vec![1, 2],
            k_values: vec![target.k],
            weights,
            // A cap, not a limiter: a point that reaches it fails.
            time_limit: Duration::from_secs(60),
            jobs: 1,
            incremental: true,
            ..SweepConfig::default()
        };
        let expected = match size {
            // The cold (non-incremental) objectives of this grid, as
            // committed in `BENCH_resolve.json`.
            Size::Full => vec![158.0, 127.0, 96.0, 158.0, 127.0, 96.0],
            Size::Tiny => run_sweep(
                &dfg,
                &target,
                &SweepConfig {
                    incremental: false,
                    ..cfg.clone()
                },
            )
            .map_err(|e| format!("cold sweep: {e}"))?
            .points
            .iter()
            .map(|p| p.objective)
            .collect(),
        };
        Ok(Sweep {
            expected,
            cfg,
            dfg,
            target,
        })
    }
}

impl Bench for Sweep {
    fn round(&mut self, out: &mut Round) {
        let (res, _) = out.timed(|| {
            trace::op(|| {
                trace::span("sweep.run", || {
                    run_sweep(&self.dfg, &self.target, &self.cfg)
                })
            })
        });
        let mut problems = Vec::new();
        match res {
            Err(e) => problems.push(format!("run_sweep: {e}")),
            Ok(rep) => {
                out.add("sweep.setup_s", rep.setup_wall.as_secs_f64());
                out.add("sweep.contexts", rep.contexts as f64);
                out.add("sweep.bases_deduped", rep.bases_deduped as f64);
                if let Some(rs) = &rep.resolve {
                    add_resolve(out, rs);
                }
                if rep.points.len() != self.expected.len() {
                    problems.push(format!(
                        "{} points, expected {}",
                        rep.points.len(),
                        self.expected.len()
                    ));
                }
                for (p, want) in rep.points.iter().zip(&self.expected) {
                    if p.status != Status::Optimal || (p.objective - want).abs() > 1e-6 {
                        problems.push(format!(
                            "ii={} alpha={}: {} {}, expected optimal {want}",
                            p.ii, p.alpha, p.status, p.objective
                        ));
                    }
                }
            }
        }
        out.finish_op("sweep", problems);
    }
}
