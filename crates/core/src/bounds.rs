//! Schedule-window computation: chaining-aware ASAP/ALAP cycle bounds.
//!
//! The MILP restricts each node's one-hot schedule variables to the window
//! `[ASAP_v, ALAP_v]`, which is what keeps the model small enough for an
//! exact solve. To stay **sound for the mapping-aware flow**, the bounds
//! are *optimistic*: ASAP assumes each node completes as early as its best
//! enumerated cut allows (absorbed logic contributes zero delay), ALAP
//! assumes downstream logic absorbs for free. Both are relaxations, so a
//! window can only be wider than necessary, never exclude the optimum that
//! the cut database supports.

use pipemap_cuts::CutDb;
use pipemap_ir::{Dfg, Op, Target};

/// Completion "timestamp": (cycle, ns into that cycle), ordered
/// lexicographically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Stamp {
    pub cycle: u32,
    pub time: f64,
}

impl Stamp {
    const ZERO: Stamp = Stamp {
        cycle: 0,
        time: 0.0,
    };

    fn max(self, other: Stamp) -> Stamp {
        if (other.cycle, other.time) > (self.cycle, self.time) {
            other
        } else {
            self
        }
    }
}

/// Delay local to an op's final cycle (its full delay minus whole cycles).
fn local_delay(target: &Target, op: &Op, width: u32) -> f64 {
    let lat = target.op_latency(op, width);
    (target.op_delay(op, width) - f64::from(lat) * target.t_cp).max(0.0)
}

/// Advance a ready stamp through an operation: returns
/// `(start_cycle, completion_stamp)`.
fn place(target: &Target, op: &Op, width: u32, ready: Stamp) -> (u32, Stamp) {
    let lat = target.op_latency(op, width);
    let local = local_delay(target, op, width);
    if lat > 0 {
        // Multi-cycle ops start at a register boundary.
        let start = if ready.time > 1e-9 {
            ready.cycle + 1
        } else {
            ready.cycle
        };
        (
            start,
            Stamp {
                cycle: start + lat,
                time: local,
            },
        )
    } else if ready.time + local > target.t_cp + 1e-9 {
        (
            ready.cycle + 1,
            Stamp {
                cycle: ready.cycle + 1,
                time: local,
            },
        )
    } else {
        (
            ready.cycle,
            Stamp {
                cycle: ready.cycle,
                time: ready.time + local,
            },
        )
    }
}

/// Optimistic ASAP start cycles: each LUT-mappable node takes the best of
/// its enumerated cuts (absorbed interiors contribute nothing); black
/// boxes pay their characterized delay. Loop-carried edges are relaxed.
pub(crate) fn asap_optimistic(dfg: &Dfg, target: &Target, db: &CutDb) -> Vec<u32> {
    let order = dfg.topo_order().expect("validated graph");
    let mut comp = vec![Stamp::ZERO; dfg.len()];
    let mut start = vec![0u32; dfg.len()];
    for &v in &order {
        let node = dfg.node(v);
        match node.op {
            Op::Input | Op::Const(_) => {
                comp[v.index()] = Stamp::ZERO;
            }
            _ if node.op.is_lut_mappable() => {
                // Min over cuts of (max over cut inputs of their completion).
                let mut best: Option<(u32, Stamp)> = None;
                for cut in db.cuts(v).cuts() {
                    let mut ready = Stamp::ZERO;
                    for sig in cut.inputs() {
                        if sig.dist > 0 {
                            continue; // relaxed: registered value, ready at 0
                        }
                        ready = ready.max(comp[sig.node.index()]);
                    }
                    let placed = place(target, &node.op, node.width, ready);
                    best = Some(match best {
                        None => placed,
                        Some((bs, bc)) => {
                            if (placed.1.cycle, placed.1.time) < (bc.cycle, bc.time) {
                                placed
                            } else {
                                (bs, bc)
                            }
                        }
                    });
                }
                let (s, c) = best.unwrap_or((0, Stamp::ZERO));
                start[v.index()] = s;
                comp[v.index()] = c;
            }
            _ => {
                // Black boxes and outputs read their ports directly.
                let mut ready = Stamp::ZERO;
                for p in &node.ins {
                    if p.dist == 0 {
                        ready = ready.max(comp[p.node.index()]);
                    }
                }
                let (s, c) = place(target, &node.op, node.width, ready);
                start[v.index()] = s;
                comp[v.index()] = c;
            }
        }
    }
    start
}

/// Which nodes *can* be absorbed into a consumer's LUT under `db`: a
/// node is absorbable iff it appears strictly inside some enumerated
/// cut's cone. The MILP's cover constraints only let a node escape root
/// duty through such a cut, so a node absent from every cone is a root
/// in **every** feasible cover and must pay its LUT delay — the ALAP
/// bound may charge it without excluding any model-feasible schedule.
/// Pruned cut databases (priority cuts) make this strictly sharper.
pub(crate) fn absorbable_nodes(dfg: &Dfg, db: &CutDb) -> Vec<bool> {
    let mut absorbable = vec![false; dfg.len()];
    for v in dfg.node_ids() {
        if !dfg.node(v).op.is_lut_mappable() {
            continue;
        }
        for cut in db.cuts(v).cuts() {
            for n in pipemap_cuts::cone_nodes(dfg, v, cut) {
                if n != v {
                    absorbable[n.index()] = true;
                }
            }
        }
    }
    absorbable
}

/// Optimistic ALAP start cycles for a latency bound of `m` cycles
/// (start cycles in `0..m`): downstream LUT logic is assumed absorbable
/// (zero delay) where the cut database offers a cone containing it —
/// forced roots pay their local delay; black boxes pay their real
/// latency. Loop-carried edges relaxed. Nodes later than the bound are
/// clamped to `m - 1`.
pub(crate) fn alap_optimistic(dfg: &Dfg, target: &Target, m: u32, absorbable: &[bool]) -> Vec<u32> {
    let order = dfg.topo_order().expect("validated graph");
    let consumers = dfg.consumers();
    // down[v] = (extra cycles needed at/after v's start, ns needed within
    // v's final cycle), computed over the reverse graph.
    let mut down = vec![Stamp::ZERO; dfg.len()];
    for &v in order.iter().rev() {
        let node = dfg.node(v);
        let lat = target.op_latency(&node.op, node.width);
        let local = if node.op.is_lut_mappable() && absorbable[v.index()] {
            0.0 // optimistically absorbed
        } else {
            local_delay(target, &node.op, node.width)
        };
        // Requirement from each distance-0 consumer.
        let mut need = Stamp {
            cycle: lat,
            time: local,
        };
        for &(w, k) in &consumers[v.index()] {
            if dfg.node(w).ins[k].dist != 0 {
                continue;
            }
            let dw = down[w.index()];
            // v completes (lat, local) into some cycle; w then needs dw.
            let combined = if dw.time + local > target.t_cp + 1e-9 {
                Stamp {
                    cycle: lat + dw.cycle + 1,
                    time: local,
                }
            } else {
                Stamp {
                    cycle: lat + dw.cycle,
                    time: dw.time + local,
                }
            };
            need = need.max(combined);
        }
        down[v.index()] = need;
    }
    dfg.node_ids()
        .map(|v| (m - 1).saturating_sub(down[v.index()].cycle.min(m - 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_cuts::CutConfig;
    use pipemap_ir::DfgBuilder;

    #[test]
    fn asap_with_mapping_beats_additive() {
        // A chain of 9 xors: additively 9 * 1.37 = 12.3 ns > 10 ns -> the
        // chain needs 2 cycles; with 4-LUT mapping it collapses into 3-4
        // LUT levels -> 1 cycle.
        let mut b = DfgBuilder::new("chain9");
        let x = b.input("x", 1);
        let y = b.input("y", 1);
        let mut cur = b.xor(x, y);
        for _ in 0..8 {
            cur = b.xor(cur, x);
        }
        b.output("o", cur);
        let g = b.finish().expect("valid");
        let t = Target::default();

        let db_map = CutDb::enumerate(&g, &CutConfig::for_target(&t));
        let asap_map = asap_optimistic(&g, &t, &db_map);

        let db_triv = CutDb::enumerate(&g, &CutConfig::trivial_only(&t));
        let asap_triv = asap_optimistic(&g, &t, &db_triv);

        assert!(asap_map[cur.index()] < asap_triv[cur.index()]);
        assert_eq!(asap_map[cur.index()], 0);
    }

    #[test]
    fn asap_respects_black_box_latency() {
        let mut b = DfgBuilder::new("bb");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let p = b.mul(x, y);
        let n = b.not(p);
        b.output("o", n);
        let g = b.finish().expect("valid");
        let mut t = Target::default();
        t.delays.mul = 25.0; // latency 2 at 10 ns
        let db = CutDb::enumerate(&g, &CutConfig::for_target(&t));
        let asap = asap_optimistic(&g, &t, &db);
        // The multiplier completes in cycle 2 with 5 ns remainder; the NOT
        // chains in cycle 2.
        assert_eq!(asap[p.index()], 0);
        assert_eq!(asap[n.index()], 2);
    }

    #[test]
    fn alap_leaves_room_for_downstream_black_boxes() {
        let mut b = DfgBuilder::new("bb2");
        let x = b.input("x", 8);
        let n = b.not(x);
        let p = b.mul(n, x);
        let o = b.output("o", p);
        let g = b.finish().expect("valid");
        let mut t = Target::default();
        t.delays.mul = 15.0; // latency 1
        let m = 4;
        let db = CutDb::enumerate(&g, &CutConfig::for_target(&t));
        let alap = alap_optimistic(&g, &t, m, &absorbable_nodes(&g, &db));
        // Output needs p done; p needs 1 extra cycle; n feeds p.
        assert_eq!(alap[o.index()], 3);
        assert!(alap[p.index()] <= 2);
        assert!(alap[n.index()] <= alap[p.index()]);
    }

    #[test]
    fn windows_contain_asap_at_matching_depth() {
        let mut b = DfgBuilder::new("w");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let s = b.add(x, y);
        let c = b.and(s, x);
        b.output("o", c);
        let g = b.finish().expect("valid");
        let t = Target::default();
        let db = CutDb::enumerate(&g, &CutConfig::for_target(&t));
        let asap = asap_optimistic(&g, &t, &db);
        let alap = alap_optimistic(&g, &t, 2, &absorbable_nodes(&g, &db));
        for v in g.node_ids() {
            assert!(
                asap[v.index()] <= alap[v.index()],
                "window empty for {v}: [{}, {}]",
                asap[v.index()],
                alap[v.index()]
            );
        }
    }
}
