//! Conflict graph construction and the clique table.
//!
//! Edges come from two sources: rows whose `≤`-normalized rhs is
//! exceeded whenever two binary members are both 1 (with all remaining
//! terms at minimum activity), and probing implications of the form
//! `x = 1 ⇒ y = 0`. Greedy extension from each edge yields maximal
//! cliques; every member pair of an emitted [`Clique`] carries its
//! [`EdgeWitness`] so the clique inequality `Σ x ≤ 1` is independently
//! checkable.

use super::{Clique, EdgeWitness, Implication};
use crate::model::{Model, Sense};
use std::collections::{BTreeMap, BTreeSet};

/// Rows longer than this skip pairwise edge enumeration.
const MAX_ROW_LEN: usize = 64;
/// Total conflict edges kept.
const MAX_EDGES: usize = 100_000;
/// Cliques kept in the table.
const MAX_CLIQUES: usize = 4096;

pub(super) fn build_cliques(
    model: &Model,
    binary: &[bool],
    implications: &[Implication],
) -> Vec<Clique> {
    let mut edges: BTreeMap<(usize, usize), EdgeWitness> = BTreeMap::new();

    // Row-derived edges. `Ge` rows normalize to `≤` by sign flip; `Eq`
    // rows contribute their `≤` half, which is all the argument needs.
    'rows: for (ri, row) in model.rows.iter().enumerate() {
        if row.coeffs.len() > MAX_ROW_LEN {
            continue;
        }
        let s = if row.sense == Sense::Ge { -1.0 } else { 1.0 };
        let rhs = s * row.rhs;
        let mut mins = Vec::with_capacity(row.coeffs.len());
        let mut total_min = 0.0f64;
        for &(v, a) in &row.coeffs {
            let c = s * a;
            let j = v.index();
            let m = if c > 0.0 {
                c * model.cols[j].lb
            } else {
                c * model.cols[j].ub
            };
            mins.push(m);
            total_min += m;
        }
        if !total_min.is_finite() {
            continue;
        }
        for i in 0..row.coeffs.len() {
            let ji = row.coeffs[i].0.index();
            if !binary[ji] {
                continue;
            }
            let ci = s * row.coeffs[i].1;
            for k in (i + 1)..row.coeffs.len() {
                let jk = row.coeffs[k].0.index();
                if !binary[jk] {
                    continue;
                }
                let ck = s * row.coeffs[k].1;
                let rest = total_min - mins[i] - mins[k];
                if ci + ck + rest > rhs + 1e-6 {
                    edges
                        .entry((ji.min(jk), ji.max(jk)))
                        .or_insert(EdgeWitness::Row { row: ri });
                    if edges.len() >= MAX_EDGES {
                        break 'rows;
                    }
                }
            }
        }
    }

    // Implication-derived edges: `x = 1 ⇒ y = 0` forbids both at 1.
    for (idx, imp) in implications.iter().enumerate() {
        if edges.len() >= MAX_EDGES {
            break;
        }
        if imp.value
            && imp.target_value == 0.0
            && imp.col != imp.target
            && binary[imp.col]
            && binary[imp.target]
        {
            let key = (imp.col.min(imp.target), imp.col.max(imp.target));
            edges
                .entry(key)
                .or_insert(EdgeWitness::Implication { index: idx });
        }
    }

    // Adjacency lists.
    let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for &(a, b) in edges.keys() {
        adj.entry(a).or_default().insert(b);
        adj.entry(b).or_default().insert(a);
    }

    // Greedy maximal clique from every edge seed, deduplicated.
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut cliques = Vec::new();
    for &(a, b) in edges.keys() {
        if cliques.len() >= MAX_CLIQUES {
            break;
        }
        let mut members: BTreeSet<usize> = [a, b].into_iter().collect();
        let mut cands: BTreeSet<usize> = adj[&a].intersection(&adj[&b]).copied().collect();
        while let Some(&c) = cands.iter().next() {
            members.insert(c);
            cands = cands.intersection(&adj[&c]).copied().collect();
            cands.remove(&c);
        }
        let mvec: Vec<usize> = members.into_iter().collect();
        if !seen.insert(mvec.clone()) {
            continue;
        }
        let mut pair_witnesses = Vec::new();
        for i in 0..mvec.len() {
            for k in (i + 1)..mvec.len() {
                pair_witnesses.push((mvec[i], mvec[k], edges[&(mvec[i], mvec[k])]));
            }
        }
        cliques.push(Clique {
            members: mvec,
            edges: pair_witnesses,
        });
    }
    cliques
}
