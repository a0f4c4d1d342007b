//! Sparse LU factorization of the simplex basis, with product-form (eta)
//! updates.
//!
//! The basis matrices arising from scheduling MILPs are extremely sparse
//! (a handful of nonzeros per row, many slack columns), so a
//! Markowitz-flavoured right-looking elimination with threshold pivoting
//! keeps fill-in negligible and refactorization cheap.
//!
//! Terminology: the basis `B` is `m × m` with `B[row][pos] =
//! A[row][basis[pos]]`; *rows* index constraints, *positions* index slots in
//! the basis header. `ftran` solves `B x = b` (x over positions), `btran`
//! solves `Bᵀ y = c` (y over rows).
//!
//! **Storage.** L, U, the eta file and the bordered rows are packed
//! start/index/value arrays ([`Packed`]); a refactorization refills them in
//! place. The active submatrix of the elimination lives in one
//! [`Workspace`] per thread, reused by every factorization on that thread,
//! so the elimination allocates nothing once the buffers have grown to the
//! largest basis seen. FTRAN and BTRAN run the triangular solves in row
//! space and move between row and position space with a stored
//! permutation, so they work in place in the caller's vector.
//!
//! **Determinism.** The pivot sequence and every floating-point operation
//! depend only on the basis, never on bookkeeping order: the pivot column
//! is an active column with the fewest entries (ties to the lowest
//! position), the pivot row the shortest active row among entries at
//! least `TAU` times the column maximum (ties to the lowest row index),
//! pivot-row entries are applied in position order, and L operations are
//! replayed in the order their rows first entered the pivot column.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Threshold-pivoting relative tolerance.
const TAU: f64 = 0.05;
/// Entries at or below this magnitude are dropped as cancelled.
const ABS_TINY: f64 = 1e-11;

/// Factorization failure: the basis is (numerically) singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Singular {
    /// A basis position that could not be pivoted.
    pub position: usize,
}

/// A sequence of sparse vectors packed into flat arrays: vector `k` is
/// `idx/val[start[k]..start[k + 1]]` (the last one ends at `idx.len()`).
#[derive(Debug, Clone, Default)]
struct Packed {
    start: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl Packed {
    fn clear(&mut self) {
        self.start.clear();
        self.idx.clear();
        self.val.clear();
    }

    /// Start a new vector; entries pushed from here on belong to it.
    fn open(&mut self) {
        self.start.push(self.idx.len());
    }

    fn push(&mut self, i: usize, v: f64) {
        self.idx.push(i as u32);
        self.val.push(v);
    }

    fn range(&self, k: usize) -> Range<usize> {
        self.start[k]..self.start.get(k + 1).copied().unwrap_or(self.idx.len())
    }

    /// Entries of vector `k` in stored order.
    fn entries(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.range(k);
        self.idx[r.clone()]
            .iter()
            .zip(&self.val[r])
            .map(|(&i, &v)| (i as usize, v))
    }
}

/// LU factors plus the eta file accumulated since the last refactorization.
///
/// Elimination step `k` pivots row `pivot_row[k]`; the factors never
/// store its position, only the row → position permutation in `swaps`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factors {
    m: usize,
    pivot_row: Vec<u32>,
    /// Per step: `(target_row, multiplier)` row operations, in the order
    /// the rows entered the pivot column.
    l: Packed,
    /// Per step: the off-diagonal entries of the pivot row in ascending
    /// position order, each addressed by the pivot row of the step that
    /// eliminated that position (solves run in row space).
    u: Packed,
    /// Per step: the diagonal (pivot) value.
    u_diag: Vec<f64>,
    /// The permutation taking a step's pivot row to its pivot position,
    /// as transpositions: applied in order they move a row-indexed vector
    /// to position order, in reverse order they undo it.
    swaps: Vec<(u32, u32)>,
    /// One vector per update `B_new = B_old · E`, where `E` is the
    /// identity with column `eta_pos[e]` replaced by `w = B_old⁻¹ a`:
    /// the off-pivot entries of `w` (position, value).
    etas: Packed,
    eta_pos: Vec<u32>,
    /// `w[eta_pos[e]]`, the pivot element.
    eta_pivot: Vec<f64>,
    /// Bordered extension rows appended by [`Factors::append_rows`]
    /// (re-solve with added cut rows); empty for a fresh factorization.
    /// With `k` rows appended the basis becomes the block-lower-triangular
    /// `[[B, 0], [C, S]]`: row `i` of `(C | S)` is the vector `border[i]`
    /// (coefficients on earlier basis *positions*, both base and prior
    /// border) plus the diagonal `border_pivot[i]` (the appended row's
    /// own basic column, a slack in practice).
    border: Packed,
    border_pivot: Vec<f64>,
    /// How many etas were recorded *before* the border was appended.
    /// Those etas act on base positions only and belong inside `B`; etas
    /// past this index act on the full bordered dimension.
    border_at: usize,
}

/// Growable lists packed into one array. A list that outgrows its slot
/// moves to the end of the array; the slot it leaves is not reused until
/// the next [`Lists::reset`].
#[derive(Debug, Default)]
struct Lists<T> {
    start: Vec<usize>,
    len: Vec<usize>,
    cap: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> Lists<T> {
    /// Empty lists with room for `sizes[i] + SPARE` items each.
    fn reset(&mut self, sizes: &[usize]) {
        const SPARE: usize = 2;
        self.start.clear();
        self.len.clear();
        self.cap.clear();
        let mut end = 0;
        for &n in sizes {
            self.start.push(end);
            self.len.push(0);
            self.cap.push(n + SPARE);
            end += n + SPARE;
        }
        self.items.clear();
        self.items.resize(end, T::default());
    }

    fn get(&self, i: usize) -> &[T] {
        &self.items[self.start[i]..self.start[i] + self.len[i]]
    }

    fn get_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.items[self.start[i]..self.start[i] + self.len[i]]
    }

    fn truncate(&mut self, i: usize, len: usize) {
        debug_assert!(len <= self.len[i]);
        self.len[i] = len;
    }

    fn push(&mut self, i: usize, item: T) {
        if self.len[i] == self.cap[i] {
            let (s, n) = (self.start[i], self.len[i]);
            let new_start = self.items.len();
            self.items.extend_from_within(s..s + n);
            self.cap[i] = 2 * n + 2;
            self.items.resize(new_start + self.cap[i], T::default());
            self.start[i] = new_start;
        }
        self.items[self.start[i] + self.len[i]] = item;
        self.len[i] += 1;
    }
}

/// The active submatrix of an elimination and its scratch buffers. Every
/// buffer is cleared and refilled per factorization, never shrunk, so a
/// thread allocates only while its bases keep growing.
#[derive(Debug, Default)]
struct Workspace {
    /// Input nonzeros `(row, position, value)` in input order.
    input: Vec<(u32, u32, f64)>,
    /// Entry counts per row, then per column, while loading.
    sizes: Vec<usize>,
    /// Active rows: `(position, value)` entries in no particular order.
    rows: Lists<(u32, f64)>,
    /// Per column, the rows that hold an entry in it, in insertion order.
    /// Rows whose entry cancelled stay listed (and are listed again if
    /// the entry reappears), so readers filter; `col_count` is exact.
    cols: Lists<u32>,
    col_count: Vec<usize>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// Lazy min-heap over `(count, column)`; may hold stale entries.
    heap: BinaryHeap<Reverse<(usize, usize)>>,
    /// `step + 1` when a row was last taken as a pivot-column candidate.
    seen: Vec<usize>,
    /// Candidate rows of the pivot column with their entry in it.
    cand: Vec<(u32, f64)>,
    /// Off-pivot entries of the pivot row, ascending by position.
    prow: Vec<(u32, f64)>,
    /// `1 + index into prow` per position of the pivot row, else 0.
    pmark: Vec<u32>,
    /// Which `prow` entries the row being updated already holds.
    hit: Vec<bool>,
    /// Pivot position per step.
    pivot_pos: Vec<u32>,
    /// Pivot row per position, then the row → position map.
    perm: Vec<u32>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

impl Workspace {
    /// Load the basis columns into the active matrix.
    fn load<'c>(&mut self, m: usize, cols: impl IntoIterator<Item = &'c [(usize, f64)]>) {
        self.input.clear();
        let mut n = 0;
        for (pos, col) in cols.into_iter().enumerate() {
            for &(r, v) in col {
                if v != 0.0 {
                    self.input.push((r as u32, pos as u32, v));
                }
            }
            n = pos + 1;
        }
        debug_assert_eq!(n, m);

        self.sizes.clear();
        self.sizes.resize(m, 0);
        for &(r, _, _) in &self.input {
            self.sizes[r as usize] += 1;
        }
        self.rows.reset(&self.sizes);
        self.sizes.clear();
        self.sizes.resize(m, 0);
        for &(_, pos, _) in &self.input {
            self.sizes[pos as usize] += 1;
        }
        self.cols.reset(&self.sizes);
        for &(r, pos, v) in &self.input {
            debug_assert!(
                !self.rows.get(r as usize).iter().any(|&(c, _)| c == pos),
                "duplicate entry in basis column {pos}"
            );
            self.rows.push(r as usize, (pos, v));
            self.cols.push(pos as usize, r);
        }

        self.col_count.clear();
        self.col_count.extend_from_slice(&self.sizes);
        self.row_active.clear();
        self.row_active.resize(m, true);
        self.col_active.clear();
        self.col_active.resize(m, true);
        self.seen.clear();
        self.seen.resize(m, 0);
        self.pmark.clear();
        self.pmark.resize(m, 0);
        self.pivot_pos.clear();
        let mut heap = std::mem::take(&mut self.heap).into_vec();
        heap.clear();
        heap.extend((0..m).map(|c| Reverse((self.col_count[c], c))));
        self.heap = BinaryHeap::from(heap);
    }

    /// Pivot column: an active column with the fewest entries, ties to the
    /// lowest position (lazy fix-up of stale heap entries).
    fn pivot_column(&mut self) -> Result<usize, Singular> {
        loop {
            let Some(Reverse((cnt, c))) = self.heap.pop() else {
                // All heap entries stale; find any active column.
                return Ok(self
                    .col_active
                    .iter()
                    .position(|&a| a)
                    .expect("active column remains before step m"));
            };
            if !self.col_active[c] {
                continue;
            }
            if self.col_count[c] != cnt {
                self.heap.push(Reverse((self.col_count[c], c)));
                continue;
            }
            if cnt == 0 {
                return Err(Singular { position: c });
            }
            return Ok(c);
        }
    }

    /// Remove one entry from column `c`'s count.
    fn drop_entry(&mut self, c: usize) {
        self.col_count[c] -= 1;
        self.heap.push(Reverse((self.col_count[c], c)));
    }

    /// Row `r` -= `mult` × pivot row: updates the entries it shares with
    /// the pivot row, drops its pivot-column entry and every cancelled
    /// entry, and appends fill-in.
    fn eliminate_row(&mut self, r: usize, pc: usize, mult: f64) {
        self.hit.clear();
        self.hit.resize(self.prow.len(), false);
        let mut keep = 0;
        for e in 0..self.rows.len[r] {
            let (c, val) = self.rows.get(r)[e];
            let c = c as usize;
            if c == pc {
                continue;
            }
            let j = self.pmark[c] as usize;
            let val = if j == 0 {
                val
            } else {
                self.hit[j - 1] = true;
                let val = val - mult * self.prow[j - 1].1;
                if val.abs() <= ABS_TINY {
                    self.drop_entry(c);
                    continue;
                }
                val
            };
            self.rows.get_mut(r)[keep] = (c as u32, val);
            keep += 1;
        }
        self.rows.truncate(r, keep);
        for j in 0..self.prow.len() {
            if self.hit[j] {
                continue;
            }
            let (c, v) = self.prow[j];
            let val = 0.0 - mult * v;
            if val.abs() > ABS_TINY {
                self.rows.push(r, (c, val));
                self.cols.push(c as usize, r as u32);
                self.col_count[c as usize] += 1;
            }
        }
    }
}

impl Factors {
    /// Number of updates applied since factorization.
    pub fn eta_count(&self) -> usize {
        self.eta_pos.len()
    }

    /// Total dimension the factors solve for: the factored base plus any
    /// appended border rows.
    pub fn dim(&self) -> usize {
        self.m + self.border_pivot.len()
    }

    /// Factor the basis given its columns (`cols` yields, per position,
    /// the sparse column as `(row, value)` pairs with distinct rows),
    /// replacing the current factors and dropping their eta file and
    /// border. On error the factors are left empty.
    pub fn factor<'c>(
        &mut self,
        m: usize,
        cols: impl IntoIterator<Item = &'c [(usize, f64)]>,
    ) -> Result<(), Singular> {
        WORKSPACE.with_borrow_mut(|ws| {
            let res = self.eliminate(ws, m, cols);
            if res.is_err() {
                self.clear(0);
            }
            res
        })
    }

    fn clear(&mut self, m: usize) {
        self.m = m;
        self.pivot_row.clear();
        self.l.clear();
        self.u.clear();
        self.u_diag.clear();
        self.swaps.clear();
        self.etas.clear();
        self.eta_pos.clear();
        self.eta_pivot.clear();
        self.border.clear();
        self.border_pivot.clear();
        self.border_at = 0;
    }

    fn eliminate<'c>(
        &mut self,
        ws: &mut Workspace,
        m: usize,
        cols: impl IntoIterator<Item = &'c [(usize, f64)]>,
    ) -> Result<(), Singular> {
        self.clear(m);
        ws.load(m, cols);
        for step in 0..m {
            let pc = ws.pivot_column()?;

            // Stability: among the active rows of this column, max |value|.
            ws.cand.clear();
            let mut col_max = 0.0_f64;
            for i in 0..ws.cols.len[pc] {
                let r = ws.cols.get(pc)[i] as usize;
                if !ws.row_active[r] || ws.seen[r] == step + 1 {
                    continue;
                }
                let Some(&(_, v)) = ws.rows.get(r).iter().find(|&&(c, _)| c as usize == pc) else {
                    continue;
                };
                ws.seen[r] = step + 1;
                ws.cand.push((r as u32, v));
                col_max = col_max.max(v.abs());
            }
            if col_max <= ABS_TINY {
                return Err(Singular { position: pc });
            }
            // Among sufficiently large entries pick the sparsest row,
            // breaking length ties toward the lowest row index.
            let mut pr = usize::MAX;
            let mut pr_len = usize::MAX;
            let mut pivot_val = 0.0;
            for &(r, v) in &ws.cand {
                let (r, len) = (r as usize, ws.rows.len[r as usize]);
                if v.abs() >= TAU * col_max && (len, r) < (pr_len, pr) {
                    pr_len = len;
                    pr = r;
                    pivot_val = v;
                }
            }
            debug_assert_ne!(pr, usize::MAX);

            // U row: off-pivot entries in ascending position order, so
            // the update arithmetic never depends on storage order.
            ws.prow.clear();
            ws.prow.extend(
                ws.rows
                    .get(pr)
                    .iter()
                    .copied()
                    .filter(|&(c, _)| c as usize != pc),
            );
            ws.prow.sort_unstable_by_key(|&(c, _)| c);
            self.u.open();
            for (j, &(c, v)) in ws.prow.iter().enumerate() {
                self.u.push(c as usize, v);
                ws.pmark[c as usize] = j as u32 + 1;
            }
            self.u_diag.push(pivot_val);

            // Eliminate column pc from every other candidate row.
            self.l.open();
            for i in 0..ws.cand.len() {
                let (r, arc) = ws.cand[i];
                if r as usize == pr {
                    continue;
                }
                let mult = arc / pivot_val;
                self.l.push(r as usize, mult);
                ws.eliminate_row(r as usize, pc, mult);
            }
            for &(c, _) in &ws.prow {
                ws.pmark[c as usize] = 0;
            }

            // Deactivate pivot row & column, fixing the counts of every
            // column the pivot row touched.
            ws.row_active[pr] = false;
            ws.col_active[pc] = false;
            for j in 0..ws.prow.len() {
                ws.drop_entry(ws.prow[j].0 as usize);
            }
            self.pivot_row.push(pr as u32);
            ws.pivot_pos.push(pc as u32);
        }

        // Address U entries by the pivot row of the step that eliminated
        // their position, then record the row → position permutation as
        // transpositions along its cycles.
        ws.perm.clear();
        ws.perm.resize(m, 0);
        for (&pr, &pc) in self.pivot_row.iter().zip(&ws.pivot_pos) {
            ws.perm[pc as usize] = pr;
        }
        for p in self.u.idx.iter_mut() {
            *p = ws.perm[*p as usize];
        }
        for (&pr, &pc) in self.pivot_row.iter().zip(&ws.pivot_pos) {
            ws.perm[pr as usize] = pc;
        }
        for r0 in 0..m {
            let mut r = ws.perm[r0] as usize;
            ws.perm[r0] = r0 as u32;
            while r != r0 {
                self.swaps.push((r0 as u32, r as u32));
                let next = ws.perm[r] as usize;
                ws.perm[r] = r as u32;
                r = next;
            }
        }
        Ok(())
    }

    /// Extend the factorization in place for rows appended to the basis
    /// (added cut rows whose slacks enter the basis): each element of
    /// `rows` is `(entries, pivot)` with `entries` the appended row's
    /// coefficients on the *existing* basis positions (base positions
    /// and earlier border positions) and `pivot` the coefficient of the
    /// appended row's own basic column.
    ///
    /// Returns `false` (caller must refactorize) when the extension is
    /// not representable — a pivot too small for stability, or basis
    /// updates were already recorded on top of an earlier border (the
    /// factors only track one pre-border/post-border eta split).
    #[must_use]
    pub fn append_rows(&mut self, rows: &[(Vec<(usize, f64)>, f64)]) -> bool {
        if self.eta_count() != self.border_at && !self.border_pivot.is_empty() {
            return false;
        }
        if rows.iter().any(|(_, pivot)| pivot.abs() < 1e-9) {
            return false;
        }
        let dim = self.dim();
        for (i, (entries, _)) in rows.iter().enumerate() {
            debug_assert!(entries.iter().all(|&(p, _)| p < dim + i));
        }
        self.border_at = self.eta_count();
        for (entries, pivot) in rows {
            self.border.open();
            for &(p, v) in entries {
                self.border.push(p, v);
            }
            self.border_pivot.push(*pivot);
        }
        true
    }

    /// Apply eta `e`'s inverse to a position-indexed vector (FTRAN).
    fn eta_ftran(&self, e: usize, x: &mut [f64]) {
        let pos = self.eta_pos[e] as usize;
        let xp = x[pos] / self.eta_pivot[e];
        x[pos] = xp;
        if xp != 0.0 {
            for (i, v) in self.etas.entries(e) {
                x[i] -= v * xp;
            }
        }
    }

    /// Apply eta `e`'s inverse transpose to a position-indexed vector
    /// (BTRAN).
    fn eta_btran(&self, e: usize, y: &mut [f64]) {
        let pos = self.eta_pos[e] as usize;
        let mut acc = y[pos];
        for (i, v) in self.etas.entries(e) {
            acc -= v * y[i];
        }
        y[pos] = acc / self.eta_pivot[e];
    }

    /// Solve `B x = b` in place: `x` enters holding `b` (indexed by row)
    /// and exits holding the solution (indexed by position).
    pub fn ftran(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim());
        // Apply L row operations in elimination order.
        for k in 0..self.m {
            let xv = x[self.pivot_row[k] as usize];
            if xv != 0.0 {
                for (r, mult) in self.l.entries(k) {
                    x[r] -= mult * xv;
                }
            }
        }
        // Back-substitute U in row space: step k's solution lands in its
        // pivot row, and the U entries name the rows holding the later
        // steps' solutions, which are already final.
        for k in (0..self.m).rev() {
            let pr = self.pivot_row[k] as usize;
            let mut val = x[pr];
            for (r, v) in self.u.entries(k) {
                val -= v * x[r];
            }
            x[pr] = val / self.u_diag[k];
        }
        // Into position order.
        for &(a, b) in &self.swaps {
            x.swap(a as usize, b as usize);
        }
        // Pre-border etas act on base positions and belong inside `B`.
        for e in 0..self.border_at {
            self.eta_ftran(e, x);
        }
        // Border forward elimination: row i of `[[B,0],[C,S]]` gives
        // `x[m+i] = (b[m+i] − Σ C[i][p]·x[p]) / pivot`, where earlier
        // border positions referenced by the row are already final.
        for (i, &pivot) in self.border_pivot.iter().enumerate() {
            let mut val = x[self.m + i];
            for (p, v) in self.border.entries(i) {
                val -= v * x[p];
            }
            x[self.m + i] = val / pivot;
        }
        // Post-border etas act on the full bordered dimension.
        for e in self.border_at..self.eta_count() {
            self.eta_ftran(e, x);
        }
    }

    /// Solve `Bᵀ y = c` in place: `y` enters holding `c` (indexed by
    /// position) and exits holding the solution (indexed by row).
    pub fn btran(&self, y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.dim());
        // Post-border eta-transpose updates in reverse order: c := E⁻ᵀ c.
        for e in (self.border_at..self.eta_count()).rev() {
            self.eta_btran(e, y);
        }
        // Border back-substitution: with `[[B,0],[C,S]]ᵀ = [[Bᵀ,Cᵀ],[0,Sᵀ]]`
        // the bottom block solves in reverse row order, scattering each
        // resolved `y[m+i]` into the right-hand side of the positions its
        // row touches (both `Cᵀ` into the base and `Sᵀ` into earlier
        // border rows).
        for (i, &pivot) in self.border_pivot.iter().enumerate().rev() {
            let yi = y[self.m + i] / pivot;
            y[self.m + i] = yi;
            if yi != 0.0 {
                for (p, v) in self.border.entries(i) {
                    y[p] -= v * yi;
                }
            }
        }
        // Pre-border eta-transposes (inside `B`), reverse order.
        for e in (0..self.border_at).rev() {
            self.eta_btran(e, y);
        }
        // Into row space, then solve Uᵀ w = c by forward scattering over
        // elimination steps; step k's `w` lands in its pivot row.
        for &(a, b) in self.swaps.iter().rev() {
            y.swap(a as usize, b as usize);
        }
        for k in 0..self.m {
            let pr = self.pivot_row[k] as usize;
            let wk = y[pr] / self.u_diag[k];
            y[pr] = wk;
            if wk != 0.0 {
                for (r, v) in self.u.entries(k) {
                    y[r] -= v * wk;
                }
            }
        }
        // Solve Lᵀ: reverse the transposed row operations.
        for k in (0..self.m).rev() {
            let pr = self.pivot_row[k] as usize;
            let mut acc = y[pr];
            for (r, mult) in self.l.entries(k) {
                acc -= mult * y[r];
            }
            y[pr] = acc;
        }
    }

    /// Record a basis change: position `pos` is replaced by a column whose
    /// FTRAN image is `w` (dense, indexed by position).
    ///
    /// Returns `false` (caller must refactorize) if the pivot element is too
    /// small for a stable update.
    #[must_use]
    pub fn update(&mut self, pos: usize, w: &[f64]) -> bool {
        let pivot = w[pos];
        if pivot.abs() < 1e-9 {
            return false;
        }
        self.etas.open();
        for (i, &v) in w.iter().enumerate() {
            if i != pos && v != 0.0 {
                self.etas.push(i, v);
            }
        }
        self.eta_pos.push(pos as u32);
        self.eta_pivot.push(pivot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_to_cols(a: &[Vec<f64>]) -> Vec<Vec<(usize, f64)>> {
        let m = a.len();
        (0..m)
            .map(|c| {
                (0..m)
                    .filter(|&r| a[r][c] != 0.0)
                    .map(|r| (r, a[r][c]))
                    .collect()
            })
            .collect()
    }

    fn factor_cols(m: usize, cols: &[Vec<(usize, f64)>]) -> Result<Factors, Singular> {
        let mut f = Factors::default();
        f.factor(m, cols.iter().map(Vec::as_slice))?;
        Ok(f)
    }

    fn factor_dense(a: &[Vec<f64>]) -> Result<Factors, Singular> {
        factor_cols(a.len(), &dense_to_cols(a))
    }

    fn mat_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, x)| r * x).sum())
            .collect()
    }

    fn mat_t_vec(a: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let m = a.len();
        (0..m)
            .map(|c| (0..m).map(|r| a[r][c] * y[r]).sum())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-8, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn identity_roundtrip() {
        let a = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let f = factor_dense(&a).expect("identity factors");
        let mut x = vec![3.0, -1.0, 2.0];
        f.ftran(&mut x);
        assert_close(&x, &[3.0, -1.0, 2.0]);
        let mut y = vec![5.0, 0.5, -2.0];
        f.btran(&mut y);
        assert_close(&y, &[5.0, 0.5, -2.0]);
    }

    #[test]
    fn general_matrix_solves() {
        let a = vec![
            vec![2.0, 1.0, 0.0, 0.0],
            vec![1.0, 3.0, 1.0, 0.0],
            vec![0.0, 1.0, 4.0, 2.0],
            vec![0.0, 0.0, 1.0, 5.0],
        ];
        let f = factor_dense(&a).expect("factors");
        let x_true = vec![1.0, -2.0, 3.0, 0.5];
        let mut b = mat_vec(&a, &x_true);
        f.ftran(&mut b);
        assert_close(&b, &x_true);

        let y_true = vec![0.25, -1.0, 2.0, 1.5];
        let mut c = mat_t_vec(&a, &y_true);
        f.btran(&mut c);
        assert_close(&c, &y_true);
    }

    #[test]
    fn singular_detected() {
        let a = vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![1.0, 0.0, 1.0],
        ];
        assert!(factor_dense(&a).is_err());
    }

    #[test]
    fn zero_column_is_singular() {
        let a = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![2.0, 0.0, 3.0],
        ];
        let err = factor_dense(&a).expect_err("singular");
        assert_eq!(err.position, 1);
    }

    #[test]
    fn eta_update_matches_refactor() {
        let mut a = vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 3.0, 1.0],
            vec![1.0, 0.0, 4.0],
        ];
        let mut f = factor_dense(&a).expect("factors");

        // Replace basis position 1 with a new column.
        let new_col = vec![1.0, 1.0, 2.0];
        let mut w = new_col.clone();
        f.ftran(&mut w);
        assert!(f.update(1, &w));
        for r in 0..3 {
            a[r][1] = new_col[r];
        }
        assert_eq!(f.eta_count(), 1);

        let x_true = vec![0.5, 2.0, -1.0];
        let mut b = mat_vec(&a, &x_true);
        f.ftran(&mut b);
        assert_close(&b, &x_true);

        let y_true = vec![1.0, -1.0, 0.5];
        let mut c = mat_t_vec(&a, &y_true);
        f.btran(&mut c);
        assert_close(&c, &y_true);

        // Compare against a fresh factorization.
        let f2 = factor_dense(&a).expect("refactor");
        let mut b2 = mat_vec(&a, &x_true);
        f2.ftran(&mut b2);
        assert_close(&b2, &x_true);
    }

    /// Factor the leading block of a matrix, append the trailing rows as
    /// a border, and check both solves against the full matrix.
    fn check_bordered(a: &[Vec<f64>], base: usize, pre_eta_col: Option<(usize, Vec<f64>)>) {
        let m = a.len();
        let mut a = a.to_vec();
        let base_block: Vec<Vec<f64>> = (0..base).map(|r| a[r][..base].to_vec()).collect();
        let mut f = factor_dense(&base_block).expect("base factors");
        if let Some((pos, new_col)) = pre_eta_col {
            let mut w = new_col.clone();
            f.ftran(&mut w);
            assert!(f.update(pos, &w));
            for (r, row) in a.iter_mut().enumerate().take(base) {
                row[pos] = new_col[r];
            }
        }
        let rows: Vec<(Vec<(usize, f64)>, f64)> = (base..m)
            .map(|r| {
                let entries = (0..r)
                    .filter(|&p| a[r][p] != 0.0)
                    .map(|p| (p, a[r][p]))
                    .collect();
                (entries, a[r][r])
            })
            .collect();
        assert!(f.append_rows(&rows));
        assert_eq!(f.dim(), m);

        let x_true: Vec<f64> = (0..m).map(|i| 1.0 + i as f64 * 0.5).collect();
        let mut b = mat_vec(&a, &x_true);
        f.ftran(&mut b);
        assert_close(&b, &x_true);
        let y_true: Vec<f64> = (0..m).map(|i| 2.0 - i as f64 * 0.25).collect();
        let mut c = mat_t_vec(&a, &y_true);
        f.btran(&mut c);
        assert_close(&c, &y_true);
    }

    #[test]
    fn bordered_extension_matches_full_matrix() {
        // [[B, 0], [C, S]] with a 3×3 base and two appended rows.
        let a = vec![
            vec![2.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 3.0, 1.0, 0.0, 0.0],
            vec![1.0, 0.0, 4.0, 0.0, 0.0],
            vec![1.5, -1.0, 0.0, 1.0, 0.0],
            vec![0.0, 2.0, -0.5, 0.5, 1.0],
        ];
        check_bordered(&a, 3, None);
    }

    #[test]
    fn bordered_extension_after_eta_updates() {
        // Pre-border eta: the base basis already pivoted once before the
        // rows were appended; border entries reference the *current*
        // basis columns.
        let a = vec![
            vec![2.0, 1.0, 0.0, 0.0],
            vec![0.0, 3.0, 1.0, 0.0],
            vec![1.0, 0.0, 4.0, 0.0],
            vec![1.0, 1.0, 2.0, 1.0],
        ];
        check_bordered(&a, 3, Some((1, vec![1.0, 1.0, 2.0])));
    }

    #[test]
    fn bordered_then_post_eta_update() {
        let mut a = vec![
            vec![2.0, 1.0, 0.0, 0.0],
            vec![0.0, 3.0, 1.0, 0.0],
            vec![1.0, 0.0, 4.0, 0.0],
            vec![1.0, -1.0, 0.0, 1.0],
        ];
        let base: Vec<Vec<f64>> = (0..3).map(|r| a[r][..3].to_vec()).collect();
        let mut f = factor_dense(&base).expect("factors");
        assert!(f.append_rows(&[(vec![(0, 1.0), (1, -1.0)], 1.0)]));

        // Post-border pivot replacing position 0 across the full dimension.
        let new_col = vec![1.0, 0.5, 0.0, 2.0];
        let mut w = new_col.clone();
        f.ftran(&mut w);
        assert!(f.update(0, &w));
        for (r, row) in a.iter_mut().enumerate() {
            row[0] = new_col[r];
        }

        let x_true = vec![0.5, -1.0, 2.0, 1.5];
        let mut b = mat_vec(&a, &x_true);
        f.ftran(&mut b);
        assert_close(&b, &x_true);
        let y_true = vec![1.0, 0.25, -0.5, 2.0];
        let mut c = mat_t_vec(&a, &y_true);
        f.btran(&mut c);
        assert_close(&c, &y_true);

        // A second append on top of post-border etas is not representable.
        assert!(!f.append_rows(&[(vec![(0, 1.0)], 1.0)]));
    }

    #[test]
    fn random_matrices_roundtrip() {
        // Deterministic xorshift-based random sparse systems.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for trial in 0..30 {
            let m = 3 + (next() % 20) as usize;
            let mut a = vec![vec![0.0; m]; m];
            // Diagonal dominance to guarantee non-singularity.
            for (r, row) in a.iter_mut().enumerate() {
                row[r] = 4.0 + (next() % 8) as f64;
                for _ in 0..2 {
                    let c = (next() % m as u64) as usize;
                    if c != r {
                        row[c] = ((next() % 7) as f64) - 3.0;
                    }
                }
            }
            let f =
                factor_dense(&a).unwrap_or_else(|_| panic!("trial {trial}: factorization failed"));
            let x_true: Vec<f64> = (0..m).map(|i| (i as f64) - (m as f64) / 2.0).collect();
            let mut b = mat_vec(&a, &x_true);
            f.ftran(&mut b);
            assert_close(&b, &x_true);
            let mut c = mat_t_vec(&a, &x_true);
            f.btran(&mut c);
            assert_close(&c, &x_true);
        }
    }

    /// Deterministic xorshift stream for the structured-basis tests.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// A slack-heavy, network-structured basis like those of the
    /// scheduling MILPs: mostly unit (slack) columns, plus difference
    /// columns with a +1 and a −1 entry and a few wider cover-style
    /// columns. Every column has a ±1 entry in its own row of a hidden
    /// row order and its other entries in earlier rows of that order, so
    /// the basis is a permuted triangle and never singular; the columns
    /// are shuffled so the elimination has to find that order.
    fn network_basis(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut next = rng(seed);
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|p| {
                let sign = if next().is_multiple_of(2) { 1.0 } else { -1.0 };
                let mut col = vec![(order[p], sign)];
                let kind = next() % 10;
                if p > 0 && kind >= 5 {
                    col.push((order[(next() % p as u64) as usize], -sign));
                }
                if p > 1 && kind == 9 {
                    let r = order[(next() % p as u64) as usize];
                    if col.iter().all(|&(q, _)| q != r) {
                        col.push((r, 2.0));
                    }
                }
                col.sort_unstable_by_key(|&(r, _)| r);
                col
            })
            .collect();
        for i in (1..m).rev() {
            cols.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        cols
    }

    fn cols_to_dense(m: usize, cols: &[Vec<(usize, f64)>]) -> Vec<Vec<f64>> {
        let mut a = vec![vec![0.0; m]; m];
        for (p, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                a[r][p] = v;
            }
        }
        a
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// FTRAN and BTRAN of fixed right-hand sides, as raw bits.
    fn solve_bits(f: &Factors, m: usize) -> (Vec<u64>, Vec<u64>) {
        let mut x: Vec<f64> = (0..m).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        f.ftran(&mut x);
        let mut y: Vec<f64> = (0..m).map(|i| (i % 5) as f64 - 1.5).collect();
        f.btran(&mut y);
        (bits(&x), bits(&y))
    }

    #[test]
    fn network_bases_solve() {
        for (trial, m) in [1usize, 2, 7, 40, 150, 400].into_iter().enumerate() {
            let cols = network_basis(m, 0xA5A5 + trial as u64);
            let a = cols_to_dense(m, &cols);
            let f = factor_cols(m, &cols)
                .unwrap_or_else(|e| panic!("m = {m}: singular at {}", e.position));
            let x_true: Vec<f64> = (0..m).map(|i| (i % 9) as f64 - 4.0).collect();
            let mut b = mat_vec(&a, &x_true);
            f.ftran(&mut b);
            assert_close(&b, &x_true);
            let mut c = mat_t_vec(&a, &x_true);
            f.btran(&mut c);
            assert_close(&c, &x_true);
        }
    }

    /// Large, small, large again on one workspace: every refactorization
    /// of a basis must reproduce the first one's solves bit for bit, so
    /// no state survives from the bases factored in between.
    fn factor_sizes_back_to_back() -> Vec<(Vec<u64>, Vec<u64>)> {
        let sizes = [300usize, 4, 300, 60, 4, 300];
        let mut reused = Factors::default();
        sizes
            .iter()
            .map(|&m| {
                let cols = network_basis(m, m as u64);
                reused
                    .factor(m, cols.iter().map(Vec::as_slice))
                    .expect("network basis factors");
                let fresh = factor_cols(m, &cols).expect("network basis factors");
                let out = solve_bits(&reused, m);
                assert_eq!(
                    out,
                    solve_bits(&fresh, m),
                    "m = {m}: in-place refactor differs"
                );
                out
            })
            .collect()
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        let first = factor_sizes_back_to_back();
        assert_eq!(first[0], first[2], "large basis changed after a small one");
        assert_eq!(first[0], first[5]);
        assert_eq!(first[1], first[4], "small basis changed after a large one");
        // Two threads, each with its own workspace, running the same
        // sequence at once.
        let threads: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(factor_sizes_back_to_back))
            .collect();
        for t in threads {
            assert_eq!(t.join().expect("thread"), first);
        }
    }

    #[test]
    fn singular_factor_leaves_reusable_factors() {
        let mut f = Factors::default();
        let a = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(f
            .factor(2, dense_to_cols(&a).iter().map(Vec::as_slice))
            .is_err());
        assert_eq!(f.dim(), 0);
        let cols = network_basis(50, 50);
        f.factor(50, cols.iter().map(Vec::as_slice))
            .expect("network basis factors");
        assert_eq!(
            solve_bits(&f, 50),
            solve_bits(&factor_cols(50, &cols).expect("factors"), 50)
        );
    }

    /// Replace a random basis position by a random difference column
    /// through an eta update, mirroring it in the dense matrix `a`. A
    /// candidate keeps the basis nonsingular when its FTRAN image has a
    /// usable pivot at the replaced position.
    fn replace_column(
        f: &mut Factors,
        a: &mut [Vec<f64>],
        dim: usize,
        next: &mut impl FnMut() -> u64,
    ) {
        for _ in 0..50 {
            let pos = (next() % dim as u64) as usize;
            let mut col = vec![0.0; dim];
            col[(next() % dim as u64) as usize] = 1.0;
            col[(next() % dim as u64) as usize] -= 1.0;
            col[(next() % dim as u64) as usize] += 2.0;
            let mut w = col.clone();
            f.ftran(&mut w);
            if w[pos].abs() > 0.5 && f.update(pos, &w) {
                for (r, row) in a.iter_mut().enumerate().take(dim) {
                    row[pos] = col[r];
                }
                return;
            }
        }
        panic!("no stable replacement column found");
    }

    #[test]
    fn network_basis_etas_and_border() {
        // Base network basis, several eta updates, a bordered extension
        // by difference rows with slack pivots, then post-border etas;
        // every stage is checked against the dense matrix.
        let base = 80;
        let added = 6;
        let m = base + added;
        let mut next = rng(7);
        let cols = network_basis(base, 11);
        let mut a = vec![vec![0.0; m]; m];
        for (p, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                a[r][p] = v;
            }
        }
        let check = |f: &Factors, a: &[Vec<f64>], dim: usize| {
            let a: Vec<Vec<f64>> = a[..dim].iter().map(|row| row[..dim].to_vec()).collect();
            let x_true: Vec<f64> = (0..dim).map(|i| (i % 5) as f64 * 0.5 - 1.0).collect();
            let mut b = mat_vec(&a, &x_true);
            f.ftran(&mut b);
            assert_close(&b, &x_true);
            let mut c = mat_t_vec(&a, &x_true);
            f.btran(&mut c);
            assert_close(&c, &x_true);
        };
        let mut f = factor_cols(base, &cols).expect("factors");
        for _ in 0..5 {
            replace_column(&mut f, &mut a, base, &mut next);
        }
        assert_eq!(f.eta_count(), 5);
        check(&f, &a, base);

        let rows: Vec<(Vec<(usize, f64)>, f64)> = (0..added)
            .map(|i| {
                let r = base + i;
                let p = (next() % base as u64) as usize;
                let q = (next() % (base + i) as u64) as usize;
                a[r][p] += 1.0;
                a[r][q] -= 1.0;
                a[r][r] = 1.0;
                let entries = (0..r)
                    .filter(|&c| a[r][c] != 0.0)
                    .map(|c| (c, a[r][c]))
                    .collect();
                (entries, 1.0)
            })
            .collect();
        assert!(f.append_rows(&rows));
        assert_eq!(f.dim(), m);
        check(&f, &a, m);

        for _ in 0..4 {
            replace_column(&mut f, &mut a, m, &mut next);
        }
        assert_eq!(f.eta_count(), 9);
        check(&f, &a, m);
        assert!(!f.append_rows(&[(vec![(0, 1.0)], 1.0)]));
    }
}
