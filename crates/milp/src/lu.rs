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
//! **Storage.** L, U and the eta file are packed start/index/value
//! arrays ([`Packed`]); a refactorization refills them in place. The
//! active submatrix of the elimination lives in one
//! [`Workspace`] per thread, reused by every factorization on that thread,
//! so the elimination allocates nothing once the buffers have grown to the
//! largest basis seen. The pivot column comes from [`CountBuckets`], one
//! bitset of active positions per entry count. FTRAN and BTRAN run the
//! triangular solves in row space and move between row and position space
//! with a stored permutation, so they work in place in the caller's
//! vector.
//!
//! **Sparse solves** (Hall & McKinnon, "Hyper-sparsity in the revised
//! simplex method", 2005). A factorization also records the steps whose L
//! column is non-empty, the row → step map and the transposed U pattern.
//! The L passes visit only those steps. When the right-hand side of the U
//! pass has few nonzeros, the pass visits only the steps reachable from
//! them, in the same step order as the dense loop, which a dense
//! right-hand side keeps. A skipped step would only have combined exact
//! zeros, so every nonzero result is bit-identical to the dense loop's;
//! a zero entry may come out as −0 in one and +0 in the other.
//!
//! **Determinism.** The pivot sequence and every floating-point operation
//! on a nonzero depend only on the basis, never on bookkeeping order: the
//! pivot column is an active column with the fewest entries (ties to the
//! lowest position), the pivot row the shortest active row among entries
//! at least `TAU` times the column maximum (ties to the lowest row index),
//! pivot-row entries are applied in position order, and L operations are
//! replayed in the order their rows first entered the pivot column.

use std::cell::RefCell;
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
    /// The steps whose L column is non-empty, ascending.
    l_steps: Vec<u32>,
    /// The step that pivoted each row.
    step_of_row: Vec<u32>,
    /// Per U entry (parallel to `u.idx`), the step that pivoted its row.
    u_steps: Vec<u32>,
    /// Transposed U pattern: per step `j`, the earlier steps whose U row
    /// holds an entry in step `j`'s pivot row, ascending; step `j`'s list
    /// is `ut_step[ut_start[j]..ut_start[j + 1]]`.
    ut_start: Vec<u32>,
    ut_step: Vec<u32>,
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
    /// Entry counts per row while loading.
    sizes: Vec<usize>,
    /// Active rows: `(position, value)` entries in no particular order.
    rows: Lists<(u32, f64)>,
    /// Per column, the rows that hold an entry in it, in insertion order.
    /// Rows whose entry cancelled stay listed (and are listed again if
    /// the entry reappears), so readers filter; `col_count` is exact.
    cols: Lists<u32>,
    col_count: Vec<usize>,
    row_active: Vec<bool>,
    /// The active columns by `col_count`.
    buckets: CountBuckets,
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

/// Scratch for the sparse solves' reach computation.
#[derive(Debug, Default)]
struct Reach {
    /// Steps reached so far; sorted once complete.
    steps: Vec<u32>,
    /// Steps still to expand.
    stack: Vec<u32>,
    /// Per step: already in `steps`. Cleared after every use.
    mark: Vec<bool>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
    static REACH: RefCell<Reach> = RefCell::new(Reach::default());
}

/// A right-hand side with more than `1/SPARSE_RHS` of its entries nonzero
/// takes the dense U loop.
const SPARSE_RHS: usize = 10;
/// A reach of more than `1/SPARSE_REACH` of the steps falls back to the
/// dense U loop.
const SPARSE_REACH: usize = 4;

impl Reach {
    /// The steps reachable from the nonzeros of `v` (indexed by row)
    /// along `next`, sorted ascending, or `false` when `v` or the reach
    /// is too dense for the sparse loop to pay.
    fn collect<'f>(
        &mut self,
        f: &'f Factors,
        v: &[f64],
        next: impl Fn(usize) -> &'f [u32],
    ) -> bool {
        let m = f.m;
        self.steps.clear();
        self.stack.clear();
        self.mark.resize(m, false);
        for (r, &x) in v[..m].iter().enumerate() {
            if x != 0.0 {
                if self.steps.len() * SPARSE_RHS >= m {
                    return self.abandon();
                }
                let k = f.step_of_row[r];
                self.mark[k as usize] = true;
                self.steps.push(k);
                self.stack.push(k);
            }
        }
        while let Some(k) = self.stack.pop() {
            for &j in next(k as usize) {
                if !self.mark[j as usize] {
                    if self.steps.len() * SPARSE_REACH >= m {
                        return self.abandon();
                    }
                    self.mark[j as usize] = true;
                    self.steps.push(j);
                    self.stack.push(j);
                }
            }
        }
        for &k in &self.steps {
            self.mark[k as usize] = false;
        }
        self.steps.sort_unstable();
        true
    }

    fn abandon(&mut self) -> bool {
        for &k in &self.steps {
            self.mark[k as usize] = false;
        }
        false
    }
}

/// The active columns of an elimination bucketed by entry count: one
/// bitset of positions per count. The lowest set bit of the lowest
/// non-empty bucket is the active column with the fewest entries, ties to
/// the lowest position. Buckets exist up to the highest count seen so
/// far, which fill-in raises only slowly.
#[derive(Debug, Default)]
struct CountBuckets {
    /// Words per bucket.
    stride: usize,
    /// Bucket `k` is `bits[k * stride..(k + 1) * stride]`.
    bits: Vec<u64>,
    /// Columns per bucket; its length is the number of buckets.
    len: Vec<usize>,
    /// Per bucket, a word index below which the bucket has no set bit.
    first: Vec<usize>,
    /// No bucket below this one holds a column.
    low: usize,
    /// Every set bit lies below this word index.
    dirty: usize,
}

impl CountBuckets {
    /// No buckets, over positions `0..m`.
    fn reset(&mut self, m: usize) {
        // A completed elimination empties every bucket; a singular one
        // leaves bits behind.
        self.bits[..self.dirty].fill(0);
        self.dirty = 0;
        self.stride = m.div_ceil(64);
        self.len.clear();
        self.first.clear();
        self.low = 0;
    }

    fn insert(&mut self, count: usize, c: usize) {
        if count >= self.len.len() {
            self.len.resize(count + 1, 0);
            self.first.resize(count + 1, self.stride);
            let words = (count + 1) * self.stride;
            if self.bits.len() < words {
                self.bits.resize(words, 0);
            }
        }
        let w = count * self.stride + c / 64;
        self.bits[w] |= 1 << (c % 64);
        self.dirty = self.dirty.max(w + 1);
        self.len[count] += 1;
        self.first[count] = self.first[count].min(c / 64);
        self.low = self.low.min(count);
    }

    fn remove(&mut self, count: usize, c: usize) {
        self.bits[count * self.stride + c / 64] &= !(1 << (c % 64));
        self.len[count] -= 1;
    }

    /// The lowest `(count, position)` of any column, if one remains.
    fn min(&mut self) -> Option<(usize, usize)> {
        while *self.len.get(self.low)? == 0 {
            self.low += 1;
        }
        let k = self.low;
        let bucket = &self.bits[k * self.stride..(k + 1) * self.stride];
        let mut w = self.first[k];
        while bucket[w] == 0 {
            w += 1;
        }
        self.first[k] = w;
        Some((k, w * 64 + bucket[w].trailing_zeros() as usize))
    }
}

impl Workspace {
    /// Load the basis columns into the active matrix: rows list their
    /// entries by ascending position, columns theirs in input order.
    fn load<'c, I>(&mut self, m: usize, cols: I)
    where
        I: Iterator<Item = &'c [(usize, f64)]> + Clone,
    {
        self.sizes.clear();
        self.sizes.resize(m, 0);
        self.col_count.clear();
        for col in cols.clone() {
            let mut n = 0;
            for &(r, v) in col {
                if v != 0.0 {
                    self.sizes[r] += 1;
                    n += 1;
                }
            }
            self.col_count.push(n);
        }
        debug_assert_eq!(self.col_count.len(), m);
        self.rows.reset(&self.sizes);
        self.cols.reset(&self.col_count);
        for (pos, col) in cols.enumerate() {
            for &(r, v) in col {
                if v != 0.0 {
                    debug_assert!(
                        !self.rows.get(r).iter().any(|&(c, _)| c as usize == pos),
                        "duplicate entry in basis column {pos}"
                    );
                    self.rows.push(r, (pos as u32, v));
                    self.cols.push(pos, r as u32);
                }
            }
        }

        self.row_active.clear();
        self.row_active.resize(m, true);
        self.seen.clear();
        self.seen.resize(m, 0);
        self.pmark.clear();
        self.pmark.resize(m, 0);
        self.pivot_pos.clear();
        self.buckets.reset(m);
        for (c, &n) in self.col_count.iter().enumerate() {
            self.buckets.insert(n, c);
        }
    }

    /// Pivot column: an active column with the fewest entries, ties to the
    /// lowest position. It leaves the active set.
    fn pivot_column(&mut self) -> Result<usize, Singular> {
        let (cnt, c) = self
            .buckets
            .min()
            .expect("active column remains before step m");
        if cnt == 0 {
            return Err(Singular { position: c });
        }
        self.buckets.remove(cnt, c);
        Ok(c)
    }

    /// Give active column `c` the entry count `to`.
    fn recount(&mut self, c: usize, to: usize) {
        self.buckets.remove(self.col_count[c], c);
        self.buckets.insert(to, c);
        self.col_count[c] = to;
    }

    /// Remove one entry from column `c`'s count.
    fn drop_entry(&mut self, c: usize) {
        self.recount(c, self.col_count[c] - 1);
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
                self.recount(c as usize, self.col_count[c as usize] + 1);
            }
        }
    }
}

impl Factors {
    /// Number of updates applied since factorization.
    pub fn eta_count(&self) -> usize {
        self.eta_pos.len()
    }

    /// Dimension of the factored basis.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Factor the basis given its columns (`cols` yields, per position,
    /// the sparse column as `(row, value)` pairs with distinct rows; it is
    /// walked twice, once to count and once to fill), replacing the
    /// current factors and dropping their eta file. On error
    /// the factors are left empty.
    pub fn factor<'c, I>(&mut self, m: usize, cols: I) -> Result<(), Singular>
    where
        I: IntoIterator<Item = &'c [(usize, f64)]>,
        I::IntoIter: Clone,
    {
        WORKSPACE.with_borrow_mut(|ws| {
            let res = self.eliminate(ws, m, cols.into_iter());
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
        self.l_steps.clear();
        self.step_of_row.clear();
        self.u_steps.clear();
        self.ut_start.clear();
        self.ut_step.clear();
    }

    fn eliminate<'c>(
        &mut self,
        ws: &mut Workspace,
        m: usize,
        cols: impl Iterator<Item = &'c [(usize, f64)]> + Clone,
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

            // Deactivate the pivot row (the column left the active set
            // when it was picked), fixing the counts of every column the
            // pivot row touched.
            ws.row_active[pr] = false;
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
        self.record_patterns();
        Ok(())
    }

    /// Record what the sparse solves walk: the steps with a non-empty L
    /// column, the row → step map, the U pattern by step and its
    /// transpose.
    fn record_patterns(&mut self) {
        let m = self.m;
        self.l_steps
            .extend((0..m as u32).filter(|&k| !self.l.range(k as usize).is_empty()));
        self.step_of_row.resize(m, 0);
        for (k, &r) in self.pivot_row.iter().enumerate() {
            self.step_of_row[r as usize] = k as u32;
        }
        self.u_steps
            .extend(self.u.idx.iter().map(|&r| self.step_of_row[r as usize]));
        // Count, prefix-sum, then fill in ascending step order.
        self.ut_start.resize(m + 1, 0);
        for &j in &self.u_steps {
            self.ut_start[j as usize + 1] += 1;
        }
        for j in 0..m {
            self.ut_start[j + 1] += self.ut_start[j];
        }
        self.ut_step.resize(self.u_steps.len(), 0);
        for k in 0..m {
            for i in self.u.range(k) {
                let j = self.u_steps[i] as usize;
                // `ut_start[j]` runs ahead as step j's slots fill.
                self.ut_step[self.ut_start[j] as usize] = k as u32;
                self.ut_start[j] += 1;
            }
        }
        // Each start now holds the next step's start: shift back.
        for j in (1..=m).rev() {
            self.ut_start[j] = self.ut_start[j - 1];
        }
        self.ut_start[0] = 0;
    }

    /// Earlier steps whose U row reads step `j`'s pivot row.
    fn ut(&self, j: usize) -> &[u32] {
        &self.ut_step[self.ut_start[j] as usize..self.ut_start[j + 1] as usize]
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
        debug_assert_eq!(x.len(), self.m);
        // Apply L row operations in elimination order.
        for &k in &self.l_steps {
            let k = k as usize;
            let xv = x[self.pivot_row[k] as usize];
            if xv != 0.0 {
                for (r, mult) in self.l.entries(k) {
                    x[r] -= mult * xv;
                }
            }
        }
        // Back-substitute U in row space, last step first: step k's
        // solution lands in its pivot row, and the U entries name the rows
        // holding the later steps' solutions, which are already final. A
        // step is nonzero only if its own row is or its U row reads a
        // nonzero step, so the sparse loop follows the transposed pattern.
        REACH.with_borrow_mut(|reach| {
            if reach.collect(self, x, |j| self.ut(j)) {
                for &k in reach.steps.iter().rev() {
                    self.ftran_u_step(k as usize, x);
                }
            } else {
                for k in (0..self.m).rev() {
                    self.ftran_u_step(k, x);
                }
            }
        });
        // Into position order.
        for &(a, b) in &self.swaps {
            x.swap(a as usize, b as usize);
        }
        // Eta updates in recording order: x := E⁻¹ x.
        for e in 0..self.eta_count() {
            self.eta_ftran(e, x);
        }
    }

    fn ftran_u_step(&self, k: usize, x: &mut [f64]) {
        let pr = self.pivot_row[k] as usize;
        let mut val = x[pr];
        for (r, v) in self.u.entries(k) {
            val -= v * x[r];
        }
        x[pr] = val / self.u_diag[k];
    }

    /// Solve `Bᵀ y = c` in place: `y` enters holding `c` (indexed by
    /// position) and exits holding the solution (indexed by row).
    pub fn btran(&self, y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.m);
        // Eta-transpose updates in reverse order: c := E⁻ᵀ c.
        for e in (0..self.eta_count()).rev() {
            self.eta_btran(e, y);
        }
        // Into row space, then solve Uᵀ w = c by forward scattering over
        // elimination steps; step k's `w` lands in its pivot row.
        // A step scatters only when its row is nonzero, into the rows its
        // U row names, so the sparse loop follows the U pattern itself.
        for &(a, b) in self.swaps.iter().rev() {
            y.swap(a as usize, b as usize);
        }
        REACH.with_borrow_mut(|reach| {
            let next = |k: usize| {
                let r = self.u.range(k);
                &self.u_steps[r]
            };
            if reach.collect(self, y, next) {
                for &k in &reach.steps {
                    self.btran_u_step(k as usize, y);
                }
            } else {
                for k in 0..self.m {
                    self.btran_u_step(k, y);
                }
            }
        });
        // Solve Lᵀ: reverse the transposed row operations.
        for &k in self.l_steps.iter().rev() {
            let pr = self.pivot_row[k as usize] as usize;
            let mut acc = y[pr];
            for (r, mult) in self.l.entries(k as usize) {
                acc -= mult * y[r];
            }
            y[pr] = acc;
        }
    }

    fn btran_u_step(&self, k: usize, y: &mut [f64]) {
        let pr = self.pivot_row[k] as usize;
        let wk = y[pr] / self.u_diag[k];
        y[pr] = wk;
        if wk != 0.0 {
            for (r, v) in self.u.entries(k) {
                y[r] -= v * wk;
            }
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
    fn network_basis_etas() {
        // Base network basis, then several eta updates; both stages are
        // checked against the dense matrix.
        let m = 80;
        let mut next = rng(7);
        let cols = network_basis(m, 11);
        let mut a = vec![vec![0.0; m]; m];
        for (p, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                a[r][p] = v;
            }
        }
        let check = |f: &Factors, a: &[Vec<f64>]| {
            let x_true: Vec<f64> = (0..m).map(|i| (i % 5) as f64 * 0.5 - 1.0).collect();
            let mut b = mat_vec(a, &x_true);
            f.ftran(&mut b);
            assert_close(&b, &x_true);
            let mut c = mat_t_vec(a, &x_true);
            f.btran(&mut c);
            assert_close(&c, &x_true);
        };
        let mut f = factor_cols(m, &cols).expect("factors");
        check(&f, &a);
        for _ in 0..5 {
            replace_column(&mut f, &mut a, m, &mut next);
        }
        assert_eq!(f.eta_count(), 5);
        check(&f, &a);
    }

    /// FNV-1a over 64-bit words; zeros hash as +0, so the fingerprint
    /// pins every nonzero bit and the position of every zero but not a
    /// zero's sign.
    struct Fingerprint(u64);

    impl Fingerprint {
        fn new() -> Self {
            Fingerprint(0xCBF2_9CE4_8422_2325)
        }

        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
            }
        }

        fn value(&mut self, v: f64) {
            self.word(if v == 0.0 { 0 } else { v.to_bits() });
        }

        fn vector(&mut self, v: &[f64]) {
            self.word(v.len() as u64);
            for &x in v {
                self.value(x);
            }
        }

        /// Every stored operation of the factors, step by step.
        fn factors(&mut self, f: &Factors) {
            self.word(f.m as u64);
            for k in 0..f.m {
                self.word(u64::from(f.pivot_row[k]));
                self.value(f.u_diag[k]);
                for part in [&f.l, &f.u] {
                    self.word(part.range(k).len() as u64);
                    for (i, v) in part.entries(k) {
                        self.word(i as u64);
                        self.value(v);
                    }
                }
            }
            for &(a, b) in &f.swaps {
                self.word(u64::from(a) << 32 | u64::from(b));
            }
        }

        /// FTRAN and BTRAN of unit vectors, sparse columns, sparse cost
        /// vectors and dense vectors of dimension `dim`.
        fn solves(&mut self, f: &Factors, dim: usize, next: &mut impl FnMut() -> u64) {
            let run = |fp: &mut Self, rhs: &[f64]| {
                let mut x = rhs.to_vec();
                f.ftran(&mut x);
                fp.vector(&x);
                let mut y = rhs.to_vec();
                f.btran(&mut y);
                fp.vector(&y);
            };
            let mut rhs = vec![0.0; dim];
            for i in (0..dim).step_by((dim / 23).max(1)) {
                rhs[i] = 1.0;
                run(self, &rhs);
                rhs[i] = 0.0;
            }
            for _ in 0..12 {
                let nnz = 1 + (next() % 4) as usize;
                let picks: Vec<usize> = (0..nnz).map(|_| (next() % dim as u64) as usize).collect();
                for &i in &picks {
                    rhs[i] += (next() % 7) as f64 - 3.0;
                }
                run(self, &rhs);
                for &i in &picks {
                    rhs[i] = 0.0;
                }
            }
            let dense: Vec<f64> = (0..dim).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
            run(self, &dense);
            let dense: Vec<f64> = (0..dim).map(|i| (i % 5) as f64 - 1.5).collect();
            run(self, &dense);
        }
    }

    /// A basis whose elimination fills in: each column holds a dominant
    /// diagonal entry plus two random off-diagonal entries, and every
    /// third column also an entry in one shared long row.
    fn fill_basis(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut next = rng(seed);
        let long_row = (next() % m as u64) as usize;
        (0..m)
            .map(|p| {
                let mut col = vec![(p, 8.0 + (next() % 8) as f64)];
                for _ in 0..2 {
                    let r = (next() % m as u64) as usize;
                    let v = (next() % 7) as f64 - 3.0;
                    if v != 0.0 && col.iter().all(|&(q, _)| q != r) {
                        col.push((r, v));
                    }
                }
                if p % 3 == 0 && col.iter().all(|&(q, _)| q != long_row) {
                    col.push((long_row, 1.0));
                }
                col.sort_unstable_by_key(|&(r, _)| r);
                col
            })
            .collect()
    }

    /// Replace a position through an eta update with a random difference
    /// column: the position where its FTRAN image is largest, so the
    /// update is always stable.
    fn eta_replace(f: &mut Factors, dim: usize, next: &mut impl FnMut() -> u64) {
        let mut w = vec![0.0; dim];
        w[(next() % dim as u64) as usize] = 1.0;
        w[(next() % dim as u64) as usize] -= 1.0;
        w[(next() % dim as u64) as usize] += 2.0;
        f.ftran(&mut w);
        let pos = (0..dim).fold(
            0,
            |best, i| if w[i].abs() > w[best].abs() { i } else { best },
        );
        assert!(f.update(pos, &w), "largest entry is a stable pivot");
    }

    /// Fingerprint of one basis through its life: fresh factors and
    /// solves, then solves after eta updates.
    fn kernel_fingerprint(m: usize, cols: &[Vec<(usize, f64)>], seed: u64) -> u64 {
        let mut next = rng(seed);
        let mut fp = Fingerprint::new();
        let mut f = factor_cols(m, cols).expect("fingerprint basis factors");
        fp.factors(&f);
        fp.solves(&f, m, &mut next);
        for _ in 0..5 {
            eta_replace(&mut f, m, &mut next);
        }
        fp.solves(&f, m, &mut next);
        fp.0
    }

    /// Factors and FTRAN/BTRAN results, bit for bit (zero signs aside),
    /// as recorded before the kernel's pivot search and solves were
    /// last reworked: any change to the pivot path or to the order of a
    /// single arithmetic operation on a nonzero shows here.
    #[test]
    fn kernel_fingerprints_are_pinned() {
        let mut got = Vec::new();
        for (i, m) in [10usize, 37, 150, 600, 2000].into_iter().enumerate() {
            let seed = 0x5EED + i as u64;
            got.push(kernel_fingerprint(m, &network_basis(m, seed), seed));
            got.push(kernel_fingerprint(m, &fill_basis(m, seed), seed));
        }
        let want: [u64; 10] = [
            10810348924166586866,
            8725315225623889346,
            1207947575834620522,
            8802602391615592813,
            14972123338943155452,
            3914986094555771857,
            10833218137374448949,
            10016982542285472390,
            152653942772730480,
            8666542382832292887,
        ];
        assert_eq!(got, want, "kernel fingerprints moved");
    }

    /// Columns that run out of entries: a structurally empty column, and
    /// columns that lose their last entry to elimination (equal copies,
    /// a column inside the span of two others). The reported position is
    /// the lowest-position empty column, as recorded before the pivot
    /// search was last reworked.
    /// A basis as sparse `(row, value)` columns, one per position.
    type Cols = Vec<Vec<(usize, f64)>>;

    #[test]
    fn count_zero_columns_report_the_recorded_position() {
        let cases: [(usize, Cols); 4] = [
            (3, vec![vec![(0, 1.0)], vec![], vec![(1, 2.0), (2, 1.0)]]),
            (
                3,
                vec![vec![(1, 1.0)], vec![(0, 1.0), (2, 1.0)], vec![(1, 3.0)]],
            ),
            (
                4,
                vec![
                    vec![(0, 1.0), (1, 1.0)],
                    vec![(1, 1.0), (2, 1.0)],
                    vec![(0, 1.0), (2, -1.0)],
                    vec![(3, 1.0)],
                ],
            ),
            (
                5,
                vec![
                    vec![(0, 2.0), (1, 1.0), (4, 1.0)],
                    vec![(2, 1.0)],
                    vec![(0, 4.0), (1, 2.0), (4, 2.0)],
                    vec![(3, 1.0), (4, 5.0)],
                    vec![(1, 1.0), (3, 1.0)],
                ],
            ),
        ];
        let got: Vec<usize> = cases
            .iter()
            .map(|(m, cols)| factor_cols(*m, cols).expect_err("singular").position)
            .collect();
        assert_eq!(got, [1, 2, 2, 2]);
    }

    /// Random inserts, removals and count moves against a brute-force
    /// argmin over `(count, position)`, through empty buckets, count 0
    /// and the largest count, and across resets to other sizes.
    #[test]
    fn count_buckets_track_the_lowest_count_and_position() {
        let mut next = rng(0xB0C4);
        let mut b = CountBuckets::default();
        for m in [1usize, 63, 64, 65, 200, 130, 7] {
            b.reset(m);
            let mut count: Vec<Option<usize>> = vec![None; m];
            for _ in 0..20 * m {
                let c = (next() % m as u64) as usize;
                match count[c] {
                    None => {
                        let n = (next() % (m as u64 + 1)) as usize;
                        b.insert(n, c);
                        count[c] = Some(n);
                    }
                    Some(n) if next().is_multiple_of(4) => {
                        b.remove(n, c);
                        count[c] = None;
                    }
                    Some(n) => {
                        let to = if next().is_multiple_of(2) {
                            n.saturating_sub(1)
                        } else {
                            (n + 1).min(m)
                        };
                        b.remove(n, c);
                        b.insert(to, c);
                        count[c] = Some(to);
                    }
                }
                let want = (0..m).filter_map(|c| count[c].map(|n| (n, c))).min();
                assert_eq!(b.min(), want, "m = {m}");
            }
        }
    }

    /// Fill-in moves columns to higher counts and cancellation to lower
    /// ones; the factors of fill-heavy bases still solve their systems.
    #[test]
    fn fill_bases_solve() {
        for (trial, m) in [5usize, 30, 120, 300].into_iter().enumerate() {
            let cols = fill_basis(m, 0xF111 + trial as u64);
            let a = cols_to_dense(m, &cols);
            let f = factor_cols(m, &cols).expect("fill basis factors");
            let filled = f.l.idx.len() + f.u.idx.len() + m;
            let input: usize = cols.iter().map(Vec::len).sum();
            assert!(m < 30 || filled > input, "m = {m}: no fill-in");
            let x_true: Vec<f64> = (0..m).map(|i| (i % 9) as f64 - 4.0).collect();
            let mut b = mat_vec(&a, &x_true);
            f.ftran(&mut b);
            assert_close(&b, &x_true);
            let mut c = mat_t_vec(&a, &x_true);
            f.btran(&mut c);
            assert_close(&c, &x_true);
        }
    }

    /// A unit right-hand side on a large network basis reaches few steps,
    /// so FTRAN and BTRAN take the sparse loops; a dense one does not.
    #[test]
    fn sparse_right_hand_sides_take_the_sparse_loops() {
        let m = 600;
        let f = factor_cols(m, &network_basis(m, 0x5A)).expect("factors");
        let mut reach = Reach::default();
        let mut x = vec![0.0; m];
        x[f.pivot_row[m / 2] as usize] = 1.0;
        assert!(reach.collect(&f, &x, |j| f.ut(j)));
        assert!(reach.collect(&f, &x, |k| &f.u_steps[f.u.range(k)]));
        assert!(reach.steps.windows(2).all(|w| w[0] < w[1]));
        assert!(reach.mark.iter().all(|&b| !b), "marks left set");
        let dense = vec![1.0; m];
        assert!(!reach.collect(&f, &dense, |j| f.ut(j)));
        assert!(reach.mark.iter().all(|&b| !b), "marks left set");
    }
}
