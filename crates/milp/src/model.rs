//! Model-building API: variables, linear expressions, constraints.
//!
//! A [`Model`] is always a **minimization** problem over bounded variables
//! with linear constraints; integrality is a per-variable attribute. This
//! mirrors how the paper's MILP is stated (Eq. 15 minimizes a weighted area
//! sum subject to Eqs. 2–14).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Identifier of a decision variable within its [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The variable's column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The identifier of column `index`. Validity against a particular
    /// model is the caller's concern (accessors panic out of range).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        VarId(index as u32)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Identifier of a constraint row within its [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub(crate) u32);

impl RowId {
    /// The row's index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The identifier of row `index`. Validity against a particular
    /// model is the caller's concern (accessors panic out of range).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        RowId(index as u32)
    }
}

/// Whether a variable must take an integral value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VarKind {
    /// Real-valued.
    #[default]
    Continuous,
    /// Integer-valued (branch-and-bound enforces integrality).
    Integer,
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "==",
        })
    }
}

/// A sparse linear expression `Σ coeff · var (+ constant)`.
///
/// Build with arithmetic operators or [`LinExpr::term`]:
///
/// ```
/// use pipemap_milp::{LinExpr, Model};
///
/// let mut m = Model::new("demo");
/// let x = m.add_binary(1.0);
/// let y = m.add_binary(2.0);
/// let e = LinExpr::from(x) + LinExpr::term(3.0, y) - 1.0;
/// assert_eq!(e.coeffs().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// A single term `coeff · var`.
    pub fn term(coeff: f64, var: VarId) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// A constant expression.
    pub fn constant(c: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Add `coeff · var` in place.
    pub fn add_term(&mut self, coeff: f64, var: VarId) -> &mut Self {
        self.terms.push((var, coeff));
        self
    }

    /// Add a constant in place.
    pub fn add_constant(&mut self, c: f64) -> &mut Self {
        self.constant += c;
        self
    }

    /// The constant part.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// Coefficients with duplicate variables merged and zeros dropped.
    pub fn coeffs(&self) -> Vec<(VarId, f64)> {
        let mut sorted = self.terms.clone();
        sorted.sort_by_key(|(v, _)| *v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(sorted.len());
        for (v, c) in sorted {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| *c != 0.0);
        out
    }

    /// Evaluate against a full assignment vector.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * values[v.index()])
                .sum::<f64>()
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(1.0, v)
    }
}

impl FromIterator<(f64, VarId)> for LinExpr {
    fn from_iter<T: IntoIterator<Item = (f64, VarId)>>(iter: T) -> Self {
        LinExpr {
            terms: iter.into_iter().map(|(c, v)| (v, c)).collect(),
            constant: 0.0,
        }
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        *self += -rhs;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Col {
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
    pub kind: VarKind,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    /// Merged, zero-free coefficients sorted by variable.
    pub coeffs: Vec<(VarId, f64)>,
    pub sense: Sense,
    /// Right-hand side with the expression's constant already folded in.
    pub rhs: f64,
}

/// A mixed-integer linear **minimization** problem.
///
/// ```
/// use pipemap_milp::{LinExpr, Model, Sense, SolverOptions};
///
/// # fn main() -> Result<(), pipemap_milp::MilpError> {
/// // max x + 2y  s.t. x + y <= 1, binary  ==  min -(x + 2y)
/// let mut m = Model::new("tiny");
/// let x = m.add_binary(-1.0);
/// let y = m.add_binary(-2.0);
/// m.add_constraint(LinExpr::from(x) + LinExpr::from(y), Sense::Le, 1.0);
/// let result = m.solve(&SolverOptions::default())?;
/// assert_eq!(result.objective.round(), -2.0); // picks y
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    pub(crate) cols: Vec<Col>,
    pub(crate) rows: Vec<Row>,
}

impl Model {
    /// An empty model with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            cols: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// Number of constraints.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Add a variable with explicit bounds, objective coefficient and kind.
    /// Use `f64::NEG_INFINITY` / `f64::INFINITY` for free bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64, kind: VarKind) -> VarId {
        assert!(!lb.is_nan() && !ub.is_nan(), "NaN variable bound");
        assert!(lb <= ub, "variable bounds crossed: [{lb}, {ub}]");
        let id = VarId(self.cols.len() as u32);
        self.cols.push(Col { lb, ub, obj, kind });
        id
    }

    /// Add a binary (0/1 integer) variable.
    pub fn add_binary(&mut self, obj: f64) -> VarId {
        self.add_var(0.0, 1.0, obj, VarKind::Integer)
    }

    /// Add a bounded continuous variable.
    pub fn add_continuous(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var(lb, ub, obj, VarKind::Continuous)
    }

    /// Add a bounded integer variable.
    pub fn add_integer(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var(lb, ub, obj, VarKind::Integer)
    }

    /// Add the constraint `expr sense rhs`; any constant inside `expr` is
    /// moved to the right-hand side.
    pub fn add_constraint(&mut self, expr: LinExpr, sense: Sense, rhs: f64) -> RowId {
        let id = RowId(self.rows.len() as u32);
        self.rows.push(Row {
            coeffs: expr.coeffs(),
            sense,
            rhs: rhs - expr.constant_part(),
        });
        id
    }

    /// Coefficients of a row: merged, zero-free, sorted by variable.
    pub fn row_coeffs(&self, r: RowId) -> &[(VarId, f64)] {
        &self.rows[r.index()].coeffs
    }

    /// Sense of a row.
    pub fn row_sense(&self, r: RowId) -> Sense {
        self.rows[r.index()].sense
    }

    /// Right-hand side of a row (expression constants already folded in).
    pub fn row_rhs(&self, r: RowId) -> f64 {
        self.rows[r.index()].rhs
    }

    /// Bounds of a variable.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        let c = &self.cols[v.index()];
        (c.lb, c.ub)
    }

    /// Replace a variable's bounds. The subgraph-decomposition loop uses
    /// this to freeze the complement of a region at a known-feasible
    /// assignment before solving the sub-MILP.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub` or either bound is NaN (same contract as
    /// [`Self::add_var`]).
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        assert!(!lb.is_nan() && !ub.is_nan(), "NaN variable bound");
        assert!(lb <= ub, "variable bounds crossed: [{lb}, {ub}]");
        let c = &mut self.cols[v.index()];
        c.lb = lb;
        c.ub = ub;
    }

    /// Objective coefficient of a variable.
    pub fn objective_coeff(&self, v: VarId) -> f64 {
        self.cols[v.index()].obj
    }

    /// `true` when both models pose the exact same problem — identical
    /// columns (bounds, objective, kind) and identical rows — ignoring
    /// the display name. Since the solver is deterministic, two models
    /// for which this holds produce bit-identical results under equal
    /// options; design-space sweeps use that to skip re-solving a
    /// structural point whose formulation collapsed onto the previous
    /// one (e.g. an II that does not bind).
    pub fn same_problem(&self, other: &Model) -> bool {
        self.cols == other.cols && self.rows == other.rows
    }

    /// Replace a variable's objective coefficient. Used by objective
    /// decompositions that minimize one variable group's share of a
    /// linear objective at a time.
    pub fn set_objective_coeff(&mut self, v: VarId, obj: f64) {
        assert!(!obj.is_nan(), "NaN objective coefficient");
        self.cols[v.index()].obj = obj;
    }

    /// Drop the integrality requirement of a variable (no-op on a
    /// continuous one). The result is a relaxation: every point feasible
    /// before stays feasible.
    pub fn relax_integrality(&mut self, v: VarId) {
        self.cols[v.index()].kind = VarKind::Continuous;
    }

    /// Replace a variable's kind outright. Unlike [`Self::relax_integrality`]
    /// this can also *restore* integrality, which the re-solve engine needs
    /// to undo a relaxation delta.
    pub fn set_var_kind(&mut self, v: VarId, kind: VarKind) {
        self.cols[v.index()].kind = kind;
    }

    /// Kind of a variable.
    pub fn var_kind(&self, v: VarId) -> VarKind {
        self.cols[v.index()].kind
    }

    /// Evaluate the objective on an assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.cols.iter().zip(values).map(|(c, v)| c.obj * v).sum()
    }

    /// Check a point against every constraint and bound with tolerance
    /// `tol`; returns the first violated row, if any.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Option<RowId> {
        for (i, c) in self.cols.iter().enumerate() {
            if values[i] < c.lb - tol || values[i] > c.ub + tol {
                // Report bound violations as a synthetic row id past the end.
                return Some(RowId(self.rows.len() as u32 + i as u32));
            }
        }
        for (i, r) in self.rows.iter().enumerate() {
            let lhs: f64 = r.coeffs.iter().map(|(v, c)| c * values[v.index()]).sum();
            let ok = match r.sense {
                Sense::Le => lhs <= r.rhs + tol,
                Sense::Ge => lhs >= r.rhs - tol,
                Sense::Eq => (lhs - r.rhs).abs() <= tol,
            };
            if !ok {
                return Some(RowId(i as u32));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_merges_and_drops_zeros() {
        let mut m = Model::new("t");
        let x = m.add_binary(0.0);
        let y = m.add_binary(0.0);
        let e = LinExpr::term(1.0, x) + LinExpr::term(2.0, x) + LinExpr::term(0.0, y);
        assert_eq!(e.coeffs(), vec![(x, 3.0)]);
    }

    #[test]
    fn expr_arithmetic() {
        let mut m = Model::new("t");
        let x = m.add_binary(0.0);
        let y = m.add_binary(0.0);
        let e = (LinExpr::from(x) - LinExpr::from(y)) * 2.0 + 5.0;
        assert_eq!(e.constant_part(), 5.0);
        assert_eq!(e.coeffs(), vec![(x, 2.0), (y, -2.0)]);
        let neg = -e;
        assert_eq!(neg.constant_part(), -5.0);
        assert_eq!(neg.coeffs(), vec![(x, -2.0), (y, 2.0)]);
    }

    #[test]
    fn constraint_folds_constant() {
        let mut m = Model::new("t");
        let x = m.add_binary(0.0);
        m.add_constraint(LinExpr::from(x) + 3.0, Sense::Le, 5.0);
        assert_eq!(m.rows[0].rhs, 2.0);
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(LinExpr::from(x), Sense::Ge, 2.0);
        assert!(m.check_feasible(&[3.0], 1e-9).is_none());
        assert!(m.check_feasible(&[1.0], 1e-9).is_some());
        assert!(m.check_feasible(&[-1.0], 1e-9).is_some());
    }

    #[test]
    #[should_panic(expected = "bounds crossed")]
    fn crossed_bounds_panic() {
        let mut m = Model::new("t");
        m.add_var(1.0, 0.0, 0.0, VarKind::Continuous);
    }
}
