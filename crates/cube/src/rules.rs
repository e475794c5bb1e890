//! Calculation rules (paper Section 2).
//!
//! "Rules specify how the value of a cell is computed in terms of other
//! cell values." Two kinds are supported, mirroring the paper's examples:
//!
//! * **aggregation rules** — a default aggregate (sum, by convention) plus
//!   per-measure overrides, applied when a non-leaf cell's value is the
//!   rollup of its descendant leaf cells;
//! * **formula rules** — expressions over sibling measures, optionally
//!   *scoped* to a region of the cube:
//!   `"Margin = Sales - COGS"`, `"For Market = East, Margin = 0.93 * Sales
//!   - COGS"`, `"Margin% = Margin / COGS * 100"`.
//!
//! When several formulas target the same measure, the most specific scope
//! (most scope entries) wins; insertion order breaks ties in favour of the
//! later rule.

use olap_model::{DimensionId, MemberId};
use olap_store::CellValue;
use std::collections::HashMap;

/// Standard aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggFn {
    /// Sum of non-⊥ cells (the OLAP default).
    #[default]
    Sum,
    /// Count of non-⊥ cells.
    Count,
    /// Minimum of non-⊥ cells.
    Min,
    /// Maximum of non-⊥ cells.
    Max,
    /// Mean of non-⊥ cells.
    Avg,
}

/// A distributive accumulator that can finalize into any [`AggFn`].
///
/// Carrying sum/count/min/max together keeps cascaded aggregation
/// (Zhao-style, where group-bys are computed from other group-bys) correct
/// for the algebraic `Avg`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acc {
    /// Sum of accumulated values.
    pub sum: f64,
    /// Number of accumulated values.
    pub count: u64,
    /// Minimum accumulated value.
    pub min: f64,
    /// Maximum accumulated value.
    pub max: f64,
}

impl Default for Acc {
    fn default() -> Self {
        Acc {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Acc {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether anything has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds one value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds a cell, skipping ⊥.
    #[inline]
    pub fn add_cell(&mut self, v: CellValue) {
        if let CellValue::Num(x) = v {
            self.add(x);
        }
    }

    /// Merges another accumulator (associative, commutative).
    pub fn merge(&mut self, other: &Acc) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finalizes into a value for `agg`. Empty accumulators finalize to ⊥
    /// — a non-leaf cell whose whole scope is meaningless is meaningless.
    pub fn finalize(&self, agg: AggFn) -> CellValue {
        if self.is_empty() {
            return CellValue::Null;
        }
        let v = match agg {
            AggFn::Sum => self.sum,
            AggFn::Count => self.count as f64,
            AggFn::Min => self.min,
            AggFn::Max => self.max,
            AggFn::Avg => self.sum / self.count as f64,
        };
        CellValue::num(v)
    }
}

/// An arithmetic expression over measures of the same cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Const(f64),
    /// The value of another measure member at the same non-measure
    /// coordinates.
    Measure(MemberId),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division. Division by zero (or by ⊥) yields ⊥.
    Div(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // builder methods, deliberately by-value
impl Expr {
    /// `Expr::Measure` shorthand.
    pub fn measure(m: MemberId) -> Expr {
        Expr::Measure(m)
    }

    /// `Expr::Const` shorthand.
    pub fn constant(c: f64) -> Expr {
        Expr::Const(c)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// Measures referenced by the expression (for dependency checks).
    pub fn references(&self) -> Vec<MemberId> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs(&self, out: &mut Vec<MemberId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Measure(m) => out.push(*m),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            Expr::Neg(a) => a.collect_refs(out),
        }
    }
}

/// A formula rule: `target = expr`, restricted to the given scope.
#[derive(Debug, Clone, PartialEq)]
pub struct FormulaRule {
    /// The measure member the rule defines.
    pub target: MemberId,
    /// Restrictions on non-measure dimensions: the cell's coordinate on
    /// each listed dimension must fall at-or-under the listed member
    /// ("For Market = East, …").
    pub scope: Vec<(DimensionId, MemberId)>,
    /// The defining expression.
    pub expr: Expr,
}

/// The cube's rule set.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    measure_dim: Option<DimensionId>,
    default_agg: AggFn,
    per_measure: HashMap<MemberId, AggFn>,
    formulas: Vec<FormulaRule>,
}

impl RuleSet {
    /// An empty rule set (sum everywhere, no formulas).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares which dimension holds measures.
    pub fn set_measure_dim(&mut self, dim: DimensionId) {
        self.measure_dim = Some(dim);
    }

    /// The measures dimension, if declared.
    pub fn measure_dim(&self) -> Option<DimensionId> {
        self.measure_dim
    }

    /// Sets the default aggregation function.
    pub fn set_default_agg(&mut self, agg: AggFn) {
        self.default_agg = agg;
    }

    /// Overrides the aggregation function for one measure member.
    pub fn set_measure_agg(&mut self, measure: MemberId, agg: AggFn) {
        self.per_measure.insert(measure, agg);
    }

    /// The aggregation function for a (possibly unknown) measure.
    pub fn agg_for(&self, measure: Option<MemberId>) -> AggFn {
        measure
            .and_then(|m| self.per_measure.get(&m).copied())
            .unwrap_or(self.default_agg)
    }

    /// Adds a formula rule.
    pub fn add_formula(&mut self, rule: FormulaRule) {
        self.formulas.push(rule);
    }

    /// Candidate formulas for a target measure, most specific scope first
    /// (later insertion breaks ties).
    pub fn candidates(&self, target: MemberId) -> Vec<&FormulaRule> {
        let mut c: Vec<(usize, &FormulaRule)> = self
            .formulas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.target == target)
            .collect();
        c.sort_by(|(ia, a), (ib, b)| b.scope.len().cmp(&a.scope.len()).then(ib.cmp(ia)));
        c.into_iter().map(|(_, r)| r).collect()
    }

    /// Whether any formula targets `m`.
    pub fn has_formula(&self, m: MemberId) -> bool {
        self.formulas.iter().any(|r| r.target == m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_finalizes_all_fns() {
        let mut a = Acc::new();
        for v in [1.0, 2.0, 3.0, 6.0] {
            a.add(v);
        }
        assert_eq!(a.finalize(AggFn::Sum), CellValue::Num(12.0));
        assert_eq!(a.finalize(AggFn::Count), CellValue::Num(4.0));
        assert_eq!(a.finalize(AggFn::Min), CellValue::Num(1.0));
        assert_eq!(a.finalize(AggFn::Max), CellValue::Num(6.0));
        assert_eq!(a.finalize(AggFn::Avg), CellValue::Num(3.0));
    }

    #[test]
    fn empty_acc_is_bottom() {
        let a = Acc::new();
        for f in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max, AggFn::Avg] {
            assert_eq!(a.finalize(f), CellValue::Null);
        }
    }

    #[test]
    fn acc_merge_matches_sequential() {
        let mut a = Acc::new();
        a.add(1.0);
        a.add(5.0);
        let mut b = Acc::new();
        b.add(-2.0);
        let mut merged = a;
        merged.merge(&b);
        let mut seq = Acc::new();
        for v in [1.0, 5.0, -2.0] {
            seq.add(v);
        }
        assert_eq!(merged, seq);
    }

    #[test]
    fn acc_skips_null_cells() {
        let mut a = Acc::new();
        a.add_cell(CellValue::Null);
        a.add_cell(CellValue::num(4.0));
        assert_eq!(a.count, 1);
        assert_eq!(a.finalize(AggFn::Avg), CellValue::Num(4.0));
    }

    #[test]
    fn expr_builders_and_refs() {
        let sales = MemberId(1);
        let cogs = MemberId(2);
        // Margin = 0.93 * Sales - COGS
        let e = Expr::constant(0.93)
            .mul(Expr::measure(sales))
            .sub(Expr::measure(cogs));
        assert_eq!(e.references(), vec![sales, cogs]);
    }

    #[test]
    fn candidates_prefer_specific_then_later() {
        let margin = MemberId(5);
        let mut rs = RuleSet::new();
        let global = FormulaRule {
            target: margin,
            scope: vec![],
            expr: Expr::constant(1.0),
        };
        let east = FormulaRule {
            target: margin,
            scope: vec![(DimensionId(0), MemberId(9))],
            expr: Expr::constant(2.0),
        };
        rs.add_formula(global.clone());
        rs.add_formula(east.clone());
        let c = rs.candidates(margin);
        assert_eq!(c[0], &east);
        assert_eq!(c[1], &global);
        // Later rule with the same specificity wins.
        let global2 = FormulaRule {
            target: margin,
            scope: vec![],
            expr: Expr::constant(3.0),
        };
        rs.add_formula(global2.clone());
        let c = rs.candidates(margin);
        assert_eq!(c[1], &global2);
        assert_eq!(c[2], &global);
    }

    #[test]
    fn agg_for_falls_back_to_default() {
        let mut rs = RuleSet::new();
        rs.set_default_agg(AggFn::Sum);
        rs.set_measure_agg(MemberId(3), AggFn::Avg);
        assert_eq!(rs.agg_for(Some(MemberId(3))), AggFn::Avg);
        assert_eq!(rs.agg_for(Some(MemberId(4))), AggFn::Sum);
        assert_eq!(rs.agg_for(None), AggFn::Sum);
    }
}
