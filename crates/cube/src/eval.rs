//! Cell evaluation: derived (non-leaf) cells, rollups, and formula rules.
//!
//! The paper assumes "all leaf level cells are base and all non-leaf cells
//! are derived", and that "the scope of a function for a non-leaf cell is
//! the set of its descendant leaf cells". [`CellEvaluator`] implements
//! exactly that contract, with formula rules taking precedence over rollup
//! for the measures they define.
//!
//! It is the paper's Eval operator `E(C¹, C²)` (Definition 4.6), the one
//! place a cell is decided base or derived. Plain queries and visual mode
//! read every cell on one cube; non-visual mode reads base cells on the
//! what-if output and derived cells on its input, under the input's rules.

use crate::cube::Cube;
use crate::error::CubeError;
use crate::rules::{Acc, Expr, FormulaRule};
use crate::Result;
use olap_model::{AxisSlot, DimensionId, MemberId};
use olap_store::CellValue;

/// One coordinate of a cell reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sel {
    /// A specific axis slot (a leaf member, or a member *instance* on a
    /// varying dimension).
    Slot(u32),
    /// A member at any level. A non-leaf member selects its descendant
    /// slots; a leaf member of a varying dimension selects *all its
    /// instances* (so `Member(Joe)` aggregates `FTE/Joe` + `PTE/Joe` + …).
    Member(MemberId),
}

/// Maximum formula recursion before declaring a rule cycle.
const MAX_DEPTH: u32 = 32;

/// Evaluates cells under a rule set: `E` over one cube, or over a
/// non-visual what-if output and its input.
pub struct CellEvaluator<'a> {
    /// The cube selectors address and base cells are read on; its rules
    /// decide which cells are derived.
    output: Reader<'a>,
    /// Non-visual mode: the cube derived cells are read on, and the
    /// dimension whose slot selectors widen to their member there.
    input: Option<(Reader<'a>, Option<DimensionId>)>,
}

impl<'a> CellEvaluator<'a> {
    /// Evaluator over the cube's cells under the cube's own rules: plain
    /// queries, and visual mode over a what-if output.
    pub fn new(cube: &'a Cube) -> Self {
        CellEvaluator {
            output: Reader { data: cube },
            input: None,
        }
    }

    /// Non-visual mode: base cells are read on the what-if `output`,
    /// derived cells keep their value on `input`. `grown` names the
    /// dimension whose axis a positive scenario grew: its slot selectors
    /// address instances the input lacks, so a derived cell reads their
    /// member there (the paper's non-visual split keeps input totals).
    pub fn non_visual(output: &'a Cube, input: &'a Cube, grown: Option<DimensionId>) -> Self {
        CellEvaluator {
            output: Reader { data: output },
            input: Some((Reader { data: input }, grown)),
        }
    }

    /// The value of the cell addressed by one selector per dimension.
    ///
    /// A cell is *base* when every selector covers exactly one slot and
    /// no formula rule targets its selected measure (whether or not the
    /// rule's scope holds for it); base cells are read on the output.
    pub fn value(&self, sels: &[Sel]) -> Result<CellValue> {
        let out = &self.output;
        out.data.check_rank(sels.len())?;
        let slots = out.slots(sels)?;
        let formula = (out.measure(sels)).is_some_and(|m| out.data.rules().has_formula(m));
        if !formula && slots.iter().all(|l| l.len() == 1) {
            return out.fold(sels, &slots);
        }
        let Some((input, grown)) = &self.input else {
            return match out.rule_for(sels) {
                Some((rule, mdim)) => out.eval_expr(&rule.expr, sels, mdim, 0),
                None => out.fold(sels, &slots),
            };
        };
        let mut sels = sels.to_vec();
        if let Some(dim) = grown {
            if let Some(Sel::Slot(s)) = sels.get(dim.index()) {
                let member = out.data.schema().slot_member(*dim, AxisSlot(*s));
                sels[dim.index()] = Sel::Member(member);
            }
        }
        input.value_at(&sels, 0)
    }
}

/// Reads the cells of one cube under that cube's own rules.
struct Reader<'a> {
    data: &'a Cube,
}

impl Reader<'_> {
    fn value_at(&self, sels: &[Sel], depth: u32) -> Result<CellValue> {
        match self.rule_for(sels) {
            Some((rule, mdim)) => self.eval_expr(&rule.expr, sels, mdim, depth),
            None => self.fold(sels, &self.slots(sels)?),
        }
    }

    /// The most specific formula rule for the selected measure whose
    /// scope holds for the cell; formula rules take precedence.
    fn rule_for(&self, sels: &[Sel]) -> Option<(&FormulaRule, DimensionId)> {
        let mdim = self.data.rules().measure_dim()?;
        let measure = self.selected_member(mdim, sels)?;
        let rules = self.data.rules().candidates(measure);
        let rule = rules.into_iter().find(|r| self.scope_matches(r, sels))?;
        Some((rule, mdim))
    }

    /// Base read or rollup over the region `slots` spans.
    fn fold(&self, sels: &[Sel], slots: &[Vec<u32>]) -> Result<CellValue> {
        if slots.iter().any(|l| l.is_empty()) {
            return Ok(CellValue::Null);
        }
        if slots.iter().all(|l| l.len() == 1) {
            let cell: Vec<u32> = slots.iter().map(|l| l[0]).collect();
            return self.data.get(&cell);
        }
        let agg = self.data.rules().agg_for(self.measure(sels));
        Ok(self.accumulate_region(slots)?.finalize(agg))
    }

    /// Each selector's slots, in dimension order.
    fn slots(&self, sels: &[Sel]) -> Result<Vec<Vec<u32>>> {
        (sels.iter().enumerate())
            .map(|(i, &sel)| self.slots_for(i, sel))
            .collect()
    }

    /// The selected measure, when the cube has a measure dimension.
    fn measure(&self, sels: &[Sel]) -> Option<MemberId> {
        let mdim = self.data.rules().measure_dim()?;
        self.selected_member(mdim, sels)
    }

    /// The single member selected on dimension `dim`, if the selector pins
    /// one down (a `Member` directly, or a `Slot` via its leaf member).
    fn selected_member(&self, dim: DimensionId, sels: &[Sel]) -> Option<MemberId> {
        match sels.get(dim.index())? {
            Sel::Member(m) => Some(*m),
            Sel::Slot(s) => Some(self.data.schema().slot_member(dim, AxisSlot(*s))),
        }
    }

    /// Does the cell fall inside the rule's scope?
    fn scope_matches(&self, rule: &FormulaRule, sels: &[Sel]) -> bool {
        let schema = self.data.schema();
        rule.scope
            .iter()
            .all(|&(dim, scope_member)| match sels.get(dim.index()) {
                None => false,
                Some(Sel::Slot(s)) => {
                    let leaf = schema.slot_member(dim, AxisSlot(*s));
                    leaf == scope_member
                        || schema
                            .slot_ancestors(dim, AxisSlot(*s))
                            .contains(&scope_member)
                }
                Some(Sel::Member(m)) => {
                    *m == scope_member || schema.dim(dim).is_ancestor(scope_member, *m)
                }
            })
    }

    fn eval_expr(
        &self,
        expr: &Expr,
        sels: &[Sel],
        mdim: DimensionId,
        depth: u32,
    ) -> Result<CellValue> {
        if depth >= MAX_DEPTH {
            let name = match self.selected_member(mdim, sels) {
                Some(m) => self.data.schema().dim(mdim).member_name(m).to_string(),
                None => "<unknown>".to_string(),
            };
            return Err(CubeError::RuleCycle { measure: name });
        }
        Ok(match expr {
            Expr::Const(c) => CellValue::num(*c),
            Expr::Measure(m) => {
                let mut sub = sels.to_vec();
                sub[mdim.index()] = Sel::Member(*m);
                self.value_at(&sub, depth + 1)?
            }
            Expr::Add(a, b) => self.binop(a, b, sels, mdim, depth, |x, y| Some(x + y))?,
            Expr::Sub(a, b) => self.binop(a, b, sels, mdim, depth, |x, y| Some(x - y))?,
            Expr::Mul(a, b) => self.binop(a, b, sels, mdim, depth, |x, y| Some(x * y))?,
            Expr::Div(a, b) => self.binop(a, b, sels, mdim, depth, |x, y| {
                if y == 0.0 {
                    None
                } else {
                    Some(x / y)
                }
            })?,
            Expr::Neg(a) => match self.eval_expr(a, sels, mdim, depth)? {
                CellValue::Num(x) => CellValue::num(-x),
                CellValue::Null => CellValue::Null,
            },
        })
    }

    fn binop(
        &self,
        a: &Expr,
        b: &Expr,
        sels: &[Sel],
        mdim: DimensionId,
        depth: u32,
        f: impl FnOnce(f64, f64) -> Option<f64>,
    ) -> Result<CellValue> {
        let va = self.eval_expr(a, sels, mdim, depth)?;
        let vb = self.eval_expr(b, sels, mdim, depth)?;
        Ok(match (va.as_f64(), vb.as_f64()) {
            (Some(x), Some(y)) => match f(x, y) {
                Some(v) => CellValue::num(v),
                None => CellValue::Null, // division by zero ⇒ ⊥
            },
            _ => CellValue::Null, // ⊥ propagates through arithmetic
        })
    }

    /// Resolves one selector to the ascending axis slots it covers.
    fn slots_for(&self, dim_index: usize, sel: Sel) -> Result<Vec<u32>> {
        let dim = DimensionId(dim_index as u32);
        let schema = self.data.schema();
        let len = schema.axis_len(dim);
        match sel {
            Sel::Slot(s) => {
                if s >= len {
                    return Err(CubeError::SlotOutOfRange {
                        dim: dim_index,
                        slot: s,
                        len,
                    });
                }
                Ok(vec![s])
            }
            Sel::Member(m) => {
                schema.dim(dim).try_member(m)?;
                Ok(schema
                    .slots_under(dim, m)
                    .into_iter()
                    .map(|s| s.0)
                    .collect())
            }
        }
    }

    /// Chunk-aware accumulation over a region (the cross product of the
    /// given per-dimension slot lists). Skips unmaterialized chunks.
    fn accumulate_region(&self, slots: &[Vec<u32>]) -> Result<Acc> {
        let geom = self.data.geometry();
        let n = slots.len();
        let mut acc = Acc::new();
        if slots.iter().any(|l| l.is_empty()) {
            return Ok(acc);
        }
        // Group each dimension's slots by chunk coordinate.
        let mut groups: Vec<Vec<(u32, Vec<u32>)>> = Vec::with_capacity(n);
        for (i, list) in slots.iter().enumerate() {
            let extent = geom.extents()[i];
            let mut g: Vec<(u32, Vec<u32>)> = Vec::new();
            for &s in list {
                let cc = s / extent;
                match g.last_mut() {
                    Some((last_cc, locals)) if *last_cc == cc => locals.push(s - cc * extent),
                    _ => g.push((cc, vec![s - cc * extent])),
                }
            }
            groups.push(g);
        }
        // Odometer over per-dimension chunk groups.
        let mut gi = vec![0usize; n];
        let mut coord = vec![0u32; n];
        'outer: loop {
            for i in 0..n {
                coord[i] = groups[i][gi[i]].0;
            }
            let id = geom.chunk_id(&coord);
            if self.data.chunk_exists(id) {
                let chunk = self.data.chunk(id)?;
                let shape = chunk.shape().to_vec();
                // Odometer over local offsets inside the chunk.
                let mut li = vec![0usize; n];
                loop {
                    let mut off = 0u32;
                    for i in 0..n {
                        off = off * shape[i] + groups[i][gi[i]].1[li[i]];
                    }
                    acc.add_cell(chunk.get(off));
                    let mut d = n;
                    while d > 0 {
                        d -= 1;
                        li[d] += 1;
                        if li[d] < groups[d][gi[d]].1.len() {
                            break;
                        }
                        li[d] = 0;
                        if d == 0 {
                            // local odometer done
                            d = usize::MAX;
                            break;
                        }
                    }
                    if d == usize::MAX {
                        break;
                    }
                }
            }
            // Advance chunk-group odometer.
            let mut d = n;
            while d > 0 {
                d -= 1;
                gi[d] += 1;
                if gi[d] < groups[d].len() {
                    break;
                }
                gi[d] = 0;
                if d == 0 {
                    break 'outer;
                }
            }
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{AggFn, RuleSet};
    use olap_model::{DimensionSpec, Schema, SchemaBuilder};
    use std::sync::Arc;

    /// Markets {East: NY, MA; West: CA}, Measures {Sales, COGS, Margin,
    /// MarginPct}, 2 months.
    fn fixture() -> (Cube, Arc<Schema>) {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(
                    DimensionSpec::new("Market")
                        .tree(&[("East", &["NY", "MA"][..]), ("West", &["CA"])]),
                )
                .dimension(DimensionSpec::new("Time").ordered().leaves(&["Jan", "Feb"]))
                .dimension(DimensionSpec::new("Measures").measures().leaves(&[
                    "Sales",
                    "COGS",
                    "Margin",
                    "MarginPct",
                ]))
                .build()
                .unwrap(),
        );
        let mdim = schema.resolve_dimension("Measures").unwrap();
        let market = schema.resolve_dimension("Market").unwrap();
        let sales = schema.dim(mdim).resolve("Sales").unwrap();
        let cogs = schema.dim(mdim).resolve("COGS").unwrap();
        let margin = schema.dim(mdim).resolve("Margin").unwrap();
        let pct = schema.dim(mdim).resolve("MarginPct").unwrap();
        let east = schema.dim(market).resolve("East").unwrap();

        let mut rules = RuleSet::new();
        rules.set_measure_dim(mdim);
        // (1) Margin = Sales - COGS
        rules.add_formula(FormulaRule {
            target: margin,
            scope: vec![],
            expr: Expr::measure(sales).sub(Expr::measure(cogs)),
        });
        // (3) For Market = East, Margin = 0.93 * Sales - COGS
        rules.add_formula(FormulaRule {
            target: margin,
            scope: vec![(market, east)],
            expr: Expr::constant(0.93)
                .mul(Expr::measure(sales))
                .sub(Expr::measure(cogs)),
        });
        // (4) Margin% = Margin / COGS * 100
        rules.add_formula(FormulaRule {
            target: pct,
            scope: vec![],
            expr: Expr::measure(margin)
                .div(Expr::measure(cogs))
                .mul(Expr::constant(100.0)),
        });

        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 2, 2])
            .unwrap()
            .rules(rules);
        // slots: Market [NY, MA, CA], Time [Jan, Feb], Measures [S, C, M, P]
        // Sales
        b.set_num(&[0, 0, 0], 100.0).unwrap(); // NY Jan
        b.set_num(&[1, 0, 0], 50.0).unwrap(); // MA Jan
        b.set_num(&[2, 0, 0], 80.0).unwrap(); // CA Jan
        b.set_num(&[0, 1, 0], 10.0).unwrap(); // NY Feb
                                              // COGS
        b.set_num(&[0, 0, 1], 40.0).unwrap(); // NY Jan
        b.set_num(&[1, 0, 1], 20.0).unwrap(); // MA Jan
        b.set_num(&[2, 0, 1], 30.0).unwrap(); // CA Jan
        (b.finish().unwrap(), schema)
    }

    fn sels(cube_schema: &Schema, market: &str, time: &str, measure: &str) -> Vec<Sel> {
        let md = cube_schema.resolve_dimension("Market").unwrap();
        let td = cube_schema.resolve_dimension("Time").unwrap();
        let xd = cube_schema.resolve_dimension("Measures").unwrap();
        vec![
            Sel::Member(cube_schema.dim(md).resolve(market).unwrap()),
            Sel::Member(cube_schema.dim(td).resolve(time).unwrap()),
            Sel::Member(cube_schema.dim(xd).resolve(measure).unwrap()),
        ]
    }

    #[test]
    fn leaf_read_through_members() {
        let (cube, schema) = fixture();
        let ev = CellEvaluator::new(&cube);
        assert_eq!(
            ev.value(&sels(&schema, "NY", "Jan", "Sales")).unwrap(),
            CellValue::Num(100.0)
        );
    }

    #[test]
    fn rollup_sums_leaves() {
        let (cube, schema) = fixture();
        let ev = CellEvaluator::new(&cube);
        // East Jan Sales = NY + MA = 150
        assert_eq!(
            ev.value(&sels(&schema, "East", "Jan", "Sales")).unwrap(),
            CellValue::Num(150.0)
        );
        // All markets, all time: 100+50+80+10 = 240
        assert_eq!(
            ev.value(&sels(&schema, "Market", "Time", "Sales")).unwrap(),
            CellValue::Num(240.0)
        );
    }

    #[test]
    fn global_formula_applies() {
        let (cube, schema) = fixture();
        let ev = CellEvaluator::new(&cube);
        // West (CA): plain Margin = 80 - 30 = 50.
        assert_eq!(
            ev.value(&sels(&schema, "CA", "Jan", "Margin")).unwrap(),
            CellValue::Num(50.0)
        );
    }

    #[test]
    fn scoped_formula_overrides_in_east() {
        let (cube, schema) = fixture();
        let ev = CellEvaluator::new(&cube);
        // NY (under East): Margin = 0.93*100 - 40 = 53.
        assert_eq!(
            ev.value(&sels(&schema, "NY", "Jan", "Margin")).unwrap(),
            CellValue::Num(53.0)
        );
        // East as a whole: 0.93*150 - 60 = 79.5.
        assert_eq!(
            ev.value(&sels(&schema, "East", "Jan", "Margin")).unwrap(),
            CellValue::Num(79.5)
        );
    }

    #[test]
    fn chained_formula_margin_pct() {
        let (cube, schema) = fixture();
        let ev = CellEvaluator::new(&cube);
        // CA: Margin% = 50/30*100.
        let v = ev
            .value(&sels(&schema, "CA", "Jan", "MarginPct"))
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((v - 50.0 / 30.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn division_by_zero_is_bottom() {
        let (cube, schema) = fixture();
        let ev = CellEvaluator::new(&cube);
        // NY Feb: Sales=10, COGS=⊥ ⇒ Margin ⊥ ⇒ Margin% ⊥.
        assert_eq!(
            ev.value(&sels(&schema, "NY", "Feb", "Margin")).unwrap(),
            CellValue::Null
        );
        assert_eq!(
            ev.value(&sels(&schema, "NY", "Feb", "MarginPct")).unwrap(),
            CellValue::Null
        );
    }

    #[test]
    fn rule_cycle_detected() {
        let (mut cube, schema) = fixture();
        let mdim = schema.resolve_dimension("Measures").unwrap();
        let sales = schema.dim(mdim).resolve("Sales").unwrap();
        let mut rules = cube.rules().clone();
        // Sales = Sales + 1 — direct cycle.
        rules.add_formula(FormulaRule {
            target: sales,
            scope: vec![],
            expr: Expr::measure(sales).add(Expr::constant(1.0)),
        });
        cube.set_rules(rules);
        let ev = CellEvaluator::new(&cube);
        assert!(matches!(
            ev.value(&sels(&schema, "NY", "Jan", "Sales")),
            Err(CubeError::RuleCycle { .. })
        ));
    }

    #[test]
    fn avg_override_per_measure() {
        let (mut cube, schema) = fixture();
        let mdim = schema.resolve_dimension("Measures").unwrap();
        let sales = schema.dim(mdim).resolve("Sales").unwrap();
        let mut rules = cube.rules().clone();
        rules.set_measure_agg(sales, AggFn::Avg);
        cube.set_rules(rules);
        let ev = CellEvaluator::new(&cube);
        // East Jan Sales avg = (100+50)/2.
        assert_eq!(
            ev.value(&sels(&schema, "East", "Jan", "Sales")).unwrap(),
            CellValue::Num(75.0)
        );
    }

    #[test]
    fn empty_region_is_bottom() {
        let (cube, schema) = fixture();
        let ev = CellEvaluator::new(&cube);
        assert_eq!(
            ev.value(&sels(&schema, "West", "Feb", "Sales")).unwrap(),
            CellValue::Null
        );
    }

    #[test]
    fn slot_selector_reads_directly() {
        let (cube, _) = fixture();
        let ev = CellEvaluator::new(&cube);
        assert_eq!(
            ev.value(&[Sel::Slot(0), Sel::Slot(0), Sel::Slot(0)])
                .unwrap(),
            CellValue::Num(100.0)
        );
        assert!(ev
            .value(&[Sel::Slot(99), Sel::Slot(0), Sel::Slot(0)])
            .is_err());
    }

    #[test]
    fn rank_checked() {
        let (cube, _) = fixture();
        let ev = CellEvaluator::new(&cube);
        assert!(matches!(
            ev.value(&[Sel::Slot(0)]),
            Err(CubeError::BadCellRef { .. })
        ));
    }
}
