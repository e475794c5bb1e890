//! Query evaluation: extended MDX → scenario → perspective cube → grid.

use crate::ast::{Axis, FilterCond, Query, SetExpr, WithClause};
use crate::error::MdxError;
use crate::grid::Grid;
use crate::parser::parse;
use crate::resolve::{Atom, NamedSets, Resolver, Tuple};
use crate::Result;
use olap_cube::{CellEvaluator, Cube, Sel};
use olap_model::{AxisSlot, DimensionId, MemberId, Schema};
use std::collections::HashSet;
use whatif_core::{Change, ExecReport, Mode, Scenario};

/// Everything a query needs besides its text: the cube, named sets, and
/// the executor's knobs for what-if clauses.
pub struct QueryContext<'a> {
    /// The warehouse cube.
    pub cube: &'a Cube,
    /// Named sets (`[EmployeesWithAtleastOneMove-Set1]`, …).
    pub named_sets: NamedSets,
    /// The request context: handed through to [`whatif_core::apply`] as
    /// one value for this context's what-if clauses (see
    /// [`whatif_core::ExecOpts`] for each field), and its bounds also
    /// bound the grid ([`evaluate_with`]). A scenario cache composes with
    /// query scoping: a scoped run serves and fills it with the merge
    /// components its scope keeps whole.
    pub opts: whatif_core::ExecOpts,
}

impl<'a> QueryContext<'a> {
    /// A context with no named sets and the default executor knobs.
    pub fn new(cube: &'a Cube) -> Self {
        QueryContext {
            cube,
            named_sets: NamedSets::new(),
            opts: whatif_core::ExecOpts::default(),
        }
    }

    /// Registers a named set of members of one dimension.
    pub fn define_set(&mut self, name: &str, dim: DimensionId, members: &[MemberId]) {
        let schema = self.cube.schema();
        let sets = NamedSets::new();
        let r = Resolver::new(schema, &sets);
        let atoms: Vec<Atom> = members.iter().map(|&m| r.atom_for_member(dim, m)).collect();
        self.named_sets.insert(name.to_string(), atoms);
    }
}

/// One evaluated query, with what its `WITH` clause compiled to and how
/// it ran.
pub struct Evaluation {
    /// The answer.
    pub grid: Grid,
    /// The scenario the `WITH` clause compiled to, if there is one.
    pub scenario: Option<Scenario>,
    /// The varying-dimension slots a negative scenario's execution was
    /// scoped to; `None` when it ran unscoped or there was none.
    pub scope: Option<Vec<u32>>,
    /// The scenario executor's report, when a scenario ran.
    pub report: Option<whatif_core::ExecReport>,
}

/// Parses and evaluates a query.
pub fn execute(ctx: &QueryContext<'_>, src: &str) -> Result<Grid> {
    evaluate(ctx, &parse(src)?).map(|e| e.grid)
}

/// [`evaluate`], keeping only the grid and the executor's report; kept
/// because `perfbench/src/trace.rs` calls it by name.
pub fn evaluate_full(
    ctx: &QueryContext<'_>,
    query: &Query,
) -> Result<(Grid, Option<whatif_core::ExecReport>)> {
    evaluate(ctx, query).map(|e| (e.grid, e.report))
}

/// Evaluates a parsed query, compiling its `WITH` clause once.
pub fn evaluate(ctx: &QueryContext<'_>, query: &Query) -> Result<Evaluation> {
    evaluate_with(ctx, query, |s, scope| {
        whatif_core::apply(ctx.cube, s, scope, &ctx.opts)
    })
}

/// [`evaluate`], with the `WITH` clause's perspective cube computed by
/// `apply(scenario, scope)` in place of [`whatif_core::apply`]: the grid
/// is then the evaluation `E` of whatever cube another implementation of
/// the algebra produced (`scope` lists the varying-dimension slots the
/// grid reads, or is `None`). A positive scenario's axes resolve on
/// [`whatif_core::output_schema`], so its cube must be over that schema.
///
/// The grid answers to the bounds of `ctx.opts` like the executor, in
/// its order: resolve and plan without reading a cell, admit the larger
/// of the upper-bound `rows × columns` (every `Filter` kept whole) and
/// the `Filter` condition cells once, then read. The deadline is checked
/// on entry, before each `Filter` input tuple and before each grid row.
pub fn evaluate_with(
    ctx: &QueryContext<'_>,
    query: &Query,
    apply: impl Fn(&Scenario, Option<&[u32]>) -> whatif_core::Result<(Cube, ExecReport)>,
) -> Result<Evaluation> {
    let bounds = &ctx.opts.bounds;
    bounds.check_deadline()?;
    // 1. Plan. Compile the what-if clause and derive the schema its
    //    output lives on (a positive scenario's axes may name instances
    //    that exist only there), then resolve the axes and slicer on it
    //    with every Filter kept whole, counting its condition cells.
    let scenario = match &query.with {
        None => None,
        Some(clause) => Some(compile_with(ctx, clause)?),
    };
    let schema_arc = match &scenario {
        Some(s) => whatif_core::output_schema(ctx.cube.schema(), s)?,
        None => std::sync::Arc::clone(ctx.cube.schema()),
    };
    let schema: &Schema = &schema_arc;
    let resolver = Resolver::new(schema, &ctx.named_sets);
    let mut condition_cells = 0u64;
    let (mut columns, mut rows) = resolve_axes(&resolver, query, &mut |_, _, _| {
        condition_cells += 1;
        Ok(true)
    })?;
    let roots = vec![Sel::Member(MemberId::ROOT); schema.dim_count()];
    let mut base = roots.clone();
    if let Some(slicer) = &query.slicer {
        for expr in slicer {
            let atoms = resolver.member_set(expr)?;
            let atom = atoms
                .into_iter()
                .next()
                .ok_or_else(|| MdxError::Unresolved(expr.to_string()))?;
            base[atom.dim.index()] = atom.sel;
        }
    }

    // 2. Admit the plan's peak, before anything reads.
    let grid_cells = (rows.len() as u64).saturating_mul(columns.len() as u64);
    bounds.admit(grid_cells.max(condition_cells))?;

    // 3. Read. A positive scenario applies unscoped, and its Filters
    //    read its output; otherwise Filters read the input (Theorem 4.1:
    //    the what-if operators apply to the *result* of the core MDX
    //    query, which includes its filters) and a negative scenario then
    //    applies, scoped to the slots the grid touches.
    let mut whatif: Option<(Cube, ExecReport)> = None;
    if let Some(s @ Scenario::Positive { .. }) = &scenario {
        whatif = Some(apply(s, None)?);
    }
    if condition_cells > 0 {
        let ev = CellEvaluator::new(whatif.as_ref().map_or(ctx.cube, |(out, _)| out));
        (columns, rows) = resolve_axes(&resolver, query, &mut |tuple, pinned, cond| {
            bounds.check_deadline()?;
            let mut sels = roots.clone();
            for a in tuple.iter().chain(pinned) {
                sels[a.dim.index()] = a.sel;
            }
            satisfies(cond, ev.value(&sels)?)
        })?;
    }
    let mut scope = None;
    if let Some(s @ Scenario::Negative(_)) = &scenario {
        scope = compute_scope(schema, s.dim(), &columns, &rows, &base);
        whatif = Some(apply(s, scope.as_deref())?);
    }
    let ev = match (&scenario, &whatif) {
        (Some(s), Some((out, _))) => whatif_core::evaluator(ctx.cube, s, out),
        _ => CellEvaluator::new(ctx.cube),
    };
    let mut cells = Vec::with_capacity(rows.len());
    for row in &rows {
        bounds.check_deadline()?;
        let mut line = Vec::with_capacity(columns.len());
        for col in &columns {
            let mut sels = base.clone();
            for a in row.iter().chain(col.iter()) {
                sels[a.dim.index()] = a.sel;
            }
            line.push(ev.value(&sels)?);
        }
        cells.push(line);
    }

    // 4. Row properties (e.g. DIMENSION PROPERTIES [Department]: report
    // the classification path of the row's varying-dimension coordinate).
    let properties = query
        .axes
        .iter()
        .rfind(|spec| spec.axis == Axis::Rows)
        .map_or_else(Vec::new, |spec| spec.properties.clone());
    let row_properties: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            properties
                .iter()
                .map(|p| property_value(schema, row, p))
                .collect()
        })
        .collect();

    Ok(Evaluation {
        grid: Grid {
            columns: columns.iter().map(label_of).collect(),
            rows: rows.iter().map(label_of).collect(),
            cells,
            row_properties,
            property_names: properties,
        },
        scenario,
        scope,
        report: whatif.map(|(_, report)| report),
    })
}

/// Decides, for each input tuple of a `Filter`, whether it stays:
/// given the tuple, the condition's pinned coordinates and the
/// condition. Planning keeps every tuple; reading evaluates the cell.
type Keep<'k> = dyn FnMut(&Tuple, &[Atom], &FilterCond) -> Result<bool> + 'k;

/// The query's column and row tuples, each `Filter` deciding by `keep`.
fn resolve_axes(
    resolver: &Resolver<'_>,
    query: &Query,
    keep: &mut Keep<'_>,
) -> Result<(Vec<Tuple>, Vec<Tuple>)> {
    let mut columns: Option<Vec<Tuple>> = None;
    let mut rows: Option<Vec<Tuple>> = None;
    for spec in &query.axes {
        let tuples = eval_set(resolver, &spec.set, keep)?;
        match spec.axis {
            Axis::Columns => columns = Some(tuples),
            Axis::Rows => rows = Some(tuples),
            Axis::Pages => {
                return Err(MdxError::Semantic(
                    "ON PAGES is not supported; fold pages into rows".into(),
                ))
            }
        }
    }
    let columns = columns.ok_or_else(|| MdxError::Semantic("missing ON COLUMNS".into()))?;
    // A 1-axis query is fine: a single pseudo-row.
    Ok((columns, rows.unwrap_or_else(|| vec![Vec::new()])))
}

/// Whether a `Filter` condition holds for its cell's value; ⊥ never
/// satisfies (Section 4.1).
fn satisfies(cond: &FilterCond, v: olap_store::CellValue) -> Result<bool> {
    let Some(x) = v.as_f64() else {
        return Ok(false);
    };
    Ok(match cond.op.as_str() {
        ">" => x > cond.value,
        ">=" => x >= cond.value,
        "<" => x < cond.value,
        "<=" => x <= cond.value,
        "=" => x == cond.value,
        "<>" => x != cond.value,
        other => return Err(MdxError::Semantic(format!("unknown comparison {other:?}"))),
    })
}

/// The varying-dimension slots a query can touch, when determinable:
/// every cell must pin the dimension through its row, column, or the
/// slicer; otherwise (cells fall back to the ROOT rollup) returns `None`
/// and execution stays unscoped.
fn compute_scope(
    schema: &Schema,
    dim: DimensionId,
    columns: &[Tuple],
    rows: &[Tuple],
    base: &[Sel],
) -> Option<Vec<u32>> {
    let covered = |tuples: &[Tuple]| -> bool {
        !tuples.is_empty() && tuples.iter().all(|t| t.iter().any(|a| a.dim == dim))
    };
    let base_sel = base.get(dim.index()).copied();
    let slicer_pinned = !matches!(base_sel, Some(Sel::Member(MemberId::ROOT)) | None);
    if !covered(rows) && !covered(columns) && !slicer_pinned {
        return None;
    }
    let mut slots: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut add_sel = |sel: Sel| match sel {
        Sel::Slot(s) => {
            slots.insert(s);
        }
        Sel::Member(m) => {
            for s in schema.slots_under(dim, m) {
                slots.insert(s.0);
            }
        }
    };
    for t in rows.iter().chain(columns.iter()) {
        for a in t.iter().filter(|a| a.dim == dim) {
            add_sel(a.sel);
        }
    }
    if slicer_pinned {
        if let Some(sel) = base_sel {
            add_sel(sel);
        }
    }
    Some(slots.into_iter().collect())
}

fn label_of(tuple: &Tuple) -> String {
    if tuple.is_empty() {
        return "*".to_string();
    }
    tuple
        .iter()
        .map(|a| a.label.clone())
        .collect::<Vec<_>>()
        .join(" / ")
}

/// The value of a `DIMENSION PROPERTIES` column for one row: the parent
/// path of the row's coordinate on the named dimension (or on any varying
/// dimension when the name doesn't match a dimension — Essbase property
/// names like `Department` name the *level*, not the dimension).
fn property_value(schema: &Schema, row: &Tuple, prop: &str) -> String {
    let target_dim = schema.find_dimension(prop);
    for a in row {
        let matches = match target_dim {
            Some(d) => a.dim == d,
            None => schema.is_varying(a.dim),
        };
        if !matches {
            continue;
        }
        match a.sel {
            Sel::Slot(s) if schema.is_varying(a.dim) => {
                let v = schema.varying(a.dim).expect("varying");
                let inst = v.instance(olap_model::InstanceId(s));
                let d = schema.dim(a.dim);
                return inst
                    .path
                    .iter()
                    .map(|&m| d.member_name(m))
                    .collect::<Vec<_>>()
                    .join("/");
            }
            Sel::Slot(s) => {
                let leaf = schema.slot_member(a.dim, AxisSlot(s));
                return path_of(schema, a.dim, leaf);
            }
            Sel::Member(m) => {
                if schema.is_varying(a.dim) && schema.dim(a.dim).is_leaf(m) {
                    // A member selector spans instances: list every
                    // classification it had.
                    let v = schema.varying(a.dim).expect("varying");
                    let d = schema.dim(a.dim);
                    return v
                        .instances_of(m)
                        .iter()
                        .map(|&i| {
                            v.instance(i)
                                .path
                                .iter()
                                .map(|&p| d.member_name(p))
                                .collect::<Vec<_>>()
                                .join("/")
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                }
                return path_of(schema, a.dim, m);
            }
        }
    }
    String::new()
}

fn path_of(schema: &Schema, dim: DimensionId, m: MemberId) -> String {
    let d = schema.dim(dim);
    let mut segs: Vec<&str> = d
        .ancestors(m)
        .into_iter()
        .filter(|&p| p != MemberId::ROOT)
        .map(|p| d.member_name(p))
        .collect();
    segs.reverse();
    segs.join("/")
}

/// Compiles the extended `WITH` clause into a scenario, the input of
/// the Theorem 4.1 compiler ([`whatif_core::compile`]). [`evaluate`]
/// calls it once per query and returns what it compiled.
pub fn compile_with(ctx: &QueryContext<'_>, clause: &WithClause) -> Result<Scenario> {
    let schema = ctx.cube.schema();
    let resolver = Resolver::new(schema, &ctx.named_sets);
    match clause {
        WithClause::Perspective {
            moments,
            dim,
            semantics,
            mode,
        } => {
            let dim_id = schema
                .find_dimension(dim)
                .ok_or_else(|| MdxError::Unresolved(dim.clone()))?;
            let varying = schema
                .varying(dim_id)
                .ok_or_else(|| MdxError::Semantic(format!("{dim} is not a varying dimension")))?;
            let param = varying.parameter_dim();
            let mut p = Vec::with_capacity(moments.len());
            for m in moments {
                p.push(resolver.moment(m, param)?);
            }
            Ok(Scenario::negative(
                dim_id,
                p,
                *semantics,
                mode.unwrap_or(Mode::NonVisual),
            ))
        }
        WithClause::Changes { tuples, mode } => {
            if tuples.is_empty() {
                return Err(MdxError::Semantic("WITH CHANGES needs tuples".into()));
            }
            // The varying dimension is the one the new parents live in.
            let first_parent = resolver.member_set(&tuples[0].new_parent)?;
            let dim_id = first_parent
                .first()
                .ok_or_else(|| MdxError::Unresolved(tuples[0].new_parent.to_string()))?
                .dim;
            let varying = schema.varying(dim_id).ok_or_else(|| {
                MdxError::Semantic(format!(
                    "{} is not a varying dimension",
                    schema.dim(dim_id).name()
                ))
            })?;
            let param = varying.parameter_dim();
            let mut changes = Vec::new();
            for t in tuples {
                let old_parent = resolver.single_in_dim(&t.old_parent, dim_id)?;
                let new_parent = resolver.single_in_dim(&t.new_parent, dim_id)?;
                let at = resolver.moment(&t.at, param)?;
                // The member part may be a set (e.g. `[FTE].children`):
                // "the change applies to all children of FTE".
                for atom in resolver.member_set(&t.member)? {
                    if atom.dim != dim_id {
                        continue;
                    }
                    let member = match atom.sel {
                        Sel::Member(m) => m,
                        Sel::Slot(s) => schema.slot_member(dim_id, AxisSlot(s)),
                    };
                    changes.push(Change {
                        member,
                        old_parent: Some(old_parent),
                        new_parent,
                        at,
                    });
                }
            }
            Ok(Scenario::positive(
                dim_id,
                changes,
                mode.unwrap_or(Mode::NonVisual),
            ))
        }
    }
}

/// Evaluates a set expression to axis tuples.
fn eval_set(resolver: &Resolver<'_>, set: &SetExpr, keep: &mut Keep<'_>) -> Result<Vec<Tuple>> {
    Ok(match set {
        SetExpr::Braces(items) => {
            let mut out = Vec::new();
            for e in items {
                out.extend(eval_set(resolver, e, keep)?);
            }
            out
        }
        SetExpr::Tuple(ms) => {
            // One tuple combining one member per dimension; set-valued
            // entries cross-join positionally.
            let mut tuples: Vec<Tuple> = vec![Vec::new()];
            for m in ms {
                let atoms = resolver.member_set(m)?;
                let mut next = Vec::with_capacity(tuples.len() * atoms.len().max(1));
                for t in &tuples {
                    for a in &atoms {
                        let mut t2 = t.clone();
                        t2.push(a.clone());
                        next.push(t2);
                    }
                }
                tuples = next;
            }
            tuples
        }
        SetExpr::CrossJoin(a, b) => {
            let left = eval_set(resolver, a, keep)?;
            let right = eval_set(resolver, b, keep)?;
            let mut out = Vec::with_capacity(left.len() * right.len());
            for l in &left {
                for r in &right {
                    let mut t = l.clone();
                    t.extend(r.iter().cloned());
                    out.push(t);
                }
            }
            out
        }
        SetExpr::Union(a, b) => {
            // `a` verbatim, its duplicates kept, then each tuple of `b`
            // not yet seen in `a` or earlier in `b`.
            let mut out = eval_set(resolver, a, keep)?;
            let right = eval_set(resolver, b, keep)?;
            let mut seen: HashSet<&Tuple> = out.iter().collect();
            let fresh: Vec<bool> = right.iter().map(|t| seen.insert(t)).collect();
            out.extend((right.into_iter().zip(fresh)).filter_map(|(t, f)| f.then_some(t)));
            out
        }
        SetExpr::Head(a, n) => {
            let mut out = eval_set(resolver, a, keep)?;
            out.truncate(*n as usize);
            out
        }
        SetExpr::Tail(a, n) => {
            let mut out = eval_set(resolver, a, keep)?;
            let take = (*n as usize).min(out.len());
            out.drain(..out.len() - take);
            out
        }
        SetExpr::Filter(a, cond) => {
            let tuples = eval_set(resolver, a, keep)?;
            // Resolve the condition's coordinates once.
            let mut pinned: Vec<Atom> = Vec::new();
            for m in &cond.members {
                let atoms = resolver.member_set(m)?;
                let atom = atoms
                    .into_iter()
                    .next()
                    .ok_or_else(|| MdxError::Unresolved(m.to_string()))?;
                pinned.push(atom);
            }
            let mut out = Vec::new();
            for t in tuples {
                if keep(&t, &pinned, cond)? {
                    out.push(t);
                }
            }
            out
        }
        SetExpr::Ref(m) => resolver
            .member_set(m)?
            .into_iter()
            .map(|a| vec![a])
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use olap_store::CellValue;
    use std::sync::Arc;

    /// The running example: Org (varying) × Time (2 quarters of 3) ×
    /// Measures {Salary}; salary 10/month/instance.
    fn fixture() -> Cube {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("Organization").tree(&[
                    ("FTE", &["Joe", "Lisa"][..]),
                    ("PTE", &["Tom"]),
                    ("Contractor", &["Jane"]),
                ]))
                .dimension(DimensionSpec::new("Time").ordered().tree(&[
                    ("Q1", &["Jan", "Feb", "Mar"][..]),
                    ("Q2", &["Apr", "May", "Jun"]),
                ]))
                .dimension(
                    DimensionSpec::new("Measures")
                        .measures()
                        .leaves(&["Salary"]),
                )
                .varying("Organization", "Time")
                .reclassify("Organization", "Joe", "PTE", "Feb")
                .reclassify("Organization", "Joe", "Contractor", "Mar")
                .clear_at("Organization", "Joe", &["May"])
                .build()
                .unwrap(),
        );
        let org = schema.resolve_dimension("Organization").unwrap();
        let mut rules = olap_cube::RuleSet::new();
        rules.set_measure_dim(schema.resolve_dimension("Measures").unwrap());
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 3, 1])
            .unwrap()
            .rules(rules);
        let varying = schema.varying(org).unwrap();
        for (i, inst) in varying.instances().iter().enumerate() {
            for t in inst.validity.iter() {
                b.set_num(&[i as u32, t, 0], 10.0).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn plain_query_grid() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "SELECT {Time.[Q1], Time.[Q2]} ON COLUMNS, \
             {Organization.[FTE].Children} ON ROWS \
             FROM [Warehouse] WHERE (Measures.[Salary])",
        )
        .unwrap();
        assert_eq!(g.columns, vec!["Q1", "Q2"]);
        assert_eq!(g.rows, vec!["Joe", "Lisa"]);
        // Joe Q1 = Jan 10 + Feb 10 + Mar 10 (all instances) = 30.
        assert_eq!(g.cell("Joe", "Q1"), Some(CellValue::Num(30.0)));
        // Joe Q2 = Apr + Jun (May vacation) = 20.
        assert_eq!(g.cell("Joe", "Q2"), Some(CellValue::Num(20.0)));
        assert_eq!(g.cell("Lisa", "Q1"), Some(CellValue::Num(30.0)));
    }

    /// `Union` keeps its left set verbatim, duplicates included, then
    /// appends each tuple of its right set not seen yet, in order.
    #[test]
    fn union_keeps_left_verbatim_then_unseen_right_tuples_in_order() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "SELECT {Measures.[Salary]} ON COLUMNS, \
             {Union({Time.[Jan], Time.[Feb], Time.[Jan]}, \
                    {Time.[Mar], Time.[Feb], Time.[Mar], Time.[Jan], Time.[Apr]})} ON ROWS \
             FROM [W]",
        )
        .unwrap();
        assert_eq!(g.rows, vec!["Jan", "Feb", "Jan", "Mar", "Apr"]);
    }

    #[test]
    fn instance_pinned_slicer() {
        // The Section 3.2 example: salaries for [FTE].[Joe] specifically.
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "SELECT {Time.[Q1], Time.[Q2]} ON COLUMNS, \
             {Measures.[Salary]} ON ROWS \
             FROM [Warehouse] WHERE (Organization.[FTE].[Joe])",
        )
        .unwrap();
        // FTE/Joe is valid only in Jan: Q1 = 10, Q2 = ⊥.
        assert_eq!(g.cell("Salary", "Q1"), Some(CellValue::Num(10.0)));
        assert_eq!(g.cell("Salary", "Q2"), Some(CellValue::Null));
    }

    #[test]
    fn perspective_static_drops_other_instances() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "WITH PERSPECTIVE {(Jan)} FOR Organization STATIC VISUAL \
             SELECT {Time.[Q1]} ON COLUMNS, {Organization.[PTE]} ON ROWS \
             FROM [W] WHERE (Measures.[Salary])",
        )
        .unwrap();
        // Static at Jan: PTE/Joe dropped; PTE Q1 = Tom only = 30.
        assert_eq!(g.cell("PTE", "Q1"), Some(CellValue::Num(30.0)));
    }

    #[test]
    fn perspective_forward_visual_reroutes() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL \
             SELECT {Time.[Q1], Time.[Q2]} ON COLUMNS, \
             {Organization.[FTE], Organization.[PTE], Organization.[Contractor]} ON ROWS \
             FROM [W] WHERE (Measures.[Salary])",
        )
        .unwrap();
        // PTE owns [Feb, Apr): Tom (30) + Joe's Feb & Mar (20) = 50 in Q1.
        assert_eq!(g.cell("PTE", "Q1"), Some(CellValue::Num(50.0)));
        // FTE Q1: Lisa only (Joe's FTE instance inactive) = 30.
        assert_eq!(g.cell("FTE", "Q1"), Some(CellValue::Num(30.0)));
        // Contractor Q2: Jane 30 + Joe Apr+Jun 20 = 50.
        assert_eq!(g.cell("Contractor", "Q2"), Some(CellValue::Num(50.0)));
    }

    #[test]
    fn perspective_nonvisual_keeps_input_rollups() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD NONVISUAL \
             SELECT {Time.[Q1]} ON COLUMNS, {Organization.[PTE]} ON ROWS \
             FROM [W] WHERE (Measures.[Salary])",
        )
        .unwrap();
        // Non-visual: PTE Q1 stays the input's 40 (Tom 30 + PTE/Joe Feb).
        assert_eq!(g.cell("PTE", "Q1"), Some(CellValue::Num(40.0)));
    }

    #[test]
    fn changes_clause_splits_members() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], Apr)} VISUAL \
             SELECT {Time.[Q2]} ON COLUMNS, \
             {Organization.[FTE], Organization.[PTE]} ON ROWS \
             FROM [W] WHERE (Measures.[Salary])",
        )
        .unwrap();
        // Q2: Lisa hypothetically PTE from Apr ⇒ PTE = Tom 30 + Lisa 30.
        assert_eq!(g.cell("PTE", "Q2"), Some(CellValue::Num(60.0)));
        // FTE Q2: nobody (Joe is Contractor, Lisa moved) ⇒ ⊥.
        assert_eq!(g.cell("FTE", "Q2"), Some(CellValue::Null));
    }

    #[test]
    fn changes_clause_filters_rows_on_its_output() {
        // The rows name PTE/Lisa, an instance only the split creates, and
        // a Filter decides them on the split's output cube.
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], Apr)} VISUAL \
             SELECT {Time.[Q1], Time.[Q2]} ON COLUMNS, \
             {Filter({Organization.[FTE].[Lisa], Organization.[PTE].[Lisa], \
                      Organization.[PTE].[Tom]}, (Time.[Q2], Measures.[Salary]) > 0)} ON ROWS \
             FROM [W] WHERE (Measures.[Salary])",
        )
        .unwrap();
        // FTE/Lisa is valid Jan–Mar only, so its Q2 is ⊥ and it drops;
        // PTE/Lisa holds Apr–Jun (30) and Tom all six months.
        assert_eq!(g.rows, vec!["PTE/Lisa", "PTE/Tom"]);
        let num = CellValue::Num;
        assert_eq!(g.cells[0], vec![CellValue::Null, num(30.0)]);
        assert_eq!(g.cells[1], vec![num(30.0), num(30.0)]);
    }

    #[test]
    fn nonvisual_changes_clause_filters_visually_and_reads_input_totals() {
        // The Filter decides on the split's output as a visual grid would:
        // FTE/Lisa's Q2 there is ⊥ (it holds Jan–Mar), PTE/Lisa's is
        // Apr–Jun = 30 and Tom's 30, so FTE/Lisa drops. The grid's
        // quarter cells are derived, so non-visual mode reads them on the
        // input, each instance widened to its member: Lisa was FTE all
        // six months there (30 a quarter), Tom PTE (30 a quarter).
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], Apr)} NONVISUAL \
             SELECT {Time.[Q1], Time.[Q2]} ON COLUMNS, \
             {Filter({Organization.[FTE].[Lisa], Organization.[PTE].[Lisa], \
                      Organization.[PTE].[Tom]}, (Time.[Q2], Measures.[Salary]) > 0)} ON ROWS \
             FROM [W] WHERE (Measures.[Salary])",
        )
        .unwrap();
        assert_eq!(g.rows, vec!["PTE/Lisa", "PTE/Tom"]);
        let num = CellValue::Num;
        assert_eq!(g.cells[0], vec![num(30.0), num(30.0)]);
        assert_eq!(g.cells[1], vec![num(30.0), num(30.0)]);
    }

    #[test]
    fn named_sets_with_children_and_head() {
        let cube = fixture();
        let mut ctx = QueryContext::new(&cube);
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        let joe = cube.schema().dim(org).resolve("Joe").unwrap();
        let lisa = cube.schema().dim(org).resolve("Lisa").unwrap();
        ctx.define_set("Movers", org, &[joe, lisa]);
        let g = execute(
            &ctx,
            "SELECT {Time.[Q1]} ON COLUMNS, \
             {Head({[Movers].Children}, 1)} ON ROWS \
             FROM [W] WHERE (Measures.[Salary])",
        )
        .unwrap();
        assert_eq!(g.rows, vec!["Joe"]);
        assert_eq!(g.cell("Joe", "Q1"), Some(CellValue::Num(30.0)));
    }

    #[test]
    fn dimension_properties_report_classification() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "SELECT {Measures.[Salary]} ON COLUMNS, \
             {Organization.[Contractor].Children} \
             DIMENSION PROPERTIES [Organization] ON ROWS FROM [W]",
        )
        .unwrap();
        assert_eq!(g.rows, vec!["Jane"]);
        // Jane's classification: Contractor.
        assert_eq!(g.row_properties[0], vec!["Contractor".to_string()]);
    }

    #[test]
    fn crossjoin_tuples_combine_dimensions() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "SELECT {CrossJoin({Time.[Q1], Time.[Q2]}, {Measures.[Salary]})} ON COLUMNS, \
             {Organization.[Contractor]} ON ROWS FROM [W]",
        )
        .unwrap();
        assert_eq!(g.columns, vec!["Q1 / Salary", "Q2 / Salary"]);
        // Contractor Q1 = Jane 30 + Contractor/Joe Mar 10 = 40.
        assert_eq!(g.cells[0][0], CellValue::Num(40.0));
    }

    #[test]
    fn filter_keeps_satisfying_tuples() {
        // The Section 4.1 predicate shape at the query level: employees
        // whose Q1 salary exceeds a threshold.
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "SELECT {Measures.[Salary]} ON COLUMNS, \
             {Filter({Organization.[FTE].Children, Organization.[PTE].Children, \
                      Organization.[Contractor].Children}, \
                     (Time.[Q1], Measures.[Salary]) > 25)} ON ROWS \
             FROM [W]",
        )
        .unwrap();
        // Q1 salaries: Joe 30, Lisa 30, Tom 30, Jane 30 — all pass at 25…
        assert_eq!(g.rows, vec!["Joe", "Lisa", "Tom", "Jane"]);
        // …and a 45 threshold keeps nobody (⊥ never satisfies either).
        let g = execute(
            &ctx,
            "SELECT {Measures.[Salary]} ON COLUMNS, \
             {Filter({Organization.[FTE].Children}, (Time.[Q1], Measures.[Salary]) > 45)} \
             ON ROWS FROM [W]",
        )
        .unwrap();
        assert_eq!(g.height(), 0);
    }

    #[test]
    fn tail_takes_the_suffix() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let g = execute(
            &ctx,
            "SELECT {Measures.[Salary]} ON COLUMNS, \
             {Tail({Time.Quarter.Month.MEMBERS}, 2)} ON ROWS FROM [W]",
        )
        .unwrap();
        assert_eq!(g.rows, vec!["May", "Jun"]);
    }

    #[test]
    fn pages_axis_rejected() {
        let cube = fixture();
        let ctx = QueryContext::new(&cube);
        let err = execute(&ctx, "SELECT {Jan} ON PAGES FROM [W]").unwrap_err();
        assert!(err.to_string().contains("PAGES"));
    }
}
