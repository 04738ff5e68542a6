//! Batch-at-a-time expression evaluation over [`DataChunk`] columns.
//!
//! [`bind`] lowers an AST [`Expr`] into a [`VExpr`] whose column
//! references are resolved to chunk column indices; [`eval`] then
//! evaluates a [`VExpr`] for a whole selection of rows at once. Anything
//! [`bind`] cannot lower (subqueries, aggregates, window calls, columns
//! that would fail or be ambiguous to resolve) returns `None` and the
//! planner falls back to the row-at-a-time interpreter for that
//! expression, so error behavior matches the reference engine exactly.
//!
//! Per-value semantics are not replicated here but shared: every
//! element-wise step calls the rule in `value.rs` that the interpreter
//! calls, and scalar functions are `functions::eval_scalar`. What this
//! module reproduces is the interpreter's control, a batch at a time:
//! `AND`/`OR` short-circuiting (the right side is only evaluated for rows
//! the left side did not decide), lazy `CASE` branches and `IN` list
//! items.
//!
//! A bound expression is a pure function of the row it reads, so one
//! that reads a single dictionary-encoded column is evaluated once per
//! dictionary entry instead of once per row (`eval_per_distinct`).

use crate::array::{Array, ArrayBuilder, Bitmap, DataChunk};
use crate::ast::{BinaryOp, Expr, FunctionCall, UnaryOp};
use crate::error::EngineResult;
use crate::eval::{literal_value, ColMeta, Scope};
use crate::functions;
use crate::physical;
use crate::value::{self, DataType, Date, DatePattern, Value, ValueRef};
use std::sync::Arc;

/// A bound (column-resolved) expression ready for vectorized evaluation.
#[derive(Debug, Clone)]
pub enum VExpr {
    /// A constant: literal, or an outer-scope column materialized at
    /// bind time (the outer row is fixed for one planner invocation).
    Lit(Value),
    /// Chunk column by index.
    Col(usize),
    /// Unary operator.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<VExpr>,
    },
    /// Binary operator.
    Binary {
        /// Left operand.
        left: Box<VExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<VExpr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<VExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (items…)`.
    InList {
        /// Probe expression.
        expr: Box<VExpr>,
        /// List items, evaluated lazily in order.
        list: Vec<VExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Probe expression.
        expr: Box<VExpr>,
        /// Lower bound.
        low: Box<VExpr>,
        /// Upper bound.
        high: Box<VExpr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Matched expression.
        expr: Box<VExpr>,
        /// Pattern expression.
        pattern: Box<VExpr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `CASE` in both simple and searched forms.
    Case {
        /// Simple-form operand.
        operand: Option<Box<VExpr>>,
        /// `WHEN … THEN …` branches.
        branches: Vec<(VExpr, VExpr)>,
        /// `ELSE` expression.
        else_expr: Option<Box<VExpr>>,
    },
    /// `CAST(expr AS ty)`.
    Cast {
        /// Operand.
        expr: Box<VExpr>,
        /// Target type.
        ty: DataType,
    },
    /// Scalar function call.
    Scalar {
        /// Uppercased function name.
        name: String,
        /// Arguments, evaluated eagerly in order.
        args: Vec<VExpr>,
    },
}

/// A row selection over a chunk: everything, or an explicit index list.
#[derive(Clone, Copy)]
pub enum Sel<'a> {
    /// All rows of the chunk, in order.
    All,
    /// The chunk rows at these indices, in order.
    Idx(&'a [u32]),
}

impl Sel<'_> {
    /// Number of selected rows.
    pub fn len(&self, chunk: &DataChunk) -> usize {
        match self {
            Sel::All => chunk.len(),
            Sel::Idx(idx) => idx.len(),
        }
    }

    /// Is the selection empty?
    pub fn is_empty(&self, chunk: &DataChunk) -> bool {
        self.len(chunk) == 0
    }

    /// Chunk row index for output position `pos`.
    #[inline]
    pub fn at(&self, pos: usize) -> u32 {
        match self {
            Sel::All => pos as u32,
            Sel::Idx(idx) => idx[pos],
        }
    }
}

/// Try to lower `expr` for vectorized evaluation against columns `cols`.
///
/// Returns `None` when the expression needs the row-at-a-time path:
/// subqueries, aggregates, window/ranking calls, unresolvable or
/// ambiguous columns. Columns that resolve in the `outer` scope become
/// constants (the outer row is fixed per invocation), which vectorizes
/// correlated predicates.
pub fn bind(expr: &Expr, cols: &[ColMeta], outer: Option<&Scope<'_>>) -> Option<VExpr> {
    match expr {
        Expr::Literal(l) => Some(VExpr::Lit(literal_value(l))),
        Expr::Column { table, name } => {
            let mut found: Option<usize> = None;
            for (i, c) in cols.iter().enumerate() {
                if c.matches(table.as_deref(), name) {
                    if found.is_some() {
                        return None; // ambiguous: fall back for the exact error
                    }
                    found = Some(i);
                }
            }
            match found {
                Some(i) => Some(VExpr::Col(i)),
                // Not a local column: an outer-scope hit is a per-
                // invocation constant; a miss falls back so the row path
                // raises the binding error (only if any row is evaluated).
                None => outer
                    .and_then(|o| o.resolve(table.as_deref(), name).ok())
                    .map(VExpr::Lit),
            }
        }
        Expr::Unary { op, expr } => Some(VExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, cols, outer)?),
        }),
        Expr::Binary { left, op, right } => Some(VExpr::Binary {
            left: Box::new(bind(left, cols, outer)?),
            op: *op,
            right: Box::new(bind(right, cols, outer)?),
        }),
        Expr::IsNull { expr, negated } => Some(VExpr::IsNull {
            expr: Box::new(bind(expr, cols, outer)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Some(VExpr::InList {
            expr: Box::new(bind(expr, cols, outer)?),
            list: list
                .iter()
                .map(|e| bind(e, cols, outer))
                .collect::<Option<Vec<_>>>()?,
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Some(VExpr::Between {
            expr: Box::new(bind(expr, cols, outer)?),
            low: Box::new(bind(low, cols, outer)?),
            high: Box::new(bind(high, cols, outer)?),
            negated: *negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Some(VExpr::Like {
            expr: Box::new(bind(expr, cols, outer)?),
            pattern: Box::new(bind(pattern, cols, outer)?),
            negated: *negated,
        }),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Some(VExpr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(bind(o, cols, outer)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(w, t)| Some((bind(w, cols, outer)?, bind(t, cols, outer)?)))
                .collect::<Option<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(bind(e, cols, outer)?)),
                None => None,
            },
        }),
        Expr::Cast { expr, ty } => Some(VExpr::Cast {
            expr: Box::new(bind(expr, cols, outer)?),
            ty: *ty,
        }),
        Expr::Function(call) => bind_function(call, cols, outer),
        // Subqueries keep the interpreter's execution order and errors.
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => None,
    }
}

fn bind_function(
    call: &FunctionCall,
    cols: &[ColMeta],
    outer: Option<&Scope<'_>>,
) -> Option<VExpr> {
    // Window, aggregate, and ranking calls need unit/window context.
    if call.over.is_some()
        || functions::is_aggregate(&call.name)
        || functions::is_ranking(&call.name)
    {
        return None;
    }
    if call.star || call.distinct {
        return None;
    }
    Some(VExpr::Scalar {
        name: call.name.clone(),
        args: call
            .args
            .iter()
            .map(|a| bind(a, cols, outer))
            .collect::<Option<Vec<_>>>()?,
    })
}

// ----------------------------------------------------------------------
// Evaluation
// ----------------------------------------------------------------------

/// One evaluated operand: a column of results or a single constant.
/// Constants skip materializing an array of repeated values.
enum Operand<'a> {
    Arr(Arc<Array>),
    Const(&'a Value),
}

impl Operand<'_> {
    #[inline]
    fn at(&self, pos: usize) -> ValueRef<'_> {
        match self {
            Operand::Arr(a) => a.at(pos),
            Operand::Const(v) => ValueRef::from(*v),
        }
    }
}

fn operand<'a>(v: &'a VExpr, chunk: &DataChunk, sel: Sel<'_>) -> EngineResult<Operand<'a>> {
    match v {
        VExpr::Lit(val) => Ok(Operand::Const(val)),
        other => Ok(Operand::Arr(eval(other, chunk, sel)?)),
    }
}

/// The `Bool` array of `f(pos)` for `pos` in `0..n`, a `None` being NULL.
fn bool_column(
    n: usize,
    mut f: impl FnMut(usize) -> EngineResult<Option<bool>>,
) -> EngineResult<Arc<Array>> {
    let mut data = Vec::with_capacity(n);
    let mut validity = Bitmap::new();
    for pos in 0..n {
        let t = f(pos)?;
        data.push(t.unwrap_or(false));
        validity.push(t.is_some());
    }
    Ok(Arc::new(Array::Bool { data, validity }))
}

/// SQL truthiness of each element: `Some(true)`/`Some(false)`/`None`
/// (unknown), with the type errors `ValueRef::as_bool` raises.
pub fn truth(arr: &Array) -> EngineResult<Vec<Option<bool>>> {
    let mut out = Vec::with_capacity(arr.len());
    visit_truth(arr, |_, t| out.push(t))?;
    Ok(out)
}

/// `f(i, truth of element i)` for every element in order, stopping at
/// the first element that is not boolean with the error
/// `ValueRef::as_bool` raises for it. A `Bool` array is read off its data
/// and validity; a dictionary with fewer entries than elements is judged
/// once per entry, and an entry no element holds never raises.
fn visit_truth(arr: &Array, mut f: impl FnMut(usize, Option<bool>)) -> EngineResult<()> {
    if let Array::Bool { data, validity } = arr {
        for (i, &b) in data.iter().enumerate() {
            f(i, validity.get(i).then_some(b));
        }
    } else if let Some((codes, values)) = arr.per_entry(arr.len()) {
        let entries: Vec<_> = (0..values.len()).map(|k| values.at(k).as_bool()).collect();
        for (i, &c) in codes.iter().enumerate() {
            match &entries[c as usize] {
                Ok(t) => f(i, *t),
                Err(e) => return Err(e.clone()),
            }
        }
    } else {
        for i in 0..arr.len() {
            f(i, arr.at(i).as_bool()?);
        }
    }
    Ok(())
}

/// The rows of `sel` where the predicate `v` is TRUE, ascending: WHERE's
/// selection vector. `sel` must be ascending, as `Sel::All` is.
///
/// Equal to the TRUE positions of `truth(&eval(v, chunk, sel))`, with the
/// same errors and the same scalar calls in the same order, but an `AND`
/// that [`eval`] would short-circuit row by row never builds its
/// three-valued column: its left side is split into TRUE and NULL rows,
/// and the right side runs over their merge — the very `need` list
/// `eval_binary` hands it.
pub fn select(v: &VExpr, chunk: &DataChunk, sel: Sel<'_>) -> EngineResult<Vec<u32>> {
    Ok(split(v, chunk, sel)?.0)
}

/// The rows of `sel` where `v` is TRUE, and those where it is NULL; each
/// ascending. An `AND` here is the shared three-valued table
/// (`value::and_or`) written over row lists, for speed:
/// `dictionary_proptests::select_is_the_true_rows_of_truth_of_eval` keeps
/// the two in step.
fn split(v: &VExpr, chunk: &DataChunk, sel: Sel<'_>) -> EngineResult<(Vec<u32>, Vec<u32>)> {
    let arr = match v {
        VExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => match eval_per_distinct(v, chunk, sel) {
            Some(arr) => arr,
            None => {
                let (lt, ln) = split(left, chunk, sel)?;
                let need = merge(&lt, &ln);
                let (rt, rn) = split(right, chunk, Sel::Idx(&need))?;
                // TRUE where both sides are; NULL where the right side is,
                // or where it is TRUE and the left side NULL. `rt` holds
                // rows of `lt` and `ln` only.
                let (both, left_null): (Vec<u32>, Vec<u32>) = rt
                    .into_iter()
                    .partition(|row| ln.binary_search(row).is_err());
                return Ok((both, merge(&left_null, &rn)));
            }
        },
        _ => eval(v, chunk, sel)?,
    };
    let (mut t, mut n) = (Vec::new(), Vec::new());
    visit_truth(&arr, |pos, truth| match truth {
        Some(true) => t.push(sel.at(pos)),
        None => n.push(sel.at(pos)),
        Some(false) => {}
    })?;
    Ok((t, n))
}

/// The ascending merge of two disjoint ascending row lists.
fn merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Evaluate a bound expression over the selected rows of `chunk`,
/// producing one output element per selected row, in selection order.
pub fn eval(v: &VExpr, chunk: &DataChunk, sel: Sel<'_>) -> EngineResult<Arc<Array>> {
    match eval_per_distinct(v, chunk, sel) {
        Some(arr) => Ok(arr),
        None => eval_rows(v, chunk, sel),
    }
}

/// The one chunk column `v` reads, however often; `None` when it reads
/// no column or more than one.
///
/// This is also where a volatile function (`RANDOM()`, `NOW()`) would
/// have to answer `None`: everything `bind` emits today — operators and
/// the `functions::eval_scalar` library — is a pure function of the row,
/// which `per_distinct_equals_per_row_for_every_scalar_function` checks.
fn only_column(v: &VExpr) -> Option<usize> {
    /// `false` as soon as a second column shows up.
    fn walk(v: &VExpr, seen: &mut Option<usize>) -> bool {
        match v {
            VExpr::Lit(_) => true,
            VExpr::Col(i) => *seen.get_or_insert(*i) == *i,
            VExpr::Unary { expr, .. } | VExpr::IsNull { expr, .. } | VExpr::Cast { expr, .. } => {
                walk(expr, seen)
            }
            VExpr::Binary { left, right, .. } => walk(left, seen) && walk(right, seen),
            VExpr::InList { expr, list, .. } => {
                walk(expr, seen) && list.iter().all(|e| walk(e, seen))
            }
            VExpr::Between {
                expr, low, high, ..
            } => walk(expr, seen) && walk(low, seen) && walk(high, seen),
            VExpr::Like { expr, pattern, .. } => walk(expr, seen) && walk(pattern, seen),
            VExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.iter().chain(else_expr).all(|e| walk(e, seen))
                    && branches.iter().all(|(w, t)| walk(w, seen) && walk(t, seen))
            }
            VExpr::Scalar { args, .. } => args.iter().all(|a| walk(a, seen)),
        }
    }
    let mut seen = None;
    walk(v, &mut seen).then_some(seen).flatten()
}

/// Once per distinct value: when `v` reads exactly one column and that
/// column is a dictionary with fewer entries than there are selected
/// rows, evaluate `v` over the entries and hand back a dictionary over
/// the rows' codes. *Any* error from that evaluation is discarded along
/// with its result and `None` sends the caller down the per-row path,
/// which alone decides what is raised — an entry no selected row holds
/// (filtered out, or short-circuited away by an enclosing `AND`, `CASE`
/// or `IN`) must not fail the query.
fn eval_per_distinct(v: &VExpr, chunk: &DataChunk, sel: Sel<'_>) -> Option<Arc<Array>> {
    if matches!(v, VExpr::Col(_)) {
        return None; // a bare column is its own dictionary
    }
    let col = only_column(v)?;
    let (codes, values) = chunk.cols[col].per_entry(sel.len(chunk))?;
    // `v` reads nothing but `col`, so a chunk that has the entries there
    // (and, to stay rectangular, at every index below) is all it needs.
    let entries = DataChunk::new(vec![Arc::clone(values); col + 1], values.len());
    let out = eval_rows(v, &entries, Sel::All).ok()?;
    let codes = match sel {
        Sel::All => codes.to_vec(),
        Sel::Idx(idx) => idx.iter().map(|&i| codes[i as usize]).collect(),
    };
    Some(Arc::new(Array::dict(codes, out)))
}

/// [`eval`], element by element.
fn eval_rows(v: &VExpr, chunk: &DataChunk, sel: Sel<'_>) -> EngineResult<Arc<Array>> {
    if let Some(arr) = to_char_in_place(v, chunk, sel) {
        return Ok(arr);
    }
    let n = sel.len(chunk);
    match v {
        VExpr::Lit(val) => {
            let mut b = ArrayBuilder::with_capacity(n);
            for _ in 0..n {
                b.push(val.clone());
            }
            Ok(Arc::new(b.finish()))
        }
        VExpr::Col(i) => match sel {
            Sel::All => Ok(Arc::clone(&chunk.cols[*i])),
            Sel::Idx(idx) => Ok(Arc::new(chunk.cols[*i].gather(idx))),
        },
        VExpr::Unary { op, expr } => {
            let arr = eval(expr, chunk, sel)?;
            match op {
                UnaryOp::Neg => {
                    let mut b = ArrayBuilder::with_capacity(n);
                    for pos in 0..n {
                        b.push(value::negate(arr.at(pos))?);
                    }
                    Ok(Arc::new(b.finish()))
                }
                UnaryOp::Not => bool_column(n, |pos| Ok(arr.at(pos).as_bool()?.map(|b| !b))),
            }
        }
        VExpr::Binary { left, op, right } => eval_binary(left, *op, right, chunk, sel),
        VExpr::IsNull { expr, negated } => {
            let arr = eval(expr, chunk, sel)?;
            bool_column(n, |pos| Ok(Some(arr.is_null(pos) != *negated)))
        }
        VExpr::InList {
            expr,
            list,
            negated,
        } => {
            let varr = eval(expr, chunk, sel)?;
            let mut result: Vec<Value> = vec![Value::Null; n];
            let mut saw_null = vec![false; n];
            // NULL probes answer NULL without evaluating any list item
            // for that row (matching the interpreter's early return).
            let mut undecided: Vec<usize> = (0..n).filter(|&p| !varr.is_null(p)).collect();
            for item in list {
                if undecided.is_empty() {
                    break;
                }
                let isel: Vec<u32> = undecided.iter().map(|&p| sel.at(p)).collect();
                let items = operand(item, chunk, Sel::Idx(&isel))?;
                let mut still = Vec::with_capacity(undecided.len());
                for (j, &pos) in undecided.iter().enumerate() {
                    let iv = items.at(j);
                    if iv.is_null() {
                        saw_null[pos] = true;
                        still.push(pos);
                    } else if varr.at(pos).sql_eq(iv) {
                        result[pos] = Value::Boolean(!*negated);
                    } else {
                        still.push(pos);
                    }
                }
                undecided = still;
            }
            for pos in undecided {
                result[pos] = if saw_null[pos] {
                    Value::Null
                } else {
                    Value::Boolean(*negated)
                };
            }
            Ok(Arc::new(Array::from_values(result)))
        }
        VExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // All three operands evaluate eagerly, like the interpreter.
            let varr = operand(expr, chunk, sel)?;
            let lo = operand(low, chunk, sel)?;
            let hi = operand(high, chunk, sel)?;
            bool_column(n, |pos| {
                value::between(varr.at(pos), lo.at(pos), hi.at(pos), *negated)
            })
        }
        VExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let varr = operand(expr, chunk, sel)?;
            let parr = operand(pattern, chunk, sel)?;
            bool_column(n, |pos| {
                Ok(value::like(varr.at(pos), parr.at(pos), *negated))
            })
        }
        VExpr::Case {
            operand: case_operand,
            branches,
            else_expr,
        } => {
            let subject = match case_operand {
                Some(o) => Some(eval(o, chunk, sel)?),
                None => None,
            };
            let mut result: Vec<Value> = vec![Value::Null; n];
            let mut undecided: Vec<usize> = (0..n).collect();
            for (when, then) in branches {
                if undecided.is_empty() {
                    break;
                }
                let wsel: Vec<u32> = undecided.iter().map(|&p| sel.at(p)).collect();
                let warr = eval(when, chunk, Sel::Idx(&wsel))?;
                let mut matched: Vec<usize> = Vec::new();
                let mut still: Vec<usize> = Vec::with_capacity(undecided.len());
                for (j, &pos) in undecided.iter().enumerate() {
                    let hit = match &subject {
                        Some(s) => s.at(pos).sql_eq(warr.at(j)),
                        None => warr.at(j).as_bool()? == Some(true),
                    };
                    if hit {
                        matched.push(pos);
                    } else {
                        still.push(pos);
                    }
                }
                if !matched.is_empty() {
                    let tsel: Vec<u32> = matched.iter().map(|&p| sel.at(p)).collect();
                    let thens = operand(then, chunk, Sel::Idx(&tsel))?;
                    for (k, &pos) in matched.iter().enumerate() {
                        result[pos] = thens.at(k).to_value();
                    }
                }
                undecided = still;
            }
            if !undecided.is_empty() {
                if let Some(e) = else_expr {
                    let esel: Vec<u32> = undecided.iter().map(|&p| sel.at(p)).collect();
                    let elses = operand(e, chunk, Sel::Idx(&esel))?;
                    for (k, &pos) in undecided.iter().enumerate() {
                        result[pos] = elses.at(k).to_value();
                    }
                }
            }
            Ok(Arc::new(Array::from_values(result)))
        }
        VExpr::Cast { expr, ty } => {
            let arr = operand(expr, chunk, sel)?;
            let mut b = ArrayBuilder::with_capacity(n);
            for pos in 0..n {
                b.push(arr.at(pos).to_value().cast_to(*ty)?);
            }
            Ok(Arc::new(b.finish()))
        }
        VExpr::Scalar { name, args } => {
            let mut ops = Vec::with_capacity(args.len());
            for a in args {
                ops.push(operand(a, chunk, sel)?);
            }
            physical::with_counters(|c| c.scalar_calls += n as u64);
            if let [x, Operand::Const(text)] = ops.as_slice() {
                if let Some(pattern) = constant_date_pattern(name, text) {
                    return to_char_dates(&pattern, text, x, n);
                }
            }
            let mut b = ArrayBuilder::with_capacity(n);
            // Constant arguments are written once; each row overwrites
            // only the slots that vary.
            let mut argv: Vec<Value> = ops
                .iter()
                .map(|op| match op {
                    Operand::Const(v) => Value::clone(v),
                    Operand::Arr(_) => Value::Null,
                })
                .collect();
            for pos in 0..n {
                for (slot, op) in argv.iter_mut().zip(&ops) {
                    if let Operand::Arr(a) = op {
                        *slot = a.get(pos);
                    }
                }
                b.push(functions::eval_scalar(name, &argv)?);
            }
            Ok(Arc::new(b.finish()))
        }
    }
}

/// The parsed pattern of `TO_CHAR(x, pattern)` with a constant
/// `pattern`; `None` for any other call, and for a NULL or malformed
/// pattern, which keep the per-row path (and so its errors).
fn constant_date_pattern(name: &str, pattern: &Value) -> Option<DatePattern> {
    match pattern {
        Value::Text(p) if name.eq_ignore_ascii_case("TO_CHAR") => DatePattern::parse(p).ok(),
        _ => None,
    }
}

/// `TO_CHAR(column, 'pattern')` compared with a text literal (either side
/// of `=`, `<>`, `<`, `<=`, `>`, `>=`), or `[NOT] IN` a list of non-NULL
/// text literals, decided without building the text column: each date is
/// rendered into one reused buffer and compared there by the rules
/// `value::compare` and `ValueRef::sql_eq` apply to two texts. A NULL
/// date gives NULL, and nothing here raises. `None` — the general path —
/// for every other expression, for a pattern `constant_date_pattern`
/// rejects, for a NULL or non-text literal, and for a column that is not
/// a `Date` array (text dates, or a dictionary read row by row).
fn to_char_in_place(v: &VExpr, chunk: &DataChunk, sel: Sel<'_>) -> Option<Arc<Array>> {
    fn text(v: &VExpr) -> Option<&str> {
        match v {
            VExpr::Lit(Value::Text(s)) => Some(s),
            _ => None,
        }
    }
    let n = sel.len(chunk);
    match v {
        VExpr::Binary {
            left,
            op:
                op @ (BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq),
            right,
        } => {
            let holds = |l: &str, r: &str| {
                value::compare(*op, ValueRef::Str(l), ValueRef::Str(r)) == Ok(Some(true))
            };
            if let (Some(dates), Some(lit)) = (DatesToChar::of(left, chunk), text(right)) {
                return Some(dates.test(sel, n, |s| holds(s, lit)));
            }
            let (lit, dates) = (text(left)?, DatesToChar::of(right, chunk)?);
            Some(dates.test(sel, n, |s| holds(lit, s)))
        }
        VExpr::InList {
            expr,
            list,
            negated,
        } => {
            let dates = DatesToChar::of(expr, chunk)?;
            let items: Vec<&str> = list.iter().map(text).collect::<Option<_>>()?;
            let found = |s: &str| {
                items
                    .iter()
                    .any(|&i| ValueRef::Str(s).sql_eq(ValueRef::Str(i)))
            };
            Some(dates.test(sel, n, |s| found(s) != *negated))
        }
        _ => None,
    }
}

/// `TO_CHAR(column, 'pattern')` over a `Date` array, pattern parsed.
struct DatesToChar<'c> {
    data: &'c [Date],
    validity: &'c Bitmap,
    pattern: DatePattern,
}

impl<'c> DatesToChar<'c> {
    /// `v` as one, when it is such a call on a `Date` column of `chunk`.
    fn of(v: &VExpr, chunk: &'c DataChunk) -> Option<DatesToChar<'c>> {
        let VExpr::Scalar { name, args } = v else {
            return None;
        };
        let [VExpr::Col(i), VExpr::Lit(pattern)] = args.as_slice() else {
            return None;
        };
        let Array::Date { data, validity } = &*chunk.cols[*i] else {
            return None;
        };
        Some(DatesToChar {
            data,
            validity,
            pattern: constant_date_pattern(name, pattern)?,
        })
    }

    /// The `Bool` array of `f(rendering)` over the `n` rows of `sel`, NULL
    /// where the date is. Counts one scalar call per row, as the call it
    /// stands in for does.
    fn test(&self, sel: Sel<'_>, n: usize, f: impl Fn(&str) -> bool) -> Arc<Array> {
        physical::with_counters(|c| c.scalar_calls += n as u64);
        let mut buf = String::with_capacity(16);
        let mut data = Vec::with_capacity(n);
        let mut validity = Bitmap::new();
        for pos in 0..n {
            let row = sel.at(pos) as usize;
            let valid = self.validity.get(row);
            if valid {
                buf.clear();
                self.pattern.render_into(&self.data[row], &mut buf);
            }
            data.push(valid && f(&buf));
            validity.push(valid);
        }
        Arc::new(Array::Bool { data, validity })
    }
}

/// `TO_CHAR(x, text)` over `n` rows with `text` parsed once into
/// `pattern`: a date is rendered directly, anything else (NULL, ISO
/// text, a type error) goes through `functions::eval_scalar` as before.
fn to_char_dates(
    pattern: &DatePattern,
    text: &Value,
    x: &Operand<'_>,
    n: usize,
) -> EngineResult<Arc<Array>> {
    let mut b = ArrayBuilder::with_capacity(n);
    for pos in 0..n {
        let rendered = match x.at(pos) {
            ValueRef::Date(d) => Value::Text(pattern.render(&d)),
            v => functions::eval_scalar("TO_CHAR", &[v.to_value(), text.clone()])?,
        };
        b.push(rendered);
    }
    Ok(Arc::new(b.finish()))
}

fn eval_binary(
    left: &VExpr,
    op: BinaryOp,
    right: &VExpr,
    chunk: &DataChunk,
    sel: Sel<'_>,
) -> EngineResult<Arc<Array>> {
    let n = sel.len(chunk);
    // AND decides on FALSE and OR on TRUE: the right side is evaluated
    // only for the rows the left one does not decide (matching per-row
    // short-circuiting).
    if op == BinaryOp::And || op == BinaryOp::Or {
        let and = op == BinaryOp::And;
        let larr = eval(left, chunk, sel)?;
        let lt = truth(&larr)?;
        let need: Vec<u32> = (0..n)
            .filter(|&pos| lt[pos] != Some(!and))
            .map(|pos| sel.at(pos))
            .collect();
        let rarr = eval(right, chunk, Sel::Idx(&need))?;
        let mut rt = truth(&rarr)?.into_iter();
        return bool_column(n, |pos| {
            let r = if lt[pos] == Some(!and) {
                None
            } else {
                rt.next().flatten()
            };
            Ok(value::and_or(and, lt[pos], r))
        });
    }

    let l = operand(left, chunk, sel)?;
    let r = operand(right, chunk, sel)?;
    match op {
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => bool_column(n, |pos| value::compare(op, l.at(pos), r.at(pos))),
        BinaryOp::Concat => {
            let mut b = ArrayBuilder::with_capacity(n);
            for pos in 0..n {
                b.push(value::concat(l.at(pos), r.at(pos)));
            }
            Ok(Arc::new(b.finish()))
        }
        _ => {
            let mut b = ArrayBuilder::with_capacity(n);
            for pos in 0..n {
                b.push(value::arith(op, l.at(pos), r.at(pos))?);
            }
            Ok(Arc::new(b.finish()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn cols(names: &[&str]) -> Vec<ColMeta> {
        names
            .iter()
            .map(|n| ColMeta::new(Some("t".into()), n.to_string()))
            .collect()
    }

    fn chunk(rows: Vec<Vec<Value>>, width: usize) -> DataChunk {
        DataChunk::from_rows(rows, width)
    }

    fn eval_sql(sql: &str, names: &[&str], rows: Vec<Vec<Value>>) -> EngineResult<Vec<Value>> {
        let expr = parse_expression(sql).unwrap();
        let meta = cols(names);
        let width = names.len();
        let c = chunk(rows, width);
        let v = bind(&expr, &meta, None).expect("expression should bind");
        let arr = eval(&v, &c, Sel::All)?;
        Ok((0..arr.len()).map(|i| arr.get(i)).collect())
    }

    #[test]
    fn three_valued_comparison() {
        // NULL > 0 is unknown (NULL), not false.
        let out = eval_sql(
            "x > 0",
            &["x"],
            vec![
                vec![Value::Integer(1)],
                vec![Value::Null],
                vec![Value::Integer(-1)],
            ],
        )
        .unwrap();
        assert_eq!(
            out,
            vec![Value::Boolean(true), Value::Null, Value::Boolean(false)]
        );
    }

    #[test]
    fn and_or_three_valued_logic() {
        // NULL AND FALSE = FALSE, NULL AND TRUE = NULL,
        // NULL OR TRUE = TRUE, NULL OR FALSE = NULL.
        let rows = vec![vec![Value::Null]];
        for (sql, want) in [
            ("x > 0 AND 1 = 2", Value::Boolean(false)),
            ("x > 0 AND 1 = 1", Value::Null),
            ("x > 0 OR 1 = 1", Value::Boolean(true)),
            ("x > 0 OR 1 = 2", Value::Null),
        ] {
            let out = eval_sql(sql, &["x"], rows.clone()).unwrap();
            assert_eq!(out[0], want, "{sql}");
        }
    }

    #[test]
    fn and_short_circuit_skips_erroring_right_side() {
        // Rows where the left side is FALSE must not evaluate the right
        // side ('a' + 1 would be a type error).
        let out = eval_sql(
            "x > 10 AND y + 1 > 0",
            &["x", "y"],
            vec![vec![Value::Integer(1), Value::Text("a".into())]],
        )
        .unwrap();
        assert_eq!(out, vec![Value::Boolean(false)]);
        // …but rows where the left side passes do evaluate it and error.
        let err = eval_sql(
            "x > 0 AND y + 1 > 0",
            &["x", "y"],
            vec![vec![Value::Integer(1), Value::Text("a".into())]],
        );
        assert!(err.is_err());
    }

    #[test]
    fn in_list_with_null_is_three_valued() {
        let rows = vec![
            vec![Value::Integer(1)],
            vec![Value::Integer(99)],
            vec![Value::Null],
        ];
        let out = eval_sql("x IN (1, NULL)", &["x"], rows).unwrap();
        assert_eq!(out, vec![Value::Boolean(true), Value::Null, Value::Null]);
    }

    #[test]
    fn case_branches_evaluate_lazily() {
        // The THEN of a non-matching branch must not run (1/0 is fine —
        // NULL — but 'a' + 1 would error).
        let out = eval_sql(
            "CASE WHEN x > 0 THEN 'pos' WHEN y + 1 > 0 THEN 'other' ELSE 'neg' END",
            &["x", "y"],
            vec![vec![Value::Integer(5), Value::Text("a".into())]],
        )
        .unwrap();
        assert_eq!(out, vec![Value::Text("pos".into())]);
    }

    #[test]
    fn null_propagates_through_arithmetic_and_concat() {
        let rows = vec![vec![Value::Null, Value::Integer(3)]];
        assert_eq!(
            eval_sql("x + y", &["x", "y"], rows.clone()).unwrap(),
            vec![Value::Null]
        );
        assert_eq!(
            eval_sql("x || 'a'", &["x", "y"], rows).unwrap(),
            vec![Value::Null]
        );
    }

    #[test]
    fn between_null_bound_is_unknown() {
        let rows = vec![vec![Value::Integer(5)]];
        assert_eq!(
            eval_sql("x BETWEEN NULL AND 10", &["x"], rows).unwrap(),
            vec![Value::Null]
        );
    }

    #[test]
    fn scalar_functions_vectorize() {
        let out = eval_sql(
            "UPPER(x) || '-' || CAST(LENGTH(x) AS TEXT)",
            &["x"],
            vec![vec![Value::Text("ab".into())], vec![Value::Null]],
        )
        .unwrap();
        assert_eq!(out, vec![Value::Text("AB-2".into()), Value::Null]);
    }

    #[test]
    fn subqueries_and_aggregates_do_not_bind() {
        let meta = cols(&["x"]);
        for sql in [
            "(SELECT 1)",
            "EXISTS (SELECT 1)",
            "x IN (SELECT 1)",
            "SUM(x)",
            "ROW_NUMBER()",
        ] {
            let expr = parse_expression(sql).unwrap();
            assert!(bind(&expr, &meta, None).is_none(), "{sql}");
        }
    }

    /// `rows` as a chunk whose columns are dictionary-encoded where the
    /// layout allows — what a table scan hands the evaluator.
    fn encoded_chunk(rows: Vec<Vec<Value>>, width: usize) -> DataChunk {
        let plain = chunk(rows, width);
        let cols = plain
            .cols
            .iter()
            .map(|c| Arc::new(Array::clone(c).dictionary_encoded()))
            .collect();
        DataChunk::new(cols, plain.len())
    }

    fn eval_encoded(sql: &str, names: &[&str], rows: Vec<Vec<Value>>) -> EngineResult<Vec<Value>> {
        let expr = parse_expression(sql).unwrap();
        let v = bind(&expr, &cols(names), None).expect("expression should bind");
        let arr = eval(&v, &encoded_chunk(rows, names.len()), Sel::All)?;
        Ok((0..arr.len()).map(|i| arr.get(i)).collect())
    }

    fn text(s: &str) -> Value {
        Value::Text(s.into())
    }

    #[test]
    fn single_column_expression_runs_once_per_dictionary_entry() {
        let rows: Vec<Vec<Value>> = ["ab", "c", "ab", "ab", "c", "ab"]
            .iter()
            .map(|s| vec![text(s)])
            .collect();
        let expr = parse_expression("LENGTH(x) > 1").unwrap();
        let v = bind(&expr, &cols(&["x"]), None).unwrap();
        physical::take_counters();
        let arr = eval(&v, &encoded_chunk(rows, 1), Sel::All).unwrap();
        assert_eq!(physical::take_counters().scalar_calls, 2, "two entries");
        let (codes, values) = arr.as_dict().expect("a dictionary over the row codes");
        assert_eq!((codes.len(), values.len()), (6, 2));
        let want = [true, false, true, true, false, true].map(Value::Boolean);
        assert_eq!((0..6).map(|i| arr.get(i)).collect::<Vec<_>>(), want);
        // As many entries as selected rows: nothing to save, per-row path.
        let idx = [0u32, 1];
        let rows = vec![vec![text("ab")], vec![text("c")], vec![text("ab")]];
        let arr = eval(&v, &encoded_chunk(rows, 1), Sel::Idx(&idx)).unwrap();
        assert!(arr.as_dict().is_none());
        assert_eq!(physical::take_counters().scalar_calls, 2, "two rows");
    }

    #[test]
    fn failure_on_a_value_some_selected_row_holds_is_raised() {
        let rows = ["1", "2", "x", "1", "2", "1"]
            .iter()
            .map(|s| vec![text(s)])
            .collect();
        let sql = "CAST(x AS INTEGER) > 0";
        let encoded = eval_encoded(sql, &["x"], rows).unwrap_err();
        let plain_rows = vec![vec![text("1")], vec![text("x")]];
        let plain = eval_sql(sql, &["x"], plain_rows).unwrap_err();
        assert_eq!(encoded.to_string(), plain.to_string());
    }

    #[test]
    fn failure_on_a_value_no_selected_row_holds_is_not() {
        // 'x' is in the dictionary, but every row holding it was decided
        // by the conjunct on the other column first — and enough rows
        // remain (six, for three entries) that the right side does go
        // through the dictionary before the per-row path overrules it.
        let rows: Vec<Vec<Value>> = [
            ("1", 1),
            ("x", 0),
            ("2", 1),
            ("x", -1),
            ("1", 0),
            ("2", 2),
            ("1", 3),
            ("2", 1),
            ("1", 1),
        ]
        .iter()
        .map(|&(x, y)| vec![text(x), Value::Integer(y)])
        .collect();
        let sql = "y > 0 AND CAST(x AS INTEGER) > 1";
        let want = eval_sql(sql, &["x", "y"], rows.clone()).unwrap();
        assert_eq!(eval_encoded(sql, &["x", "y"], rows).unwrap(), want);
        let t = [false, false, true, false, false, true, false, true, false];
        assert_eq!(want, t.map(Value::Boolean));
    }

    /// The per-distinct path is sound only while a bound expression is a
    /// pure function of the row. A volatile function added to
    /// `functions::eval_scalar` without being excluded in `only_column`
    /// gives different answers on the two sides of this comparison.
    #[test]
    fn per_distinct_equals_per_row_for_every_scalar_function() {
        let d = |m| Value::Date(crate::value::Date::new(2023, m, 1).unwrap());
        let mut rows = Vec::new();
        for _ in 0..3 {
            for (t, day, n) in [
                (text(" Ab "), d(2), Value::Float(-2.5)),
                (text("2023-11-20"), d(11), Value::Float(9.0)),
                (Value::Null, Value::Null, Value::Null),
            ] {
                rows.push(vec![t, day, n.cast_to(DataType::Text).unwrap()]);
            }
        }
        let names = ["t", "d", "n"];
        let num = "CAST(n AS FLOAT)";
        let exprs: Vec<String> = [
            "UPPER(t)",
            "LOWER(t)",
            "LENGTH(t)",
            "LEN(t)",
            "TRIM(t)",
            "LTRIM(t)",
            "RTRIM(t)",
            "REPLACE(t, 'b', 'c')",
            "SUBSTR(t, 2, 2)",
            "SUBSTRING(t, 2)",
            "INSTR(t, 'b')",
            "CONCAT(t, '-', t)",
            "COALESCE(t, 'x')",
            "NULLIF(t, ' Ab ')",
            "t || '!'",
            "IIF(t LIKE '%b%', 1, 2)",
            "IF(t IS NULL, 1, 2)",
            "t IN (' Ab ', 'z')",
            "CASE WHEN t = ' Ab ' THEN 1 ELSE 0 END",
            "t BETWEEN ' ' AND '3'",
            "TO_CHAR(d, 'YYYY\"Q\"Q')",
            "TO_CHAR(d)",
            "DATE(d)",
            "YEAR(d)",
            "MONTH(d)",
            "DAY(d)",
            "QUARTER(d)",
            "d >= '2023-06-01'",
        ]
        .map(String::from)
        .into_iter()
        .chain(
            ["ABS", "SIGN", "ROUND", "FLOOR", "CEIL", "CEILING", "SQRT"]
                .map(|f| format!("{f}({num})")),
        )
        .chain(["POWER", "POW", "MOD"].map(|f| format!("{f}({num}, 2)")))
        .collect();
        for sql in &exprs {
            let per_row = eval_sql(sql, &names, rows.clone()).unwrap();
            physical::take_counters();
            let per_distinct = eval_encoded(sql, &names, rows.clone()).unwrap();
            assert_eq!(format!("{per_distinct:?}"), format!("{per_row:?}"), "{sql}");
            // Each reads one nine-row column of three distinct values: a
            // scalar call in it runs three times, never nine.
            let calls = physical::take_counters().scalar_calls;
            assert!([0, 3, 6].contains(&calls), "{sql}: {calls} scalar calls");
        }
    }

    #[test]
    fn unknown_column_does_not_bind() {
        let expr = parse_expression("nope + 1").unwrap();
        assert!(bind(&expr, &cols(&["x"]), None).is_none());
    }
}
