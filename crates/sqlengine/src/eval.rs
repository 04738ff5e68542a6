//! Expression evaluation over rows, groups, and window values.

use crate::aggregate::Accumulator;
use crate::ast::*;
use crate::catalog::Database;
use crate::error::{EngineError, EngineResult};
use crate::exec::{execute_query, CteMap};
use crate::functions;
use crate::value::{self, Value, ValueRef};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Metadata for one column of an intermediate relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColMeta {
    /// Table alias / CTE name / derived-table alias the column came from.
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColMeta {
    pub fn new(qualifier: Option<String>, name: impl Into<String>) -> ColMeta {
        ColMeta {
            qualifier,
            name: name.into(),
        }
    }

    pub(crate) fn matches(&self, table: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match table {
            None => true,
            Some(t) => self
                .qualifier
                .as_deref()
                .map(|q| q.eq_ignore_ascii_case(t))
                .unwrap_or(false),
        }
    }
}

/// An intermediate relation during execution.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    pub cols: Vec<ColMeta>,
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    pub fn new(cols: Vec<ColMeta>) -> Relation {
        Relation {
            cols,
            rows: Vec::new(),
        }
    }
}

/// Group membership view used when evaluating aggregate calls.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    pub rel: &'a Relation,
    pub indices: &'a [usize],
}

/// Per-unit values of the aggregate or window calls of a statement,
/// computed before its units are projected. Each call node resolves to
/// its slot once, when the values are built, so a lookup per unit is one
/// hash of the node's address; calls with the same display form share
/// one slot. Values are built from the very nodes the projection and
/// ORDER BY then evaluate.
///
/// The nodes are borrowed for `'q`, so no other node can take the
/// address of a registered one while the values live.
#[derive(Debug, Default)]
pub struct CallValues<'q> {
    by_node: HashMap<usize, usize>,
    by_text: HashMap<String, usize>,
    slots: Vec<Vec<Value>>,
    nodes: PhantomData<&'q Expr>,
}

/// Per-unit window values, one slot per distinct window call.
pub type WindowValues<'q> = CallValues<'q>;

/// Per-unit aggregate values pre-computed by the vectorized planner, one
/// slot per distinct aggregate call.
pub type AggValues<'q> = CallValues<'q>;

fn node_address(call: &Expr) -> usize {
    call as *const Expr as usize
}

impl<'q> CallValues<'q> {
    /// No values.
    pub fn new() -> CallValues<'q> {
        CallValues::default()
    }

    /// Resolve `call` to the slot of an earlier call with the same
    /// display form `text`, if there is one with values. Returns whether
    /// it did, and so whether the values of `call` are already known.
    pub fn share(&mut self, call: &'q Expr, text: &str) -> bool {
        match self.by_text.get(text) {
            Some(&slot) => {
                self.by_node.insert(node_address(call), slot);
                true
            }
            None => false,
        }
    }

    /// Store the per-unit values of `call`, whose display form is `text`.
    pub fn insert(&mut self, call: &'q Expr, text: String, values: Vec<Value>) {
        let slot = self.slots.len();
        self.slots.push(values);
        self.by_node.insert(node_address(call), slot);
        self.by_text.insert(text, slot);
    }

    /// The per-unit values of `call`, if it was given values.
    pub fn get(&self, call: &Expr) -> Option<&[Value]> {
        let &slot = self.by_node.get(&node_address(call))?;
        Some(&self.slots[slot])
    }
}

/// The evaluation environment for one row (or one group).
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub cols: &'a [ColMeta],
    pub row: &'a [Value],
    /// Enclosing query's scope, for correlated subqueries.
    pub parent: Option<&'a Scope<'a>>,
    /// Set when evaluating in grouped context; aggregates draw from here.
    pub group: Option<GroupView<'a>>,
    /// Pre-computed window-function values for the current unit list.
    pub windows: Option<&'a WindowValues<'a>>,
    /// Pre-computed aggregate values for the current unit list; consulted
    /// before falling back to the [`GroupView`] accumulator path.
    pub aggs: Option<&'a AggValues<'a>>,
    /// Index of the current unit into each window value vector.
    pub unit_index: usize,
}

impl<'a> Scope<'a> {
    pub fn row_scope(cols: &'a [ColMeta], row: &'a [Value]) -> Scope<'a> {
        Scope {
            cols,
            row,
            parent: None,
            group: None,
            windows: None,
            aggs: None,
            unit_index: 0,
        }
    }

    pub(crate) fn resolve(&self, table: Option<&str>, name: &str) -> EngineResult<Value> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.matches(table, name))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(self.row[matches[0]].clone()),
            0 => match self.parent {
                Some(p) => p.resolve(table, name),
                None => Err(EngineError::binding(format!(
                    "no such column {}{name}",
                    table.map(|t| format!("{t}.")).unwrap_or_default()
                ))),
            },
            _ => Err(EngineError::binding(format!(
                "ambiguous column reference {}{name}",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))),
        }
    }
}

/// Which engine runs SELECT bodies: chosen by the entry point
/// (`execute_sql` / `execute_sql_reference`) and carried in [`EvalEnv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    /// Columnar execution with the reference tail as its one fallback.
    Vectorized,
    /// The row-at-a-time interpreter in `reference`, end to end.
    Reference,
}

/// External state needed by subquery evaluation.
pub struct EvalEnv<'a> {
    pub db: &'a Database,
    pub ctes: &'a CteMap,
    /// Keeps CTEs and subqueries in-engine with their parent query.
    pub(crate) engine: Engine,
}

impl<'a> EvalEnv<'a> {
    /// An environment on the default (vectorized) engine.
    pub fn new(db: &'a Database, ctes: &'a CteMap) -> EvalEnv<'a> {
        EvalEnv {
            db,
            ctes,
            engine: Engine::Vectorized,
        }
    }
}

/// Evaluate `expr` in `scope`.
pub fn eval_expr(expr: &Expr, scope: &Scope<'_>, env: &EvalEnv<'_>) -> EngineResult<Value> {
    match expr {
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Column { table, name } => scope.resolve(table.as_deref(), name),
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, scope, env)?;
            match op {
                UnaryOp::Neg => value::negate(ValueRef::from(&v)),
                UnaryOp::Not => Ok(v.as_bool()?.map_or(Value::Null, |b| Value::Boolean(!b))),
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, scope, env),
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, scope, env)?;
            Ok(Value::Boolean(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, scope, env)?;
            let items = || Ok(list.iter().map(|item| eval_expr(item, scope, env)));
            in_values(&v, items, *negated)
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let v = eval_expr(expr, scope, env)?;
            let items = || {
                let result = execute_query(env, subquery, Some(scope))?;
                if result.columns.len() != 1 {
                    return Err(EngineError::typing(
                        "IN subquery must return exactly one column",
                    ));
                }
                Ok(result
                    .rows
                    .into_iter()
                    .map(|mut row| Ok(row.swap_remove(0))))
            };
            in_values(&v, items, *negated)
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(expr, scope, env)?;
            let lo = eval_expr(low, scope, env)?;
            let hi = eval_expr(high, scope, env)?;
            let (v, lo, hi) = (ValueRef::from(&v), ValueRef::from(&lo), ValueRef::from(&hi));
            let t = value::between(v, lo, hi, *negated)?;
            Ok(t.map_or(Value::Null, Value::Boolean))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(expr, scope, env)?;
            let p = eval_expr(pattern, scope, env)?;
            let t = value::like(ValueRef::from(&v), ValueRef::from(&p), *negated);
            Ok(t.map_or(Value::Null, Value::Boolean))
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            match operand {
                Some(op_expr) => {
                    let subject = eval_expr(op_expr, scope, env)?;
                    for (when, then) in branches {
                        let w = eval_expr(when, scope, env)?;
                        if subject.sql_eq(&w) {
                            return eval_expr(then, scope, env);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        let w = eval_expr(when, scope, env)?;
                        if w.as_bool()? == Some(true) {
                            return eval_expr(then, scope, env);
                        }
                    }
                }
            }
            match else_expr {
                Some(e) => eval_expr(e, scope, env),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, ty } => {
            let v = eval_expr(expr, scope, env)?;
            v.cast_to(*ty)
        }
        Expr::Function(call) => eval_function(expr, call, scope, env),
        Expr::Exists { subquery, negated } => {
            let result = execute_query(env, subquery, Some(scope))?;
            Ok(Value::Boolean(result.rows.is_empty() == *negated))
        }
        Expr::ScalarSubquery(subquery) => {
            let result = execute_query(env, subquery, Some(scope))?;
            if result.columns.len() != 1 {
                return Err(EngineError::typing(
                    "scalar subquery must return exactly one column",
                ));
            }
            match result.rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(result.rows[0][0].clone()),
                n => Err(EngineError::execution(format!(
                    "scalar subquery returned {n} rows"
                ))),
            }
        }
    }
}

fn eval_function(
    whole: &Expr,
    call: &FunctionCall,
    scope: &Scope<'_>,
    env: &EvalEnv<'_>,
) -> EngineResult<Value> {
    // Window call: value was pre-computed by the executor.
    if call.over.is_some() {
        let windows = scope.windows.ok_or_else(|| {
            EngineError::execution(format!(
                "window function {} used outside a windowed projection",
                call.name
            ))
        })?;
        let values = windows
            .get(whole)
            .ok_or_else(|| EngineError::execution(format!("window values missing for {whole}")))?;
        return Ok(values[scope.unit_index].clone());
    }

    // Aggregate call: use the planner's pre-computed value when present,
    // otherwise draw from the current group.
    if functions::is_aggregate(&call.name) {
        if let Some(aggs) = scope.aggs {
            if let Some(values) = aggs.get(whole) {
                return Ok(values[scope.unit_index].clone());
            }
        }
        let group = scope.group.ok_or_else(|| {
            EngineError::typing(format!(
                "aggregate {} is not allowed in this context",
                call.name
            ))
        })?;
        let mut acc = Accumulator::for_function(&call.name, call.distinct, call.star)?;
        for &idx in group.indices {
            let row = &group.rel.rows[idx];
            let inner = Scope {
                cols: &group.rel.cols,
                row,
                parent: scope.parent,
                group: None,
                windows: None,
                aggs: None,
                unit_index: 0,
            };
            if call.star {
                acc.update(&Value::Integer(1))?;
            } else {
                if call.args.len() != 1 {
                    return Err(EngineError::typing(format!(
                        "aggregate {} expects exactly one argument",
                        call.name
                    )));
                }
                let v = eval_expr(&call.args[0], &inner, env)?;
                acc.update(&v)?;
            }
        }
        return Ok(acc.finish());
    }

    if functions::is_ranking(&call.name) {
        return Err(EngineError::typing(format!(
            "{} requires an OVER clause",
            call.name
        )));
    }

    // Plain scalar function.
    let mut args = Vec::with_capacity(call.args.len());
    for a in &call.args {
        args.push(eval_expr(a, scope, env)?);
    }
    functions::eval_scalar(&call.name, &args)
}

/// `v [NOT] IN (items)`: NULL for a NULL probe, without asking for the
/// items; TRUE (FALSE for `NOT IN`) at the first item equal to `v`,
/// without evaluating the rest; otherwise NULL if an item was NULL, else
/// FALSE (TRUE).
fn in_values<I>(
    v: &Value,
    items: impl FnOnce() -> EngineResult<I>,
    negated: bool,
) -> EngineResult<Value>
where
    I: Iterator<Item = EngineResult<Value>>,
{
    if v.is_null() {
        return Ok(Value::Null);
    }
    let mut saw_null = false;
    for item in items()? {
        let item = item?;
        if item.is_null() {
            saw_null = true;
        } else if v.sql_eq(&item) {
            return Ok(Value::Boolean(!negated));
        }
    }
    Ok(if saw_null {
        Value::Null
    } else {
        Value::Boolean(negated)
    })
}

fn eval_binary(
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
    scope: &Scope<'_>,
    env: &EvalEnv<'_>,
) -> EngineResult<Value> {
    // AND decides on FALSE and OR on TRUE: the right side is evaluated
    // only when the left one does not decide.
    if op == BinaryOp::And || op == BinaryOp::Or {
        let and = op == BinaryOp::And;
        let l = eval_expr(left, scope, env)?.as_bool()?;
        if l == Some(!and) {
            return Ok(Value::Boolean(!and));
        }
        let r = eval_expr(right, scope, env)?.as_bool()?;
        return Ok(value::and_or(and, l, r).map_or(Value::Null, Value::Boolean));
    }

    let l = eval_expr(left, scope, env)?;
    let r = eval_expr(right, scope, env)?;
    let (l, r) = (ValueRef::from(&l), ValueRef::from(&r));
    match op {
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => Ok(value::compare(op, l, r)?.map_or(Value::Null, Value::Boolean)),
        BinaryOp::Concat => Ok(value::concat(l, r)),
        _ => value::arith(op, l, r),
    }
}

pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Integer(v) => Value::Integer(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::String(s) => Value::Text(s.clone()),
        Literal::Boolean(b) => Value::Boolean(*b),
    }
}

/// Does this expression contain an aggregate call (not counting window
/// calls and not descending into subqueries)?
pub fn contains_aggregate(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        // A window call is not an aggregate itself, but its arguments and
        // its specification may hold one (RANK() OVER (ORDER BY SUM(x))).
        found |= matches!(e, Expr::Function(call)
            if call.over.is_none() && functions::is_aggregate(&call.name));
        !found
    });
    found
}

/// Collect aggregate calls that are evaluated unconditionally whenever
/// the containing expression is evaluated — i.e. not behind a lazily
/// evaluated position (`AND`/`OR` right operand, `CASE` branches,
/// `IN`-list items) where the row engine might skip them (and thereby
/// skip their errors). The planner may safely pre-compute exactly these.
pub fn collect_unconditional_aggregates<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    expr.walk(&mut |e| match e {
        Expr::Function(_) => descend_past_call(e, out),
        // AND/OR may short-circuit the right operand per row.
        Expr::Binary {
            left,
            op: BinaryOp::And | BinaryOp::Or,
            ..
        } => {
            collect_unconditional_aggregates(left, out);
            false
        }
        // List items evaluate lazily (and not at all for a NULL probe).
        Expr::InList { expr, .. } => {
            collect_unconditional_aggregates(expr, out);
            false
        }
        // Every part of a CASE after the first WHEN is conditional;
        // treat the whole construct conservatively.
        Expr::Case { .. } => false,
        _ => true,
    });
}

/// Collect every aggregate call in an expression tree, including calls
/// in lazily evaluated positions (`AND`/`OR` right operands, `CASE`
/// branches, `IN`-list items). Subqueries are not descended into —
/// aggregates there belong to the subquery's own grouping context. The
/// collected set is a superset of [`collect_unconditional_aggregates`];
/// the two agree exactly when no aggregate sits behind a lazy position.
pub fn collect_aggregate_calls<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    expr.walk(&mut |e| descend_past_call(e, out));
}

/// What both aggregate collectors do at a node: record an aggregate call,
/// and say whether the walk goes on below `e`.
fn descend_past_call<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) -> bool {
    match e {
        // Window calls are pre-computed separately.
        Expr::Function(call) if call.over.is_some() => false,
        // Arguments evaluate per group member, not here.
        Expr::Function(call) if functions::is_aggregate(&call.name) => {
            out.push(e);
            false
        }
        _ => true,
    }
}

/// What decides a SELECT body's execution shape: whether it projects
/// groups rather than rows, and the window calls it must pre-compute.
pub(crate) struct SelectShape<'e> {
    /// GROUP BY, HAVING, or an aggregate call in the projection.
    pub aggregated: bool,
    /// Window calls in the projection and ORDER BY, in source order.
    pub windows: Vec<&'e Expr>,
}

impl<'e> SelectShape<'e> {
    pub(crate) fn of(select: &'e Select, order_by: &'e [OrderItem]) -> SelectShape<'e> {
        let mut windows = Vec::new();
        let mut items_have_aggregates = false;
        for item in &select.items {
            if let SelectItem::Expr { expr, .. } = item {
                items_have_aggregates |= contains_aggregate(expr);
                collect_window_calls(expr, &mut windows);
            }
        }
        for o in order_by {
            collect_window_calls(&o.expr, &mut windows);
        }
        SelectShape {
            aggregated: !select.group_by.is_empty()
                || items_have_aggregates
                || select.having.is_some(),
            windows,
        }
    }
}

/// Collect all window calls (functions with OVER) in an expression tree,
/// not descending into subqueries.
pub fn collect_window_calls<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    expr.walk(&mut |e| match e {
        // Below a window call only its arguments are searched, not its
        // PARTITION BY / ORDER BY.
        Expr::Function(call) if call.over.is_some() => {
            out.push(e);
            for a in &call.args {
                collect_window_calls(a, out);
            }
            false
        }
        _ => true,
    });
}
