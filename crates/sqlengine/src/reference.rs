//! The row-at-a-time reference interpreter.
//!
//! This is the original materializing executor. It plays two roles:
//! end to end it is the oracle (`execute_sql_reference`) that
//! `benchmark/` and the differential suites compare the vectorized
//! engine against byte for byte; and its pieces —
//! [`filter_rows`], [`join`], [`finish_rows`] — are the *only* fallback
//! the vectorized engine has, called (never copied) whenever a
//! predicate, join condition or SELECT body does not lower to batch
//! operators. Grouping and DISTINCT use typed [`KeyElem`] tuples, so
//! text values containing `|` cannot alias one another.

use crate::ast::{Expr, JoinKind, OrderItem, Select, TableRef};
use crate::error::{EngineError, EngineResult};
use crate::eval::{eval_expr, ColMeta, EvalEnv, Relation, Scope, SelectShape};
use crate::exec::{execute_query, finish_select};
use crate::key::{key_elem, KeyElem};
use crate::result::ResultSet;
use crate::value::Value;
use crate::window::{compute_windows, unit_scope, Unit};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Execute one SELECT body row-at-a-time.
pub(crate) fn exec_select(
    env: &EvalEnv<'_>,
    select: &Select,
    outer: Option<&Scope<'_>>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> EngineResult<ResultSet> {
    // FROM.
    let rel = match &select.from {
        Some(tr) => resolve_from(env, tr, outer)?,
        None => Relation {
            cols: Vec::new(),
            rows: vec![Vec::new()],
        },
    };

    // WHERE.
    let kept = match &select.selection {
        Some(pred) => {
            let rows = rel.rows.iter().map(Vec::as_slice);
            filter_rows(env, &rel.cols, rows, pred, outer)?
        }
        None => (0..rel.rows.len()).collect(),
    };

    let shape = SelectShape::of(select, order_by);
    finish_rows(env, select, &rel, kept, &shape, outer, order_by, limit)
}

/// Positions of the `rows` on which `pred` is true. Rows are pulled one
/// at a time, so a predicate that raises on row 0 — a hallucinated
/// column, the commonest failed candidate — costs one row, not the batch.
pub(crate) fn filter_rows<R: Borrow<[Value]>>(
    env: &EvalEnv<'_>,
    cols: &[ColMeta],
    rows: impl Iterator<Item = R>,
    pred: &Expr,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Vec<usize>> {
    let mut kept: Vec<usize> = Vec::with_capacity(rows.size_hint().0);
    for (i, row) in rows.enumerate() {
        let scope = Scope {
            cols,
            row: row.borrow(),
            parent: outer,
            group: None,
            windows: None,
            aggs: None,
            unit_index: 0,
        };
        if eval_expr(pred, &scope, env)?.as_bool()? == Some(true) {
            kept.push(i);
        }
    }
    Ok(kept)
}

/// Everything after FROM and WHERE: group the `kept` rows of `rel` into
/// units, apply HAVING, compute window values, then project, order,
/// dedup and limit. The vectorized engine ends here whenever a SELECT
/// body does not finish on a columnar path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_rows(
    env: &EvalEnv<'_>,
    select: &Select,
    rel: &Relation,
    kept: Vec<usize>,
    shape: &SelectShape<'_>,
    outer: Option<&Scope<'_>>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> EngineResult<ResultSet> {
    let aggregated = shape.aggregated;

    // Build units.
    let mut units: Vec<Unit> = Vec::new();
    if aggregated {
        if select.group_by.is_empty() {
            units.push(Unit {
                rep: kept.first().copied().unwrap_or(usize::MAX),
                members: kept,
            });
        } else {
            let mut index: HashMap<Vec<KeyElem>, usize> = HashMap::new();
            for &i in &kept {
                let scope = Scope {
                    cols: &rel.cols,
                    row: &rel.rows[i],
                    parent: outer,
                    group: None,
                    windows: None,
                    aggs: None,
                    unit_index: 0,
                };
                let mut key = Vec::with_capacity(select.group_by.len());
                for g in &select.group_by {
                    key.push(key_elem(&eval_expr(g, &scope, env)?));
                }
                match index.get(&key) {
                    Some(&u) => units[u].members.push(i),
                    None => {
                        index.insert(key, units.len());
                        units.push(Unit {
                            rep: i,
                            members: vec![i],
                        });
                    }
                }
            }
        }
        // HAVING.
        if let Some(having) = &select.having {
            let mut filtered = Vec::with_capacity(units.len());
            for unit in units {
                let scope = unit_scope(rel, &unit, outer, None, None, 0, aggregated);
                if eval_expr(having, &scope, env)?.as_bool()? == Some(true) {
                    filtered.push(unit);
                }
            }
            units = filtered;
        }
    } else {
        units = kept
            .iter()
            .map(|&i| Unit {
                rep: i,
                members: vec![i],
            })
            .collect();
    }

    let windows = compute_windows(rel, &units, &shape.windows, outer, env, aggregated)?;

    finish_select(
        select, rel, &units, &windows, None, outer, env, order_by, limit, aggregated,
    )
}

// ----------------------------------------------------------------------
// FROM resolution
// ----------------------------------------------------------------------

pub(crate) fn resolve_from(
    env: &EvalEnv<'_>,
    tr: &TableRef,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation> {
    match tr {
        TableRef::Named { name, alias } => {
            let qualifier = alias.clone().unwrap_or_else(|| name.clone());
            if let Some(rs) = env.ctes.get(&name.to_lowercase()) {
                let cols = rs
                    .columns
                    .iter()
                    .map(|c| ColMeta::new(Some(qualifier.clone()), c.clone()))
                    .collect();
                return Ok(Relation {
                    cols,
                    rows: rs.rows.clone(),
                });
            }
            let table = env
                .db
                .table(name)
                .ok_or_else(|| EngineError::binding(format!("no such table {name}")))?;
            let cols = table
                .columns
                .iter()
                .map(|c| ColMeta::new(Some(qualifier.clone()), c.name.clone()))
                .collect();
            Ok(Relation {
                cols,
                rows: table.rows.iter().collect(),
            })
        }
        TableRef::Derived { query, alias } => {
            let rs = execute_query(env, query, None)?;
            let cols = rs
                .columns
                .iter()
                .map(|c| ColMeta::new(Some(alias.clone()), c.clone()))
                .collect();
            Ok(Relation {
                cols,
                rows: rs.rows,
            })
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = resolve_from(env, left, outer)?;
            let r = resolve_from(env, right, outer)?;
            join(env, outer, l, r, *kind, on.as_ref())
        }
    }
}

/// Nested-loop join in left-major order; `on` is evaluated per row pair,
/// so its errors surface exactly where the interpreter raises them.
pub(crate) fn join(
    env: &EvalEnv<'_>,
    outer: Option<&Scope<'_>>,
    l: Relation,
    r: Relation,
    kind: JoinKind,
    on: Option<&Expr>,
) -> EngineResult<Relation> {
    let mut cols = l.cols.clone();
    cols.extend(r.cols.iter().cloned());
    let mut out = Relation::new(cols);

    match kind {
        JoinKind::Cross => {
            for lrow in &l.rows {
                for rrow in &r.rows {
                    let mut combined = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    out.rows.push(combined);
                }
            }
        }
        JoinKind::Inner | JoinKind::Left => {
            let pred = on.ok_or_else(|| EngineError::typing("JOIN requires an ON condition"))?;
            for lrow in &l.rows {
                let mut matched = false;
                for rrow in &r.rows {
                    let mut combined = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    let scope = Scope {
                        cols: &out.cols,
                        row: &combined,
                        parent: outer,
                        group: None,
                        windows: None,
                        aggs: None,
                        unit_index: 0,
                    };
                    if eval_expr(pred, &scope, env)?.as_bool()? == Some(true) {
                        matched = true;
                        out.rows.push(combined);
                    }
                }
                if kind == JoinKind::Left && !matched {
                    let mut combined = lrow.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, r.cols.len()));
                    out.rows.push(combined);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::exec::CteMap;
    use crate::parser::parse_expression;
    use std::cell::Cell;

    #[test]
    fn a_predicate_that_raises_on_row_0_pulls_one_row() {
        let (db, ctes) = (Database::new("test"), CteMap::new());
        let env = EvalEnv::new(&db, &ctes);
        let cols = [ColMeta::new(Some("t".into()), "x")];
        let pulled = Cell::new(0usize);
        let rows = || {
            (0..10_000i64).map(|i| {
                pulled.set(pulled.get() + 1);
                vec![Value::Integer(i)]
            })
        };
        let pred = parse_expression("x_adj = 1").unwrap();
        let err = filter_rows(&env, &cols, rows(), &pred, None).unwrap_err();
        assert!(err.to_string().contains("x_adj"), "{err}");
        assert_eq!(pulled.get(), 1);
        // A predicate that holds reads every row, in order.
        pulled.set(0);
        let pred = parse_expression("x % 2500 = 0").unwrap();
        let kept = filter_rows(&env, &cols, rows(), &pred, None).unwrap();
        assert_eq!(kept, vec![0, 2500, 5000, 7500]);
        assert_eq!(pulled.get(), 10_000);
    }
}
