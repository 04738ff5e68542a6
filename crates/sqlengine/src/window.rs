//! Projection units and window-function computation, shared by the
//! vectorized planner and the row-at-a-time reference interpreter.
//!
//! A [`Unit`] is one projection unit — a plain row, or a group of rows
//! under aggregation. Window values are computed per unit with typed
//! partition keys ([`KeyElem`] tuples), so partition-by values containing
//! literal `|` characters can never alias one another.

use crate::aggregate::Accumulator;
use crate::ast::{Expr, Literal};
use crate::error::{EngineError, EngineResult};
use crate::eval::{
    eval_expr, AggValues, ColMeta, EvalEnv, GroupView, Relation, Scope, WindowValues,
};
use crate::exec::cmp_order_keys;
use crate::functions;
use crate::key::{key_elem, KeyElem};
use crate::value::Value;
use std::collections::HashMap;

/// One projection unit: a plain row or a group of rows.
pub(crate) struct Unit {
    /// Representative row index (first member), `usize::MAX` for an empty
    /// implicit group.
    pub rep: usize,
    /// Member row indices.
    pub members: Vec<usize>,
}

pub(crate) static EMPTY_ROW: &[Value] = &[];

/// Build the evaluation scope for one unit.
pub(crate) fn unit_scope<'a>(
    rel: &'a Relation,
    unit: &'a Unit,
    outer: Option<&'a Scope<'a>>,
    windows: Option<&'a WindowValues<'a>>,
    aggs: Option<&'a AggValues<'a>>,
    unit_index: usize,
    aggregated: bool,
) -> Scope<'a> {
    let row: &[Value] = if unit.rep == usize::MAX {
        EMPTY_ROW
    } else {
        &rel.rows[unit.rep]
    };
    let cols: &[ColMeta] = if unit.rep == usize::MAX {
        &[]
    } else {
        &rel.cols
    };
    Scope {
        cols,
        row,
        parent: outer,
        group: if aggregated {
            Some(GroupView {
                rel,
                indices: &unit.members,
            })
        } else {
            None
        },
        windows,
        aggs,
        unit_index,
    }
}

/// Compute every distinct window expression's per-unit values.
pub(crate) fn compute_windows<'q>(
    rel: &Relation,
    units: &[Unit],
    window_exprs: &[&'q Expr],
    outer: Option<&Scope<'_>>,
    env: &EvalEnv<'_>,
    aggregated: bool,
) -> EngineResult<WindowValues<'q>> {
    let mut out = WindowValues::new();
    for &wexpr in window_exprs {
        let key = wexpr.to_string();
        if out.share(wexpr, &key) {
            continue;
        }
        let Expr::Function(call) = wexpr else {
            continue; // collect_window_calls only returns functions
        };
        let Some(spec) = call.over.as_ref() else {
            continue; // and only ones carrying an OVER clause
        };

        // Evaluate partition and order expressions per unit.
        let mut partition_keys: Vec<Vec<KeyElem>> = Vec::with_capacity(units.len());
        let mut order_keys: Vec<Vec<Value>> = Vec::with_capacity(units.len());
        for (ui, unit) in units.iter().enumerate() {
            let scope = unit_scope(rel, unit, outer, None, None, ui, aggregated);
            let mut pk = Vec::with_capacity(spec.partition_by.len());
            for e in &spec.partition_by {
                pk.push(key_elem(&eval_expr(e, &scope, env)?));
            }
            partition_keys.push(pk);
            let mut ok = Vec::with_capacity(spec.order_by.len());
            for o in &spec.order_by {
                ok.push(eval_expr(&o.expr, &scope, env)?);
            }
            order_keys.push(ok);
        }

        // Partition units by typed key.
        let mut partitions: HashMap<Vec<KeyElem>, Vec<usize>> = HashMap::new();
        for (ui, pk) in partition_keys.into_iter().enumerate() {
            partitions.entry(pk).or_default().push(ui);
        }

        let mut values: Vec<Value> = vec![Value::Null; units.len()];
        for indices in partitions.values() {
            let mut sorted = indices.clone();
            sorted.sort_by(|&a, &b| {
                cmp_order_keys(&spec.order_by, |k| (&order_keys[a][k], &order_keys[b][k]))
                    .then(a.cmp(&b))
            });

            let name = call.name.to_ascii_uppercase();
            match name.as_str() {
                "ROW_NUMBER" => {
                    for (pos, &ui) in sorted.iter().enumerate() {
                        values[ui] = Value::Integer(pos as i64 + 1);
                    }
                }
                "RANK" | "DENSE_RANK" => {
                    let mut rank = 0i64;
                    let mut dense = 0i64;
                    let mut prev: Option<&Vec<Value>> = None;
                    for (pos, &ui) in sorted.iter().enumerate() {
                        let tied = prev
                            .map(|p| {
                                p.len() == order_keys[ui].len()
                                    && p.iter()
                                        .zip(&order_keys[ui])
                                        .all(|(a, b)| a.total_cmp(b) == std::cmp::Ordering::Equal)
                            })
                            .unwrap_or(false);
                        if !tied {
                            rank = pos as i64 + 1;
                            dense += 1;
                        }
                        values[ui] = Value::Integer(if name == "RANK" { rank } else { dense });
                        prev = Some(&order_keys[ui]);
                    }
                }
                "NTILE" => {
                    let k = match call.args.first() {
                        Some(Expr::Literal(Literal::Integer(n))) if *n > 0 => *n as usize,
                        _ => {
                            return Err(EngineError::typing(
                                "NTILE requires a positive integer literal argument",
                            ))
                        }
                    };
                    let n = sorted.len();
                    for (pos, &ui) in sorted.iter().enumerate() {
                        // Standard NTILE distribution: earlier buckets get
                        // the remainder.
                        let bucket = (pos * k) / n.max(1);
                        values[ui] = Value::Integer(bucket as i64 + 1);
                    }
                }
                "LAG" | "LEAD" => {
                    // LAG/LEAD(expr [, offset [, default]]) within the
                    // partition's sort order.
                    if call.args.is_empty() || call.args.len() > 3 {
                        return Err(EngineError::typing(format!(
                            "{name} expects 1 to 3 arguments"
                        )));
                    }
                    let offset = match call.args.get(1) {
                        None => 1i64,
                        Some(Expr::Literal(Literal::Integer(n))) if *n >= 0 => *n,
                        _ => {
                            return Err(EngineError::typing(format!(
                                "{name} offset must be a non-negative integer literal"
                            )))
                        }
                    };
                    // Evaluate the carried expression for each unit first.
                    let mut carried = Vec::with_capacity(sorted.len());
                    for &ui in &sorted {
                        let scope = unit_scope(rel, &units[ui], outer, None, None, ui, aggregated);
                        carried.push(eval_expr(&call.args[0], &scope, env)?);
                    }
                    for (pos, &ui) in sorted.iter().enumerate() {
                        let source = if name == "LAG" {
                            pos.checked_sub(offset as usize)
                        } else {
                            pos.checked_add(offset as usize)
                                .filter(|p| *p < sorted.len())
                        };
                        values[ui] = match source {
                            Some(p) => carried[p].clone(),
                            None => match call.args.get(2) {
                                Some(default) => {
                                    let scope = unit_scope(
                                        rel, &units[ui], outer, None, None, ui, aggregated,
                                    );
                                    eval_expr(default, &scope, env)?
                                }
                                None => Value::Null,
                            },
                        };
                    }
                }
                "FIRST_VALUE" | "LAST_VALUE" => {
                    if call.args.len() != 1 {
                        return Err(EngineError::typing(format!(
                            "{name} expects exactly one argument"
                        )));
                    }
                    // Whole-partition frame (no frame clauses), so
                    // LAST_VALUE sees the true partition end.
                    let pick = if name == "FIRST_VALUE" {
                        sorted.first()
                    } else {
                        sorted.last()
                    };
                    if let Some(&src) = pick {
                        let scope =
                            unit_scope(rel, &units[src], outer, None, None, src, aggregated);
                        let v = eval_expr(&call.args[0], &scope, env)?;
                        for &ui in &sorted {
                            values[ui] = v.clone();
                        }
                    }
                }
                agg if functions::is_aggregate(agg) => {
                    // Aggregate over the whole partition (no frames).
                    let mut acc = Accumulator::for_function(agg, call.distinct, call.star)?;
                    for &ui in &sorted {
                        if call.star {
                            acc.update(&Value::Integer(1))?;
                        } else {
                            if call.args.len() != 1 {
                                return Err(EngineError::typing(format!(
                                    "window aggregate {agg} expects one argument"
                                )));
                            }
                            let scope =
                                unit_scope(rel, &units[ui], outer, None, None, ui, aggregated);
                            let v = eval_expr(&call.args[0], &scope, env)?;
                            acc.update(&v)?;
                        }
                    }
                    let v = acc.finish();
                    for &ui in &sorted {
                        values[ui] = v.clone();
                    }
                }
                other => {
                    return Err(EngineError::binding(format!(
                        "unknown window function {other}"
                    )))
                }
            }
        }
        out.insert(wexpr, key, values);
    }
    Ok(out)
}
