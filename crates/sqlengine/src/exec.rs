//! Query execution: entry points, set operations, and the vectorized
//! columnar planner.
//!
//! Two engines share one semantic contract. [`execute_sql`] runs the
//! vectorized engine, a two-tier planner: a SELECT body finishes
//! *columnar* when everything in it lowers to batch operators — FROM
//! into [`DataChunk`] batches (hash joins for equi-joins), WHERE into a
//! selection vector, then `try_pure_path` or `try_fast_agg` — and
//! otherwise runs the *reference* interpreter's own tail
//! (`reference::finish_rows`) on the vectorized FROM/WHERE output. Every
//! fallback is a call into `reference`, never a copy of it, so results,
//! fingerprints and error behavior stay identical to
//! [`execute_sql_reference`], which runs that interpreter end to end.
//! CTEs are materialized once in definition order and visible to later
//! CTEs and the main body, matching the CTE-normal-form queries GenEdit
//! generates (§3.1.2).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::aggregate::Accumulator;
use crate::array::{Array, DataChunk};
use crate::ast::*;
use crate::catalog::Database;
use crate::error::{EngineError, EngineResult};
use crate::eval::{
    collect_aggregate_calls, collect_unconditional_aggregates, eval_expr, AggValues, ColMeta,
    Engine, EvalEnv, Relation, Scope, SelectShape, WindowValues,
};
use crate::key::{key_ref, row_key, KeyElem, KeyRef};
use crate::parser::parse_statement;
use crate::physical::{self, SqlCounters};
use crate::reference;
use crate::result::ResultSet;
use crate::value::Value;
use crate::vector::{self, Sel};
use crate::window::{unit_scope, Unit};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// CTE name → materialized result, keyed by lowercase name.
pub type CteMap = HashMap<String, Arc<ResultSet>>;

/// Parse and execute a SQL string on the reference row-at-a-time
/// interpreter, subqueries and CTEs included.
pub fn execute_sql_reference(db: &Database, sql: &str) -> EngineResult<ResultSet> {
    execute_on(db, &parse_statement(sql)?, Engine::Reference)
}

/// Parse and execute a SQL string against a database.
pub fn execute_sql(db: &Database, sql: &str) -> EngineResult<ResultSet> {
    execute(db, &parse_statement(sql)?)
}

/// Timing and output-size observations from one [`execute_sql_timed`]
/// call. `rows`/`columns` are zero when the statement failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Time spent parsing the statement.
    pub parse: std::time::Duration,
    /// Time spent executing it (zero when parsing failed).
    pub execute: std::time::Duration,
    /// Rows in the result set.
    pub rows: usize,
    /// Columns in the result set.
    pub columns: usize,
    /// Counters of the columnar operators only; zero on the reference
    /// engine and in the reference tail.
    pub counters: SqlCounters,
}

impl ExecStats {
    /// Record into a metrics registry as `sql.<stage>.parse_ms` /
    /// `.execute_ms` histograms, a `sql.<stage>.rows` histogram, and the
    /// columnar counters (`.batches`, `.rows_scanned`,
    /// `.join_build_ms` / `.join_probe_ms`).
    pub fn record(&self, metrics: &genedit_telemetry::MetricsRegistry, stage: &str) {
        metrics.observe_duration(&format!("sql.{stage}.parse_ms"), self.parse);
        metrics.observe_duration(&format!("sql.{stage}.execute_ms"), self.execute);
        metrics.observe(&format!("sql.{stage}.rows"), self.rows as f64);
        metrics.observe(
            &format!("sql.{stage}.batches"),
            self.counters.batches as f64,
        );
        metrics.observe(
            &format!("sql.{stage}.rows_scanned"),
            self.counters.rows_scanned as f64,
        );
        metrics.observe(
            &format!("sql.{stage}.join_build_ms"),
            self.counters.join_build_ns as f64 / 1e6,
        );
        metrics.observe(
            &format!("sql.{stage}.join_probe_ms"),
            self.counters.join_probe_ns as f64 / 1e6,
        );
    }
}

/// Like [`execute_sql`], also reporting parse/execute timings and result
/// size — the telemetry view of the execution-guided validation loop.
pub fn execute_sql_timed(db: &Database, sql: &str) -> (EngineResult<ResultSet>, ExecStats) {
    let mut stats = ExecStats::default();
    let t = std::time::Instant::now();
    let stmt = match parse_statement(sql) {
        Ok(stmt) => {
            stats.parse = t.elapsed();
            stmt
        }
        Err(e) => {
            stats.parse = t.elapsed();
            return (Err(e), stats);
        }
    };
    physical::take_counters(); // reset, so stats cover only this call
    let t = std::time::Instant::now();
    let result = execute(db, &stmt);
    stats.execute = t.elapsed();
    stats.counters = physical::take_counters();
    if let Ok(rs) = &result {
        stats.rows = rs.row_count();
        stats.columns = rs.columns.len();
    }
    (result, stats)
}

/// Execute a parsed statement.
pub fn execute(db: &Database, stmt: &Statement) -> EngineResult<ResultSet> {
    execute_on(db, stmt, Engine::Vectorized)
}

fn execute_on(db: &Database, stmt: &Statement, engine: Engine) -> EngineResult<ResultSet> {
    let ctes = CteMap::new();
    let env = EvalEnv {
        db,
        ctes: &ctes,
        engine,
    };
    match stmt {
        Statement::Query(q) => execute_query(&env, q, None),
    }
}

/// Execute a query on `env`'s engine under its inherited CTEs,
/// optionally with an outer row scope for correlated subqueries.
pub(crate) fn execute_query(
    env: &EvalEnv<'_>,
    query: &Query,
    outer: Option<&Scope<'_>>,
) -> EngineResult<ResultSet> {
    let mut ctes = env.ctes.clone();
    for cte in &query.ctes {
        // CTEs see previously defined CTEs but not the outer row scope.
        let scoped = EvalEnv {
            ctes: &ctes,
            ..*env
        };
        let result = execute_query(&scoped, &cte.query, None)?;
        ctes.insert(cte.name.to_lowercase(), Arc::new(result));
    }
    let env = &EvalEnv {
        ctes: &ctes,
        ..*env
    };

    match &query.body {
        SetExpr::Select(select) => exec_select(env, select, outer, &query.order_by, query.limit),
        SetExpr::SetOp { .. } => {
            let mut rs = exec_set_expr(env, &query.body, outer)?;
            sort_result_by_output(&mut rs, &query.order_by)?;
            if let Some(n) = query.limit {
                rs.rows.truncate(n as usize);
            }
            Ok(rs)
        }
    }
}

/// Run one SELECT body on the engine its query was entered on.
fn exec_select(
    env: &EvalEnv<'_>,
    select: &Select,
    outer: Option<&Scope<'_>>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> EngineResult<ResultSet> {
    match env.engine {
        Engine::Vectorized => exec_select_vectorized(env, select, outer, order_by, limit),
        Engine::Reference => reference::exec_select(env, select, outer, order_by, limit),
    }
}

fn exec_set_expr(
    env: &EvalEnv<'_>,
    body: &SetExpr,
    outer: Option<&Scope<'_>>,
) -> EngineResult<ResultSet> {
    match body {
        SetExpr::Select(select) => exec_select(env, select, outer, &[], None),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = exec_set_expr(env, left, outer)?;
            let r = exec_set_expr(env, right, outer)?;
            if l.columns.len() != r.columns.len() {
                return Err(EngineError::typing(format!(
                    "set operation arity mismatch: {} vs {} columns",
                    l.columns.len(),
                    r.columns.len()
                )));
            }
            let mut out = ResultSet::new(l.columns.clone());
            match (op, all) {
                (SetOp::Union, true) => {
                    out.rows = l.rows;
                    out.rows.extend(r.rows);
                }
                (SetOp::Union, false) => {
                    let mut seen: std::collections::HashSet<Vec<KeyElem>> =
                        std::collections::HashSet::new();
                    for row in l.rows.into_iter().chain(r.rows) {
                        if seen.insert(row_key(&row)) {
                            out.rows.push(row);
                        }
                    }
                }
                (SetOp::Intersect, all) => {
                    let mut right_counts: HashMap<Vec<KeyElem>, usize> = HashMap::new();
                    for row in &r.rows {
                        *right_counts.entry(row_key(row)).or_insert(0) += 1;
                    }
                    let mut emitted: HashMap<Vec<KeyElem>, usize> = HashMap::new();
                    for row in l.rows {
                        let k = row_key(&row);
                        let avail = right_counts.get(&k).copied().unwrap_or(0);
                        let used = emitted.entry(k).or_insert(0);
                        let cap = if *all { avail } else { avail.min(1) };
                        if *used < cap {
                            *used += 1;
                            out.rows.push(row);
                        }
                    }
                }
                (SetOp::Except, all) => {
                    let mut right_counts: HashMap<Vec<KeyElem>, usize> = HashMap::new();
                    for row in &r.rows {
                        *right_counts.entry(row_key(row)).or_insert(0) += 1;
                    }
                    let mut emitted: HashMap<Vec<KeyElem>, usize> = HashMap::new();
                    for row in l.rows {
                        let k = row_key(&row);
                        let blocked = right_counts.get(&k).copied().unwrap_or(0);
                        let count = emitted.entry(k).or_insert(0);
                        *count += 1;
                        let keep = if *all {
                            *count > blocked
                        } else {
                            blocked == 0 && *count == 1
                        };
                        if keep {
                            out.rows.push(row);
                        }
                    }
                }
            }
            Ok(out)
        }
    }
}

// ----------------------------------------------------------------------
// Vectorized SELECT
// ----------------------------------------------------------------------

fn exec_select_vectorized(
    env: &EvalEnv<'_>,
    select: &Select,
    outer: Option<&Scope<'_>>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> EngineResult<ResultSet> {
    // FROM → columnar source.
    let source = match &select.from {
        Some(tr) => physical::resolve_from_columnar(env, tr, outer)?,
        None => physical::Source {
            cols: Vec::new(),
            chunk: DataChunk::unit(),
        },
    };
    let physical::Source { cols, chunk } = source;

    // WHERE → surviving row indices (`None` = keep everything). The
    // gather is deferred so the pure path can project straight off the
    // source columns under a selection vector. Batch evaluation when the
    // predicate lowers; otherwise the reference row loop reproduces
    // per-row errors exactly.
    let keep: Option<Vec<u32>> = match &select.selection {
        None => None,
        Some(pred) => match vector::bind(pred, &cols, outer) {
            Some(v) => Some(vector::select(&v, &chunk, Sel::All)?),
            None => {
                let rows = (0..chunk.len()).map(|i| chunk.row(i));
                let kept = reference::filter_rows(env, &cols, rows, pred, outer)?;
                Some(kept.into_iter().map(|i| i as u32).collect())
            }
        },
    };

    let shape = SelectShape::of(select, order_by);

    // Fully columnar path: no grouping, no windows, every projected and
    // ordering expression lowers to a batch expression.
    if !shape.aggregated && shape.windows.is_empty() {
        if let Some(rs) = try_pure_path(
            select,
            &cols,
            &chunk,
            keep.as_deref(),
            outer,
            order_by,
            limit,
        )? {
            return Ok(rs);
        }
    }

    let filtered = match &keep {
        Some(k) => chunk.take(k),
        None => chunk,
    };

    // Fast aggregated path: group keys and every aggregate call lower,
    // so only representative rows ever need materializing.
    if shape.aggregated && shape.windows.is_empty() && select.having.is_none() {
        if let Some(rs) = try_fast_agg(select, &cols, &filtered, outer, env, order_by, limit)? {
            return Ok(rs);
        }
    }

    // Not columnar: the reference interpreter's own tail takes over from
    // the filtered rows.
    physical::with_counters(|c| c.interpreter_fallbacks += 1);
    let rel = Relation {
        cols,
        rows: filtered.into_rows(),
    };
    let kept = (0..rel.rows.len()).collect();
    reference::finish_rows(env, select, &rel, kept, &shape, outer, order_by, limit)
}

/// The group `key` belongs to, opened with `row` as its representative
/// if this is its first occurrence.
fn group_of<K: Hash + Eq>(
    index: &mut HashMap<K, u32>,
    reps: &mut Vec<u32>,
    key: K,
    row: usize,
) -> u32 {
    *index.entry(key).or_insert_with(|| {
        reps.push(row as u32);
        reps.len() as u32 - 1
    })
}

/// Group the chunk's rows by the batch-evaluated GROUP BY keys. Returns
/// each group's representative (first) row in first-occurrence order —
/// the interpreter's unit order — and the per-row group id (`gids[i]` =
/// index into the representatives of row `i`'s group), or `Ok(None)`
/// when some group expression does not lower.
fn vectorized_groups(
    group_by: &[Expr],
    cols: &[ColMeta],
    chunk: &DataChunk,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Option<(Vec<u32>, Vec<u32>)>> {
    let bound: Option<Vec<vector::VExpr>> = group_by
        .iter()
        .map(|g| vector::bind(g, cols, outer))
        .collect();
    let Some(vs) = bound else {
        return Ok(None);
    };
    let mut arrays: Vec<Arc<Array>> = Vec::with_capacity(vs.len());
    for v in &vs {
        arrays.push(vector::eval(v, chunk, Sel::All)?);
    }
    let mut reps: Vec<u32> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(chunk.len());
    if let [a] = arrays.as_slice() {
        // Single-key grouping probes with borrowed keys: no allocation
        // per row at all.
        let mut index: HashMap<KeyRef<'_>, u32> = HashMap::new();
        // A dictionary key with fewer entries than rows probes once per
        // code. Codes resolve at their first row, so group order is still
        // first occurrence, and entries with equal values share a group.
        let dict = a.per_entry(chunk.len());
        let mut by_code = vec![u32::MAX; dict.map_or(0, |(_, values)| values.len())];
        for i in 0..chunk.len() {
            let gid = match dict {
                Some((codes, values)) => {
                    let code = codes[i] as usize;
                    if by_code[code] == u32::MAX {
                        by_code[code] =
                            group_of(&mut index, &mut reps, key_ref(values.at(code)), i);
                    }
                    by_code[code]
                }
                None => group_of(&mut index, &mut reps, key_ref(a.at(i)), i),
            };
            gids.push(gid);
        }
        return Ok(Some((reps, gids)));
    }
    let mut index: HashMap<Vec<KeyRef<'_>>, u32> = HashMap::new();
    for i in 0..chunk.len() {
        let key: Vec<KeyRef<'_>> = arrays.iter().map(|a| key_ref(a.at(i))).collect();
        gids.push(group_of(&mut index, &mut reps, key, i));
    }
    Ok(Some((reps, gids)))
}

/// Pre-compute aggregate values for the fast aggregated path by a
/// single scan over the chunk, routing each row to its group's
/// accumulator via `gids`. Per-group accumulation sequences are
/// identical to the interpreter's (each group sees its members in
/// ascending row order), so order-sensitive state — float summation,
/// DISTINCT insertion, overflow — matches exactly. Caller guarantees
/// every call is COUNT(*) or a one-argument call whose argument lowers.
fn precompute_aggregates_by_gid<'q>(
    calls: &[&'q Expr],
    cols: &[ColMeta],
    chunk: &DataChunk,
    n_groups: usize,
    gids: &[u32],
    outer: Option<&Scope<'_>>,
) -> EngineResult<AggValues<'q>> {
    let mut out = AggValues::new();
    for &wexpr in calls {
        let key = wexpr.to_string();
        if out.share(wexpr, &key) {
            continue;
        }
        let Expr::Function(call) = wexpr else {
            continue;
        };
        let mut accs: Vec<Accumulator> = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            accs.push(Accumulator::for_function(
                &call.name,
                call.distinct,
                call.star,
            )?);
        }
        if call.star {
            for &g in gids {
                accs[g as usize].update(&Value::Integer(1))?;
            }
        } else {
            let Some(v) = vector::bind(&call.args[0], cols, outer) else {
                continue;
            };
            let arr = vector::eval(&v, chunk, Sel::All)?;
            for (i, &g) in gids.iter().enumerate() {
                accs[g as usize].update(&arr.get(i))?;
            }
        }
        out.insert(
            wexpr,
            key,
            accs.into_iter().map(Accumulator::finish).collect(),
        );
    }
    Ok(out)
}

/// The fast aggregated path: when the GROUP BY keys lower to batch
/// expressions and every aggregate call is unconditional and
/// batch-precomputable, the unit pipeline only ever reads representative
/// rows — every aggregate resolves from the pre-computed `AggValues`
/// before [`eval_expr`] would touch group members. So instead of
/// materializing the whole filtered batch row-major, gather just the
/// representatives (one row per group) and run [`finish_select`] on
/// that. Returns `Ok(None)` when a precondition fails, deferring to the
/// reference tail. Caller guarantees: aggregated, no window calls, no
/// HAVING.
fn try_fast_agg(
    select: &Select,
    cols: &[ColMeta],
    chunk: &DataChunk,
    outer: Option<&Scope<'_>>,
    env: &EvalEnv<'_>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> EngineResult<Option<ResultSet>> {
    // Every aggregate call must be unconditional — conditionally
    // evaluated calls (CASE branches, short-circuited operands) keep the
    // interpreter's lazy accumulator path, which needs full group
    // members. `uncond` is a sub-multiset of `all` by construction, so
    // equal lengths mean the sets coincide.
    let mut all_calls: Vec<&Expr> = Vec::new();
    let mut uncond: Vec<&Expr> = Vec::new();
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggregate_calls(expr, &mut all_calls);
            collect_unconditional_aggregates(expr, &mut uncond);
        }
    }
    for o in order_by {
        collect_aggregate_calls(&o.expr, &mut all_calls);
        collect_unconditional_aggregates(&o.expr, &mut uncond);
    }
    if all_calls.len() != uncond.len() {
        return Ok(None);
    }
    // Each call must be one precompute_aggregates handles: COUNT(*), or
    // exactly one argument that lowers to a batch expression.
    for call_expr in &all_calls {
        let Expr::Function(call) = *call_expr else {
            return Ok(None);
        };
        if call.star {
            continue;
        }
        if call.args.len() != 1 || vector::bind(&call.args[0], cols, outer).is_none() {
            return Ok(None);
        }
    }

    let (reps, gids) = if select.group_by.is_empty() {
        // One implicit group over every surviving row.
        let reps = if chunk.is_empty() { vec![] } else { vec![0] };
        (reps, vec![0u32; chunk.len()])
    } else {
        match vectorized_groups(&select.group_by, cols, chunk, outer)? {
            Some(rg) => rg,
            None => return Ok(None),
        }
    };
    // Representative rows only: unit `g` is row `g` of the slim relation,
    // so `unit_index` matches the pre-computed aggregate slots.
    let mut units: Vec<Unit> = (0..reps.len())
        .map(|g| Unit {
            rep: g,
            members: vec![g],
        })
        .collect();
    if units.is_empty() && select.group_by.is_empty() {
        // The implicit group over no rows still projects one (empty-group)
        // row, as in the interpreter.
        units.push(Unit {
            rep: usize::MAX,
            members: Vec::new(),
        });
    }

    let aggs = precompute_aggregates_by_gid(&all_calls, cols, chunk, units.len(), &gids, outer)?;
    // Safety net: if any call still missed the pre-computed map, the
    // accumulator path would aggregate over a representative-only group
    // and silently produce wrong values — fall back instead. (The
    // eligibility checks above make this unreachable.)
    if all_calls.iter().any(|c| aggs.get(c).is_none()) {
        return Ok(None);
    }
    if !select.group_by.is_empty() {
        physical::with_counters(|c| c.agg_groups += units.len() as u64);
    }

    let rel = Relation {
        cols: cols.to_vec(),
        rows: chunk.take(&reps).into_rows(),
    };
    let windows = WindowValues::new();
    finish_select(
        select,
        &rel,
        &units,
        &windows,
        Some(&aggs),
        outer,
        env,
        order_by,
        limit,
        true,
    )
    .map(Some)
}

/// The fully columnar SELECT path: project column batches, then order /
/// dedup / limit by index. Returns `Ok(None)` when some expression does
/// not lower, sending the query to the reference tail instead.
fn try_pure_path(
    select: &Select,
    cols_meta: &[ColMeta],
    chunk: &DataChunk,
    keep: Option<&[u32]>,
    outer: Option<&Scope<'_>>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> EngineResult<Option<ResultSet>> {
    // `keep` is the WHERE survivor selection over `chunk` (None = all
    // rows). Projecting through it gathers only the columns the query
    // actually touches.
    let n = keep.map_or(chunk.len(), <[u32]>::len);
    let sel = keep.map_or(Sel::All, Sel::Idx);
    let source_col = |ci: usize| match keep {
        None => Arc::clone(&chunk.cols[ci]),
        Some(k) => Arc::new(chunk.cols[ci].gather(k)),
    };
    let mut out_cols: Vec<String> = Vec::new();
    let mut arrays: Vec<Arc<Array>> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for (ci, c) in cols_meta.iter().enumerate() {
                    out_cols.push(c.name.clone());
                    arrays.push(source_col(ci));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let mut any = false;
                for (ci, c) in cols_meta.iter().enumerate() {
                    if c.qualifier
                        .as_deref()
                        .map(|cq| cq.eq_ignore_ascii_case(q))
                        .unwrap_or(false)
                    {
                        any = true;
                        out_cols.push(c.name.clone());
                        arrays.push(source_col(ci));
                    }
                }
                // The interpreter only raises this when projecting a row.
                if !any && n > 0 {
                    return Err(EngineError::binding(format!("no such table alias {q}")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let Some(v) = vector::bind(expr, cols_meta, outer) else {
                    return Ok(None);
                };
                out_cols.push(output_name(expr, alias.as_deref()));
                arrays.push(vector::eval(&v, chunk, sel)?);
            }
        }
    }

    // ORDER BY keys, aligned with output row positions.
    let mut order: Vec<usize> = (0..n).collect();
    if !order_by.is_empty() {
        let mut keys: Vec<Vec<Value>> = vec![Vec::new(); n];
        for item in order_by {
            match order_key_source(item, &out_cols)? {
                OrderSource::OutputColumn(ci) => {
                    for (ri, key) in keys.iter_mut().enumerate() {
                        key.push(arrays[ci].get(ri));
                    }
                }
                OrderSource::Expression => {
                    if select.distinct {
                        return Err(EngineError::typing(
                            "ORDER BY expression must appear in SELECT DISTINCT output",
                        ));
                    }
                    let Some(v) = vector::bind(&item.expr, cols_meta, outer) else {
                        return Ok(None);
                    };
                    let arr = vector::eval(&v, chunk, sel)?;
                    for (ri, key) in keys.iter_mut().enumerate() {
                        key.push(arr.get(ri));
                    }
                }
            }
        }
        order.sort_by(|&a, &b| {
            cmp_order_keys(order_by, |k| (&keys[a][k], &keys[b][k])).then(a.cmp(&b))
        });
    }

    // DISTINCT (after ORDER BY keeps the first occurrence in sort order).
    let mut final_idx: Vec<u32> = Vec::with_capacity(order.len());
    if select.distinct {
        let mut seen: std::collections::HashSet<Vec<KeyRef<'_>>> = std::collections::HashSet::new();
        for &ri in &order {
            let k: Vec<KeyRef<'_>> = arrays.iter().map(|a| key_ref(a.at(ri))).collect();
            if seen.insert(k) {
                final_idx.push(ri as u32);
            }
        }
    } else {
        final_idx.extend(order.iter().map(|&i| i as u32));
    }
    if let Some(cap) = limit {
        final_idx.truncate(cap as usize);
    }

    let identity =
        final_idx.len() == n && final_idx.iter().enumerate().all(|(i, &v)| v == i as u32);
    let out_chunk = if identity {
        DataChunk::new(arrays, n)
    } else {
        let gathered = arrays
            .iter()
            .map(|a| Arc::new(a.gather(&final_idx)))
            .collect();
        DataChunk::new(gathered, final_idx.len())
    };
    Ok(Some(ResultSet::from_chunk(out_cols, out_chunk)))
}

// ----------------------------------------------------------------------
// Shared SELECT finishing: projection, ORDER BY, DISTINCT, LIMIT
// ----------------------------------------------------------------------

/// Project units and apply ORDER BY / DISTINCT / LIMIT. Shared verbatim
/// by the reference interpreter's tail (`aggs: None`) and the fast
/// aggregated path (`aggs` carrying pre-computed per-unit aggregate
/// values).
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_select(
    select: &Select,
    rel: &Relation,
    units: &[Unit],
    windows: &WindowValues,
    aggs: Option<&AggValues>,
    outer: Option<&Scope<'_>>,
    env: &EvalEnv<'_>,
    order_by: &[OrderItem],
    limit: Option<u64>,
    aggregated: bool,
) -> EngineResult<ResultSet> {
    // Projection.
    let mut out_cols: Vec<String> = Vec::new();
    let mut out_rows: Vec<Vec<Value>> = Vec::with_capacity(units.len());
    let mut first = true;
    for (ui, unit) in units.iter().enumerate() {
        let scope = unit_scope(rel, unit, outer, Some(windows), aggs, ui, aggregated);
        let mut row: Vec<Value> = Vec::with_capacity(select.items.len());
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    if aggregated {
                        return Err(EngineError::typing(
                            "SELECT * is not allowed with GROUP BY / aggregates",
                        ));
                    }
                    if first {
                        out_cols.extend(rel.cols.iter().map(|c| c.name.clone()));
                    }
                    row.extend(rel.rows[unit.rep].iter().cloned());
                }
                SelectItem::QualifiedWildcard(q) => {
                    if aggregated {
                        return Err(EngineError::typing(
                            "qualified * is not allowed with GROUP BY / aggregates",
                        ));
                    }
                    let mut any = false;
                    for (ci, col) in rel.cols.iter().enumerate() {
                        if col
                            .qualifier
                            .as_deref()
                            .map(|cq| cq.eq_ignore_ascii_case(q))
                            .unwrap_or(false)
                        {
                            any = true;
                            if first {
                                out_cols.push(col.name.clone());
                            }
                            row.push(rel.rows[unit.rep][ci].clone());
                        }
                    }
                    if !any {
                        return Err(EngineError::binding(format!("no such table alias {q}")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if first {
                        out_cols.push(output_name(expr, alias.as_deref()));
                    }
                    row.push(eval_expr(expr, &scope, env)?);
                }
            }
        }
        out_rows.push(row);
        first = false;
    }
    if units.is_empty() {
        // Still need output column names for empty results.
        for item in &select.items {
            match item {
                SelectItem::Wildcard => out_cols.extend(rel.cols.iter().map(|c| c.name.clone())),
                SelectItem::QualifiedWildcard(q) => {
                    for col in &rel.cols {
                        if col
                            .qualifier
                            .as_deref()
                            .map(|cq| cq.eq_ignore_ascii_case(q))
                            .unwrap_or(false)
                        {
                            out_cols.push(col.name.clone());
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    out_cols.push(output_name(expr, alias.as_deref()))
                }
            }
        }
    }

    // ORDER BY: compute sort keys aligned with projected rows.
    if !order_by.is_empty() {
        let mut keys: Vec<Vec<Value>> = vec![Vec::new(); out_rows.len()];
        for item in order_by {
            match order_key_source(item, &out_cols)? {
                OrderSource::OutputColumn(ci) => {
                    for (ri, row) in out_rows.iter().enumerate() {
                        keys[ri].push(row[ci].clone());
                    }
                }
                OrderSource::Expression => {
                    if select.distinct {
                        return Err(EngineError::typing(
                            "ORDER BY expression must appear in SELECT DISTINCT output",
                        ));
                    }
                    for (ui, unit) in units.iter().enumerate() {
                        let scope =
                            unit_scope(rel, unit, outer, Some(windows), aggs, ui, aggregated);
                        keys[ui].push(eval_expr(&item.expr, &scope, env)?);
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..out_rows.len()).collect();
        order.sort_by(|&a, &b| {
            cmp_order_keys(order_by, |k| (&keys[a][k], &keys[b][k])).then(a.cmp(&b))
        });
        let mut sorted = Vec::with_capacity(out_rows.len());
        for i in order {
            sorted.push(std::mem::take(&mut out_rows[i]));
        }
        out_rows = sorted;
    }

    // DISTINCT (after ORDER BY keeps the first occurrence in sort order).
    if select.distinct {
        let mut seen: std::collections::HashSet<Vec<KeyElem>> = std::collections::HashSet::new();
        out_rows.retain(|row| seen.insert(row_key(row)));
    }

    if let Some(n) = limit {
        out_rows.truncate(n as usize);
    }

    Ok(ResultSet {
        columns: out_cols,
        rows: out_rows,
    })
}

pub(crate) fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        other => other.to_string(),
    }
}

pub(crate) enum OrderSource {
    OutputColumn(usize),
    Expression,
}

pub(crate) fn order_key_source(item: &OrderItem, out_cols: &[String]) -> EngineResult<OrderSource> {
    match &item.expr {
        Expr::Literal(Literal::Integer(n)) => {
            let idx = *n - 1;
            if idx < 0 || idx as usize >= out_cols.len() {
                return Err(EngineError::binding(format!(
                    "ORDER BY position {n} is out of range"
                )));
            }
            Ok(OrderSource::OutputColumn(idx as usize))
        }
        Expr::Column { table: None, name } => {
            let matches: Vec<usize> = out_cols
                .iter()
                .enumerate()
                .filter(|(_, c)| c.eq_ignore_ascii_case(name))
                .map(|(i, _)| i)
                .collect();
            match matches.len() {
                1 => Ok(OrderSource::OutputColumn(matches[0])),
                _ => Ok(OrderSource::Expression),
            }
        }
        _ => Ok(OrderSource::Expression),
    }
}

/// Sort a finished result by output column names / positions only (used
/// for ORDER BY over set operations).
fn sort_result_by_output(rs: &mut ResultSet, order_by: &[OrderItem]) -> EngineResult<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    let mut key_cols = Vec::with_capacity(order_by.len());
    for item in order_by {
        match order_key_source(item, &rs.columns)? {
            OrderSource::OutputColumn(ci) => key_cols.push(ci),
            OrderSource::Expression => {
                return Err(EngineError::typing(
                    "ORDER BY over a set operation must reference output columns",
                ))
            }
        }
    }
    rs.rows
        .sort_by(|a, b| cmp_order_keys(order_by, |k| (&a[key_cols[k]], &b[key_cols[k]])));
    Ok(())
}

/// Compare two rows by their ORDER BY keys: `pair(k)` yields the two
/// values of the `k`-th item, compared by `total_cmp` and reversed when
/// the item is `DESC`; the first unequal item decides.
pub(crate) fn cmp_order_keys<'v>(
    order_by: &[OrderItem],
    pair: impl Fn(usize) -> (&'v Value, &'v Value),
) -> Ordering {
    for (k, item) in order_by.iter().enumerate() {
        let (a, b) = pair(k);
        let ord = a.total_cmp(b);
        if ord != Ordering::Equal {
            return if item.desc { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Table};
    use crate::value::{DataType, Date};

    fn test_db() -> Database {
        let mut db = Database::new("test");
        let mut orgs = Table::new(
            "ORGS",
            vec![
                Column::new("ID", DataType::Integer),
                Column::new("NAME", DataType::Text),
                Column::new("COUNTRY", DataType::Text),
                Column::new("OWNED", DataType::Text),
            ],
        );
        for (id, name, country, owned) in [
            (1, "Alpha", "Canada", "COC"),
            (2, "Beta", "Canada", "COC"),
            (3, "Gamma", "USA", "EXT"),
            (4, "Delta", "Canada", "EXT"),
            (5, "Epsilon", "Mexico", "COC"),
        ] {
            orgs.push_row(vec![
                Value::Integer(id),
                name.into(),
                country.into(),
                owned.into(),
            ])
            .unwrap();
        }
        db.add_table(orgs).unwrap();

        let mut fin = Table::new(
            "FINANCIALS",
            vec![
                Column::new("ORG_ID", DataType::Integer),
                Column::new("FIN_MONTH", DataType::Date),
                Column::new("REVENUE", DataType::Integer),
            ],
        );
        let rows = [
            (1, (2023, 2), 100),
            (1, (2023, 5), 150),
            (2, (2023, 2), 200),
            (2, (2023, 5), 180),
            (3, (2023, 2), 300),
            (3, (2023, 5), 330),
            (5, (2023, 5), 90),
        ];
        for (org, (y, m), rev) in rows {
            fin.push_row(vec![
                Value::Integer(org),
                Value::Date(Date::new(y, m, 1).unwrap()),
                Value::Integer(rev),
            ])
            .unwrap();
        }
        db.add_table(fin).unwrap();
        db
    }

    fn run(sql: &str) -> ResultSet {
        let db = test_db();
        execute_sql(&db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    fn run_err(sql: &str) -> EngineError {
        let db = test_db();
        execute_sql(&db, sql).unwrap_err()
    }

    fn ints(rs: &ResultSet) -> Vec<i64> {
        rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
    }

    fn texts(rs: &ResultSet, col: usize) -> Vec<String> {
        rs.rows.iter().map(|r| r[col].to_string()).collect()
    }

    #[test]
    fn select_constant() {
        let rs = run("SELECT 1 + 2 AS x");
        assert_eq!(rs.columns, vec!["x"]);
        assert_eq!(ints(&rs), vec![3]);
    }

    #[test]
    fn timed_execution_reports_stats() {
        let db = test_db();
        let (result, stats) = execute_sql_timed(&db, "SELECT ID, NAME FROM ORGS");
        assert!(result.is_ok());
        assert_eq!(stats.rows, 5);
        assert_eq!(stats.columns, 2);
        assert!(stats.parse > std::time::Duration::ZERO);
        assert!(stats.execute > std::time::Duration::ZERO);

        // Parse failure: no execution time, no rows.
        let (result, stats) = execute_sql_timed(&db, "SELEC nope");
        assert!(result.is_err());
        assert_eq!(stats.execute, std::time::Duration::ZERO);
        assert_eq!(stats.rows, 0);

        // Binding failure: executed (and failed), zero-size output.
        let (result, stats) = execute_sql_timed(&db, "SELECT * FROM MISSING");
        assert!(result.is_err());
        assert_eq!((stats.rows, stats.columns), (0, 0));
    }

    #[test]
    fn interpreter_fallbacks_count_select_bodies_on_the_reference_tail() {
        let db = test_db();
        let fallbacks = |sql: &str| {
            let (result, stats) = execute_sql_timed(&db, sql);
            result.expect("query should execute");
            stats.counters.interpreter_fallbacks
        };
        // Columnar tiers: pure path, fast aggregation.
        assert_eq!(fallbacks("SELECT NAME FROM ORGS WHERE ID > 1"), 0);
        assert_eq!(
            fallbacks("SELECT COUNTRY, COUNT(*) FROM ORGS GROUP BY COUNTRY"),
            0
        );
        // Window calls and HAVING take the reference tail, once per body.
        assert_eq!(
            fallbacks("SELECT NAME, ROW_NUMBER() OVER (ORDER BY ID) FROM ORGS"),
            1
        );
        assert_eq!(
            fallbacks(
                "WITH big AS (SELECT COUNTRY FROM ORGS GROUP BY COUNTRY HAVING COUNT(*) > 1) \
                 SELECT COUNTRY, RANK() OVER (ORDER BY COUNTRY) FROM big"
            ),
            2
        );
    }

    #[test]
    fn exec_stats_record_into_registry() {
        let db = test_db();
        let metrics = genedit_telemetry::MetricsRegistry::new();
        let (_, stats) = execute_sql_timed(&db, "SELECT * FROM ORGS");
        stats.record(&metrics, "validate");
        let snap = metrics.snapshot();
        assert_eq!(snap.histograms["sql.validate.parse_ms"].count, 1);
        assert_eq!(snap.histograms["sql.validate.execute_ms"].count, 1);
        assert_eq!(snap.histograms["sql.validate.rows"].p50, 5.0);
    }

    #[test]
    fn where_filters() {
        let rs = run("SELECT NAME FROM ORGS WHERE COUNTRY = 'Canada' ORDER BY NAME");
        assert_eq!(texts(&rs, 0), vec!["Alpha", "Beta", "Delta"]);
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let rs = run("SELECT * FROM ORGS");
        assert_eq!(rs.columns.len(), 4);
        assert_eq!(rs.rows.len(), 5);
        let rs = run("SELECT o.* FROM ORGS o WHERE o.ID = 1");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.columns.len(), 4);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let rs = run("SELECT ID FROM ORGS ORDER BY ID DESC LIMIT 2");
        assert_eq!(ints(&rs), vec![5, 4]);
    }

    #[test]
    fn order_by_position() {
        let rs = run("SELECT NAME, ID FROM ORGS ORDER BY 2 DESC LIMIT 1");
        assert_eq!(texts(&rs, 0), vec!["Epsilon"]);
    }

    #[test]
    fn order_by_alias() {
        let rs = run("SELECT ID * 10 AS tens FROM ORGS ORDER BY tens DESC LIMIT 1");
        assert_eq!(ints(&rs), vec![50]);
    }

    #[test]
    fn group_by_aggregates() {
        let rs = run("SELECT COUNTRY, COUNT(*) AS n, SUM(ID) AS total FROM ORGS \
             GROUP BY COUNTRY ORDER BY COUNTRY");
        assert_eq!(texts(&rs, 0), vec!["Canada", "Mexico", "USA"]);
        assert_eq!(
            rs.rows
                .iter()
                .map(|r| r[1].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![3, 1, 1]
        );
        assert_eq!(
            rs.rows
                .iter()
                .map(|r| r[2].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![7, 5, 3]
        );
    }

    #[test]
    fn grouping_per_dictionary_code_keeps_group_order_and_merges_equal_keys() {
        let db = test_db();
        for sql in [
            // Groups in first-occurrence order: Canada, USA, Mexico.
            "SELECT COUNTRY, COUNT(*), SUM(ID) FROM ORGS GROUP BY COUNTRY",
            // 'Canada' and 'Mexico' are two dictionary entries, one key.
            "SELECT LENGTH(COUNTRY), COUNT(*), MIN(NAME) FROM ORGS GROUP BY LENGTH(COUNTRY)",
            "SELECT TO_CHAR(FIN_MONTH, 'YYYY'), SUM(REVENUE) FROM FINANCIALS \
             GROUP BY TO_CHAR(FIN_MONTH, 'YYYY')",
        ] {
            let got = execute_sql(&db, sql).unwrap();
            let want = execute_sql_reference(&db, sql).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{sql}");
        }
        let rs = run("SELECT LENGTH(COUNTRY), COUNT(*) FROM ORGS GROUP BY LENGTH(COUNTRY)");
        assert_eq!(ints(&rs), vec![6, 3]);
        assert_eq!(rs.rows[0][1].as_i64(), Some(4));
    }

    #[test]
    fn implicit_whole_table_aggregate() {
        let rs = run("SELECT COUNT(*), MIN(ID), MAX(ID), AVG(ID) FROM ORGS");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0].as_i64(), Some(5));
        assert_eq!(rs.rows[0][1].as_i64(), Some(1));
        assert_eq!(rs.rows[0][2].as_i64(), Some(5));
        assert_eq!(rs.rows[0][3].as_f64(), Some(3.0));
    }

    #[test]
    fn aggregate_over_empty_table_yields_one_row() {
        let rs = run("SELECT COUNT(*) FROM ORGS WHERE ID > 1000");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0].as_i64(), Some(0));
    }

    #[test]
    fn group_by_on_empty_input_yields_no_rows() {
        let rs = run("SELECT COUNTRY, COUNT(*) FROM ORGS WHERE ID > 1000 GROUP BY COUNTRY");
        assert!(rs.rows.is_empty());
        assert_eq!(rs.columns.len(), 2);
    }

    #[test]
    fn having_filters_groups() {
        let rs = run("SELECT COUNTRY FROM ORGS GROUP BY COUNTRY HAVING COUNT(*) > 1");
        assert_eq!(texts(&rs, 0), vec!["Canada"]);
    }

    #[test]
    fn join_inner() {
        let rs = run(
            "SELECT o.NAME, f.REVENUE FROM ORGS o JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             WHERE f.REVENUE > 250 ORDER BY f.REVENUE",
        );
        assert_eq!(texts(&rs, 0), vec!["Gamma", "Gamma"]);
    }

    #[test]
    fn join_left_pads_nulls() {
        let rs = run(
            "SELECT o.NAME, f.REVENUE FROM ORGS o LEFT JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             WHERE f.REVENUE IS NULL",
        );
        // Delta (id 4) has no financials.
        assert_eq!(texts(&rs, 0), vec!["Delta"]);
    }

    #[test]
    fn cross_join_counts() {
        let rs = run("SELECT COUNT(*) FROM ORGS a CROSS JOIN ORGS b");
        assert_eq!(rs.rows[0][0].as_i64(), Some(25));
    }

    #[test]
    fn conditional_aggregation_paper_pattern() {
        // The paper's Q_fin-perf pattern: quarterly pivot via CASE in SUM.
        let rs = run(
            "SELECT o.NAME, \
               SUM(CASE WHEN TO_CHAR(f.FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q1' THEN f.REVENUE ELSE 0 END) AS q1, \
               SUM(CASE WHEN TO_CHAR(f.FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q2' THEN f.REVENUE ELSE 0 END) AS q2 \
             FROM ORGS o JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             GROUP BY o.NAME ORDER BY o.NAME",
        );
        assert_eq!(texts(&rs, 0), vec!["Alpha", "Beta", "Epsilon", "Gamma"]);
        let q1: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        let q2: Vec<i64> = rs.rows.iter().map(|r| r[2].as_i64().unwrap()).collect();
        assert_eq!(q1, vec![100, 200, 0, 300]);
        assert_eq!(q2, vec![150, 180, 90, 330]);
    }

    #[test]
    fn cte_pipeline() {
        let rs = run(
            "WITH canadian AS (SELECT ID, NAME FROM ORGS WHERE COUNTRY = 'Canada'), \
                  rich AS (SELECT c.NAME, SUM(f.REVENUE) AS total \
                           FROM canadian c JOIN FINANCIALS f ON c.ID = f.ORG_ID \
                           GROUP BY c.NAME) \
             SELECT NAME, total FROM rich ORDER BY total DESC",
        );
        assert_eq!(texts(&rs, 0), vec!["Beta", "Alpha"]);
    }

    #[test]
    fn cte_shadows_table() {
        let rs = run("WITH ORGS AS (SELECT 42 AS ID) SELECT ID FROM ORGS");
        assert_eq!(ints(&rs), vec![42]);
    }

    #[test]
    fn window_row_number() {
        let rs = run(
            "SELECT NAME, ROW_NUMBER() OVER (PARTITION BY COUNTRY ORDER BY ID) AS rn \
             FROM ORGS ORDER BY NAME",
        );
        let by_name: Vec<(String, i64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("Alpha".into(), 1),
                ("Beta".into(), 2),
                ("Delta".into(), 3),
                ("Epsilon".into(), 1),
                ("Gamma".into(), 1),
            ]
        );
    }

    #[test]
    fn window_rank_with_ties() {
        let rs = run("SELECT OWNED, RANK() OVER (ORDER BY COUNTRY) AS r, \
                    DENSE_RANK() OVER (ORDER BY COUNTRY) AS d \
             FROM ORGS ORDER BY COUNTRY, OWNED");
        let ranks: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        let dense: Vec<i64> = rs.rows.iter().map(|r| r[2].as_i64().unwrap()).collect();
        assert_eq!(ranks, vec![1, 1, 1, 4, 5]);
        assert_eq!(dense, vec![1, 1, 1, 2, 3]);
    }

    #[test]
    fn window_aggregate_over_partition() {
        let rs =
            run("SELECT NAME, SUM(ID) OVER (PARTITION BY COUNTRY) AS s FROM ORGS ORDER BY NAME");
        let sums: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        // Canada: 1+2+4=7 (Alpha, Beta, Delta), Mexico 5, USA 3.
        assert_eq!(sums, vec![7, 7, 7, 5, 3]);
    }

    #[test]
    fn window_over_grouped_query() {
        let rs = run("SELECT COUNTRY, SUM(ID) AS s, \
                    RANK() OVER (ORDER BY SUM(ID) DESC) AS r \
             FROM ORGS GROUP BY COUNTRY ORDER BY r");
        assert_eq!(texts(&rs, 0), vec!["Canada", "Mexico", "USA"]);
    }

    #[test]
    fn distinct_dedupes() {
        let rs = run("SELECT DISTINCT COUNTRY FROM ORGS ORDER BY COUNTRY");
        assert_eq!(texts(&rs, 0), vec!["Canada", "Mexico", "USA"]);
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT COUNT(DISTINCT COUNTRY) FROM ORGS");
        assert_eq!(rs.rows[0][0].as_i64(), Some(3));
    }

    #[test]
    fn in_subquery() {
        let rs = run(
            "SELECT NAME FROM ORGS WHERE ID IN (SELECT ORG_ID FROM FINANCIALS WHERE REVENUE > 250) ",
        );
        assert_eq!(texts(&rs, 0), vec!["Gamma"]);
    }

    #[test]
    fn not_in_subquery() {
        let rs = run(
            "SELECT NAME FROM ORGS WHERE ID NOT IN (SELECT ORG_ID FROM FINANCIALS) ORDER BY NAME",
        );
        assert_eq!(texts(&rs, 0), vec!["Delta"]);
    }

    #[test]
    fn correlated_exists() {
        let rs = run("SELECT NAME FROM ORGS o WHERE EXISTS \
             (SELECT 1 FROM FINANCIALS f WHERE f.ORG_ID = o.ID AND f.REVENUE > 250)");
        assert_eq!(texts(&rs, 0), vec!["Gamma"]);
    }

    #[test]
    fn scalar_subquery() {
        let rs = run("SELECT (SELECT MAX(REVENUE) FROM FINANCIALS) AS m");
        assert_eq!(rs.rows[0][0].as_i64(), Some(330));
    }

    #[test]
    fn correlated_scalar_subquery() {
        let rs = run(
            "SELECT NAME, (SELECT SUM(REVENUE) FROM FINANCIALS f WHERE f.ORG_ID = o.ID) AS t \
             FROM ORGS o ORDER BY NAME",
        );
        assert_eq!(rs.rows[0][1].as_i64(), Some(250)); // Alpha
        assert!(rs.rows[2][1].is_null()); // Delta: SUM of nothing is NULL
    }

    #[test]
    fn derived_table() {
        let rs = run("SELECT t.NAME FROM (SELECT NAME FROM ORGS WHERE COUNTRY = 'USA') AS t");
        assert_eq!(texts(&rs, 0), vec!["Gamma"]);
    }

    #[test]
    fn union_and_union_all() {
        let rs = run("SELECT COUNTRY FROM ORGS UNION SELECT COUNTRY FROM ORGS ORDER BY COUNTRY");
        assert_eq!(rs.rows.len(), 3);
        let rs = run("SELECT COUNTRY FROM ORGS UNION ALL SELECT COUNTRY FROM ORGS");
        assert_eq!(rs.rows.len(), 10);
    }

    #[test]
    fn intersect_and_except() {
        let rs = run("SELECT COUNTRY FROM ORGS WHERE OWNED = 'COC' \
             INTERSECT SELECT COUNTRY FROM ORGS WHERE OWNED = 'EXT'");
        assert_eq!(texts(&rs, 0), vec!["Canada"]);
        let rs =
            run("SELECT COUNTRY FROM ORGS EXCEPT SELECT COUNTRY FROM ORGS WHERE OWNED = 'EXT' ");
        let mut got = texts(&rs, 0);
        got.sort();
        assert_eq!(got, vec!["Mexico"]);
    }

    #[test]
    fn set_op_arity_mismatch() {
        let e = run_err("SELECT ID, NAME FROM ORGS UNION SELECT ID FROM ORGS");
        assert!(matches!(e, EngineError::Type { .. }));
    }

    #[test]
    fn unknown_table_is_binding_error() {
        let e = run_err("SELECT * FROM NOPE");
        assert!(matches!(e, EngineError::Binding { .. }));
        assert!(e.is_semantic());
    }

    #[test]
    fn unknown_column_is_binding_error() {
        let e = run_err("SELECT WIBBLE FROM ORGS");
        assert!(matches!(e, EngineError::Binding { .. }));
    }

    #[test]
    fn where_that_does_not_lower_raises_the_reference_error() {
        let db = test_db();
        for sql in [
            "SELECT SUM(REVENUE) FROM FINANCIALS WHERE REVENUE_ADJ > 0",
            "SELECT o.NAME FROM ORGS o JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             WHERE TO_CHAR(f.SALES_MONTH_ADJ, 'YYYY') = '2023'",
            // Lowers, and raises on a row the table does hold.
            "SELECT ID FROM ORGS WHERE CAST(NAME AS INTEGER) > 0",
        ] {
            let got = execute_sql(&db, sql).unwrap_err();
            let want = execute_sql_reference(&db, sql).unwrap_err();
            assert_eq!(got, want, "{sql}");
        }
        // No row, no evaluation, no error — on either engine.
        let sql = "SELECT COUNT(*) FROM (SELECT ID FROM ORGS WHERE ID > 99) AS t WHERE NOPE = 1";
        assert_eq!(run(sql).rows, execute_sql_reference(&db, sql).unwrap().rows);
    }

    #[test]
    fn ambiguous_column_is_binding_error() {
        let e = run_err("SELECT ID FROM ORGS a JOIN ORGS b ON a.ID = b.ID");
        assert!(matches!(e, EngineError::Binding { .. }));
        assert!(e.to_string().contains("ambiguous"));
    }

    #[test]
    fn three_valued_logic_in_where() {
        // NULL comparisons must not satisfy WHERE.
        let rs = run(
            "SELECT o.NAME FROM ORGS o LEFT JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             WHERE f.REVENUE > 0 OR f.REVENUE <= 0",
        );
        assert!(!texts(&rs, 0).contains(&"Delta".to_string()));
    }

    #[test]
    fn division_semantics() {
        let rs = run("SELECT 7 / 2, 7.0 / 2, 7 / 0, CAST(7 AS FLOAT) / 2");
        assert_eq!(rs.rows[0][0].as_i64(), Some(3)); // integer division
        assert_eq!(rs.rows[0][1].as_f64(), Some(3.5));
        assert!(rs.rows[0][2].is_null()); // divide by zero -> NULL
        assert_eq!(rs.rows[0][3].as_f64(), Some(3.5));
    }

    #[test]
    fn like_and_between() {
        let rs =
            run("SELECT NAME FROM ORGS WHERE NAME LIKE '%a' AND ID BETWEEN 1 AND 4 ORDER BY NAME");
        assert_eq!(texts(&rs, 0), vec!["Alpha", "Beta", "Delta", "Gamma"]);
    }

    #[test]
    fn case_without_else_is_null() {
        let rs = run("SELECT CASE WHEN 1 = 2 THEN 'x' END");
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn full_paper_query_shape_runs() {
        // A condensed Q_fin-perf: per-org RPV-style ratio change with
        // ranking, over the test data.
        let rs = run(
            "WITH F AS ( \
               SELECT ORG_ID, \
                 SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q1' THEN REVENUE ELSE 0 END) AS R1, \
                 SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q2' THEN REVENUE ELSE 0 END) AS R2 \
               FROM FINANCIALS GROUP BY ORG_ID \
             ), \
             D AS ( \
               SELECT o.NAME, CAST(f.R2 AS FLOAT) / NULLIF(f.R1, 0) AS growth, \
                      ROW_NUMBER() OVER (ORDER BY CAST(f.R2 AS FLOAT) / NULLIF(f.R1, 0) DESC) AS rnk \
               FROM F f JOIN ORGS o ON o.ID = f.ORG_ID \
               WHERE o.OWNED = 'COC' \
             ) \
             SELECT NAME, growth, rnk FROM D WHERE rnk <= 5 ORDER BY rnk",
        );
        // COC orgs with financials: Alpha (150/100=1.5), Beta (0.9),
        // Epsilon (90/0 -> NULL).
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0].to_string(), "Alpha");
        assert!((rs.rows[0][1].as_f64().unwrap() - 1.5).abs() < 1e-9);
        assert_eq!(rs.rows[1][0].to_string(), "Beta");
        assert!(rs.rows[2][1].is_null()); // Epsilon's NULL growth ranks last? (nulls sort first asc; DESC -> last)
    }

    #[test]
    fn select_star_with_group_by_rejected() {
        let e = run_err("SELECT * FROM ORGS GROUP BY COUNTRY");
        assert!(matches!(e, EngineError::Type { .. }));
    }

    #[test]
    fn ranking_without_over_rejected() {
        let e = run_err("SELECT ROW_NUMBER() FROM ORGS");
        assert!(matches!(e, EngineError::Type { .. }));
    }

    #[test]
    fn group_concat() {
        let rs =
            run("SELECT COUNTRY, GROUP_CONCAT(NAME) FROM ORGS GROUP BY COUNTRY ORDER BY COUNTRY");
        assert_eq!(rs.rows[0][1].to_string(), "Alpha,Beta,Delta");
    }

    #[test]
    fn lag_and_lead_over_partition() {
        // Per-country revenue trail: LAG looks back in ID order.
        let rs = run(
            "SELECT ID, LAG(ID) OVER (PARTITION BY COUNTRY ORDER BY ID) AS prev, \
                    LEAD(ID) OVER (PARTITION BY COUNTRY ORDER BY ID) AS next \
             FROM ORGS ORDER BY ID",
        );
        // Canada: ids 1, 2, 4.
        let by_id: Vec<(i64, Option<i64>, Option<i64>)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64(), r[2].as_i64()))
            .collect();
        assert_eq!(by_id[0], (1, None, Some(2)));
        assert_eq!(by_id[1], (2, Some(1), Some(4)));
        assert_eq!(by_id[3], (4, Some(2), None));
        // Singleton partitions see NULL on both sides.
        assert_eq!(by_id[2], (3, None, None));
    }

    #[test]
    fn lag_with_offset_and_default() {
        let rs = run("SELECT ID, LAG(ID, 2, 0) OVER (ORDER BY ID) AS l2 FROM ORGS ORDER BY ID");
        let l2: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        assert_eq!(l2, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn first_and_last_value() {
        let rs = run(
            "SELECT COUNTRY, FIRST_VALUE(NAME) OVER (PARTITION BY COUNTRY ORDER BY ID) AS f, \
                    LAST_VALUE(NAME) OVER (PARTITION BY COUNTRY ORDER BY ID) AS l \
             FROM ORGS WHERE COUNTRY = 'Canada'",
        );
        for row in &rs.rows {
            assert_eq!(row[1].to_string(), "Alpha");
            assert_eq!(row[2].to_string(), "Delta");
        }
    }

    #[test]
    fn lag_requires_valid_offset() {
        let e = run_err("SELECT LAG(ID, ID) OVER (ORDER BY ID) FROM ORGS");
        assert!(matches!(e, EngineError::Type { .. }));
    }

    #[test]
    fn ntile_distribution() {
        let rs = run("SELECT ID, NTILE(2) OVER (ORDER BY ID) AS t FROM ORGS ORDER BY ID");
        let tiles: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        assert_eq!(tiles, vec![1, 1, 1, 2, 2]);
    }

    #[test]
    fn having_without_group_by_gates_whole_table_aggregate() {
        // HAVING over the implicit single group: keeps or drops the one row.
        let rs = run("SELECT SUM(ID) FROM ORGS HAVING COUNT(*) > 3");
        assert_eq!(rs.rows.len(), 1);
        let rs = run("SELECT SUM(ID) FROM ORGS HAVING COUNT(*) > 99");
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn group_by_expression_key() {
        // Grouping on a computed key, not just a column.
        let rs = run("SELECT ID % 2 AS parity, COUNT(*) FROM ORGS GROUP BY ID % 2 ORDER BY parity");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1].as_i64(), Some(2)); // even: 2, 4
        assert_eq!(rs.rows[1][1].as_i64(), Some(3)); // odd: 1, 3, 5
    }

    #[test]
    fn case_simple_form_with_null_operand_matches_nothing() {
        // NULL = anything is unknown, so only ELSE fires.
        let rs = run("SELECT CASE NULL WHEN NULL THEN 'eq' ELSE 'else' END");
        assert_eq!(rs.rows[0][0].to_string(), "else");
    }

    #[test]
    fn in_list_with_null_is_three_valued() {
        // 1 IN (2, NULL) is unknown → excluded by WHERE but distinct from
        // false under NOT.
        let rs = run("SELECT ID FROM ORGS WHERE ID IN (99, NULL)");
        assert!(rs.rows.is_empty());
        let rs = run("SELECT ID FROM ORGS WHERE NOT (ID IN (99, NULL))");
        assert!(rs.rows.is_empty(), "NOT unknown is still unknown");
        let rs = run("SELECT ID FROM ORGS WHERE ID IN (1, NULL)");
        assert_eq!(ints(&rs), vec![1]);
    }

    #[test]
    fn order_by_null_aggregates_sort_first_ascending() {
        let rs = run("SELECT o.NAME, SUM(f.REVENUE) AS s FROM ORGS o \
             LEFT JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             GROUP BY o.NAME ORDER BY s, o.NAME");
        assert!(
            rs.rows[0][1].is_null(),
            "NULL total sorts first: {:?}",
            rs.rows[0]
        );
        assert_eq!(rs.rows[0][0].to_string(), "Delta");
    }

    #[test]
    fn nested_cte_shadowing_inner_wins() {
        let rs = run("WITH x AS (SELECT 1 AS v) \
             SELECT * FROM (WITH x AS (SELECT 2 AS v) SELECT v FROM x) AS inner_q");
        assert_eq!(ints(&rs), vec![2]);
    }

    #[test]
    fn limit_larger_than_rows_is_harmless() {
        let rs = run("SELECT ID FROM ORGS LIMIT 999");
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn concat_operator_and_null_propagation() {
        let rs = run("SELECT 'a' || 'b' || 'c', 'a' || NULL");
        assert_eq!(rs.rows[0][0].to_string(), "abc");
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn distinct_on_multiple_columns() {
        let rs = run("SELECT DISTINCT COUNTRY, OWNED FROM ORGS");
        // (Canada,COC),(Canada,EXT),(USA,EXT),(Mexico,COC)
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn union_mixed_numeric_types_compare_by_value() {
        // 1 (int) and 1.0 (float) are distinct typed keys — column
        // typing is preserved, as in the EX metric.
        let rs = run("SELECT 1 UNION SELECT 1.0");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn where_on_window_output_requires_subquery() {
        // Window values are not visible in the same SELECT's WHERE; the
        // CTE workaround must work (how all gold queries rank-filter).
        let e = run_err("SELECT ROW_NUMBER() OVER (ORDER BY ID) AS r FROM ORGS WHERE r <= 2");
        assert!(e.is_semantic());
        let rs = run(
            "WITH w AS (SELECT ID, ROW_NUMBER() OVER (ORDER BY ID) AS r FROM ORGS) \
             SELECT ID FROM w WHERE r <= 2 ORDER BY ID",
        );
        assert_eq!(ints(&rs), vec![1, 2]);
    }

    #[test]
    fn limit_zero() {
        let rs = run("SELECT ID FROM ORGS LIMIT 0");
        assert!(rs.rows.is_empty());
        assert_eq!(rs.columns, vec!["ID"]);
    }
}
