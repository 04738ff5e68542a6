//! Columnar physical operators: batch scans, cross joins by index
//! gathering, and hash equi-joins.
//!
//! The hash-join planner is deliberately conservative: it only takes the
//! hash path when the ON clause is a pure conjunction of column
//! equalities AND the key columns' contents guarantee that every row
//! pair the nested loop would compare is comparable under
//! `ValueRef::sql_cmp` with equality classes a hash key can represent.
//! Anything else is handed to the reference interpreter's own nested
//! loop (`reference::join`), so join results — including error
//! behavior — are identical to it in every case.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::array::{columns_from_rows, DataChunk};
use crate::ast::{BinaryOp, Expr, JoinKind, TableRef};
use crate::error::{EngineError, EngineResult};
use crate::eval::{ColMeta, EvalEnv, Relation, Scope};
use crate::exec::execute_query;
use crate::key::float_key_bits;
use crate::reference;
use crate::value::ValueRef;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

// ----------------------------------------------------------------------
// Execution counters
// ----------------------------------------------------------------------

/// Per-query columnar execution counters, accumulated in a thread-local
/// and drained by `execute_sql_timed` into telemetry. Work done inside
/// the reference interpreter — end to end, or as the vectorized engine's
/// fallback — is not counted, only that the fallback was taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqlCounters {
    /// Column batches materialized by scans.
    pub batches: u64,
    /// Rows read by base-table and CTE scans.
    pub rows_scanned: u64,
    /// Joins executed on the hash path.
    pub hash_joins: u64,
    /// Joins handed to the reference interpreter's nested loop.
    pub nested_loop_joins: u64,
    /// Nanoseconds spent building join hash tables.
    pub join_build_ns: u64,
    /// Nanoseconds spent probing join hash tables.
    pub join_probe_ns: u64,
    /// Groups produced by hash aggregation.
    pub agg_groups: u64,
    /// SELECT bodies that did not finish on a columnar path and ran the
    /// reference interpreter's tail after the vectorized FROM/WHERE.
    pub interpreter_fallbacks: u64,
    /// Elements the vectorized evaluator handed to
    /// `functions::eval_scalar`, counted once per kernel call.
    pub scalar_calls: u64,
}

thread_local! {
    static COUNTERS: Cell<SqlCounters> = const { Cell::new(SqlCounters {
        batches: 0,
        rows_scanned: 0,
        hash_joins: 0,
        nested_loop_joins: 0,
        join_build_ns: 0,
        join_probe_ns: 0,
        agg_groups: 0,
        interpreter_fallbacks: 0,
        scalar_calls: 0,
    }) };
}

/// Drain (and reset) this thread's counters.
pub fn take_counters() -> SqlCounters {
    COUNTERS.with(|c| c.replace(SqlCounters::default()))
}

pub(crate) fn with_counters(f: impl FnOnce(&mut SqlCounters)) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

// ----------------------------------------------------------------------
// Sources
// ----------------------------------------------------------------------

/// A resolved FROM clause: column metadata plus a batch of rows.
pub struct Source {
    /// Column qualifiers and names, one per chunk column.
    pub cols: Vec<ColMeta>,
    /// The data, column-major.
    pub chunk: DataChunk,
}

impl Source {
    /// Materialize as a row-major [`Relation`], the hand-off to the
    /// reference interpreter.
    pub fn into_relation(self) -> Relation {
        Relation {
            cols: self.cols,
            rows: self.chunk.into_rows(),
        }
    }
}

/// Resolve a FROM clause into a columnar [`Source`], joining as needed.
pub fn resolve_from_columnar(
    env: &EvalEnv<'_>,
    tr: &TableRef,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Source> {
    match tr {
        TableRef::Named { name, alias } => {
            let qualifier = alias.clone().unwrap_or_else(|| name.clone());
            if let Some(rs) = env.ctes.get(&name.to_lowercase()) {
                let cols = rs
                    .columns
                    .iter()
                    .map(|c| ColMeta::new(Some(qualifier.clone()), c.clone()))
                    .collect();
                let chunk =
                    DataChunk::new(columns_from_rows(&rs.rows, rs.columns.len()), rs.rows.len());
                with_counters(|c| {
                    c.batches += 1;
                    c.rows_scanned += chunk.len() as u64;
                });
                return Ok(Source { cols, chunk });
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
            let chunk = DataChunk::new(table.columnar(), table.rows.len());
            with_counters(|c| {
                c.batches += 1;
                c.rows_scanned += chunk.len() as u64;
            });
            Ok(Source { cols, chunk })
        }
        TableRef::Derived { query, alias } => {
            let rs = execute_query(env, query, None)?;
            let cols = rs
                .columns
                .iter()
                .map(|c| ColMeta::new(Some(alias.clone()), c.clone()))
                .collect();
            let width = rs.columns.len();
            Ok(Source {
                cols,
                chunk: DataChunk::from_rows(rs.rows, width),
            })
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = resolve_from_columnar(env, left, outer)?;
            let r = resolve_from_columnar(env, right, outer)?;
            join_columnar(env, outer, l, r, *kind, on.as_ref())
        }
    }
}

// ----------------------------------------------------------------------
// Joins
// ----------------------------------------------------------------------

fn gather_sides(l: &Source, r: &Source, lidx: &[u32], ridx: &[u32], len: usize) -> DataChunk {
    let mut cols = Vec::with_capacity(l.cols.len() + r.cols.len());
    for c in &l.chunk.cols {
        cols.push(Arc::new(c.gather(lidx)));
    }
    for c in &r.chunk.cols {
        // `u32::MAX` marks LEFT-join padding: emit NULL.
        cols.push(Arc::new(c.gather_padded(ridx)));
    }
    DataChunk::new(cols, len)
}

/// Join two columnar sources, preserving the reference engine's
/// left-major row emission order exactly.
pub fn join_columnar(
    env: &EvalEnv<'_>,
    outer: Option<&Scope<'_>>,
    l: Source,
    r: Source,
    kind: JoinKind,
    on: Option<&Expr>,
) -> EngineResult<Source> {
    let mut cols = l.cols.clone();
    cols.extend(r.cols.iter().cloned());

    match kind {
        JoinKind::Cross => {
            let (n, m) = (l.chunk.len(), r.chunk.len());
            let mut lidx = Vec::with_capacity(n * m);
            let mut ridx = Vec::with_capacity(n * m);
            for li in 0..n as u32 {
                for ri in 0..m as u32 {
                    lidx.push(li);
                    ridx.push(ri);
                }
            }
            let chunk = gather_sides(&l, &r, &lidx, &ridx, n * m);
            Ok(Source { cols, chunk })
        }
        JoinKind::Inner | JoinKind::Left => {
            let pred = on.ok_or_else(|| EngineError::typing("JOIN requires an ON condition"))?;
            if let Some(pairs) = plan_hash_join(pred, &cols, l.cols.len(), &l, &r) {
                Ok(hash_join(l, r, cols, kind, &pairs))
            } else {
                with_counters(|c| c.nested_loop_joins += 1);
                let rel =
                    reference::join(env, outer, l.into_relation(), r.into_relation(), kind, on)?;
                Ok(Source {
                    chunk: DataChunk::from_rows(rel.rows, cols.len()),
                    cols,
                })
            }
        }
    }
}

/// One equi-join key column pair with its resolved key representation.
struct KeyPair {
    left: usize,
    right: usize,
    kind: KeyKind,
}

#[derive(Clone, Copy, PartialEq)]
enum KeyKind {
    /// Both sides all-integer: exact `i64` keys.
    Int,
    /// Numeric with floats involved: `f64` bits, NaN canonicalized and
    /// `-0.0` merged with `0.0` (matching `sql_cmp` equality).
    F64,
    /// Text and/or dates: dates render to their ISO string (matching
    /// `sql_cmp`'s Date↔Text comparison).
    Str,
    /// Both sides boolean.
    Bool,
}

#[derive(PartialEq, Eq, Hash)]
enum JKey<'a> {
    Int(i64),
    F64(u64),
    /// Text borrowed from the key column; only a date owns its rendering.
    Str(Cow<'a, str>),
    Bool(bool),
}

/// What one key column contains (NULLs ignored).
#[derive(Default)]
struct ColContent {
    ints: bool,
    floats: bool,
    stringy: bool,
    bools: bool,
    /// An integer outside ±2^53, which `f64` cannot represent exactly.
    big_int: bool,
}

const F64_EXACT_INT: i64 = 1 << 53;

fn scan_content(src: &Source, col: usize) -> ColContent {
    let mut c = ColContent::default();
    let arr = &src.chunk.cols[col];
    for i in 0..arr.len() {
        match arr.at(i) {
            ValueRef::Null => {}
            ValueRef::Int(v) => {
                c.ints = true;
                if v.unsigned_abs() > F64_EXACT_INT as u64 {
                    c.big_int = true;
                }
            }
            ValueRef::Float(_) => c.floats = true,
            ValueRef::Str(_) | ValueRef::Date(_) => c.stringy = true,
            ValueRef::Bool(_) => c.bools = true,
        }
    }
    c
}

impl ColContent {
    fn empty(&self) -> bool {
        !(self.ints || self.floats || self.stringy || self.bools)
    }
    fn numeric_only(&self) -> bool {
        !(self.stringy || self.bools)
    }
    fn stringy_only(&self) -> bool {
        !(self.ints || self.floats || self.bools)
    }
    fn bool_only(&self) -> bool {
        !(self.ints || self.floats || self.stringy)
    }
}

/// Decide whether `pred` is a pure conjunction of column equalities whose
/// key columns support exact hash keys. Returns the key column pairs, or
/// `None` to fall back to the nested loop.
fn plan_hash_join(
    pred: &Expr,
    cols: &[ColMeta],
    left_width: usize,
    l: &Source,
    r: &Source,
) -> Option<Vec<KeyPair>> {
    let conjuncts = pred.conjuncts();
    let mut pairs = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        let Expr::Binary { left, op, right } = c else {
            return None;
        };
        if *op != BinaryOp::Eq {
            return None;
        }
        let a = resolve_one(left, cols)?;
        let b = resolve_one(right, cols)?;
        let (li, ri) = if a < left_width && b >= left_width {
            (a, b - left_width)
        } else if b < left_width && a >= left_width {
            (b, a - left_width)
        } else {
            return None; // both on one side, or correlated — fall back
        };
        let lc = scan_content(l, li);
        let rc = scan_content(r, ri);
        let kind = classify_pair(&lc, &rc)?;
        pairs.push(KeyPair {
            left: li,
            right: ri,
            kind,
        });
    }
    Some(pairs)
}

/// Resolve a column reference to exactly one combined-column index.
fn resolve_one(e: &Expr, cols: &[ColMeta]) -> Option<usize> {
    let Expr::Column { table, name } = e else {
        return None;
    };
    let mut found = None;
    for (i, c) in cols.iter().enumerate() {
        if c.matches(table.as_deref(), name) {
            if found.is_some() {
                return None;
            }
            found = Some(i);
        }
    }
    found
}

fn classify_pair(lc: &ColContent, rc: &ColContent) -> Option<KeyKind> {
    if lc.empty() && rc.empty() {
        return Some(KeyKind::Int);
    }
    if lc.numeric_only() && rc.numeric_only() {
        return if !lc.floats && !rc.floats {
            Some(KeyKind::Int)
        } else if !lc.big_int && !rc.big_int {
            // Floats in play: `sql_cmp` compares mixed numerics as f64,
            // and with no integer beyond ±2^53 the cast is injective, so
            // f64-bit keys reproduce its equality classes exactly.
            Some(KeyKind::F64)
        } else {
            None // Int↔Float equality is not transitive out here
        };
    }
    if lc.stringy_only() && rc.stringy_only() {
        return Some(KeyKind::Str);
    }
    if lc.bool_only() && rc.bool_only() {
        return Some(KeyKind::Bool);
    }
    // Cross-class contents could make the nested loop raise a
    // "cannot compare" error on some row pair; keep its semantics.
    None
}

fn f64_key_bits(f: f64) -> u64 {
    if f == 0.0 {
        0.0f64.to_bits() // merge -0.0 with 0.0, as sql_cmp equates them
    } else {
        float_key_bits(f)
    }
}

fn jkey(kind: KeyKind, v: ValueRef<'_>) -> Option<JKey<'_>> {
    match (kind, v) {
        (_, ValueRef::Null) => None,
        (KeyKind::Int, ValueRef::Int(i)) => Some(JKey::Int(i)),
        (KeyKind::F64, ValueRef::Int(i)) => Some(JKey::F64(f64_key_bits(i as f64))),
        (KeyKind::F64, ValueRef::Float(f)) => Some(JKey::F64(f64_key_bits(f))),
        (KeyKind::Str, ValueRef::Str(s)) => Some(JKey::Str(Cow::Borrowed(s))),
        (KeyKind::Str, ValueRef::Date(d)) => Some(JKey::Str(Cow::Owned(d.to_string()))),
        (KeyKind::Bool, ValueRef::Bool(b)) => Some(JKey::Bool(b)),
        // Planner classification guarantees these never happen; treating
        // them as NULL (no match) keeps this total without panicking.
        _ => None,
    }
}

/// "No list of build rows": a NULL key, or a probe key the build side
/// never saw. Out of range for any real list index.
const NO_LIST: u32 = u32::MAX;

/// For each row of one join side, what `lookup` makes of the row's key;
/// [`NO_LIST`] for a key with a NULL in it. A single dictionary key
/// column with fewer entries than rows derives its key and calls
/// `lookup` once per entry, and the rows only copy the answer.
fn lists_by_row<'a>(
    src: &'a Source,
    pairs: &[KeyPair],
    right: bool,
    mut lookup: impl FnMut(Vec<JKey<'a>>) -> u32,
) -> Vec<u32> {
    let col = |p: &KeyPair| &src.chunk.cols[if right { p.right } else { p.left }];
    if let [p] = pairs {
        if let Some((codes, values)) = col(p).per_entry(src.chunk.len()) {
            let by_code: Vec<u32> = (0..values.len())
                .map(|k| jkey(p.kind, values.at(k)).map_or(NO_LIST, |key| lookup(vec![key])))
                .collect();
            return codes.iter().map(|&c| by_code[c as usize]).collect();
        }
    }
    (0..src.chunk.len())
        .map(|row| {
            let key: Option<Vec<JKey<'a>>> =
                pairs.iter().map(|p| jkey(p.kind, col(p).at(row))).collect();
            key.map_or(NO_LIST, &mut lookup)
        })
        .collect()
}

fn hash_join(
    l: Source,
    r: Source,
    cols: Vec<ColMeta>,
    kind: JoinKind,
    pairs: &[KeyPair],
) -> Source {
    let build_start = Instant::now();
    // Key → index into `lists`: the build rows holding it, in row order.
    let mut table: HashMap<Vec<JKey<'_>>, u32> = HashMap::new();
    let built = lists_by_row(&r, pairs, true, |key| {
        let next = table.len() as u32;
        *table.entry(key).or_insert(next)
    });
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); table.len()];
    for (ri, &list) in built.iter().enumerate() {
        if list != NO_LIST {
            lists[list as usize].push(ri as u32);
        }
    }
    let build_ns = build_start.elapsed().as_nanos() as u64;

    let probe_start = Instant::now();
    let mut lidx = Vec::new();
    let mut ridx = Vec::new();
    let probed = lists_by_row(&l, pairs, false, |key| {
        table.get(&key).copied().unwrap_or(NO_LIST)
    });
    for (li, &list) in probed.iter().enumerate() {
        match lists.get(list as usize) {
            Some(ris) if !ris.is_empty() => {
                for &ri in ris {
                    lidx.push(li as u32);
                    ridx.push(ri);
                }
            }
            _ => {
                if kind == JoinKind::Left {
                    lidx.push(li as u32);
                    ridx.push(u32::MAX);
                }
            }
        }
    }
    let probe_ns = probe_start.elapsed().as_nanos() as u64;
    with_counters(|c| {
        c.hash_joins += 1;
        c.join_build_ns += build_ns;
        c.join_probe_ns += probe_ns;
    });

    let len = lidx.len();
    let chunk = gather_sides(&l, &r, &lidx, &ridx, len);
    Source { cols, chunk }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr as E;
    use crate::catalog::{Database, Table};
    use crate::exec::CteMap;
    use crate::value::Value;

    fn src(names: &[&str], rows: Vec<Vec<Value>>) -> Source {
        let width = names.len();
        Source {
            cols: names
                .iter()
                .map(|n| ColMeta::new(Some("t".into()), n.to_string()))
                .collect(),
            chunk: DataChunk::from_rows(rows, width),
        }
    }

    fn src2(q: &str, names: &[&str], rows: Vec<Vec<Value>>) -> Source {
        let width = names.len();
        Source {
            cols: names
                .iter()
                .map(|n| ColMeta::new(Some(q.into()), n.to_string()))
                .collect(),
            chunk: DataChunk::from_rows(rows, width),
        }
    }

    fn run_join(l: Source, r: Source, kind: JoinKind, on: Expr) -> Vec<Vec<Value>> {
        let (db, ctes) = (Database::new("test"), CteMap::new());
        let env = EvalEnv::new(&db, &ctes);
        let out = join_columnar(&env, None, l, r, kind, Some(&on)).expect("join should succeed");
        out.chunk.to_rows()
    }

    fn i(v: i64) -> Value {
        Value::Integer(v)
    }
    fn t(s: &str) -> Value {
        Value::Text(s.into())
    }

    #[test]
    fn hash_join_matches_and_preserves_order() {
        take_counters();
        let l = src2(
            "l",
            &["k", "a"],
            vec![vec![i(1), t("x")], vec![i(2), t("y")], vec![i(1), t("z")]],
        );
        let r = src2(
            "r",
            &["k", "b"],
            vec![vec![i(1), t("p")], vec![i(3), t("q")], vec![i(1), t("s")]],
        );
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Inner, on);
        // Left-major order; right matches in right-row order.
        assert_eq!(
            rows,
            vec![
                vec![i(1), t("x"), i(1), t("p")],
                vec![i(1), t("x"), i(1), t("s")],
                vec![i(1), t("z"), i(1), t("p")],
                vec![i(1), t("z"), i(1), t("s")],
            ]
        );
        let c = take_counters();
        assert_eq!(c.hash_joins, 1);
        assert_eq!(c.nested_loop_joins, 0);
    }

    #[test]
    fn null_join_keys_never_match() {
        // NULL = NULL is unknown in SQL: rows with NULL keys must join
        // with nothing, on both the build and probe sides.
        let l = src2("l", &["k"], vec![vec![Value::Null], vec![i(1)]]);
        let r = src2("r", &["k"], vec![vec![Value::Null], vec![i(1)]]);
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Inner, on);
        assert_eq!(rows, vec![vec![i(1), i(1)]]);
    }

    #[test]
    fn left_join_pads_null_key_rows() {
        let l = src2("l", &["k"], vec![vec![Value::Null], vec![i(7)]]);
        let r = src2("r", &["k", "v"], vec![vec![i(1), t("a")]]);
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Left, on);
        assert_eq!(
            rows,
            vec![
                vec![Value::Null, Value::Null, Value::Null],
                vec![i(7), Value::Null, Value::Null],
            ]
        );
    }

    /// `src2` with every column dictionary-encoded where the layout
    /// allows, as a table scan delivers it.
    fn encoded(q: &str, names: &[&str], rows: Vec<Vec<Value>>) -> Source {
        let plain = src2(q, names, rows);
        let cols = plain.chunk.cols.iter();
        let cols = cols
            .map(|c| Arc::new(crate::array::Array::clone(c).dictionary_encoded()))
            .collect();
        Source {
            cols: plain.cols,
            chunk: DataChunk::new(cols, plain.chunk.len()),
        }
    }

    #[test]
    fn dictionary_keys_join_like_plain_ones() {
        // Duplicates and NULLs on both sides, a build-only and a
        // probe-only key, and a date column keyed against ISO text.
        let d = |m| Value::Date(crate::value::Date::new(2023, m, 1).expect("valid date"));
        let l_rows = vec![
            vec![t("a"), i(1), d(1)],
            vec![Value::Null, i(2), d(2)],
            vec![t("b"), i(3), Value::Null],
            vec![t("a"), i(4), d(2)],
            vec![t("z"), i(5), d(1)],
            vec![t("b"), i(6), d(3)],
        ];
        let r_rows = vec![
            vec![t("b"), t("p"), t("2023-02-01")],
            vec![t("a"), t("q"), t("2023-01-01")],
            vec![Value::Null, t("r"), Value::Null],
            vec![t("b"), t("s"), t("2023-02-01")],
            vec![t("y"), t("u"), t("2023-1-1")],
            vec![t("a"), Value::Null, t("2023-02-01")],
        ];
        let (ln, rn) = (["k", "n", "d"], ["k", "v", "d"]);
        for key in ["k", "d"] {
            for kind in [JoinKind::Inner, JoinKind::Left] {
                let on = || E::eq(E::qcol("l", key), E::qcol("r", key));
                take_counters();
                let got = run_join(
                    encoded("l", &ln, l_rows.clone()),
                    encoded("r", &rn, r_rows.clone()),
                    kind,
                    on(),
                );
                assert_eq!(take_counters().hash_joins, 1);
                let want = run_join(
                    src2("l", &ln, l_rows.clone()),
                    src2("r", &rn, r_rows.clone()),
                    kind,
                    on(),
                );
                assert_eq!(got, want, "{kind:?} join on {key}");
                // One side per-code, the other per-row.
                let mixed = run_join(
                    src2("l", &ln, l_rows.clone()),
                    encoded("r", &rn, r_rows.clone()),
                    kind,
                    on(),
                );
                assert_eq!(mixed, want, "{kind:?} join on {key}, plain probe side");
            }
        }
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(
            encoded("l", &ln, l_rows),
            encoded("r", &rn, r_rows),
            JoinKind::Left,
            on,
        );
        let pairs: Vec<(i64, String)> = rows
            .iter()
            .map(|r| (r[1].as_i64().expect("n"), r[4].to_string()))
            .collect();
        let want = [
            (1, "q"),
            (1, "NULL"),
            (2, "NULL"),
            (3, "p"),
            (3, "s"),
            (4, "q"),
            (4, "NULL"),
            (5, "NULL"),
            (6, "p"),
            (6, "s"),
        ];
        assert_eq!(pairs, want.map(|(n, v)| (n, v.to_string())));
    }

    #[test]
    fn composite_keys_with_pipe_strings_do_not_collide() {
        // ("a|t:b", "c") vs ("a", "b|t:c") collided under string keys.
        let l = src2("l", &["k1", "k2"], vec![vec![t("a|t:b"), t("c")]]);
        let r = src2(
            "r",
            &["k1", "k2"],
            vec![vec![t("a"), t("b|t:c")], vec![t("a|t:b"), t("c")]],
        );
        let on = E::and(
            E::eq(E::qcol("l", "k1"), E::qcol("r", "k1")),
            E::eq(E::qcol("l", "k2"), E::qcol("r", "k2")),
        );
        let rows = run_join(l, r, JoinKind::Inner, on);
        assert_eq!(rows, vec![vec![t("a|t:b"), t("c"), t("a|t:b"), t("c")]]);
    }

    #[test]
    fn mixed_numeric_keys_match_as_f64() {
        // 1 (int) joins 1.0 (float), like sql_cmp's mixed comparison.
        let l = src2("l", &["k"], vec![vec![i(1)], vec![i(2)]]);
        let r = src2("r", &["k"], vec![vec![Value::Float(1.0)]]);
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Inner, on);
        assert_eq!(rows, vec![vec![i(1), Value::Float(1.0)]]);
    }

    #[test]
    fn huge_ints_with_floats_fall_back_to_nested_loop() {
        take_counters();
        let big = (1i64 << 53) + 1;
        let l = src2("l", &["k"], vec![vec![i(big)]]);
        let r = src2("r", &["k"], vec![vec![Value::Float(9007199254740992.0)]]);
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Inner, on);
        // Int(2^53+1) vs Float(2^53) compares equal as f64 in sql_cmp,
        // and the fallback nested loop reproduces exactly that.
        assert_eq!(rows.len(), 1);
        let c = take_counters();
        assert_eq!(c.nested_loop_joins, 1);
        assert_eq!(c.hash_joins, 0);
    }

    #[test]
    fn non_equi_predicate_uses_nested_loop() {
        take_counters();
        let l = src2("l", &["k"], vec![vec![i(1)], vec![i(5)]]);
        let r = src2("r", &["k"], vec![vec![i(3)]]);
        let on = Expr::Binary {
            left: Box::new(E::qcol("l", "k")),
            op: BinaryOp::Gt,
            right: Box::new(E::qcol("r", "k")),
        };
        let rows = run_join(l, r, JoinKind::Inner, on);
        assert_eq!(rows, vec![vec![i(5), i(3)]]);
        let c = take_counters();
        assert_eq!(c.nested_loop_joins, 1);
    }

    #[test]
    fn cross_join_is_left_major() {
        let (db, ctes) = (Database::new("test"), CteMap::new());
        let env = EvalEnv::new(&db, &ctes);
        let l = src(&["a"], vec![vec![i(1)], vec![i(2)]]);
        let r = src2("u", &["b"], vec![vec![t("x")], vec![t("y")]]);
        let out = join_columnar(&env, None, l, r, JoinKind::Cross, None).expect("cross join");
        assert_eq!(
            out.chunk.to_rows(),
            vec![
                vec![i(1), t("x")],
                vec![i(1), t("y")],
                vec![i(2), t("x")],
                vec![i(2), t("y")],
            ]
        );
    }

    #[test]
    fn scan_counts_rows_and_batches() {
        take_counters();
        let mut db = Database::new("test");
        let mut tbl = Table::new(
            "NUMS",
            vec![crate::catalog::Column::new(
                "N",
                crate::value::DataType::Integer,
            )],
        );
        for v in 0..5 {
            tbl.push_row(vec![i(v)]).expect("row arity");
        }
        db.add_table(tbl).expect("add table");
        let tr = TableRef::Named {
            name: "NUMS".into(),
            alias: None,
        };
        let ctes = CteMap::new();
        let srcr = resolve_from_columnar(&EvalEnv::new(&db, &ctes), &tr, None).expect("scan");
        assert_eq!(srcr.chunk.len(), 5);
        let c = take_counters();
        assert_eq!(c.batches, 1);
        assert_eq!(c.rows_scanned, 5);
    }
}
