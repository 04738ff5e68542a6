//! Golden pin for every traversal of the SQL tree.
//!
//! The expected values were captured at the commit *before* the
//! hand-written `Expr` / `Query` recursions of `analysis.rs`,
//! `genedit_llm::mutate` and `decompose.rs` moved onto the one walker in
//! `crates/sqlengine/src/ast.rs`, so a change to that walker must
//! reproduce them bit for bit. Run this test before and after touching
//! `ast.rs`.
//!
//! The corpus is the 132 gold queries of `Workload::standard(42)` plus a
//! few hand-written shapes the gold set has none of (set operations,
//! derived tables, every expression-subquery form, nested WITH) — the
//! mutators' reach rules only show on those. Mutator arguments are drawn
//! from the query itself through the lexer and the analysis functions,
//! never through the walker under test.

use genedit::bird::Workload;
use genedit::knowledge::decompose;
use genedit::llm::mutate;
use genedit::sql::lexer::{tokenize, TokenKind};
use genedit::sql::{
    complexity, parse_statement, referenced_columns, referenced_tables, Query, Statement,
};
use genedit::telemetry::hash::{fnv1a64, fnv1a64_from};
use std::collections::BTreeSet;

const EXTRA: &[&str] = &[
    "SELECT a, COUNT(*) FROM t WHERE f = 'x' AND a > 1 GROUP BY a \
     UNION ALL SELECT b, SUM(-1 * c) FROM u WHERE f = 'x' AND g = 'y' GROUP BY b \
     ORDER BY a DESC LIMIT 3",
    "SELECT d.a, d.s FROM (SELECT a, SUM(b) AS s FROM t WHERE f = 'x' AND b > 0 GROUP BY a) AS d \
     JOIN (SELECT a FROM u WHERE f = 'x' EXCEPT SELECT a FROM t WHERE g = 'y') AS e ON d.a = e.a \
     WHERE d.s > 10 AND d.a <> 'x'",
    "SELECT a FROM t WHERE f = 'x' AND a IN (SELECT a FROM u WHERE f = 'x' AND g = 'y') \
     AND EXISTS (SELECT 1 FROM t WHERE f = 'x') \
     AND b > (SELECT AVG(b) FROM t WHERE f = 'x' AND g = 'y') \
     AND NOT EXISTS (SELECT 1 FROM (SELECT a FROM t WHERE f = 'x') AS z WHERE z.a = t.a)",
    "WITH x AS (WITH t AS (SELECT a, f FROM u WHERE f = 'x') SELECT a FROM t WHERE f = 'x'), \
     y AS (SELECT a, ROW_NUMBER() OVER (PARTITION BY a ORDER BY SUM(b) DESC, a) AS r \
           FROM t WHERE f = 'x' GROUP BY a) \
     SELECT x.a, CASE y.r WHEN 1 THEN 'x' ELSE 'y' END FROM x JOIN y ON x.a = y.a \
     WHERE y.r BETWEEN 1 AND 3 AND x.a LIKE 'x' AND x.a IS NOT NULL AND x.a NOT IN ('y', 'x') \
     ORDER BY RANK() OVER (ORDER BY y.r), CAST(x.a AS TEXT) || 'x'",
    "SELECT a * -1, -1 * (b * -1), COALESCE(MAX(c), 0) FROM t, u \
     WHERE t.f = 'x' AND (u.f = 'x' OR u.g = 'y') AND -b < 0 \
     GROUP BY a, b HAVING COUNT(DISTINCT c) > 1 AND MAX(c) > 0 \
     INTERSECT (SELECT a, b, c FROM t UNION SELECT a, b, c FROM u WHERE f = 'x')",
];

/// The 132 gold queries in workload order, then [`EXTRA`].
fn corpus() -> Vec<String> {
    let workload = Workload::standard(42);
    let mut sqls: Vec<String> = workload
        .domains
        .iter()
        .flat_map(|bundle| bundle.tasks.iter().map(|t| t.gold_sql.clone()))
        .collect();
    assert_eq!(sqls.len(), 132);
    sqls.extend(EXTRA.iter().map(|s| s.to_string()));
    sqls
}

fn parse(sql: &str) -> Query {
    match parse_statement(sql) {
        Ok(Statement::Query(q)) => q,
        Err(e) => panic!("{sql:?} does not parse: {e}"),
    }
}

/// Distinct string literals and distinct names followed by `(`, in
/// source order, read off the token stream.
fn literals_and_calls(sql: &str) -> (Vec<String>, Vec<String>) {
    let tokens = tokenize(sql).unwrap();
    let (mut literals, mut calls) = (Vec::new(), Vec::new());
    for (i, tok) in tokens.iter().enumerate() {
        match &tok.kind {
            TokenKind::StringLit(s) if !literals.contains(s) => literals.push(s.clone()),
            TokenKind::Ident(s)
                if tokens.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::LParen)
                    && !calls.contains(s) =>
            {
                calls.push(s.clone())
            }
            _ => {}
        }
    }
    (literals, calls)
}

struct Digests(Vec<(&'static str, u64)>);

impl Digests {
    fn feed(&mut self, name: &'static str, text: &str) {
        let at = match self.0.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.0.push((name, fnv1a64(name.as_bytes())));
                self.0.len() - 1
            }
        };
        let d = &mut self.0[at].1;
        *d = fnv1a64_from(*d, text.as_bytes());
        *d = fnv1a64_from(*d, b"\n");
    }

    /// Feed the count a mutator returned and the SQL it left behind.
    fn mutated(
        &mut self,
        name: &'static str,
        query: &Query,
        args: &[&str],
        mutator: impl FnOnce(&mut Query) -> usize,
    ) {
        let mut q = query.clone();
        let n = mutator(&mut q);
        self.feed(name, &format!("{args:?} -> {n}: {q}"));
    }
}

#[test]
fn every_traversal_is_pinned() {
    let mut d = Digests(Vec::new());
    for sql in corpus() {
        let query = parse(&sql);
        let tables = referenced_tables(&query);
        let columns = referenced_columns(&query);
        let (literals, calls) = literals_and_calls(&sql);

        let c = complexity(&query);
        d.feed(
            "complexity",
            &format!(
                "{} {} {} {} {} {} {} {} = {}",
                c.ctes,
                c.joins,
                c.subqueries,
                c.aggregates,
                c.windows,
                c.case_exprs,
                c.predicates,
                c.set_ops,
                c.total()
            ),
        );
        d.feed("referenced_tables", &format!("{tables:?}"));
        d.feed("referenced_columns", &format!("{columns:?}"));
        for f in decompose(&query) {
            d.feed("decompose", &format!("{:?}|{}|{}", f.kind, f.scope, f.sql));
        }

        for col in &columns {
            d.mutated("rename_column", &query, &[col], |q| {
                mutate::rename_column(q, col, "renamed_col")
            });
        }
        // CTE names too: `rename_table` does not tell them from base tables.
        let cte_names: BTreeSet<String> = tokenize(&sql)
            .unwrap()
            .windows(3)
            .filter(|w| w[1].kind.is_keyword("AS") && w[2].kind == TokenKind::LParen)
            .filter_map(|w| match &w[0].kind {
                TokenKind::Ident(s) => Some(s.to_uppercase()),
                _ => None,
            })
            .collect();
        for table in tables.union(&cte_names) {
            d.mutated("rename_table", &query, &[table], |q| {
                mutate::rename_table(q, table, "renamed_table")
            });
        }
        for lit in &literals {
            d.mutated("replace_string_literal", &query, &[lit], |q| {
                mutate::replace_string_literal(q, lit, "replaced")
            });
        }
        for call in &calls {
            d.mutated("rename_function", &query, &[call], |q| {
                mutate::rename_function(q, call, "renamed_fn")
            });
        }
        d.mutated(
            "strip_neg_one_multiplier",
            &query,
            &[],
            mutate::strip_neg_one_multiplier,
        );
        d.mutated(
            "flip_order_directions",
            &query,
            &[],
            mutate::flip_order_directions,
        );
        for marker in columns.iter().chain(&literals) {
            d.mutated("drop_where_conjunct", &query, &[marker], |q| {
                mutate::drop_where_conjunct(q, marker)
            });
        }
    }
    let expected: &[(&str, u64)] = &[
        ("complexity", 0x1df6_aaab_2acf_6302),
        ("referenced_tables", 0x5f25_fe3d_18d7_7fd7),
        ("referenced_columns", 0xa687_7c68_47c3_d81b),
        ("decompose", 0xa0d6_87b5_1cb1_399e),
        ("rename_column", 0x407a_d2a7_0a1f_bb8f),
        ("rename_table", 0x7e4c_2c65_b527_cf5c),
        ("replace_string_literal", 0xc854_61d9_f859_7433),
        ("rename_function", 0xf8db_e72d_9449_1b44),
        ("strip_neg_one_multiplier", 0xd731_c28f_4aea_3615),
        ("flip_order_directions", 0x8b22_4a56_dae0_7b05),
        ("drop_where_conjunct", 0xa17a_554b_05f2_7467),
    ];
    assert_eq!(d.0, expected, "got {:#x?}", d.0);
}
