//! SQL decomposition (§3.2.1).
//!
//! "We first rewrite the queries to use CTEs (WITH clause with subqueries).
//! Then, each rewritten query is decomposed into sub-queries based on its
//! subqueries in the WITH clauses, and finally into sub-statements based on
//! inner clauses."
//!
//! [`to_cte_normal_form`] performs the first rewrite (lifting FROM-level
//! derived tables into named CTEs); [`decompose`] produces the clause-level
//! [`SqlFragment`]s that become knowledge-set examples and the pseudo-SQL
//! attached to CoT plan steps.

use crate::types::{FragmentKind, SqlFragment};
use genedit_sql::ast::*;
use genedit_sql::error::EngineResult;
use genedit_sql::eval::collect_window_calls;
use genedit_sql::parser::parse_statement;
use std::collections::HashSet;

/// Rewrite a query so that every FROM-level derived table becomes a named
/// CTE on the outermost WITH clause. CTEs keep dependency order (a lifted
/// subquery precedes the CTE that references it).
pub fn to_cte_normal_form(query: &Query) -> Query {
    let mut used: HashSet<String> = query.ctes.iter().map(|c| c.name.to_uppercase()).collect();
    let mut lifted: Vec<Cte> = Vec::new();

    let mut out = query.clone();
    // Existing CTE bodies may themselves contain derived tables.
    let mut new_ctes = Vec::with_capacity(out.ctes.len());
    for cte in out.ctes.drain(..) {
        let mut body = (*cte.query).clone();
        rewrite_query_body(&mut body, &mut lifted, &mut used);
        new_ctes.push(Cte {
            name: cte.name,
            query: Box::new(body),
        });
    }
    rewrite_query_body(&mut out, &mut lifted, &mut used);

    // lifted CTEs first (innermost dependencies were pushed first), then
    // the original CTEs.
    let mut ctes = lifted;
    ctes.extend(new_ctes);
    out.ctes = ctes;
    out
}

fn rewrite_query_body(query: &mut Query, lifted: &mut Vec<Cte>, used: &mut HashSet<String>) {
    rewrite_set_expr(&mut query.body, lifted, used);
}

fn rewrite_set_expr(body: &mut SetExpr, lifted: &mut Vec<Cte>, used: &mut HashSet<String>) {
    match body {
        SetExpr::Select(select) => {
            if let Some(from) = &mut select.from {
                rewrite_table_ref(from, lifted, used);
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            rewrite_set_expr(left, lifted, used);
            rewrite_set_expr(right, lifted, used);
        }
    }
}

fn rewrite_table_ref(tr: &mut TableRef, lifted: &mut Vec<Cte>, used: &mut HashSet<String>) {
    match tr {
        TableRef::Named { .. } => {}
        TableRef::Derived { query, alias } => {
            let mut body = (**query).clone();
            // Recurse first so inner derived tables lift before this one.
            rewrite_query_body(&mut body, lifted, used);
            // Inner WITH clauses hoist to the top level too.
            let inner_ctes = std::mem::take(&mut body.ctes);
            for c in inner_ctes {
                used.insert(c.name.to_uppercase());
                lifted.push(c);
            }
            let name = fresh_name(alias, used);
            lifted.push(Cte {
                name: name.clone(),
                query: Box::new(body),
            });
            *tr = TableRef::Named {
                name,
                alias: Some(alias.clone()),
            };
        }
        TableRef::Join { left, right, .. } => {
            rewrite_table_ref(left, lifted, used);
            rewrite_table_ref(right, lifted, used);
        }
    }
}

fn fresh_name(alias: &str, used: &mut HashSet<String>) -> String {
    let base = alias.to_uppercase();
    let mut candidate = format!("{base}_CTE");
    let mut n = 1;
    while used.contains(&candidate) {
        n += 1;
        candidate = format!("{base}_CTE_{n}");
    }
    used.insert(candidate.clone());
    candidate
}

/// Decompose a query into clause-level fragments, after CTE normalization.
pub fn decompose(query: &Query) -> Vec<SqlFragment> {
    let normalized = to_cte_normal_form(query);
    let mut out = Vec::new();
    for cte in &normalized.ctes {
        out.push(SqlFragment::new(
            FragmentKind::CteDefinition,
            format!("{} AS ({})", cte.name, cte.query),
            cte.name.clone(),
        ));
        decompose_query_into(&cte.query, &cte.name, &mut out);
    }
    decompose_query_into(&normalized, "main", &mut out);
    out
}

/// Parse and decompose a SQL string.
pub fn decompose_sql(sql: &str) -> EngineResult<Vec<SqlFragment>> {
    let Statement::Query(q) = parse_statement(sql)?;
    Ok(decompose(&q))
}

fn decompose_query_into(query: &Query, scope: &str, out: &mut Vec<SqlFragment>) {
    decompose_set_expr(&query.body, scope, out);
    if !query.order_by.is_empty() {
        let items: Vec<String> = query.order_by.iter().map(|o| o.to_string()).collect();
        out.push(SqlFragment::new(
            FragmentKind::OrderBy,
            format!("ORDER BY {}", items.join(", ")),
            scope,
        ));
    }
    if let Some(n) = query.limit {
        out.push(SqlFragment::new(
            FragmentKind::Limit,
            format!("LIMIT {n}"),
            scope,
        ));
    }
}

fn decompose_set_expr(body: &SetExpr, scope: &str, out: &mut Vec<SqlFragment>) {
    match body {
        SetExpr::Select(select) => decompose_select(select, scope, out),
        SetExpr::SetOp { left, right, .. } => {
            decompose_set_expr(left, scope, out);
            decompose_set_expr(right, scope, out);
        }
    }
}

fn decompose_select(select: &Select, scope: &str, out: &mut Vec<SqlFragment>) {
    // Projection list.
    let items: Vec<String> = select.items.iter().map(|i| i.to_string()).collect();
    out.push(SqlFragment::new(
        FragmentKind::Projection,
        format!(
            "SELECT {}{}",
            if select.distinct { "DISTINCT " } else { "" },
            items.join(", ")
        ),
        scope,
    ));

    // Window expressions get their own fragments: they are the hardest
    // sub-statements and the most valuable as reusable examples.
    let mut wins: Vec<&Expr> = Vec::new();
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_window_calls(expr, &mut wins);
        }
    }
    for w in wins {
        out.push(SqlFragment::new(FragmentKind::Window, w.to_string(), scope));
    }

    if let Some(from) = &select.from {
        out.push(SqlFragment::new(
            FragmentKind::From,
            format!("FROM {from}"),
            scope,
        ));
    }
    if let Some(selection) = &select.selection {
        for conjunct in selection.conjuncts() {
            out.push(SqlFragment::new(
                FragmentKind::Where,
                format!("WHERE {conjunct}"),
                scope,
            ));
        }
    }
    if !select.group_by.is_empty() {
        let keys: Vec<String> = select.group_by.iter().map(|e| e.to_string()).collect();
        out.push(SqlFragment::new(
            FragmentKind::GroupBy,
            format!("GROUP BY {}", keys.join(", ")),
            scope,
        ));
    }
    if let Some(h) = &select.having {
        out.push(SqlFragment::new(
            FragmentKind::Having,
            format!("HAVING {h}"),
            scope,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(sql: &str) -> Query {
        let Statement::Query(q) = parse_statement(sql).unwrap();
        q
    }

    #[test]
    fn derived_table_lifts_to_cte() {
        let norm = to_cte_normal_form(&q(
            "SELECT t.a FROM (SELECT a FROM base WHERE a > 1) AS t WHERE t.a < 10",
        ));
        assert_eq!(norm.ctes.len(), 1);
        assert_eq!(norm.ctes[0].name, "T_CTE");
        match norm.as_select().unwrap().from.as_ref().unwrap() {
            TableRef::Named { name, alias } => {
                assert_eq!(name, "T_CTE");
                assert_eq!(alias.as_deref(), Some("t"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_derived_tables_lift_in_dependency_order() {
        let norm = to_cte_normal_form(&q(
            "SELECT * FROM (SELECT * FROM (SELECT 1 AS x) AS inner1) AS outer1",
        ));
        assert_eq!(norm.ctes.len(), 2);
        assert_eq!(norm.ctes[0].name, "INNER1_CTE");
        assert_eq!(norm.ctes[1].name, "OUTER1_CTE");
    }

    #[test]
    fn normalization_preserves_semantics() {
        use genedit_sql::{execute_sql, Column, DataType, Database, Table, Value};
        let mut db = Database::new("d");
        let mut t = Table::new("base", vec![Column::new("a", DataType::Integer)]);
        for i in 0..20 {
            t.push_row(vec![Value::Integer(i)]).unwrap();
        }
        db.add_table(t).unwrap();
        let sql = "SELECT t.a FROM (SELECT a FROM base WHERE a > 5) AS t \
                   JOIN (SELECT a FROM base WHERE a < 15) AS u ON t.a = u.a ORDER BY t.a";
        let original = execute_sql(&db, sql).unwrap();
        let norm = to_cte_normal_form(&q(sql));
        let rewritten = genedit_sql::execute(&db, &Statement::Query(norm)).unwrap();
        assert!(original.ex_equal(&rewritten));
    }

    #[test]
    fn name_collisions_get_suffixes() {
        let norm = to_cte_normal_form(&q("WITH T_CTE AS (SELECT 1 AS x) \
             SELECT * FROM (SELECT 2 AS y) AS t CROSS JOIN T_CTE"));
        let names: Vec<&str> = norm.ctes.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"T_CTE"));
        assert!(names.contains(&"T_CTE_2"));
    }

    #[test]
    fn inner_with_clauses_hoist() {
        let norm = to_cte_normal_form(&q(
            "SELECT * FROM (WITH inner_cte AS (SELECT 1 AS x) SELECT * FROM inner_cte) AS d",
        ));
        let names: Vec<&str> = norm.ctes.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["inner_cte", "D_CTE"]);
    }

    #[test]
    fn decompose_covers_all_clauses() {
        let frags = decompose_sql(
            "WITH F AS (SELECT ORG, SUM(REV) AS R FROM FIN WHERE COUNTRY = 'Canada' \
             AND OWNED = 'COC' GROUP BY ORG HAVING SUM(REV) > 0) \
             SELECT ORG, R, ROW_NUMBER() OVER (ORDER BY R DESC) AS RNK \
             FROM F ORDER BY RNK LIMIT 5",
        )
        .unwrap();
        let kind_count = |k: FragmentKind| frags.iter().filter(|f| f.kind == k).count();
        assert_eq!(kind_count(FragmentKind::CteDefinition), 1);
        assert_eq!(kind_count(FragmentKind::Projection), 2); // F + main
        assert_eq!(kind_count(FragmentKind::From), 2);
        assert_eq!(kind_count(FragmentKind::Where), 2); // two conjuncts
        assert_eq!(kind_count(FragmentKind::GroupBy), 1);
        assert_eq!(kind_count(FragmentKind::Having), 1);
        assert_eq!(kind_count(FragmentKind::Window), 1);
        assert_eq!(kind_count(FragmentKind::OrderBy), 1);
        assert_eq!(kind_count(FragmentKind::Limit), 1);
    }

    #[test]
    fn fragments_carry_scope() {
        let frags =
            decompose_sql("WITH F AS (SELECT A FROM T WHERE A > 1) SELECT A FROM F").unwrap();
        let where_frag = frags
            .iter()
            .find(|f| f.kind == FragmentKind::Where)
            .unwrap();
        assert_eq!(where_frag.scope, "F");
        let main_from = frags
            .iter()
            .find(|f| f.kind == FragmentKind::From && f.scope == "main")
            .unwrap();
        assert_eq!(main_from.sql, "FROM F");
    }

    #[test]
    fn conjunct_splitting_respects_or() {
        let e = genedit_sql::parse_expression("a = 1 AND (b = 2 OR c = 3) AND d = 4").unwrap();
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn paper_from_fragment_shape() {
        // Fig. 2's first plan step carries "... FROM SPORTS_FINANCIALS ...".
        let frags = decompose_sql("SELECT ORG_NAME FROM SPORTS_FINANCIALS").unwrap();
        let from = frags.iter().find(|f| f.kind == FragmentKind::From).unwrap();
        assert_eq!(from.pseudo_sql(), "... FROM SPORTS_FINANCIALS ...");
    }
}
