//! Static analysis over the AST: complexity scoring and reference
//! extraction.
//!
//! * [`complexity`] drives the oracle model's bounded "reasoning capacity"
//!   (the paper's argument that planning lets GenEdit handle much more
//!   complex SQL than direct generation, §3.1.2).
//! * [`referenced_tables`] / [`referenced_columns`] provide ground truth
//!   for the schema-linking operator and its evaluation.

use crate::ast::*;
use std::collections::BTreeSet;

/// A breakdown of query complexity. The scalar [`ComplexityScore::total`]
/// grows with the number of clauses an LLM would have to reason about at
/// once when generating the query in a single shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComplexityScore {
    pub ctes: usize,
    pub joins: usize,
    pub subqueries: usize,
    pub aggregates: usize,
    pub windows: usize,
    pub case_exprs: usize,
    pub predicates: usize,
    pub set_ops: usize,
}

impl ComplexityScore {
    /// Weighted scalar summary. Weights reflect how much "simultaneous
    /// reasoning" each construct demands; CTEs and windows dominate.
    pub fn total(&self) -> u32 {
        (self.ctes * 3
            + self.joins * 2
            + self.subqueries * 3
            + self.aggregates
            + self.windows * 3
            + self.case_exprs
            + self.predicates
            + self.set_ops * 2) as u32
    }
}

/// Compute the complexity breakdown for a query.
pub fn complexity(query: &Query) -> ComplexityScore {
    let mut s = ComplexityScore {
        ctes: query.ctes.len(),
        ..Default::default()
    };
    query.walk(&mut |node| {
        match node {
            Node::Query(nested) => s.ctes += nested.ctes.len(),
            Node::Body(SetExpr::SetOp { .. }) => s.set_ops += 1,
            // WHERE and HAVING count one predicate per top-level conjunct.
            Node::Body(SetExpr::Select(select)) => {
                for p in select.selection.iter().chain(&select.having) {
                    s.predicates += p.conjuncts().len();
                }
            }
            Node::Table(TableRef::Join { .. }) => s.joins += 1,
            Node::Table(TableRef::Derived { .. }) => s.subqueries += 1,
            Node::Expr(Expr::Case { .. }) => s.case_exprs += 1,
            Node::Expr(Expr::Function(call)) if call.over.is_some() => s.windows += 1,
            Node::Expr(Expr::Function(call)) if crate::functions::is_aggregate(&call.name) => {
                s.aggregates += 1
            }
            Node::Expr(e) if e.subquery().is_some() => s.subqueries += 1,
            _ => {}
        }
        true
    });
    s
}

/// All table names referenced in FROM clauses, excluding CTE names defined
/// by the query itself. Names are returned uppercased.
pub fn referenced_tables(query: &Query) -> BTreeSet<String> {
    let mut tables = BTreeSet::new();
    collect_tables(query, &BTreeSet::new(), &mut tables);
    tables
}

/// `outer` holds the CTE names in scope where `query` stands: a nested
/// query inherits them, and a name this query defines shadows base tables
/// from its definition onward (later CTEs, the body, ORDER BY).
fn collect_tables(query: &Query, outer: &BTreeSet<String>, tables: &mut BTreeSet<String>) {
    let mut scope = outer.clone();
    query.walk(&mut |node| match node {
        Node::Query(nested) => {
            collect_tables(nested, &scope, tables);
            if let Some(cte) = query.ctes.iter().find(|c| std::ptr::eq(&*c.query, nested)) {
                scope.insert(cte.name.to_uppercase());
            }
            false
        }
        Node::Table(TableRef::Named { name, .. }) => {
            let upper = name.to_uppercase();
            if !scope.contains(&upper) {
                tables.insert(upper);
            }
            true
        }
        _ => true,
    });
}

/// All column names syntactically referenced anywhere in the query,
/// uppercased. This over-approximates (CTE output columns are included)
/// but is the practical ground truth for schema-linking recall.
pub fn referenced_columns(query: &Query) -> BTreeSet<String> {
    let mut cols = BTreeSet::new();
    query.walk(&mut |node| {
        if let Node::Expr(Expr::Column { name, .. }) = node {
            cols.insert(name.to_uppercase());
        }
        true
    });
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn q(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Query(q) => q,
        }
    }

    #[test]
    fn complexity_grows_with_structure() {
        let simple = complexity(&q("SELECT a FROM t"));
        let moderate = complexity(&q(
            "SELECT a, SUM(b) FROM t JOIN u ON t.id = u.id WHERE c = 1 GROUP BY a",
        ));
        let complex = complexity(&q("WITH x AS (SELECT a, SUM(b) AS s FROM t GROUP BY a), \
                  y AS (SELECT a, s, ROW_NUMBER() OVER (ORDER BY s DESC) AS r FROM x) \
             SELECT * FROM y WHERE r <= 5"));
        assert!(simple.total() < moderate.total());
        assert!(moderate.total() < complex.total());
        assert_eq!(complex.ctes, 2);
        assert_eq!(complex.windows, 1);
    }

    #[test]
    fn conjunct_counting() {
        let s = complexity(&q("SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3"));
        assert_eq!(s.predicates, 3);
        let s = complexity(&q("SELECT a FROM t WHERE a = 1 OR b = 2"));
        assert_eq!(s.predicates, 1);
    }

    #[test]
    fn referenced_tables_excludes_ctes() {
        let tables = referenced_tables(&q(
            "WITH x AS (SELECT * FROM base1) SELECT * FROM x JOIN base2 ON x.a = base2.a",
        ));
        assert_eq!(
            tables.into_iter().collect::<Vec<_>>(),
            vec!["BASE1".to_string(), "BASE2".to_string()]
        );
    }

    #[test]
    fn referenced_tables_in_subqueries() {
        let tables = referenced_tables(&q(
            "SELECT a FROM t WHERE a IN (SELECT b FROM u) AND EXISTS (SELECT 1 FROM v)",
        ));
        assert_eq!(
            tables.into_iter().collect::<Vec<_>>(),
            vec!["T".to_string(), "U".to_string(), "V".to_string()]
        );
    }

    #[test]
    fn referenced_tables_in_group_by_subquery() {
        let tables = referenced_tables(&q(
            "SELECT COUNT(*) FROM t GROUP BY (SELECT MAX(b) FROM u WHERE u.a = t.a)",
        ));
        assert_eq!(
            tables.into_iter().collect::<Vec<_>>(),
            vec!["T".to_string(), "U".to_string()]
        );
    }

    #[test]
    fn referenced_columns_collects_everywhere() {
        let cols = referenced_columns(&q(
            "SELECT a, SUM(b) FROM t WHERE c > 1 GROUP BY a HAVING SUM(b) > 2 ORDER BY d",
        ));
        let got: Vec<String> = cols.into_iter().collect();
        assert_eq!(got, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn set_ops_counted() {
        let s = complexity(&q("SELECT a FROM t UNION SELECT a FROM u"));
        assert_eq!(s.set_ops, 1);
    }
}
