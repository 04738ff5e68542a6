//! AST mutators.
//!
//! The oracle model corrupts the gold query once per unmet knowledge
//! requirement (see crate docs). Each mutator implements one corruption
//! class the paper attributes generation failures to (§1 "Recommending
//! Edits"): misunderstood context (dropped/wrong filters), wrong
//! calculations (missing `-1 *`, wrong aggregate), and retrieval misses
//! (wrong table/column). The mutators are also used by the scripted SME
//! simulator to *diagnose* a wrong query by diffing against gold.

use genedit_sql::ast::*;

/// Rename every column reference `from` → `to` (case-insensitive match).
/// Returns how many references changed.
pub fn rename_column(query: &mut Query, from: &str, to: &str) -> usize {
    let mut n = 0;
    query.walk_exprs_mut(&mut |e| {
        if let Expr::Column { name, .. } = e {
            if name.eq_ignore_ascii_case(from) {
                *name = to.to_string();
                n += 1;
            }
        }
    });
    n
}

/// Rename every base-table reference `from` → `to`. Returns change count.
/// Reaches FROM clauses through WITH, set operations and derived tables,
/// not those of expression subqueries.
pub fn rename_table(query: &mut Query, from: &str, to: &str) -> usize {
    let mut n = 0;
    query.walk_mut(&mut |node| {
        if let NodeMut::Table(TableRef::Named { name, .. }) = node {
            if name.eq_ignore_ascii_case(from) {
                *name = to.to_string();
                n += 1;
            }
        }
    });
    n
}

/// Replace every string literal equal to `from` with `to`.
pub fn replace_string_literal(query: &mut Query, from: &str, to: &str) -> usize {
    let mut n = 0;
    query.walk_exprs_mut(&mut |e| {
        if let Expr::Literal(Literal::String(s)) = e {
            if s == from {
                *s = to.to_string();
                n += 1;
            }
        }
    });
    n
}

/// Swap one aggregate/function name for another everywhere.
pub fn rename_function(query: &mut Query, from: &str, to: &str) -> usize {
    let mut n = 0;
    query.walk_exprs_mut(&mut |e| {
        if let Expr::Function(call) = e {
            if call.name.eq_ignore_ascii_case(from) {
                call.name = to.to_ascii_uppercase();
                n += 1;
            }
        }
    });
    n
}

/// Remove every `-1 * x` / `x * -1` factor, leaving `x` — the mistake the
/// paper's example instruction exists to prevent ("Apply a -1 multiplier
/// when calculating the change in performance metrics").
pub fn strip_neg_one_multiplier(query: &mut Query) -> usize {
    let mut n = 0;
    query.walk_exprs_mut(&mut |e| {
        let replacement = match e {
            Expr::Binary {
                op: BinaryOp::Mul,
                left,
                right,
            } => {
                if is_neg_one(left) {
                    Some((**right).clone())
                } else if is_neg_one(right) {
                    Some((**left).clone())
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(r) = replacement {
            *e = r;
            n += 1;
        }
    });
    n
}

fn is_neg_one(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Literal::Integer(-1)))
        || matches!(e, Expr::Literal(Literal::Float(f)) if *f == -1.0)
        || matches!(e, Expr::Unary { op: UnaryOp::Neg, expr }
            if matches!(**expr, Expr::Literal(Literal::Integer(1))))
}

/// Flip ASC↔DESC on every ORDER BY (query level and window specs).
pub fn flip_order_directions(query: &mut Query) -> usize {
    let mut n = query.order_by.len();
    for o in &mut query.order_by {
        o.desc = !o.desc;
    }
    for cte in &mut query.ctes {
        n += flip_order_directions(&mut cte.query);
    }
    query.walk_exprs_mut(&mut |e| {
        if let Expr::Function(call) = e {
            if let Some(spec) = &mut call.over {
                for o in &mut spec.order_by {
                    o.desc = !o.desc;
                    n += 1;
                }
            }
        }
    });
    n
}

/// Remove WHERE conjuncts whose rendered text contains `marker`
/// (case-insensitive). Applies in every SELECT reachable through WITH, set
/// operations and derived tables, not in expression subqueries. Returns
/// how many conjuncts were removed.
pub fn drop_where_conjunct(query: &mut Query, marker: &str) -> usize {
    let marker = marker.to_uppercase();
    let mut n = 0;
    query.walk_mut(&mut |node| {
        let NodeMut::Body(SetExpr::Select(s)) = node else {
            return;
        };
        let Some(selection) = &s.selection else {
            return;
        };
        let conjuncts = selection.conjuncts();
        let kept: Vec<Expr> = conjuncts
            .iter()
            .filter(|c| !c.to_string().to_uppercase().contains(&marker))
            .map(|c| (*c).clone())
            .collect();
        n += conjuncts.len() - kept.len();
        s.selection = kept.into_iter().reduce(Expr::and);
    });
    n
}

/// Truncate rendered SQL to produce a *syntactic* error — models the
/// cut-off generations long queries suffer without planning.
pub fn truncate_sql(sql: &str, fraction_kept: f64) -> String {
    let keep = ((sql.len() as f64) * fraction_kept.clamp(0.1, 0.95)) as usize;
    let mut cut = keep.min(sql.len().saturating_sub(1)).max(1);
    while cut > 0 && !sql.is_char_boundary(cut) {
        cut -= 1;
    }
    sql[..cut].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_sql::parse_statement;

    fn q(sql: &str) -> Query {
        let Statement::Query(q) = parse_statement(sql).unwrap();
        q
    }

    #[test]
    fn rename_column_everywhere() {
        let mut query = q("WITH c AS (SELECT rev FROM t WHERE rev > 0) \
             SELECT rev FROM c ORDER BY rev");
        assert_eq!(rename_column(&mut query, "REV", "revenue"), 4);
        assert!(!query.to_string().to_lowercase().contains("rev "));
    }

    #[test]
    fn rename_table_skips_columns() {
        let mut query = q("SELECT fin FROM fin JOIN other ON fin.x = other.x");
        assert_eq!(rename_table(&mut query, "fin", "financials"), 1);
        let s = query.to_string();
        assert!(s.contains("FROM financials"));
        // Column named fin untouched.
        assert!(s.contains("SELECT fin"));
    }

    #[test]
    fn literal_replacement() {
        let mut query = q("SELECT * FROM t WHERE c = 'Canada' OR c = 'USA'");
        assert_eq!(replace_string_literal(&mut query, "Canada", "CA"), 1);
        assert!(query.to_string().contains("'CA'"));
        assert!(query.to_string().contains("'USA'"));
    }

    #[test]
    fn aggregate_swap() {
        let mut query = q("SELECT SUM(x), SUM(y), AVG(z) FROM t");
        assert_eq!(rename_function(&mut query, "sum", "AVG"), 2);
        assert_eq!(query.to_string().matches("AVG").count(), 3);
    }

    #[test]
    fn neg_one_stripping() {
        let mut query = q("SELECT -1 * (a - b), (a - b) * -1, 2 * a FROM t");
        assert_eq!(strip_neg_one_multiplier(&mut query), 2);
        let s = query.to_string();
        assert!(!s.contains("-1"));
        assert!(s.contains("2 * a"));
    }

    #[test]
    fn order_direction_flip() {
        let mut query = q("SELECT ROW_NUMBER() OVER (ORDER BY a DESC) FROM t ORDER BY b");
        let n = flip_order_directions(&mut query);
        assert_eq!(n, 2);
        let s = query.to_string();
        assert!(s.contains("OVER (ORDER BY a)"));
        assert!(s.contains("ORDER BY b DESC"));
    }

    #[test]
    fn conjunct_dropping_matches_marker() {
        let mut query = q(
            "WITH c AS (SELECT x FROM t WHERE owned = 'COC' AND country = 'Canada') \
             SELECT x FROM c WHERE x > 0",
        );
        assert_eq!(drop_where_conjunct(&mut query, "owned"), 1);
        let s = query.to_string();
        assert!(!s.to_lowercase().contains("owned"));
        assert!(s.contains("country = 'Canada'"));
        assert!(s.contains("x > 0"));
    }

    #[test]
    fn dropping_sole_conjunct_removes_where() {
        let mut query = q("SELECT x FROM t WHERE owned = 'COC'");
        assert_eq!(drop_where_conjunct(&mut query, "OWNED"), 1);
        assert!(query.as_select().unwrap().selection.is_none());
    }

    #[test]
    fn truncation_produces_parse_error() {
        let sql = "SELECT a, b FROM t WHERE a > 1 GROUP BY a";
        let broken = truncate_sql(sql, 0.5);
        assert!(broken.len() < sql.len());
        // Not all truncations are invalid, but this one cuts mid-clause.
        assert!(parse_statement(&broken).is_err() || broken.len() < sql.len());
    }

    #[test]
    fn corrupted_query_remains_printable() {
        let mut query = q(
            "SELECT SUM(CASE WHEN q = '2023Q1' THEN rev ELSE 0 END) FROM fin WHERE owned = 'COC'",
        );
        drop_where_conjunct(&mut query, "owned");
        rename_function(&mut query, "SUM", "AVG");
        let rendered = query.to_string();
        assert!(parse_statement(&rendered).is_ok());
    }
}
