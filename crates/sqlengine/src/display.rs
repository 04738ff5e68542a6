//! SQL rendering (un-parsing).
//!
//! Two renderers share one code path:
//! * `Display` renders compact single-line SQL whose re-parse is
//!   structurally identical to the original AST (property-tested).
//! * [`pretty`] renders indented multi-line SQL for prompts and examples —
//!   the form shown in the paper's Fig. 2 knowledge snippets.

use crate::ast::*;
use crate::value::DataType;
use std::fmt::{self, Write as _};

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.ctes.is_empty() {
            f.write_str("WITH ")?;
            for (i, cte) in self.ctes.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{} AS ({})", ident(&cte.name), cte.query)?;
            }
            f.write_str(" ")?;
        }
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            write_order_list(f, &self.order_by)?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let op_str = match op {
                    SetOp::Union => "UNION",
                    SetOp::Intersect => "INTERSECT",
                    SetOp::Except => "EXCEPT",
                };
                write!(f, "{left} {op_str}")?;
                if *all {
                    f.write_str(" ALL")?;
                }
                write!(f, " {right}")
            }
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(t) => write!(f, "{}.*", ident(t)),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {}", ident(a))?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Named { name, alias } => {
                write!(f, "{}", ident(name))?;
                if let Some(a) = alias {
                    write!(f, " AS {}", ident(a))?;
                }
                Ok(())
            }
            TableRef::Derived { query, alias } => {
                write!(f, "({query}) AS {}", ident(alias))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let kw = match kind {
                    JoinKind::Inner => "JOIN",
                    JoinKind::Left => "LEFT JOIN",
                    JoinKind::Cross => "CROSS JOIN",
                };
                write!(f, "{left} {kw} {right}")?;
                if let Some(cond) = on {
                    write!(f, " ON {cond}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for OrderItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.desc {
            f.write_str(" DESC")?;
        }
        Ok(())
    }
}

fn write_order_list(f: &mut fmt::Formatter<'_>, items: &[OrderItem]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => f.write_str("NULL"),
            Literal::Integer(v) => write!(f, "{v}"),
            Literal::Float(v) => {
                // Always keep a decimal point so the literal re-lexes as a float.
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Boolean(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

/// Quote an identifier when it is not a plain word or collides with a
/// keyword that would change parsing.
fn ident(name: &str) -> String {
    let plain = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && !is_reserved_word(name);
    if plain {
        name.to_string()
    } else {
        format!("\"{name}\"")
    }
}

fn is_reserved_word(name: &str) -> bool {
    const WORDS: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "HAVING",
        "ORDER",
        "LIMIT",
        "JOIN",
        "INNER",
        "LEFT",
        "CROSS",
        "ON",
        "UNION",
        "INTERSECT",
        "EXCEPT",
        "AND",
        "OR",
        "NOT",
        "IN",
        "BETWEEN",
        "LIKE",
        "IS",
        "NULL",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "AS",
        "WITH",
        "DISTINCT",
        "ALL",
        "ASC",
        "DESC",
        "EXISTS",
        "CAST",
        "OVER",
        "PARTITION",
        "BY",
        "TRUE",
        "FALSE",
    ];
    WORDS.iter().any(|w| name.eq_ignore_ascii_case(w))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Column { table, name } => {
                if let Some(t) = table {
                    write!(f, "{}.{}", ident(t), ident(name))
                } else {
                    write!(f, "{}", ident(name))
                }
            }
            Expr::Unary { op, expr } => {
                match op {
                    UnaryOp::Neg => {
                        let inner = child_strict(expr, self.precedence());
                        // Parenthesize anything that renders with a leading
                        // minus, or `--` would lex as a line comment.
                        if inner.starts_with('-') {
                            write!(f, "-({inner})")
                        } else {
                            write!(f, "-{inner}")
                        }
                    }
                    UnaryOp::Not => write!(f, "NOT {}", child(expr, self.precedence())),
                }
            }
            Expr::Binary { left, op, right } => {
                let prec = op.precedence();
                // The comparison layer (prec 4) is non-associative in the
                // grammar, so equal-precedence children need parens on both
                // sides; arithmetic layers are left-associative, so only
                // the right child gets strict parens.
                let l = if prec == 4 {
                    child_strict(left, prec)
                } else {
                    child(left, prec)
                };
                let r = child_strict(right, prec);
                write!(f, "{l} {} {r}", op.symbol())
            }
            Expr::IsNull { expr, negated } => {
                let e = child_strict(expr, self.precedence());
                write!(f, "{e} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let e = child_strict(expr, self.precedence());
                write!(f, "{e} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let e = child_strict(expr, self.precedence());
                write!(
                    f,
                    "{e} {}IN ({subquery})",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = child_strict(expr, self.precedence());
                let lo = child_strict(low, self.precedence());
                let hi = child_strict(high, self.precedence());
                write!(
                    f,
                    "{e} {}BETWEEN {lo} AND {hi}",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let e = child_strict(expr, self.precedence());
                let p = child_strict(pattern, self.precedence());
                write!(f, "{e} {}LIKE {p}", if *negated { "NOT " } else { "" })
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                f.write_str("CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (cond, result) in branches {
                    write!(f, " WHEN {cond} THEN {result}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::Cast { expr, ty } => {
                let ty_name = match ty {
                    DataType::Integer => "INTEGER",
                    DataType::Float => "FLOAT",
                    DataType::Text => "TEXT",
                    DataType::Boolean => "BOOLEAN",
                    DataType::Date => "DATE",
                };
                write!(f, "CAST({expr} AS {ty_name})")
            }
            Expr::Function(call) => write!(f, "{call}"),
            Expr::Exists { subquery, negated } => {
                write!(
                    f,
                    "{}EXISTS ({subquery})",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
        }
    }
}

impl fmt::Display for FunctionCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        if self.star {
            f.write_str("*")?;
        } else {
            if self.distinct {
                f.write_str("DISTINCT ")?;
            }
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        f.write_str(")")?;
        if let Some(spec) = &self.over {
            f.write_str(" OVER (")?;
            let mut needs_space = false;
            if !spec.partition_by.is_empty() {
                f.write_str("PARTITION BY ")?;
                for (i, e) in spec.partition_by.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                needs_space = true;
            }
            if !spec.order_by.is_empty() {
                if needs_space {
                    f.write_str(" ")?;
                }
                f.write_str("ORDER BY ")?;
                for (i, item) in spec.order_by.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// Render a child expression, parenthesizing when it binds looser than the
/// parent.
fn child(e: &Expr, parent_prec: u8) -> String {
    if e.precedence() < parent_prec {
        format!("({e})")
    } else {
        format!("{e}")
    }
}

/// Like [`child`] but also parenthesizes equal precedence — used for the
/// right operand of left-associative binary operators.
fn child_strict(e: &Expr, parent_prec: u8) -> String {
    if e.precedence() <= parent_prec {
        format!("({e})")
    } else {
        format!("{e}")
    }
}

/// Render indented, human-oriented SQL. CTEs go one per block, clauses one
/// per line — the style the paper shows in prompts and the knowledge set.
pub fn pretty(query: &Query) -> String {
    let mut out = String::new();
    write_pretty_query(&mut out, query, 0);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_pretty_query(out: &mut String, query: &Query, level: usize) {
    if !query.ctes.is_empty() {
        indent(out, level);
        out.push_str("WITH\n");
        for (i, cte) in query.ctes.iter().enumerate() {
            indent(out, level);
            let _ = writeln!(out, "{} AS (", ident(&cte.name));
            write_pretty_query(out, &cte.query, level + 1);
            indent(out, level);
            out.push_str(if i + 1 < query.ctes.len() {
                "),\n"
            } else {
                ")\n"
            });
        }
    }
    write_pretty_set_expr(out, &query.body, level);
    if !query.order_by.is_empty() {
        indent(out, level);
        out.push_str("ORDER BY ");
        for (i, item) in query.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{item}");
        }
        out.push('\n');
    }
    if let Some(n) = query.limit {
        indent(out, level);
        let _ = writeln!(out, "LIMIT {n}");
    }
}

fn write_pretty_set_expr(out: &mut String, body: &SetExpr, level: usize) {
    match body {
        SetExpr::Select(s) => write_pretty_select(out, s, level),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            write_pretty_set_expr(out, left, level);
            indent(out, level);
            let op_str = match op {
                SetOp::Union => "UNION",
                SetOp::Intersect => "INTERSECT",
                SetOp::Except => "EXCEPT",
            };
            let _ = writeln!(out, "{op_str}{}", if *all { " ALL" } else { "" });
            write_pretty_set_expr(out, right, level);
        }
    }
}

fn write_pretty_select(out: &mut String, s: &Select, level: usize) {
    indent(out, level);
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in s.items.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
            indent(out, level + 1);
        }
        let _ = write!(out, "{item}");
    }
    out.push('\n');
    if let Some(from) = &s.from {
        indent(out, level);
        let _ = writeln!(out, "FROM {from}");
    }
    if let Some(w) = &s.selection {
        indent(out, level);
        let _ = writeln!(out, "WHERE {w}");
    }
    if !s.group_by.is_empty() {
        indent(out, level);
        out.push_str("GROUP BY ");
        for (i, e) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{e}");
        }
        out.push('\n');
    }
    if let Some(h) = &s.having {
        indent(out, level);
        let _ = writeln!(out, "HAVING {h}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn round_trip(sql: &str) {
        let Statement::Query(q1) = parse_statement(sql).unwrap();
        let rendered = q1.to_string();
        let Statement::Query(q2) = parse_statement(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        assert_eq!(q1, q2, "round trip changed AST for {sql:?} -> {rendered:?}");
    }

    #[test]
    fn round_trips() {
        round_trip("SELECT 1");
        round_trip("SELECT a, b AS c FROM t WHERE a > 1 AND b < 2 OR c = 3");
        round_trip("SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y");
        round_trip("WITH x AS (SELECT 1 AS a) SELECT a FROM x ORDER BY a DESC LIMIT 3");
        round_trip("SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t");
        round_trip("SELECT COUNT(DISTINCT a), SUM(b) FROM t GROUP BY c HAVING SUM(b) > 0");
        round_trip("SELECT ROW_NUMBER() OVER (PARTITION BY a ORDER BY b DESC) FROM t");
        round_trip("SELECT a FROM t UNION ALL SELECT a FROM u");
        round_trip("SELECT a FROM (SELECT a FROM t) AS s");
        round_trip("SELECT x FROM t WHERE x IN (SELECT y FROM u) AND z NOT LIKE 'a%'");
        round_trip("SELECT CAST(a AS FLOAT) / NULLIF(b, 0) FROM t");
        round_trip("SELECT -a, NOT b, a - (b - c) FROM t");
        round_trip("SELECT 1 - 2 - 3");
        round_trip("SELECT 'it''s'");
        round_trip("SELECT a BETWEEN 1 AND 2 FROM t");
    }

    #[test]
    fn left_associativity_preserved() {
        // 1 - 2 - 3 must not re-parse as 1 - (2 - 3).
        let Statement::Query(q) = parse_statement("SELECT 1 - 2 - 3").unwrap();
        let s = q.to_string();
        assert!(s.contains("1 - 2 - 3"), "{s}");
    }

    #[test]
    fn precedence_parens_added() {
        // (a + b) * c needs parens, a + b * c does not.
        let Statement::Query(q) = parse_statement("SELECT (a + b) * c").unwrap();
        assert!(q.to_string().contains("(a + b) * c"));
        let Statement::Query(q) = parse_statement("SELECT a + b * c").unwrap();
        assert!(q.to_string().contains("a + b * c"));
    }

    #[test]
    fn reserved_identifiers_quoted() {
        assert_eq!(super::ident("order"), "\"order\"");
        assert_eq!(super::ident("ORG_NAME"), "ORG_NAME");
        assert_eq!(super::ident("weird col"), "\"weird col\"");
        assert_eq!(super::ident("1abc"), "\"1abc\"");
    }

    #[test]
    fn string_escaping_round_trips() {
        round_trip("SELECT * FROM t WHERE name = 'O''Brien'");
    }

    #[test]
    fn pretty_is_reparseable_and_multiline() {
        let sql = "WITH x AS (SELECT a, SUM(b) AS s FROM t GROUP BY a) \
                   SELECT a, s FROM x WHERE s > 10 ORDER BY s DESC LIMIT 5";
        let Statement::Query(q) = parse_statement(sql).unwrap();
        let p = pretty(&q);
        assert!(p.lines().count() > 4, "{p}");
        let Statement::Query(q2) = parse_statement(&p).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn float_literals_keep_decimal_point() {
        round_trip("SELECT 2.0, 2.5, 0.015");
        let Statement::Query(q) = parse_statement("SELECT 2.0").unwrap();
        assert!(q.to_string().contains("2.0"));
    }
}
