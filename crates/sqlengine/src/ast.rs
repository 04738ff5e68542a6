//! Abstract syntax tree for the supported SQL dialect.
//!
//! The dialect covers what the GenEdit paper's workloads need: common table
//! expressions (the paper rewrites every query into CTE form before
//! decomposition, §3.2.1), joins, aggregation with `CASE`-based conditional
//! aggregation, window functions (`ROW_NUMBER() OVER (PARTITION BY …)` as in
//! Appendix A), subqueries, and set operations.
//!
//! This file is also the one place that says which children a node has:
//! [`Expr::for_each_child`] and [`Query::walk`] (with their `_mut` twins)
//! are what every analysis, collector and mutator in the workspace
//! traverses the tree with.

use crate::value::DataType;
use serde::{Deserialize, Serialize};

/// A parsed SQL statement. Only queries are supported — GenEdit generates
/// read-only analytics SQL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    Query(Query),
}

/// A full query: optional WITH clause, set-expression body, and trailing
/// ORDER BY / LIMIT that apply to the whole body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    pub ctes: Vec<Cte>,
    pub body: SetExpr,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

impl Query {
    /// A query with just a body.
    pub fn simple(select: Select) -> Query {
        Query {
            ctes: Vec::new(),
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// The top-level `Select` if the body is a plain select (no set ops).
    pub fn as_select(&self) -> Option<&Select> {
        match &self.body {
            SetExpr::Select(s) => Some(s),
            SetExpr::SetOp { .. } => None,
        }
    }
}

/// One `name AS (query)` entry of a WITH clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cte {
    pub name: String,
    pub query: Box<Query>,
}

/// Body of a query: a select or a set operation tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SetExpr {
    Select(Box<Select>),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// An item of the SELECT list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TableRef {
    /// A base table or CTE by name.
    Named { name: String, alias: Option<String> },
    /// `(subquery) AS alias`
    Derived { query: Box<Query>, alias: String },
    /// A join of two table references.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

impl TableRef {
    pub fn named(name: impl Into<String>) -> TableRef {
        TableRef::Named {
            name: name.into(),
            alias: None,
        }
    }

    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> TableRef {
        TableRef::Named {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// One expression of an ORDER BY list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// Scalar literal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    Null,
    Integer(i64),
    Float(f64),
    String(String),
    Boolean(bool),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl BinaryOp {
    /// Parsing/printing precedence; higher binds tighter.
    pub fn precedence(&self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Concat => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
        }
    }

    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Concat => "||",
        }
    }
}

/// A function call, possibly aggregate or window (`… OVER (…)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionCall {
    /// Uppercased function name.
    pub name: String,
    pub args: Vec<Expr>,
    /// `COUNT(*)`
    pub star: bool,
    /// `COUNT(DISTINCT x)`
    pub distinct: bool,
    pub over: Option<WindowSpec>,
}

impl FunctionCall {
    pub fn new(name: impl Into<String>, args: Vec<Expr>) -> FunctionCall {
        FunctionCall {
            name: name.into().to_ascii_uppercase(),
            args,
            star: false,
            distinct: false,
            over: None,
        }
    }
}

/// `OVER (PARTITION BY … ORDER BY …)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSpec {
    pub partition_by: Vec<Expr>,
    pub order_by: Vec<OrderItem>,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    Literal(Literal),
    /// `name` or `table.name`
    Column {
        table: Option<String>,
        name: String,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<Query>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    Cast {
        expr: Box<Expr>,
        ty: DataType,
    },
    Function(FunctionCall),
    Exists {
        subquery: Box<Query>,
        negated: bool,
    },
    ScalarSubquery(Box<Query>),
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Integer(v))
    }

    pub fn float(v: f64) -> Expr {
        Expr::Literal(Literal::Float(v))
    }

    pub fn string(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::String(v.into()))
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::And, right)
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::Eq, right)
    }

    pub fn func(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Function(FunctionCall::new(name, args))
    }

    /// Printing/parsing precedence of this expression node; `u8::MAX` for
    /// atoms that never need parentheses.
    pub fn precedence(&self) -> u8 {
        match self {
            Expr::Binary { op, .. } => op.precedence(),
            Expr::Unary {
                op: UnaryOp::Not, ..
            } => 3,
            Expr::Unary {
                op: UnaryOp::Neg, ..
            } => 7,
            Expr::IsNull { .. }
            | Expr::InList { .. }
            | Expr::InSubquery { .. }
            | Expr::Between { .. }
            | Expr::Like { .. } => 4,
            _ => u8::MAX,
        }
    }

    /// The query this node carries, if it is one of the three subquery
    /// forms (`IN (SELECT …)`, `EXISTS (…)`, scalar `(SELECT …)`).
    pub fn subquery(&self) -> Option<&Query> {
        match self {
            Expr::InSubquery { subquery, .. }
            | Expr::Exists { subquery, .. }
            | Expr::ScalarSubquery(subquery) => Some(subquery),
            _ => None,
        }
    }

    fn subquery_mut(&mut self) -> Option<&mut Query> {
        match self {
            Expr::InSubquery { subquery, .. }
            | Expr::Exists { subquery, .. }
            | Expr::ScalarSubquery(subquery) => Some(subquery),
            _ => None,
        }
    }

    /// Call `f` on each direct sub-expression in source order; for a call
    /// that is its arguments, then PARTITION BY, then ORDER BY. A subquery
    /// is not a sub-expression: see [`Expr::subquery`].
    pub fn for_each_child<'e>(&'e self, f: &mut impl FnMut(&'e Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. }
            | Expr::Cast { expr, .. } => f(expr),
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.iter().for_each(|e| f(e));
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                else_expr.iter().for_each(|e| f(e));
            }
            Expr::Function(call) => {
                call.args.iter().for_each(&mut *f);
                if let Some(spec) = &call.over {
                    spec.partition_by.iter().for_each(&mut *f);
                    spec.order_by.iter().for_each(|o| f(&o.expr));
                }
            }
        }
    }

    /// [`Expr::for_each_child`] over mutable references.
    fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. }
            | Expr::Cast { expr, .. } => f(expr),
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.iter_mut().for_each(|e| f(e));
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                else_expr.iter_mut().for_each(|e| f(e));
            }
            Expr::Function(call) => {
                call.args.iter_mut().for_each(&mut *f);
                if let Some(spec) = &mut call.over {
                    spec.partition_by.iter_mut().for_each(&mut *f);
                    spec.order_by.iter_mut().for_each(|o| f(&mut o.expr));
                }
            }
        }
    }

    /// Pre-order walk that stays inside this expression: it never enters
    /// a subquery. `f` returns whether to descend below the node it was
    /// shown.
    pub fn walk<'e>(&'e self, f: &mut impl FnMut(&'e Expr) -> bool) {
        if f(self) {
            self.for_each_child(&mut |child| child.walk(f));
        }
    }

    /// The operands of the top-level `AND` chain, left to right; anything
    /// that is not an `AND` is its own single conjunct.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            let and = matches!(
                e,
                Expr::Binary {
                    op: BinaryOp::And,
                    ..
                }
            );
            if !and {
                out.push(e);
            }
            and
        });
        out
    }
}

/// One node of a query tree, as [`Query::walk`] reports it.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// A nested query: a CTE body, a derived table or an expression
    /// subquery. The query `walk` was called on is not reported.
    Query(&'a Query),
    /// A set operation or a SELECT.
    Body(&'a SetExpr),
    /// A join or one of its operands.
    Table(&'a TableRef),
    /// An expression, at any depth.
    Expr(&'a Expr),
}

/// What [`Query::walk_mut`] reports: [`Node`] without the nested queries,
/// which that walk always enters.
pub enum NodeMut<'a> {
    Body(&'a mut SetExpr),
    Table(&'a mut TableRef),
    Expr(&'a mut Expr),
}

impl Query {
    /// Pre-order walk over the whole tree in source order: the WITH list,
    /// the body (per SELECT: select list, FROM, WHERE, GROUP BY, HAVING),
    /// then ORDER BY. `f` returns whether to descend below the node it
    /// was shown; for a [`Node::Query`] that is whether the nested query
    /// is entered at all.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Node<'a>) -> bool) {
        for cte in &self.ctes {
            walk_nested(&cte.query, f);
        }
        walk_body(&self.body, f);
        for o in &self.order_by {
            walk_expr(&o.expr, f);
        }
    }

    /// Mutable walk over the query's *structure*: every set operation,
    /// SELECT and table reference reachable through WITH, set operations
    /// and derived tables, plus the root expression of each clause on the
    /// way. It does not look inside expressions, so it never reaches an
    /// expression subquery; [`Query::walk_exprs_mut`] does.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(NodeMut<'_>)) {
        for cte in &mut self.ctes {
            cte.query.walk_mut(f);
        }
        walk_body_mut(&mut self.body, f);
        for o in &mut self.order_by {
            f(NodeMut::Expr(&mut o.expr));
        }
    }

    /// Apply `f` to every expression anywhere in the query — CTEs,
    /// subqueries, ON conditions, group/order lists and window
    /// specifications included — children before parents, so a closure
    /// that replaces a node has already seen (and is handed) its
    /// rewritten children.
    pub fn walk_exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        self.walk_mut(&mut |node| {
            if let NodeMut::Expr(e) = node {
                walk_expr_mut(e, f);
            }
        });
    }
}

fn walk_nested<'a>(query: &'a Query, f: &mut impl FnMut(Node<'a>) -> bool) {
    if f(Node::Query(query)) {
        query.walk(f);
    }
}

fn walk_body<'a>(body: &'a SetExpr, f: &mut impl FnMut(Node<'a>) -> bool) {
    if !f(Node::Body(body)) {
        return;
    }
    match body {
        SetExpr::SetOp { left, right, .. } => {
            walk_body(left, f);
            walk_body(right, f);
        }
        SetExpr::Select(s) => {
            for item in &s.items {
                if let SelectItem::Expr { expr, .. } = item {
                    walk_expr(expr, f);
                }
            }
            if let Some(from) = &s.from {
                walk_table(from, f);
            }
            for e in s.selection.iter().chain(&s.group_by).chain(&s.having) {
                walk_expr(e, f);
            }
        }
    }
}

fn walk_table<'a>(table: &'a TableRef, f: &mut impl FnMut(Node<'a>) -> bool) {
    if !f(Node::Table(table)) {
        return;
    }
    match table {
        TableRef::Named { .. } => {}
        TableRef::Derived { query, .. } => walk_nested(query, f),
        TableRef::Join {
            left, right, on, ..
        } => {
            walk_table(left, f);
            walk_table(right, f);
            if let Some(on) = on {
                walk_expr(on, f);
            }
        }
    }
}

fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(Node<'a>) -> bool) {
    if !f(Node::Expr(e)) {
        return;
    }
    e.for_each_child(&mut |child| walk_expr(child, f));
    if let Some(query) = e.subquery() {
        walk_nested(query, f);
    }
}

fn walk_body_mut(body: &mut SetExpr, f: &mut impl FnMut(NodeMut<'_>)) {
    f(NodeMut::Body(body));
    match body {
        SetExpr::SetOp { left, right, .. } => {
            walk_body_mut(left, f);
            walk_body_mut(right, f);
        }
        SetExpr::Select(s) => {
            for item in &mut s.items {
                if let SelectItem::Expr { expr, .. } = item {
                    f(NodeMut::Expr(expr));
                }
            }
            if let Some(from) = &mut s.from {
                walk_table_mut(from, f);
            }
            let clauses = s.selection.iter_mut().chain(&mut s.group_by);
            for e in clauses.chain(&mut s.having) {
                f(NodeMut::Expr(e));
            }
        }
    }
}

fn walk_table_mut(table: &mut TableRef, f: &mut impl FnMut(NodeMut<'_>)) {
    f(NodeMut::Table(table));
    match table {
        TableRef::Named { .. } => {}
        TableRef::Derived { query, .. } => query.walk_mut(f),
        TableRef::Join {
            left, right, on, ..
        } => {
            walk_table_mut(left, f);
            walk_table_mut(right, f);
            if let Some(on) = on {
                f(NodeMut::Expr(on));
            }
        }
    }
}

fn walk_expr_mut(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    e.for_each_child_mut(&mut |child| walk_expr_mut(child, f));
    if let Some(query) = e.subquery_mut() {
        query.walk_exprs_mut(f);
    }
    f(e);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let e = Expr::and(
            Expr::eq(Expr::col("a"), Expr::int(1)),
            Expr::binary(Expr::col("b"), BinaryOp::Gt, Expr::float(2.5)),
        );
        match e {
            Expr::Binary {
                op: BinaryOp::And, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_name_uppercased() {
        let f = FunctionCall::new("sum", vec![Expr::col("x")]);
        assert_eq!(f.name, "SUM");
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::Eq.precedence() > BinaryOp::And.precedence());
        assert!(BinaryOp::And.precedence() > BinaryOp::Or.precedence());
    }

    #[test]
    fn as_select_rejects_set_ops() {
        let q = Query {
            ctes: vec![],
            body: SetExpr::SetOp {
                op: SetOp::Union,
                all: false,
                left: Box::new(SetExpr::Select(Box::default())),
                right: Box::new(SetExpr::Select(Box::default())),
            },
            order_by: vec![],
            limit: None,
        };
        assert!(q.as_select().is_none());
        assert!(Query::simple(Select::default()).as_select().is_some());
    }

    /// All 14 `Expr` variants, every clause, a CTE, a derived table, a set
    /// operation and each subquery form; columns are numbered in source
    /// order.
    const EVERYTHING: &str = "WITH c AS (SELECT a1 FROM t1) \
        SELECT -a2, a3 + 1, a4 IS NULL, a5 IN (2, 3), a6 IN (SELECT a7 FROM t2), \
               a8 BETWEEN 4 AND 5, a9 LIKE 'p', CASE a10 WHEN 6 THEN 7 ELSE 8 END, \
               CAST(a11 AS TEXT), SUM(a12) OVER (PARTITION BY a13 ORDER BY a14), \
               EXISTS (SELECT a15 FROM t3), (SELECT a16 FROM t4) \
        FROM c JOIN (SELECT a17 FROM t5) AS d ON a18 = a19 \
        WHERE a20 AND a21 GROUP BY a22 HAVING a23 \
        UNION SELECT a24 FROM t6 ORDER BY a25";

    fn everything() -> Query {
        let Statement::Query(q) = crate::parser::parse_statement(EVERYTHING).unwrap();
        q
    }

    fn label(node: Node<'_>) -> String {
        match node {
            Node::Query(_) => "Query".into(),
            Node::Body(SetExpr::SetOp { .. }) => "SetOp".into(),
            Node::Body(SetExpr::Select(_)) => "Select".into(),
            Node::Table(TableRef::Named { name, .. }) => name.clone(),
            Node::Table(TableRef::Derived { alias, .. }) => alias.clone(),
            Node::Table(TableRef::Join { .. }) => "Join".into(),
            Node::Expr(Expr::Column { name, .. }) => name.clone(),
            Node::Expr(Expr::Literal(l)) => l.to_string(),
            Node::Expr(Expr::Function(call)) => call.name.clone(),
            Node::Expr(e) => format!("{e:?}").split([' ', '(']).next().unwrap().into(),
        }
    }

    /// The labels `walk` reports, descending everywhere except below the
    /// first node labelled `skip_below`.
    fn walked(q: &Query, skip_below: &str) -> Vec<String> {
        let (mut out, mut skipped) = (Vec::new(), false);
        q.walk(&mut |node| {
            out.push(label(node));
            let skip = !skipped && out.last().unwrap() == skip_below;
            skipped |= skip;
            !skip
        });
        out
    }

    const EVERY_NODE: &str = "Query Select a1 t1 \
        SetOp Select Unary a2 Binary a3 1 IsNull a4 InList a5 2 3 \
        InSubquery a6 Query Select a7 t2 Between a8 4 5 Like a9 'p' Case a10 6 7 8 \
        Cast a11 SUM a12 a13 a14 Exists Query Select a15 t3 ScalarSubquery Query Select a16 t4 \
        Join c d Query Select a17 t5 Binary a18 a19 Binary a20 a21 a22 a23 \
        Select a24 t6 a25";

    #[test]
    fn walk_reports_every_node_once_in_source_order() {
        let got = walked(&everything(), "");
        let want: Vec<&str> = EVERY_NODE.split_whitespace().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_false_skips_exactly_that_subtree() {
        let q = everything();
        // (node that answers false, what then goes unreported)
        for (at, skipped) in [
            ("Query", "Select a1 t1"),
            ("d", "Query Select a17 t5"),
            ("InSubquery", "a6 Query Select a7 t2"),
            ("SUM", "a12 a13 a14"),
            ("Join", "c d Query Select a17 t5 Binary a18 a19"),
            ("a2", ""),
        ] {
            let want = EVERY_NODE.replacen(format!("{at} {skipped}").trim_end(), at, 1);
            let want: Vec<&str> = want.split_whitespace().collect();
            assert_eq!(walked(&q, at), want, "skipping below {at}");
        }
    }

    #[test]
    fn expr_walk_never_enters_a_subquery() {
        let q = everything();
        let SetExpr::SetOp { left, .. } = &q.body else {
            panic!("expected a set operation");
        };
        let SetExpr::Select(select) = &**left else {
            panic!("expected a select");
        };
        let mut columns = Vec::new();
        for item in &select.items {
            let SelectItem::Expr { expr, .. } = item else {
                continue;
            };
            expr.walk(&mut |e| {
                if let Expr::Column { name, .. } = e {
                    columns.push(name.as_str());
                }
                true
            });
        }
        // a7, a15 and a16 sit inside the three subquery forms.
        assert_eq!(
            columns,
            ["a2", "a3", "a4", "a5", "a6", "a8", "a9", "a10", "a11", "a12", "a13", "a14"]
        );
    }

    #[test]
    fn mutable_walks_reach_what_they_promise() {
        let mut q = everything();
        let mut columns = Vec::new();
        q.walk_exprs_mut(&mut |e| {
            if let Expr::Column { name, .. } = e {
                columns.push(name.clone());
            }
        });
        let numbered: Vec<String> = (1..=25).map(|i| format!("a{i}")).collect();
        assert_eq!(columns, numbered, "every expression, subqueries included");

        let (mut tables, mut selects, mut roots) = (Vec::new(), 0, 0);
        q.walk_mut(&mut |node| match node {
            NodeMut::Table(TableRef::Named { name, .. }) => tables.push(name.clone()),
            NodeMut::Body(SetExpr::Select(_)) => selects += 1,
            NodeMut::Expr(_) => roots += 1,
            _ => {}
        });
        // Not t2, t3, t4: those hang off expressions.
        assert_eq!(tables, ["t1", "c", "t5", "t6"]);
        assert_eq!(selects, 4);
        // 1 + 12 + 1 (derived) + ON + WHERE + GROUP BY + HAVING + 1 + ORDER BY
        assert_eq!(roots, 20);
    }

    #[test]
    fn mutable_walk_is_post_order_and_sees_replacements() {
        let mut q = Query::simple(Select {
            items: vec![SelectItem::Expr {
                expr: Expr::func(
                    "f",
                    vec![Expr::binary(Expr::col("x"), BinaryOp::Add, Expr::int(1))],
                ),
                alias: None,
            }],
            ..Default::default()
        });
        let mut seen = Vec::new();
        q.walk_exprs_mut(&mut |e| {
            seen.push(e.to_string());
            if matches!(e, Expr::Column { .. }) {
                *e = Expr::int(7);
            }
        });
        assert_eq!(seen, ["x", "1", "7 + 1", "F(7 + 1)"]);
    }

    #[test]
    fn conjuncts_split_the_top_level_and_chain_only() {
        let e = crate::parser::parse_expression("a AND (b OR c) AND d").unwrap();
        let parts: Vec<String> = e.conjuncts().iter().map(|c| c.to_string()).collect();
        assert_eq!(parts, ["a", "b OR c", "d"]);
        assert_eq!(Expr::col("a").conjuncts(), [&Expr::col("a")]);
    }
}
