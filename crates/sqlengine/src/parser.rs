//! Recursive-descent SQL parser.
//!
//! Entry points: [`parse_statement`] for a full statement and
//! [`parse_expression`] for a standalone scalar expression (used by the
//! knowledge-set decomposer when it round-trips clause fragments).
//!
//! Every consumer of the tree recurses over it, and SQL arrives from a
//! model, so the parser bounds the height of what it builds (`MAX_DEPTH`
//! below): deeper SQL is a parse error.

use crate::ast::*;
use crate::error::{EngineError, EngineResult};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::value::DataType;

/// Keywords that terminate an implicit alias (`FROM t x WHERE …`).
const RESERVED: &[&str] = &[
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
    "RIGHT",
    "FULL",
    "OUTER",
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

/// The tallest tree the parser builds, in nodes from the statement down to
/// the deepest operator, call, `CASE` or subquery (parentheses count too:
/// they cost the parser a level even though they leave no node). Taller
/// SQL is a parse error, so whatever parsed can be printed, walked, bound
/// and executed by plain recursion. Sized to the smallest stack a query
/// runs on, a 2 MiB serve worker, in a debug build: there a tree of nested
/// `CASE` at the bound, the costliest shape, needs about 1.6 MiB to parse.
/// By this count the deepest gold query of the benchmark workload is 10.
const MAX_DEPTH: usize = 64;

/// Parse a single SQL statement (a query, optionally `;`-terminated).
pub fn parse_statement(sql: &str) -> EngineResult<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(tokens);
    let query = p.parse_query()?;
    p.eat_kind(&TokenKind::Semicolon);
    if let Some(tok) = p.peek() {
        return Err(EngineError::parse(
            format!("unexpected trailing token '{}'", tok.kind),
            tok.offset,
        ));
    }
    Ok(Statement::Query(query))
}

/// Parse a standalone scalar expression.
pub fn parse_expression(sql: &str) -> EngineResult<Expr> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(tokens);
    let expr = p.parse_expr()?;
    if let Some(tok) = p.peek() {
        return Err(EngineError::parse(
            format!("unexpected trailing token '{}'", tok.kind),
            tok.offset,
        ));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open above the token being parsed.
    depth: usize,
    /// `depth` plus the height of what has been parsed below it so far —
    /// by the innermost chain in progress (see [`Parser::open_chain`]), or
    /// by the whole parse outside one.
    peak: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            peak: 0,
        }
    }

    fn check_depth(&self) -> EngineResult<()> {
        if self.peak > MAX_DEPTH {
            return Err(self.err(format!("SQL nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// One level down, for a production that recurses: a bracket, a
    /// prefix operator, a nested query. The caller takes the level off
    /// again (`self.depth -= 1`) once it has its operand; an error in
    /// between abandons the parse, so `?` needs no cleanup.
    fn descend(&mut self) -> EngineResult<()> {
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        self.check_depth()
    }

    /// A loop that folds `a op b op c` into a left-deep chain does not
    /// recurse, but each link pushes everything parsed before it one level
    /// down — the first operand most of all, and nobody knew how long the
    /// chain would get when that one was parsed. So a chain measures
    /// itself: it starts `peak` afresh, every operand raises it to its own
    /// height, every [`Parser::link`] adds the new node on top, and
    /// [`Parser::close_chain`] hands the total to the enclosing chain.
    fn open_chain(&mut self) -> usize {
        std::mem::replace(&mut self.peak, self.depth)
    }

    fn link(&mut self) -> EngineResult<()> {
        self.peak += 1;
        self.check_depth()
    }

    fn close_chain(&mut self, outer_peak: usize) {
        self.peak = self.peak.max(outer_peak);
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.peek()
            .map(|t| t.offset)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.offset + 1).unwrap_or(0))
    }

    fn err(&self, msg: impl Into<String>) -> EngineError {
        EngineError::parse(msg, self.offset())
    }

    /// Consume the next token if it is the given keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.kind.is_keyword(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.kind.is_keyword(kw)).unwrap_or(false)
    }

    fn expect_kw(&mut self, kw: &str) -> EngineResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {kw}, found {}",
                self.peek()
                    .map(|t| t.kind.to_string())
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind == kind).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind) -> EngineResult<()> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{kind}', found {}",
                self.peek()
                    .map(|t| t.kind.to_string())
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    /// Parse an identifier token (plain or quoted).
    fn parse_ident(&mut self) -> EngineResult<String> {
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            Some(TokenKind::QuotedIdent(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other
                    .map(|k| k.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn parse_query(&mut self) -> EngineResult<Query> {
        self.descend()?;
        let mut ctes = Vec::new();
        if self.eat_kw("WITH") {
            if self.peek_kw("RECURSIVE") {
                return Err(EngineError::unsupported("WITH RECURSIVE is not supported"));
            }
            loop {
                let name = self.parse_ident()?;
                self.expect_kw("AS")?;
                self.expect_kind(&TokenKind::LParen)?;
                let query = self.parse_query()?;
                self.expect_kind(&TokenKind::RParen)?;
                ctes.push(Cte {
                    name,
                    query: Box::new(query),
                });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let body = self.parse_set_expr()?;

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                order_by.push(self.parse_order_item()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let mut limit = None;
        if self.eat_kw("LIMIT") {
            match self.next().map(|t| t.kind) {
                Some(TokenKind::IntLit(n)) if n >= 0 => limit = Some(n as u64),
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        }

        self.depth -= 1;
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
        })
    }

    fn parse_order_item(&mut self) -> EngineResult<OrderItem> {
        let expr = self.parse_expr()?;
        let desc = if self.eat_kw("DESC") {
            true
        } else {
            self.eat_kw("ASC");
            false
        };
        Ok(OrderItem { expr, desc })
    }

    fn parse_set_expr(&mut self) -> EngineResult<SetExpr> {
        let outer = self.open_chain();
        let mut left = self.parse_set_term()?;
        loop {
            let op = if self.peek_kw("UNION") {
                SetOp::Union
            } else if self.peek_kw("INTERSECT") {
                SetOp::Intersect
            } else if self.peek_kw("EXCEPT") {
                SetOp::Except
            } else {
                break;
            };
            self.pos += 1;
            let all = self.eat_kw("ALL");
            let right = self.parse_set_term()?;
            self.link()?;
            left = SetExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.close_chain(outer);
        Ok(left)
    }

    fn parse_set_term(&mut self) -> EngineResult<SetExpr> {
        if self.eat_kind(&TokenKind::LParen) {
            // Parenthesized set expression or select.
            self.descend()?;
            let inner = self.parse_set_expr()?;
            self.depth -= 1;
            self.expect_kind(&TokenKind::RParen)?;
            Ok(inner)
        } else {
            Ok(SetExpr::Select(Box::new(self.parse_select()?)))
        }
    }

    fn parse_select(&mut self) -> EngineResult<Select> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };

        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }

        let from = if self.eat_kw("FROM") {
            Some(self.parse_table_ref()?)
        } else {
            None
        };

        let selection = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        Ok(Select {
            distinct,
            items,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn parse_select_item(&mut self) -> EngineResult<SelectItem> {
        if self.eat_kind(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `ident.*`
        if let (Some(TokenKind::Ident(name)), Some(TokenKind::Dot), Some(TokenKind::Star)) = (
            self.peek().map(|t| t.kind.clone()),
            self.peek_at(1).map(|t| t.kind.clone()),
            self.peek_at(2).map(|t| t.kind.clone()),
        ) {
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] alias` where the implicit form stops at reserved keywords.
    fn parse_alias(&mut self) -> EngineResult<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.parse_ident()?));
        }
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Ident(s)) if !RESERVED.iter().any(|kw| s.eq_ignore_ascii_case(kw)) => {
                self.pos += 1;
                Ok(Some(s))
            }
            Some(TokenKind::QuotedIdent(s)) => {
                self.pos += 1;
                Ok(Some(s))
            }
            _ => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // FROM clause
    // ------------------------------------------------------------------

    fn parse_table_ref(&mut self) -> EngineResult<TableRef> {
        let outer = self.open_chain();
        let mut left = self.parse_table_factor()?;
        loop {
            let kind = if self.peek_kw("JOIN") || self.peek_kw("INNER") {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.peek_kw("LEFT") {
                self.pos += 1;
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.peek_kw("CROSS") {
                self.pos += 1;
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else if self.peek_kw("RIGHT") || self.peek_kw("FULL") {
                return Err(EngineError::unsupported(
                    "RIGHT/FULL joins are not supported; rewrite with LEFT JOIN",
                ));
            } else if self.eat_kind(&TokenKind::Comma) {
                // Comma join = cross join.
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.parse_table_factor()?;
            let on = if kind != JoinKind::Cross && self.eat_kw("ON") {
                Some(self.parse_expr()?)
            } else if kind != JoinKind::Cross {
                return Err(self.err("expected ON after JOIN (USING is not supported)"));
            } else {
                None
            };
            self.link()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
        self.close_chain(outer);
        Ok(left)
    }

    fn parse_table_factor(&mut self) -> EngineResult<TableRef> {
        if self.eat_kind(&TokenKind::LParen) {
            // Derived table.
            let query = self.parse_query()?;
            self.expect_kind(&TokenKind::RParen)?;
            self.eat_kw("AS");
            let alias = self
                .parse_ident()
                .map_err(|_| self.err("derived table requires an alias"))?;
            Ok(TableRef::Derived {
                query: Box::new(query),
                alias,
            })
        } else {
            let name = self.parse_ident()?;
            let alias = self.parse_alias()?;
            Ok(TableRef::Named { name, alias })
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> EngineResult<Expr> {
        self.descend()?;
        let expr = self.parse_or()?;
        self.depth -= 1;
        Ok(expr)
    }

    fn parse_or(&mut self) -> EngineResult<Expr> {
        let outer = self.open_chain();
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            self.link()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        self.close_chain(outer);
        Ok(left)
    }

    fn parse_and(&mut self) -> EngineResult<Expr> {
        let outer = self.open_chain();
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            self.link()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        self.close_chain(outer);
        Ok(left)
    }

    fn parse_not(&mut self) -> EngineResult<Expr> {
        // `NOT EXISTS (…)` folds into the Exists node rather than a Unary.
        if self.peek_kw("NOT")
            && self
                .peek_at(1)
                .map(|t| t.kind.is_keyword("EXISTS"))
                .unwrap_or(false)
            && self
                .peek_at(2)
                .map(|t| t.kind == TokenKind::LParen)
                .unwrap_or(false)
        {
            self.pos += 2;
            self.expect_kind(&TokenKind::LParen)?;
            let q = self.parse_query()?;
            self.expect_kind(&TokenKind::RParen)?;
            return Ok(Expr::Exists {
                subquery: Box::new(q),
                negated: true,
            });
        }
        if self.eat_kw("NOT") {
            self.descend()?;
            let inner = self.parse_not()?;
            self.depth -= 1;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.parse_comparison()
        }
    }

    /// A comparison or postfix predicate is a chain of at most one link.
    fn parse_comparison(&mut self) -> EngineResult<Expr> {
        let outer = self.open_chain();
        let left = self.parse_additive()?;
        let after_left = self.pos;
        let expr = self.parse_predicate(left)?;
        if self.pos > after_left {
            self.link()?;
        }
        self.close_chain(outer);
        Ok(expr)
    }

    /// What may follow the left operand of a comparison; `left` itself
    /// when nothing does.
    fn parse_predicate(&mut self, left: Expr) -> EngineResult<Expr> {
        // Postfix predicates: IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek_kw("NOT")
            && self
                .peek_at(1)
                .map(|t| {
                    t.kind.is_keyword("IN")
                        || t.kind.is_keyword("BETWEEN")
                        || t.kind.is_keyword("LIKE")
                })
                .unwrap_or(false)
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect_kind(&TokenKind::LParen)?;
            if self.peek_kw("SELECT") || self.peek_kw("WITH") {
                let subquery = self.parse_query()?;
                self.expect_kind(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(subquery),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected IN, BETWEEN or LIKE after NOT"));
        }

        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Eq) => Some(BinaryOp::Eq),
            Some(TokenKind::NotEq) => Some(BinaryOp::NotEq),
            Some(TokenKind::Lt) => Some(BinaryOp::Lt),
            Some(TokenKind::LtEq) => Some(BinaryOp::LtEq),
            Some(TokenKind::Gt) => Some(BinaryOp::Gt),
            Some(TokenKind::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> EngineResult<Expr> {
        let outer = self.open_chain();
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => BinaryOp::Add,
                Some(TokenKind::Minus) => BinaryOp::Sub,
                Some(TokenKind::Concat) => BinaryOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            self.link()?;
            left = Expr::binary(left, op, right);
        }
        self.close_chain(outer);
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> EngineResult<Expr> {
        let outer = self.open_chain();
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => BinaryOp::Mul,
                Some(TokenKind::Slash) => BinaryOp::Div,
                Some(TokenKind::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            self.link()?;
            left = Expr::binary(left, op, right);
        }
        self.close_chain(outer);
        Ok(left)
    }

    fn parse_unary(&mut self) -> EngineResult<Expr> {
        if self.eat_kind(&TokenKind::Minus) {
            self.descend()?;
            let inner = self.parse_unary()?;
            self.depth -= 1;
            // Fold negation into numeric literals so `-5` is one canonical
            // AST node; the printer relies on this for round-tripping.
            return Ok(match inner {
                Expr::Literal(Literal::Integer(v)) => Expr::Literal(Literal::Integer(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat_kind(&TokenKind::Plus) {
            self.descend()?;
            let inner = self.parse_unary()?;
            self.depth -= 1;
            return Ok(inner);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> EngineResult<Expr> {
        let tok = match self.peek() {
            Some(t) => t.clone(),
            None => return Err(self.err("unexpected end of expression")),
        };
        match &tok.kind {
            TokenKind::IntLit(v) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Integer(*v)))
            }
            TokenKind::FloatLit(v) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Float(*v)))
            }
            TokenKind::StringLit(s) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::String(s.clone())))
            }
            TokenKind::LParen => {
                self.pos += 1;
                if self.peek_kw("SELECT") || self.peek_kw("WITH") {
                    let q = self.parse_query()?;
                    self.expect_kind(&TokenKind::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let inner = self.parse_expr()?;
                self.expect_kind(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(_) | TokenKind::QuotedIdent(_) => self.parse_ident_expr(),
            other => Err(EngineError::parse(
                format!("unexpected token '{other}' in expression"),
                tok.offset,
            )),
        }
    }

    /// Expressions that start with an identifier: keyword constructs,
    /// function calls, or column references.
    fn parse_ident_expr(&mut self) -> EngineResult<Expr> {
        // Keyword constructs first.
        if self.eat_kw("NULL") {
            return Ok(Expr::Literal(Literal::Null));
        }
        if self.eat_kw("TRUE") {
            return Ok(Expr::Literal(Literal::Boolean(true)));
        }
        if self.eat_kw("FALSE") {
            return Ok(Expr::Literal(Literal::Boolean(false)));
        }
        if self.eat_kw("CASE") {
            return self.parse_case();
        }
        if self.eat_kw("CAST") {
            self.expect_kind(&TokenKind::LParen)?;
            let inner = self.parse_expr()?;
            self.expect_kw("AS")?;
            let ty_name = self.parse_ident()?;
            let ty = DataType::parse(&ty_name)
                .ok_or_else(|| self.err(format!("unknown type '{ty_name}' in CAST")))?;
            self.expect_kind(&TokenKind::RParen)?;
            return Ok(Expr::Cast {
                expr: Box::new(inner),
                ty,
            });
        }
        if self.peek_kw("EXISTS")
            && self
                .peek_at(1)
                .map(|t| t.kind == TokenKind::LParen)
                .unwrap_or(false)
        {
            self.pos += 1;
            self.expect_kind(&TokenKind::LParen)?;
            let q = self.parse_query()?;
            self.expect_kind(&TokenKind::RParen)?;
            return Ok(Expr::Exists {
                subquery: Box::new(q),
                negated: false,
            });
        }
        let name = self.parse_ident()?;

        // Function call?
        if self
            .peek()
            .map(|t| t.kind == TokenKind::LParen)
            .unwrap_or(false)
        {
            self.pos += 1;
            let mut call = FunctionCall::new(name, Vec::new());
            if self.eat_kind(&TokenKind::Star) {
                call.star = true;
                self.expect_kind(&TokenKind::RParen)?;
            } else if self.eat_kind(&TokenKind::RParen) {
                // zero-arg call
            } else {
                call.distinct = self.eat_kw("DISTINCT");
                loop {
                    call.args.push(self.parse_expr()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_kind(&TokenKind::RParen)?;
            }
            if self.eat_kw("OVER") {
                self.expect_kind(&TokenKind::LParen)?;
                let mut spec = WindowSpec {
                    partition_by: Vec::new(),
                    order_by: Vec::new(),
                };
                if self.eat_kw("PARTITION") {
                    self.expect_kw("BY")?;
                    loop {
                        spec.partition_by.push(self.parse_expr()?);
                        if !self.eat_kind(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                if self.eat_kw("ORDER") {
                    self.expect_kw("BY")?;
                    loop {
                        spec.order_by.push(self.parse_order_item()?);
                        if !self.eat_kind(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect_kind(&TokenKind::RParen)?;
                call.over = Some(spec);
            }
            return Ok(Expr::Function(call));
        }

        // Column reference, possibly qualified.
        if self.eat_kind(&TokenKind::Dot) {
            let col = self.parse_ident()?;
            Ok(Expr::Column {
                table: Some(name),
                name: col,
            })
        } else {
            Ok(Expr::Column { table: None, name })
        }
    }

    fn parse_case(&mut self) -> EngineResult<Expr> {
        let operand = if self.peek_kw("WHEN") {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let result = self.parse_expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.eat_kw("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(sql: &str) -> Query {
        match parse_statement(sql) {
            Ok(Statement::Query(q)) => q,
            Err(e) => panic!("parse of {sql:?} failed: {e}"),
        }
    }

    #[test]
    fn minimal_select() {
        let q = parse_ok("SELECT 1");
        let s = q.as_select().unwrap();
        assert_eq!(s.items.len(), 1);
        assert!(s.from.is_none());
    }

    #[test]
    fn select_with_everything() {
        let q = parse_ok(
            "SELECT DISTINCT a, SUM(b) AS total FROM t \
             WHERE a > 1 AND b IS NOT NULL \
             GROUP BY a HAVING SUM(b) > 10 \
             ORDER BY total DESC, a LIMIT 5",
        );
        let s = q.as_select().unwrap();
        assert!(s.distinct);
        assert_eq!(s.items.len(), 2);
        assert!(s.selection.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert!(!q.order_by[1].desc);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn with_clause() {
        let q = parse_ok("WITH x AS (SELECT 1 AS a), y AS (SELECT a FROM x) SELECT * FROM y");
        assert_eq!(q.ctes.len(), 2);
        assert_eq!(q.ctes[0].name, "x");
        assert_eq!(q.ctes[1].name, "y");
    }

    #[test]
    fn joins() {
        let q = parse_ok(
            "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id CROSS JOIN d",
        );
        assert_eq!(crate::analysis::complexity(&q).joins, 3);
    }

    #[test]
    fn comma_join_is_cross() {
        let q = parse_ok("SELECT * FROM a, b WHERE a.id = b.id");
        match q.as_select().unwrap().from.as_ref().unwrap() {
            TableRef::Join {
                kind: JoinKind::Cross,
                ..
            } => {}
            other => panic!("expected cross join, got {other:?}"),
        }
    }

    #[test]
    fn join_without_on_fails() {
        assert!(parse_statement("SELECT * FROM a JOIN b").is_err());
    }

    #[test]
    fn right_join_unsupported() {
        let e = parse_statement("SELECT * FROM a RIGHT JOIN b ON a.x=b.x").unwrap_err();
        assert!(matches!(e, EngineError::Unsupported { .. }));
    }

    #[test]
    fn derived_table_requires_alias() {
        assert!(parse_statement("SELECT * FROM (SELECT 1)").is_err());
        assert!(parse_statement("SELECT * FROM (SELECT 1) t").is_ok());
        assert!(parse_statement("SELECT * FROM (SELECT 1) AS t").is_ok());
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        // Must parse as 1 + (2 * 3).
        match e {
            Expr::Binary {
                op: BinaryOp::Add,
                right,
                ..
            } => match *right {
                Expr::Binary {
                    op: BinaryOp::Mul, ..
                } => {}
                other => panic!("expected Mul on right, got {other:?}"),
            },
            other => panic!("expected Add at root, got {other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let e = parse_expression("a = 1 OR b = 2 AND c = 3").unwrap();
        match e {
            Expr::Binary {
                op: BinaryOp::Or, ..
            } => {}
            other => panic!("expected Or at root, got {other:?}"),
        }
    }

    #[test]
    fn not_parses() {
        let e = parse_expression("NOT a = 1").unwrap();
        assert!(matches!(
            e,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn in_list_and_subquery() {
        assert!(matches!(
            parse_expression("x IN (1, 2, 3)").unwrap(),
            Expr::InList { negated: false, .. }
        ));
        assert!(matches!(
            parse_expression("x NOT IN (SELECT y FROM t)").unwrap(),
            Expr::InSubquery { negated: true, .. }
        ));
    }

    #[test]
    fn between_and_like() {
        assert!(matches!(
            parse_expression("x BETWEEN 1 AND 10").unwrap(),
            Expr::Between { negated: false, .. }
        ));
        assert!(matches!(
            parse_expression("name NOT LIKE 'A%'").unwrap(),
            Expr::Like { negated: true, .. }
        ));
    }

    #[test]
    fn case_forms() {
        let searched = parse_expression("CASE WHEN a = 1 THEN 'x' ELSE 'y' END").unwrap();
        assert!(matches!(searched, Expr::Case { operand: None, .. }));
        let simple = parse_expression("CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'y' END").unwrap();
        match simple {
            Expr::Case {
                operand: Some(_),
                branches,
                else_expr: None,
            } => {
                assert_eq!(branches.len(), 2)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_expression("CASE END").is_err());
    }

    #[test]
    fn cast_parses() {
        let e = parse_expression("CAST(x AS FLOAT)").unwrap();
        assert!(matches!(
            e,
            Expr::Cast {
                ty: DataType::Float,
                ..
            }
        ));
        assert!(parse_expression("CAST(x AS WIBBLE)").is_err());
    }

    #[test]
    fn window_function_from_paper() {
        // Shape taken from Q_fin-perf in Appendix A.
        let e = parse_expression(
            "ROW_NUMBER() OVER (PARTITION BY f.COUNTRY ORDER BY (-1 * (a - b)) DESC)",
        )
        .unwrap();
        match e {
            Expr::Function(f) => {
                assert_eq!(f.name, "ROW_NUMBER");
                let spec = f.over.unwrap();
                assert_eq!(spec.partition_by.len(), 1);
                assert_eq!(spec.order_by.len(), 1);
                assert!(spec.order_by[0].desc);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_star_and_distinct() {
        let e = parse_expression("COUNT(*)").unwrap();
        assert!(matches!(e, Expr::Function(ref f) if f.star));
        let e = parse_expression("COUNT(DISTINCT x)").unwrap();
        assert!(matches!(e, Expr::Function(ref f) if f.distinct));
    }

    #[test]
    fn exists() {
        assert!(matches!(
            parse_expression("EXISTS (SELECT 1 FROM t)").unwrap(),
            Expr::Exists { negated: false, .. }
        ));
        assert!(matches!(
            parse_expression("NOT EXISTS (SELECT 1 FROM t)").unwrap(),
            Expr::Exists { negated: true, .. }
        ));
    }

    #[test]
    fn scalar_subquery() {
        assert!(matches!(
            parse_expression("(SELECT MAX(x) FROM t)").unwrap(),
            Expr::ScalarSubquery(_)
        ));
    }

    #[test]
    fn set_operations() {
        let q = parse_ok("SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a");
        match q.body {
            SetExpr::SetOp {
                op: SetOp::Union,
                all: true,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(q.order_by.len(), 1);
        parse_ok("SELECT a FROM t INTERSECT SELECT a FROM u");
        parse_ok("SELECT a FROM t EXCEPT SELECT a FROM u");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT 1 GARBAGE MORE").is_err());
        assert!(parse_statement("SELECT 1;").is_ok());
    }

    #[test]
    fn implicit_alias_stops_at_keywords() {
        let q = parse_ok("SELECT a b FROM t WHERE a = 1");
        match &q.as_select().unwrap().items[0] {
            SelectItem::Expr { alias: Some(a), .. } => assert_eq!(a, "b"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recursive_cte_unsupported() {
        let e = parse_statement("WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r").unwrap_err();
        assert!(matches!(e, EngineError::Unsupported { .. }));
    }

    #[test]
    fn full_appendix_a_query_parses() {
        // The paper's Appendix A query, lightly normalized (balanced parens).
        let sql = r#"
        WITH FINANCIALS AS (
          SELECT ORG_NAME,
            SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY"Q"Q') = '2023Q1' THEN REVENUE ELSE 0 END) AS REVENUE_2023Q1,
            SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY"Q"Q') = '2023Q2' THEN REVENUE ELSE 0 END) AS REVENUE_2023Q2
          FROM SPORTS_FINANCIALS
          WHERE TO_CHAR(FIN_MONTH, 'YYYY"Q"Q') IN ('2023Q1', '2023Q2')
            AND COUNTRY = 'Canada'
            AND OWNERSHIP_FLAG_COLUMN = 'COC'
          GROUP BY ORG_NAME
        ),
        VIEWERSHIP AS (
          SELECT ORG_NAME,
            SUM(CASE WHEN TO_CHAR(VIEW_MONTH, 'YYYY"Q"Q') = '2023Q1' THEN VIEWS ELSE 0 END) AS VIEWS_2023Q1,
            SUM(CASE WHEN TO_CHAR(VIEW_MONTH, 'YYYY"Q"Q') = '2023Q2' THEN VIEWS ELSE 0 END) AS VIEWS_2023Q2
          FROM SPORTS_VIEWERSHIP
          WHERE TO_CHAR(VIEW_MONTH, 'YYYY"Q"Q') IN ('2023Q1', '2023Q2')
            AND COUNTRY = 'Canada'
          GROUP BY ORG_NAME
        ),
        CHANGE_IN_REVENUE AS (
          SELECT f.ORG_NAME,
            CAST(f.REVENUE_2023Q2 AS FLOAT) / NULLIF(v.VIEWS_2023Q2, 0) AS RPV,
            ROW_NUMBER() OVER (ORDER BY (-1 * (
              CAST(f.REVENUE_2023Q2 AS FLOAT) / NULLIF(v.VIEWS_2023Q2, 0) -
              CAST(f.REVENUE_2023Q1 AS FLOAT) / NULLIF(v.VIEWS_2023Q1, 0))) DESC) AS SPORT_RANK
          FROM FINANCIALS f
          JOIN VIEWERSHIP v ON f.ORG_NAME = v.ORG_NAME
        )
        SELECT SPORT_RANK, ORG_NAME, RPV
        FROM CHANGE_IN_REVENUE
        WHERE SPORT_RANK <= 5
        ORDER BY SPORT_RANK
        "#;
        let q = parse_ok(sql);
        assert_eq!(q.ctes.len(), 3);
    }

    /// One SQL text per nesting construct, `n` levels deep, with what a
    /// level costs against [`MAX_DEPTH`]: 2 where it brings a bracket *and*
    /// an operator or a query *and* its select item. All run against
    /// [`one_row_db`].
    fn nested_shapes(n: usize) -> Vec<(&'static str, usize, String)> {
        let wrap = |open: &str, core: &str, close: &str| {
            format!("SELECT {}{core}{}", open.repeat(n), close.repeat(n))
        };
        let joins: String = (0..n)
            .map(|i| format!(" JOIN nums b{i} ON b{i}.n = a.n"))
            .collect();
        let derived = ("(SELECT * FROM ".repeat(n), ") AS t".repeat(n));
        vec![
            ("parentheses", 1, wrap("(", "1", ")")),
            ("NOT", 1, wrap("NOT ", "TRUE", "")),
            (
                "unary minus",
                1,
                format!("{} FROM nums", wrap("- ", "n", "")),
            ),
            ("+", 1, wrap("", "1", " + 1")),
            ("*", 1, wrap("", "1", " * 1")),
            ("AND", 1, wrap("", "TRUE", " AND TRUE")),
            ("OR", 1, wrap("", "FALSE", " OR FALSE")),
            ("CASE", 1, wrap("CASE WHEN TRUE THEN ", "1", " END")),
            ("call arguments", 1, wrap("ABS(", "1", ")")),
            ("comparisons", 2, wrap("(TRUE = ", "TRUE", ")")),
            ("scalar subqueries", 2, wrap("(SELECT ", "1", ")")),
            ("set operations", 1, wrap("", "1", " UNION ALL SELECT 1")),
            ("joins", 1, format!("SELECT COUNT(*) FROM nums a{joins}")),
            (
                "derived tables",
                1,
                format!("SELECT * FROM {}nums{}", derived.0, derived.1),
            ),
            (
                "WITH",
                2,
                wrap("* FROM (WITH c AS (SELECT ", "1", ") SELECT * FROM c) AS t"),
            ),
        ]
    }

    fn one_row_db() -> crate::catalog::Database {
        use crate::catalog::{Column, Database, Table};
        let mut db = Database::new("d");
        let mut nums = Table::new("nums", vec![Column::new("n", DataType::Integer)]);
        nums.push_row(vec![crate::value::Value::Integer(1)])
            .unwrap();
        db.add_table(nums).unwrap();
        db
    }

    /// Run `f` on a thread with the stack `spawn_worker` of the serving
    /// runtime gets.
    fn on_a_worker_stack(f: impl FnOnce() + Send + 'static) {
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(f);
        worker.unwrap().join().unwrap();
    }

    #[test]
    fn sql_nested_too_deep_is_a_parse_error_not_a_stack_overflow() {
        on_a_worker_stack(|| {
            for (what, _, sql) in nested_shapes(10_000) {
                match parse_statement(&sql) {
                    Err(e @ EngineError::Parse { .. }) => {
                        assert!(e.to_string().contains("nested deeper"), "{what}: {e}")
                    }
                    other => panic!("{what}: expected a parse error, got {other:?}"),
                }
            }
        });
    }

    #[test]
    fn depth_adds_up_along_a_path_and_not_across_siblings() {
        let nots = "NOT ".repeat(40);
        let ands = " AND TRUE".repeat(40);
        // 40 NOTs end up *under* the 40 ANDs parsed after them.
        assert!(parse_statement(&format!("SELECT {nots}TRUE{ands}")).is_err());
        assert!(parse_statement(&format!("SELECT {nots}TRUE")).is_ok());
        assert!(parse_statement(&format!("SELECT TRUE{ands}")).is_ok());
        // Two 40-link products side by side are one level taller than one.
        let product = format!("1{}", " * 1".repeat(40));
        assert!(parse_statement(&format!("SELECT {product} + {product}")).is_ok());
    }

    #[test]
    fn sql_at_the_bound_prints_walks_and_runs_on_a_worker_stack() {
        on_a_worker_stack(|| {
            let db = one_row_db();
            for at in 0..nested_shapes(0).len() {
                let (what, cost, _) = nested_shapes(0).swap_remove(at);
                let sql_at = |n: usize| nested_shapes(n).swap_remove(at).2;
                let deepest = (1..=MAX_DEPTH)
                    .rev()
                    .find(|&n| parse_statement(&sql_at(n)).is_ok())
                    .unwrap();
                // The query and its select item are levels too.
                assert!(deepest * cost >= MAX_DEPTH - 3, "{what}: {deepest}");
                let sql = &sql_at(deepest);
                let query = parse_ok(sql);
                assert!(!query.to_string().is_empty());
                assert_eq!(query.clone(), query);
                crate::analysis::complexity(&query);
                let fast = crate::exec::execute_sql(&db, sql).unwrap();
                let reference = crate::exec::execute_sql_reference(&db, sql).unwrap();
                assert!(fast.ex_equal(&reference), "{what}: engines disagree");
            }
        });
    }
}
