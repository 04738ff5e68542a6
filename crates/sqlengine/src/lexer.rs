//! SQL tokenizer.
//!
//! Produces a flat vector of spanned tokens. Keywords are recognized
//! case-insensitively but identifiers preserve their original spelling
//! (the engine resolves names case-insensitively, see the binder).

use crate::error::{EngineError, EngineResult};
use std::fmt;

/// A lexical token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Unquoted identifier or keyword (kept verbatim; keyword detection is
    /// by case-insensitive comparison at parse time).
    Ident(String),
    /// Double-quoted identifier, quotes stripped.
    QuotedIdent(String),
    /// Single-quoted string literal, quotes stripped and '' unescaped.
    StringLit(String),
    /// Integer literal.
    IntLit(i64),
    /// Floating point literal.
    FloatLit(f64),
    // Punctuation / operators.
    Comma,
    Dot,
    LParen,
    RParen,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Concat,
    Semicolon,
}

impl TokenKind {
    /// True when this token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::QuotedIdent(s) => write!(f, "\"{s}\""),
            TokenKind::StringLit(s) => write!(f, "'{s}'"),
            TokenKind::IntLit(i) => write!(f, "{i}"),
            TokenKind::FloatLit(x) => write!(f, "{x}"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Dot => f.write_str("."),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Plus => f.write_str("+"),
            TokenKind::Minus => f.write_str("-"),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Slash => f.write_str("/"),
            TokenKind::Percent => f.write_str("%"),
            TokenKind::Eq => f.write_str("="),
            TokenKind::NotEq => f.write_str("<>"),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::LtEq => f.write_str("<="),
            TokenKind::Gt => f.write_str(">"),
            TokenKind::GtEq => f.write_str(">="),
            TokenKind::Concat => f.write_str("||"),
            TokenKind::Semicolon => f.write_str(";"),
        }
    }
}

/// Tokenize `sql`, skipping whitespace and `--`/`/* */` comments.
pub fn tokenize(sql: &str) -> EngineResult<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::with_capacity(sql.len() / 4);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(EngineError::lex("unterminated block comment", start));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(EngineError::lex("unterminated string literal", start));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // Copy the (possibly multi-byte) char.
                        let ch_len = utf8_len(bytes[i]);
                        s.push_str(&sql[i..i + ch_len]);
                        i += ch_len;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::StringLit(s),
                    offset: start,
                });
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(EngineError::lex("unterminated quoted identifier", start));
                    }
                    if bytes[i] == b'"' {
                        i += 1;
                        break;
                    }
                    let ch_len = utf8_len(bytes[i]);
                    s.push_str(&sql[i..i + ch_len]);
                    i += ch_len;
                }
                tokens.push(Token {
                    kind: TokenKind::QuotedIdent(s),
                    offset: start,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && bytes[i + 1].is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &sql[start..i];
                let kind = if is_float {
                    TokenKind::FloatLit(text.parse().map_err(|_| {
                        EngineError::lex(format!("invalid float literal '{text}'"), start)
                    })?)
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => TokenKind::IntLit(v),
                        // Overflowing integers degrade to floats.
                        Err(_) => TokenKind::FloatLit(text.parse().map_err(|_| {
                            EngineError::lex(format!("invalid numeric literal '{text}'"), start)
                        })?),
                    }
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(sql[start..i].to_string()),
                    offset: start,
                });
            }
            _ => {
                let start = i;
                let kind = match c {
                    b',' => {
                        i += 1;
                        TokenKind::Comma
                    }
                    b'.' => {
                        i += 1;
                        TokenKind::Dot
                    }
                    b'(' => {
                        i += 1;
                        TokenKind::LParen
                    }
                    b')' => {
                        i += 1;
                        TokenKind::RParen
                    }
                    b'+' => {
                        i += 1;
                        TokenKind::Plus
                    }
                    b'-' => {
                        i += 1;
                        TokenKind::Minus
                    }
                    b'*' => {
                        i += 1;
                        TokenKind::Star
                    }
                    b'/' => {
                        i += 1;
                        TokenKind::Slash
                    }
                    b'%' => {
                        i += 1;
                        TokenKind::Percent
                    }
                    b';' => {
                        i += 1;
                        TokenKind::Semicolon
                    }
                    b'=' => {
                        i += 1;
                        // Accept both `=` and `==`.
                        if i < bytes.len() && bytes[i] == b'=' {
                            i += 1;
                        }
                        TokenKind::Eq
                    }
                    b'!' => {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                            i += 2;
                            TokenKind::NotEq
                        } else {
                            return Err(EngineError::lex("unexpected character '!'", start));
                        }
                    }
                    b'<' => {
                        i += 1;
                        if i < bytes.len() && bytes[i] == b'=' {
                            i += 1;
                            TokenKind::LtEq
                        } else if i < bytes.len() && bytes[i] == b'>' {
                            i += 1;
                            TokenKind::NotEq
                        } else {
                            TokenKind::Lt
                        }
                    }
                    b'>' => {
                        i += 1;
                        if i < bytes.len() && bytes[i] == b'=' {
                            i += 1;
                            TokenKind::GtEq
                        } else {
                            TokenKind::Gt
                        }
                    }
                    b'|' => {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'|' {
                            i += 2;
                            TokenKind::Concat
                        } else {
                            return Err(EngineError::lex("unexpected character '|'", start));
                        }
                    }
                    other => {
                        return Err(EngineError::lex(
                            format!("unexpected character '{}'", other as char),
                            start,
                        ))
                    }
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
            }
        }
    }
    Ok(tokens)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_select() {
        let ks = kinds("SELECT a, b FROM t WHERE a >= 10");
        assert_eq!(ks.len(), 10);
        assert!(ks[0].is_keyword("select"));
        assert_eq!(ks[1], TokenKind::Ident("a".into()));
        assert_eq!(ks[2], TokenKind::Comma);
        assert_eq!(ks[8], TokenKind::GtEq);
        assert_eq!(ks[9], TokenKind::IntLit(10));
    }

    #[test]
    fn string_escapes() {
        let ks = kinds("'it''s'");
        assert_eq!(ks, vec![TokenKind::StringLit("it's".into())]);
    }

    #[test]
    fn unterminated_string_is_lex_error() {
        let err = tokenize("SELECT 'oops").unwrap_err();
        assert!(err.is_syntactic());
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 1e3 1.5e-2"),
            vec![
                TokenKind::IntLit(1),
                TokenKind::FloatLit(2.5),
                TokenKind::FloatLit(1000.0),
                TokenKind::FloatLit(0.015),
            ]
        );
    }

    #[test]
    fn huge_integer_degrades_to_float() {
        let ks = kinds("99999999999999999999");
        assert!(matches!(ks[0], TokenKind::FloatLit(_)));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("SELECT 1 -- trailing\n, 2 /* block\nacross lines */ , 3");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::IntLit(1),
                TokenKind::Comma,
                TokenKind::IntLit(2),
                TokenKind::Comma,
                TokenKind::IntLit(3),
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(tokenize("SELECT 1 /* oops").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("<> != = == || <="),
            vec![
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::Eq,
                TokenKind::Eq,
                TokenKind::Concat,
                TokenKind::LtEq,
            ]
        );
    }

    #[test]
    fn quoted_identifier() {
        assert_eq!(
            kinds("\"Weird Col\""),
            vec![TokenKind::QuotedIdent("Weird Col".into())]
        );
    }

    #[test]
    fn dollar_in_identifier() {
        // Warehouse-style column names like REV$Q2 tokenize as one ident.
        assert_eq!(kinds("REV$Q2"), vec![TokenKind::Ident("REV$Q2".into())]);
    }

    #[test]
    fn offsets_point_into_source() {
        let toks = tokenize("SELECT  x").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 8);
    }

    #[test]
    fn unexpected_char_reports_offset() {
        let err = tokenize("SELECT #").unwrap_err();
        match err {
            EngineError::Lex { offset, .. } => assert_eq!(offset, 7),
            other => panic!("expected lex error, got {other:?}"),
        }
    }

    #[test]
    fn unicode_in_string_literal() {
        assert_eq!(
            kinds("'café ☕'"),
            vec![TokenKind::StringLit("café ☕".into())]
        );
    }
}
