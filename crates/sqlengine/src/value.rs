//! Runtime values and their SQL semantics.
//!
//! The engine is dynamically typed at execution time: every cell is a
//! [`Value`]. Comparison and arithmetic follow SQL conventions —
//! three-valued logic around NULL, numeric coercion between integers and
//! floats, lexicographic text ordering — which is what the Execution
//! Accuracy metric of the BIRD benchmark (paper §3.3.2) compares on.
//!
//! Each per-value rule is written once, here, on the borrowed
//! [`ValueRef`]: the row interpreter (`eval.rs`) borrows its `Value`s
//! into it and the batch kernels (`vector.rs`) read array elements as
//! it, allocation-free. What the two evaluators keep to themselves is
//! control — which rows or operands are evaluated, and in what order.

use crate::ast::BinaryOp;
use crate::error::{EngineError, EngineResult};
use crate::functions::sql_like;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};

/// A calendar date. The engine supports dates as first-class values because
/// the paper's running example `Q_fin-perf` (Appendix A) groups financial
/// months into quarters with `TO_CHAR(FIN_MONTH, 'YYYY"Q"Q')`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
}

/// Decoding goes through [`Date::new`], so a date read from a saved
/// database holds the same range checks as one built in code.
impl Deserialize for Date {
    fn deserialize(value: &serde::value::Value) -> Result<Date, serde::Error> {
        let pairs = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", value))?;
        Date::new(
            serde::field(pairs, "year")?,
            serde::field(pairs, "month")?,
            serde::field(pairs, "day")?,
        )
        .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl Date {
    /// Construct a date, validating month/day ranges (days are validated
    /// against the correct month length, including leap years).
    pub fn new(year: i32, month: u8, day: u8) -> EngineResult<Self> {
        if !(1..=12).contains(&month) {
            return Err(EngineError::execution(format!("invalid month {month}")));
        }
        let max_day = days_in_month(year, month);
        if day == 0 || day > max_day {
            return Err(EngineError::execution(format!(
                "invalid day {day} for {year}-{month:02}"
            )));
        }
        Ok(Date { year, month, day })
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> EngineResult<Self> {
        let parts: Vec<&str> = s.split('-').collect();
        if parts.len() != 3 {
            return Err(EngineError::execution(format!(
                "invalid date literal '{s}'"
            )));
        }
        let year: i32 = parts[0]
            .parse()
            .map_err(|_| EngineError::execution(format!("invalid year in '{s}'")))?;
        let month: u8 = parts[1]
            .parse()
            .map_err(|_| EngineError::execution(format!("invalid month in '{s}'")))?;
        let day: u8 = parts[2]
            .parse()
            .map_err(|_| EngineError::execution(format!("invalid day in '{s}'")))?;
        Date::new(year, month, day)
    }

    /// Quarter of the year, 1..=4.
    pub fn quarter(&self) -> u8 {
        (self.month - 1) / 3 + 1
    }

    /// Format using a (small) TO_CHAR-style pattern; see [`DatePattern`].
    pub fn format_pattern(&self, pattern: &str) -> EngineResult<String> {
        Ok(DatePattern::parse(pattern)?.render(self))
    }
}

/// A parsed TO_CHAR-style pattern. Supported tokens: `YYYY`, `MM`, `DD`,
/// `Q`, and double-quoted literals such as `"Q"`. Any other character is
/// copied as is. Parsing once lets a batch render many dates with one
/// pattern.
#[derive(Debug, Clone)]
pub struct DatePattern {
    parts: Vec<PatternPart>,
}

#[derive(Debug, Clone)]
enum PatternPart {
    Year,
    Month,
    Day,
    Quarter,
    /// Copied text: quoted literals and other characters, run together.
    Text(String),
}

impl DatePattern {
    /// Parse `pattern`; an unterminated quoted literal is an error.
    pub fn parse(pattern: &str) -> EngineResult<DatePattern> {
        let mut parts = Vec::new();
        let mut text = String::new();
        let mut rest = pattern;
        while let Some(c) = rest.chars().next() {
            let (part, width) = if rest.starts_with("YYYY") {
                (PatternPart::Year, 4)
            } else if rest.starts_with("MM") {
                (PatternPart::Month, 2)
            } else if rest.starts_with("DD") {
                (PatternPart::Day, 2)
            } else if c == 'Q' {
                (PatternPart::Quarter, 1)
            } else if c == '"' {
                // Literal text until the closing quote.
                match rest[1..].find('"') {
                    Some(end) => {
                        text.push_str(&rest[1..1 + end]);
                        rest = &rest[end + 2..];
                        continue;
                    }
                    None => {
                        return Err(EngineError::execution(format!(
                            "unterminated quoted literal in TO_CHAR pattern '{pattern}'"
                        )))
                    }
                }
            } else {
                text.push(c);
                rest = &rest[c.len_utf8()..];
                continue;
            };
            if !text.is_empty() {
                parts.push(PatternPart::Text(std::mem::take(&mut text)));
            }
            parts.push(part);
            rest = &rest[width..];
        }
        if !text.is_empty() {
            parts.push(PatternPart::Text(text));
        }
        Ok(DatePattern { parts })
    }

    /// `d` rendered in this pattern.
    pub fn render(&self, d: &Date) -> String {
        let mut out = String::with_capacity(16);
        self.render_into(d, &mut out);
        out
    }

    /// Append `d` rendered in this pattern to `out`, so a batch can render
    /// every date into one reused buffer.
    pub fn render_into(&self, d: &Date, out: &mut String) {
        // `{:02}` of `v`, digit by digit below 100. Writing to a `String`
        // cannot fail.
        let two = |out: &mut String, v: u8| {
            if v < 100 {
                out.push(char::from(b'0' + v / 10));
                out.push(char::from(b'0' + v % 10));
            } else {
                let _ = write!(out, "{v:02}");
            }
        };
        for part in &self.parts {
            match part {
                PatternPart::Year if (0..10_000).contains(&d.year) => {
                    two(out, (d.year / 100) as u8);
                    two(out, (d.year % 100) as u8);
                }
                PatternPart::Year => {
                    let _ = write!(out, "{:04}", d.year);
                }
                PatternPart::Month => two(out, d.month),
                PatternPart::Day => two(out, d.day),
                PatternPart::Quarter => match d.quarter() {
                    q @ 0..=9 => out.push(char::from(b'0' + q)),
                    q => {
                        let _ = write!(out, "{q}");
                    }
                },
                PatternPart::Text(t) => out.push_str(t),
            }
        }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Static type of a column, used by the catalog and schema descriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    Integer,
    Float,
    Text,
    Boolean,
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Integer => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Boolean => "BOOLEAN",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a type name as written in SQL (`CAST(x AS <type>)`).
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(DataType::Integer),
            "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Some(DataType::Text),
            "BOOL" | "BOOLEAN" => Some(DataType::Boolean),
            "DATE" => Some(DataType::Date),
            _ => None,
        }
    }
}

/// A runtime SQL value.
///
/// `PartialEq` here is *structural* (used by tests and the AST); SQL
/// equality with NULL semantics and numeric coercion is [`Value::sql_eq`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    Null,
    Integer(i64),
    Float(f64),
    Text(String),
    Boolean(bool),
    Date(Date),
}

/// A borrowed view of one value, which the per-value rules are written
/// on: array elements read as it without allocating, and a [`Value`]
/// borrows into it with `ValueRef::from`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Integer element.
    Int(i64),
    /// Float element.
    Float(f64),
    /// Text element, borrowed.
    Str(&'a str),
    /// Boolean element.
    Bool(bool),
    /// Date element.
    Date(Date),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Dynamic type of the value, `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Integer(_) => Some(DataType::Integer),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// [`ValueRef::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        ValueRef::from(self).as_f64()
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// [`ValueRef::as_bool`].
    pub fn as_bool(&self) -> EngineResult<Option<bool>> {
        ValueRef::from(self).as_bool()
    }

    /// [`ValueRef::sql_cmp`].
    pub fn sql_cmp(&self, other: &Value) -> EngineResult<Option<Ordering>> {
        ValueRef::from(self).sql_cmp(other.into())
    }

    /// [`ValueRef::sql_eq`].
    pub fn sql_eq(&self, other: &Value) -> bool {
        ValueRef::from(self).sql_eq(other.into())
    }

    /// Total ordering used for ORDER BY and result comparison: NULLs sort
    /// first, then by type-coerced comparison, falling back to a stable
    /// cross-type order so sorting never fails.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            _ => match self.sql_cmp(other) {
                Ok(Some(ord)) => ord,
                _ => type_rank(self).cmp(&type_rank(other)).then_with(|| {
                    // Same rank but incomparable should not happen; compare
                    // the rendered text for determinism.
                    self.to_string().cmp(&other.to_string())
                }),
            },
        }
    }

    /// CAST implementation.
    pub fn cast_to(&self, ty: DataType) -> EngineResult<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let err = || EngineError::execution(format!("cannot cast {self} to {ty}"));
        Ok(match (self, ty) {
            (Value::Integer(i), DataType::Integer) => Value::Integer(*i),
            (Value::Integer(i), DataType::Float) => Value::Float(*i as f64),
            (Value::Integer(i), DataType::Text) => Value::Text(i.to_string()),
            (Value::Integer(i), DataType::Boolean) => Value::Boolean(*i != 0),
            (Value::Float(f), DataType::Float) => Value::Float(*f),
            (Value::Float(f), DataType::Integer) => Value::Integer(*f as i64),
            (Value::Float(f), DataType::Text) => Value::Text(render_float(*f)),
            (Value::Text(s), DataType::Text) => Value::Text(s.clone()),
            (Value::Text(s), DataType::Integer) => {
                Value::Integer(s.trim().parse::<i64>().map_err(|_| err())?)
            }
            (Value::Text(s), DataType::Float) => {
                Value::Float(s.trim().parse::<f64>().map_err(|_| err())?)
            }
            (Value::Text(s), DataType::Date) => Value::Date(Date::parse(s.trim())?),
            (Value::Text(s), DataType::Boolean) => match s.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Value::Boolean(true),
                "false" | "f" | "0" => Value::Boolean(false),
                _ => return Err(err()),
            },
            (Value::Boolean(b), DataType::Boolean) => Value::Boolean(*b),
            (Value::Boolean(b), DataType::Integer) => Value::Integer(*b as i64),
            (Value::Boolean(b), DataType::Text) => Value::Text(b.to_string()),
            (Value::Date(d), DataType::Date) => Value::Date(*d),
            (Value::Date(d), DataType::Text) => Value::Text(d.to_string()),
            _ => return Err(err()),
        })
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Null => ValueRef::Null,
            Value::Integer(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Str(s),
            Value::Boolean(b) => ValueRef::Bool(*b),
            Value::Date(d) => ValueRef::Date(*d),
        }
    }
}

impl ValueRef<'_> {
    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Materialize into an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Integer(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Text(s.to_string()),
            ValueRef::Bool(b) => Value::Boolean(b),
            ValueRef::Date(d) => Value::Date(d),
        }
    }

    /// Numeric view used by arithmetic and aggregates. Booleans do not
    /// coerce to numbers (matching most warehouse dialects).
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            _ => None,
        }
    }

    /// SQL truthiness: NULL propagates as `None` (unknown), an integer is
    /// true when non-zero, and anything else is a type error.
    #[inline]
    pub fn as_bool(self) -> EngineResult<Option<bool>> {
        match self {
            ValueRef::Null => Ok(None),
            ValueRef::Bool(b) => Ok(Some(b)),
            ValueRef::Int(i) => Ok(Some(i != 0)),
            other => Err(EngineError::typing(format!(
                "value {other} is not a boolean"
            ))),
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL (unknown),
    /// or an error for incomparable types.
    #[inline]
    pub fn sql_cmp(self, other: ValueRef<'_>) -> EngineResult<Option<Ordering>> {
        use ValueRef::*;
        let ord = match (self, other) {
            (Null, _) | (_, Null) => return Ok(None),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => total_cmp_f64(a, b),
            (Int(a), Float(b)) => total_cmp_f64(a as f64, b),
            (Float(a), Int(b)) => total_cmp_f64(a, b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Date(a), Date(b)) => a.cmp(&b),
            // Dates compare with their ISO text form; useful because
            // generated data sometimes stores dates as text.
            (Date(a), Str(b)) => a.to_string().as_str().cmp(b),
            (Str(a), Date(b)) => a.cmp(b.to_string().as_str()),
            (a, b) => return Err(EngineError::typing(format!("cannot compare {a} with {b}"))),
        };
        Ok(Some(ord))
    }

    /// Equality under SQL semantics, where NULL = anything is unknown and
    /// a comparison error counts as "not equal": what `IN`, simple `CASE`
    /// and `NULLIF` match by. Use `sql_cmp` when three-valued logic matters.
    pub fn sql_eq(self, other: ValueRef<'_>) -> bool {
        matches!(self.sql_cmp(other), Ok(Some(Ordering::Equal)))
    }
}

/// `l op r` for one of the six comparison operators: unknown (`None`)
/// when either side is NULL.
#[inline]
pub(crate) fn compare(
    op: BinaryOp,
    l: ValueRef<'_>,
    r: ValueRef<'_>,
) -> EngineResult<Option<bool>> {
    use Ordering::*;
    Ok(l.sql_cmp(r)?.map(|ord| match op {
        BinaryOp::Eq => ord == Equal,
        BinaryOp::NotEq => ord != Equal,
        BinaryOp::Lt => ord == Less,
        BinaryOp::LtEq => ord != Greater,
        BinaryOp::Gt => ord == Greater,
        _ => ord != Less,
    }))
}

/// `l op r` for `+ - * / %`: NULL when either side is. Integers stay
/// integers — division truncates, like SQLite — unless the result
/// overflows, which promotes to FLOAT (`i64::MIN % -1` is its exact 0).
/// A zero divisor gives NULL, so division never aborts a whole analytics
/// query.
pub(crate) fn arith(op: BinaryOp, l: ValueRef<'_>, r: ValueRef<'_>) -> EngineResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let (ValueRef::Int(a), ValueRef::Int(b)) = (l, r) {
        let exact = match op {
            BinaryOp::Add => a.checked_add(b),
            BinaryOp::Sub => a.checked_sub(b),
            BinaryOp::Mul => a.checked_mul(b),
            BinaryOp::Div => a.checked_div(b),
            BinaryOp::Mod => (b != 0).then(|| a.wrapping_rem(b)),
            _ => None,
        };
        if let Some(i) = exact {
            return Ok(Value::Integer(i));
        }
    }
    let type_err = || EngineError::typing(format!("cannot apply {} to {l} and {r}", op.symbol()));
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(type_err());
    };
    Ok(match op {
        BinaryOp::Add => Value::Float(a + b),
        BinaryOp::Sub => Value::Float(a - b),
        BinaryOp::Mul => Value::Float(a * b),
        BinaryOp::Div | BinaryOp::Mod if b == 0.0 => Value::Null,
        BinaryOp::Div => Value::Float(a / b),
        BinaryOp::Mod => Value::Float(a % b),
        _ => return Err(type_err()),
    })
}

/// Unary minus; `-i64::MIN` overflows and promotes to FLOAT.
pub(crate) fn negate(v: ValueRef<'_>) -> EngineResult<Value> {
    match v {
        ValueRef::Null => Ok(Value::Null),
        ValueRef::Int(i) => Ok(i
            .checked_neg()
            .map_or(Value::Float(-(i as f64)), Value::Integer)),
        ValueRef::Float(f) => Ok(Value::Float(-f)),
        other => Err(EngineError::typing(format!("cannot negate {other}"))),
    }
}

/// `l || r`: NULL when either side is, else both sides as they display.
pub(crate) fn concat(l: ValueRef<'_>, r: ValueRef<'_>) -> Value {
    if l.is_null() || r.is_null() {
        Value::Null
    } else {
        Value::Text(format!("{l}{r}"))
    }
}

/// The three-valued `AND` (`and`) or `OR` (`!and`) of two truth values:
/// `!and` on either side decides it, and an unknown side leaves it
/// unknown otherwise. Both evaluators run `l` first and skip `r` where
/// `l` decides; `vector::split` is this table's row-list form.
#[inline]
pub(crate) fn and_or(and: bool, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        _ if l == Some(!and) || r == Some(!and) => Some(!and),
        (Some(_), Some(_)) => Some(and),
        _ => None,
    }
}

/// `v [NOT] BETWEEN lo AND hi`: unknown as soon as a bound comparison
/// is, and the upper bound is not compared once the lower one is unknown
/// (it may be incomparable without erroring).
pub(crate) fn between(
    v: ValueRef<'_>,
    lo: ValueRef<'_>,
    hi: ValueRef<'_>,
    negated: bool,
) -> EngineResult<Option<bool>> {
    let Some(lower) = v.sql_cmp(lo)? else {
        return Ok(None);
    };
    let Some(upper) = v.sql_cmp(hi)? else {
        return Ok(None);
    };
    Ok(Some(
        (lower != Ordering::Less && upper != Ordering::Greater) != negated,
    ))
}

/// `v [NOT] LIKE p`: unknown when either side is NULL; a side that is
/// not text matches as it displays.
pub(crate) fn like(v: ValueRef<'_>, p: ValueRef<'_>, negated: bool) -> Option<bool> {
    let matched = match (v, p) {
        (ValueRef::Null, _) | (_, ValueRef::Null) => return None,
        (ValueRef::Str(s), ValueRef::Str(pattern)) => sql_like(s, pattern),
        _ => sql_like(&v.to_string(), &p.to_string()),
    };
    Some(matched != negated)
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Integer(_) | Value::Float(_) => 2,
        Value::Date(_) => 3,
        Value::Text(_) => 4,
    }
}

pub(crate) fn total_cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        // NaNs sort last, deterministically.
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => Ordering::Equal,
        }
    })
}

/// Render a float the way results display it (integral floats keep one
/// decimal place so FLOAT columns are visibly floats).
pub fn render_float(f: f64) -> String {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

impl fmt::Display for ValueRef<'_> {
    /// The one text rendering of a value: result tables, error messages,
    /// `||`, and `LIKE` over non-text operands.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => f.write_str("NULL"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => f.write_str(&render_float(*x)),
            ValueRef::Str(s) => f.write_str(s),
            ValueRef::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            ValueRef::Date(d) => write!(f, "{d}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ValueRef::from(self).fmt(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_validation() {
        assert!(Date::new(2023, 2, 29).is_err());
        assert!(Date::new(2024, 2, 29).is_ok()); // leap year
        assert!(Date::new(2023, 13, 1).is_err());
        assert!(Date::new(2023, 4, 31).is_err());
        assert!(Date::new(1900, 2, 29).is_err()); // century, not leap
        assert!(Date::new(2000, 2, 29).is_ok()); // 400-year leap
    }

    #[test]
    fn date_parse_and_display_round_trip() {
        let d = Date::parse("2023-06-15").unwrap();
        assert_eq!(d.to_string(), "2023-06-15");
        assert!(Date::parse("2023/06/15").is_err());
        assert!(Date::parse("garbage").is_err());
    }

    #[test]
    fn quarter_boundaries() {
        assert_eq!(Date::new(2023, 1, 1).unwrap().quarter(), 1);
        assert_eq!(Date::new(2023, 3, 31).unwrap().quarter(), 1);
        assert_eq!(Date::new(2023, 4, 1).unwrap().quarter(), 2);
        assert_eq!(Date::new(2023, 12, 31).unwrap().quarter(), 4);
    }

    #[test]
    fn to_char_pattern_from_paper() {
        // The exact pattern used by Q_fin-perf in Appendix A.
        let d = Date::new(2023, 5, 1).unwrap();
        assert_eq!(d.format_pattern("YYYY\"Q\"Q").unwrap(), "2023Q2");
        assert_eq!(d.format_pattern("YYYY-MM").unwrap(), "2023-05");
        assert_eq!(d.format_pattern("YYYY-MM-DD").unwrap(), "2023-05-01");
    }

    #[test]
    fn to_char_unterminated_quote_errors() {
        let d = Date::new(2023, 5, 1).unwrap();
        assert!(d.format_pattern("YYYY\"Q").is_err());
    }

    #[test]
    fn to_char_copies_non_ascii_characters() {
        let d = Date::new(2023, 5, 1).unwrap();
        assert_eq!(d.format_pattern("YYYYé").unwrap(), "2023é");
        assert_eq!(d.format_pattern("→MM\"ü\"Q").unwrap(), "→05ü2");
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Integer(1)).unwrap(), None);
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Null).unwrap(), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(
            Value::Integer(2).sql_cmp(&Value::Float(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Integer(2)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incomparable_types_error() {
        assert!(Value::Integer(1).sql_cmp(&Value::Text("a".into())).is_err());
        assert!(Value::Boolean(true).sql_cmp(&Value::Integer(1)).is_err());
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut vals = [Value::Integer(3), Value::Null, Value::Integer(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1].as_i64(), Some(1));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Text("42".into())
                .cast_to(DataType::Integer)
                .unwrap()
                .as_i64(),
            Some(42)
        );
        assert!(matches!(
            Value::Text("4.5".into()).cast_to(DataType::Float).unwrap(),
            Value::Float(f) if (f - 4.5).abs() < 1e-9
        ));
        assert!(Value::Text("x".into()).cast_to(DataType::Integer).is_err());
        assert!(Value::Null.cast_to(DataType::Integer).unwrap().is_null());
        assert_eq!(
            Value::Float(3.9)
                .cast_to(DataType::Integer)
                .unwrap()
                .as_i64(),
            Some(3) // truncation, as in SQLite/Snowflake CAST
        );
        assert!(matches!(
            Value::Text("2023-01-05".into())
                .cast_to(DataType::Date)
                .unwrap(),
            Value::Date(_)
        ));
    }

    #[test]
    fn bool_truthiness() {
        assert_eq!(Value::Boolean(true).as_bool().unwrap(), Some(true));
        assert_eq!(Value::Integer(0).as_bool().unwrap(), Some(false));
        assert_eq!(Value::Null.as_bool().unwrap(), None);
        assert!(Value::Text("x".into()).as_bool().is_err());
    }

    #[test]
    fn datatype_parse() {
        assert_eq!(DataType::parse("varchar"), Some(DataType::Text));
        assert_eq!(DataType::parse("BIGINT"), Some(DataType::Integer));
        assert_eq!(DataType::parse("bogus"), None);
    }

    #[test]
    fn float_rendering() {
        assert_eq!(render_float(2.0), "2.0");
        assert_eq!(render_float(2.5), "2.5");
    }
}
