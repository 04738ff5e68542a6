//! Scalar function implementations.
//!
//! The set covers what enterprise analytics SQL in the paper's domain needs,
//! most notably `TO_CHAR` with quarter patterns (Appendix A) and the
//! NULL-guarding `NULLIF`/`COALESCE` the paper's example leans on.

use crate::error::{EngineError, EngineResult};
use crate::value::{Date, Value};

/// Names the executor treats as aggregates rather than scalars.
pub const AGGREGATE_FUNCTIONS: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT"];

/// Names valid in a window (`OVER`) context that are *not* aggregates.
pub const RANKING_FUNCTIONS: &[&str] = &[
    "ROW_NUMBER",
    "RANK",
    "DENSE_RANK",
    "NTILE",
    "LAG",
    "LEAD",
    "FIRST_VALUE",
    "LAST_VALUE",
];

pub fn is_aggregate(name: &str) -> bool {
    AGGREGATE_FUNCTIONS
        .iter()
        .any(|f| name.eq_ignore_ascii_case(f))
}

pub fn is_ranking(name: &str) -> bool {
    RANKING_FUNCTIONS
        .iter()
        .any(|f| name.eq_ignore_ascii_case(f))
}

/// Evaluate a scalar function over already-evaluated arguments.
pub fn eval_scalar(name: &str, args: &[Value]) -> EngineResult<Value> {
    let arity = |n: usize| -> EngineResult<()> {
        if args.len() != n {
            Err(EngineError::typing(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };

    // `FunctionCall::new` already upper-cases; allocate only for a name
    // that arrives otherwise.
    let upper;
    let dispatch = if name.bytes().any(|b| b.is_ascii_lowercase()) {
        upper = name.to_ascii_uppercase();
        upper.as_str()
    } else {
        name
    };
    match dispatch {
        "ABS" => {
            arity(1)?;
            numeric_unary(name, &args[0], |f| f.abs(), |i| i.checked_abs())
        }
        "SIGN" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => {
                    let f = v.as_f64().ok_or_else(|| non_numeric(name, v))?;
                    Ok(Value::Integer(if f > 0.0 {
                        1
                    } else if f < 0.0 {
                        -1
                    } else {
                        0
                    }))
                }
            }
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(EngineError::typing("ROUND expects 1 or 2 arguments"));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let f = args[0]
                .as_f64()
                .ok_or_else(|| non_numeric(name, &args[0]))?;
            let digits = if args.len() == 2 {
                if args[1].is_null() {
                    return Ok(Value::Null);
                }
                args[1]
                    .as_i64()
                    .ok_or_else(|| non_numeric(name, &args[1]))?
            } else {
                0
            };
            let factor = 10f64.powi(digits as i32);
            Ok(Value::Float((f * factor).round() / factor))
        }
        "FLOOR" => {
            arity(1)?;
            numeric_unary(name, &args[0], |f| f.floor(), Some)
        }
        "CEIL" | "CEILING" => {
            arity(1)?;
            numeric_unary(name, &args[0], |f| f.ceil(), Some)
        }
        "SQRT" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => {
                    let f = v.as_f64().ok_or_else(|| non_numeric(name, v))?;
                    if f < 0.0 {
                        Ok(Value::Null)
                    } else {
                        Ok(Value::Float(f.sqrt()))
                    }
                }
            }
        }
        "POWER" | "POW" => {
            arity(2)?;
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            let base = args[0]
                .as_f64()
                .ok_or_else(|| non_numeric(name, &args[0]))?;
            let exp = args[1]
                .as_f64()
                .ok_or_else(|| non_numeric(name, &args[1]))?;
            Ok(Value::Float(base.powf(exp)))
        }
        "MOD" => {
            arity(2)?;
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            match (&args[0], &args[1]) {
                (Value::Integer(a), Value::Integer(b)) => {
                    if *b == 0 {
                        Ok(Value::Null)
                    } else {
                        // i64::MIN % -1 is 0, but `%` overflows computing it.
                        Ok(Value::Integer(a.wrapping_rem(*b)))
                    }
                }
                (a, b) => {
                    let x = a.as_f64().ok_or_else(|| non_numeric(name, a))?;
                    let y = b.as_f64().ok_or_else(|| non_numeric(name, b))?;
                    if y == 0.0 {
                        Ok(Value::Null)
                    } else {
                        Ok(Value::Float(x % y))
                    }
                }
            }
        }
        "UPPER" => {
            arity(1)?;
            text_unary(&args[0], |s| s.to_uppercase())
        }
        "LOWER" => {
            arity(1)?;
            text_unary(&args[0], |s| s.to_lowercase())
        }
        "LENGTH" | "LEN" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Integer(v.to_string().chars().count() as i64)),
            }
        }
        "TRIM" => {
            arity(1)?;
            text_unary(&args[0], |s| s.trim().to_string())
        }
        "LTRIM" => {
            arity(1)?;
            text_unary(&args[0], |s| s.trim_start().to_string())
        }
        "RTRIM" => {
            arity(1)?;
            text_unary(&args[0], |s| s.trim_end().to_string())
        }
        "REPLACE" => {
            arity(3)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = args[0].to_string();
            let from = args[1].to_string();
            let to = args[2].to_string();
            Ok(Value::Text(if from.is_empty() {
                s
            } else {
                s.replace(&from, &to)
            }))
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(EngineError::typing("SUBSTR expects 2 or 3 arguments"));
            }
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            let s: Vec<char> = args[0].to_string().chars().collect();
            // SQL is 1-based; 0 behaves like 1.
            let start = args[1]
                .as_i64()
                .ok_or_else(|| non_numeric(name, &args[1]))?;
            let start_idx = if start <= 1 { 0 } else { (start - 1) as usize };
            let len = if args.len() == 3 {
                if args[2].is_null() {
                    return Ok(Value::Null);
                }
                let l = args[2]
                    .as_i64()
                    .ok_or_else(|| non_numeric(name, &args[2]))?;
                if l < 0 {
                    0
                } else {
                    l as usize
                }
            } else {
                usize::MAX
            };
            let out: String = s.iter().skip(start_idx).take(len).collect();
            Ok(Value::Text(out))
        }
        "INSTR" => {
            arity(2)?;
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            let hay = args[0].to_string();
            let needle = args[1].to_string();
            // 1-based position in characters; 0 when absent.
            match hay.find(&needle) {
                Some(byte_pos) => {
                    let char_pos = hay[..byte_pos].chars().count() as i64 + 1;
                    Ok(Value::Integer(char_pos))
                }
                None => Ok(Value::Integer(0)),
            }
        }
        "CONCAT" => {
            let mut out = String::new();
            for a in args {
                if !a.is_null() {
                    out.push_str(&a.to_string());
                }
            }
            Ok(Value::Text(out))
        }
        "COALESCE" => {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        "NULLIF" => {
            arity(2)?;
            if !args[0].is_null() && args[0].sql_eq(&args[1]) {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        "IIF" | "IF" => {
            arity(3)?;
            match args[0].as_bool()? {
                Some(true) => Ok(args[1].clone()),
                _ => Ok(args[2].clone()),
            }
        }
        "TO_CHAR" => {
            if args.is_empty() || args.len() > 2 {
                return Err(EngineError::typing("TO_CHAR expects 1 or 2 arguments"));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            if args.len() == 1 {
                return Ok(Value::Text(args[0].to_string()));
            }
            if args[1].is_null() {
                return Ok(Value::Null);
            }
            let rendered;
            let pattern = match &args[1] {
                Value::Text(p) => p.as_str(),
                other => {
                    rendered = other.to_string();
                    rendered.as_str()
                }
            };
            match &args[0] {
                Value::Date(d) => Ok(Value::Text(d.format_pattern(pattern)?)),
                Value::Text(s) => {
                    // Accept ISO date strings for convenience.
                    let d = Date::parse(s)?;
                    Ok(Value::Text(d.format_pattern(pattern)?))
                }
                other => Err(EngineError::typing(format!(
                    "TO_CHAR with a pattern requires a DATE, got {other}"
                ))),
            }
        }
        "DATE" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Date(d) => Ok(Value::Date(*d)),
                Value::Text(s) => Ok(Value::Date(Date::parse(s)?)),
                other => Err(EngineError::typing(format!(
                    "cannot convert {other} to DATE"
                ))),
            }
        }
        "YEAR" => date_part(&args[0], name, args.len(), |d| d.year as i64),
        "MONTH" => date_part(&args[0], name, args.len(), |d| d.month as i64),
        "DAY" => date_part(&args[0], name, args.len(), |d| d.day as i64),
        "QUARTER" => date_part(&args[0], name, args.len(), |d| d.quarter() as i64),
        other => Err(EngineError::binding(format!("unknown function {other}"))),
    }
}

fn non_numeric(func: &str, v: &Value) -> EngineError {
    EngineError::typing(format!("{func} requires a numeric argument, got {v}"))
}

fn numeric_unary(
    name: &str,
    v: &Value,
    float_op: impl Fn(f64) -> f64,
    int_op: impl Fn(i64) -> Option<i64>,
) -> EngineResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Integer(i) => match int_op(*i) {
            Some(r) => Ok(Value::Integer(r)),
            None => Ok(Value::Float(float_op(*i as f64))),
        },
        Value::Float(f) => Ok(Value::Float(float_op(*f))),
        other => Err(non_numeric(name, other)),
    }
}

fn text_unary(v: &Value, op: impl Fn(&str) -> String) -> EngineResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        other => Ok(Value::Text(op(&other.to_string()))),
    }
}

fn date_part(
    v: &Value,
    name: &str,
    arity: usize,
    part: impl Fn(&Date) -> i64,
) -> EngineResult<Value> {
    if arity != 1 {
        return Err(EngineError::typing(format!("{name} expects 1 argument")));
    }
    match v {
        Value::Null => Ok(Value::Null),
        Value::Date(d) => Ok(Value::Integer(part(d))),
        Value::Text(s) => {
            let d = Date::parse(s)?;
            Ok(Value::Integer(part(&d)))
        }
        other => Err(EngineError::typing(format!(
            "{name} requires a DATE, got {other}"
        ))),
    }
}

/// SQL LIKE with `%` and `_` wildcards, case-sensitive, no escape syntax.
/// `_` matches one character.
pub fn sql_like(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    like(&t, &p)
}

/// Wildcard matching in O(text · pattern) time without recursion: on a
/// mismatch, only the most recent `%` is retried one character further
/// along the text. An earlier `%` never needs a retry, because the
/// later one can absorb whatever the earlier one would have.
fn like(t: &[char], p: &[char]) -> bool {
    let (mut ti, mut pi) = (0, 0);
    // Pattern position after the last `%`, and the text position it
    // currently absorbs up to.
    let mut retry: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && p[pi] == '%' {
            pi += 1;
            retry = Some((pi, ti));
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if let Some((after, absorbed)) = retry {
            pi = after;
            ti = absorbed + 1;
            retry = Some((after, ti));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == '%')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: Vec<Value>) -> Value {
        eval_scalar(name, &args).unwrap()
    }

    #[test]
    fn abs_and_sign() {
        assert_eq!(call("ABS", vec![Value::Integer(-5)]).as_i64(), Some(5));
        assert_eq!(call("ABS", vec![Value::Float(-2.5)]).as_f64(), Some(2.5));
        assert!(call("ABS", vec![Value::Null]).is_null());
        assert_eq!(call("SIGN", vec![Value::Integer(-5)]).as_i64(), Some(-1));
        assert_eq!(call("SIGN", vec![Value::Integer(0)]).as_i64(), Some(0));
    }

    #[test]
    fn round_with_digits() {
        assert_eq!(
            call("ROUND", vec![Value::Float(2.567), Value::Integer(1)]).as_f64(),
            Some(2.6)
        );
        assert_eq!(call("ROUND", vec![Value::Float(2.4)]).as_f64(), Some(2.0));
    }

    #[test]
    fn nullif_matches_paper_usage() {
        // NULLIF(v.VIEWS_2023Q2, 0) from Appendix A: zero denominators
        // become NULL so the division yields NULL instead of an error.
        assert!(call("NULLIF", vec![Value::Integer(0), Value::Integer(0)]).is_null());
        assert_eq!(
            call("NULLIF", vec![Value::Integer(7), Value::Integer(0)]).as_i64(),
            Some(7)
        );
        assert!(call("NULLIF", vec![Value::Null, Value::Null]).is_null());
    }

    #[test]
    fn coalesce_first_non_null() {
        assert_eq!(
            call(
                "COALESCE",
                vec![Value::Null, Value::Null, Value::Integer(3)]
            )
            .as_i64(),
            Some(3)
        );
        assert!(call("COALESCE", vec![Value::Null]).is_null());
    }

    #[test]
    fn to_char_date_quarters() {
        let d = Value::Date(Date::new(2023, 5, 1).unwrap());
        assert_eq!(
            call("TO_CHAR", vec![d, Value::Text("YYYY\"Q\"Q".into())]),
            Value::Text("2023Q2".into())
        );
    }

    #[test]
    fn to_char_accepts_iso_text_dates() {
        assert_eq!(
            call(
                "TO_CHAR",
                vec![
                    Value::Text("2023-11-20".into()),
                    Value::Text("YYYY\"Q\"Q".into())
                ]
            ),
            Value::Text("2023Q4".into())
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(call("UPPER", vec!["abc".into()]), Value::Text("ABC".into()));
        assert_eq!(call("LENGTH", vec!["héllo".into()]).as_i64(), Some(5));
        assert_eq!(
            call(
                "SUBSTR",
                vec!["hello".into(), Value::Integer(2), Value::Integer(3)]
            ),
            Value::Text("ell".into())
        );
        assert_eq!(
            call("SUBSTR", vec!["hello".into(), Value::Integer(1)]),
            Value::Text("hello".into())
        );
        assert_eq!(
            call("REPLACE", vec!["aXbX".into(), "X".into(), "-".into()]),
            Value::Text("a-b-".into())
        );
        assert_eq!(
            call("INSTR", vec!["hello".into(), "ll".into()]).as_i64(),
            Some(3)
        );
        assert_eq!(
            call("INSTR", vec!["hello".into(), "z".into()]).as_i64(),
            Some(0)
        );
    }

    #[test]
    fn concat_skips_nulls() {
        assert_eq!(
            call("CONCAT", vec!["a".into(), Value::Null, "b".into()]),
            Value::Text("ab".into())
        );
    }

    #[test]
    fn date_parts() {
        let d = Value::Date(Date::new(2023, 11, 20).unwrap());
        assert_eq!(call("YEAR", vec![d.clone()]).as_i64(), Some(2023));
        assert_eq!(call("MONTH", vec![d.clone()]).as_i64(), Some(11));
        assert_eq!(call("QUARTER", vec![d]).as_i64(), Some(4));
    }

    #[test]
    fn division_helpers() {
        assert!(call("MOD", vec![Value::Integer(5), Value::Integer(0)]).is_null());
        assert_eq!(
            call("MOD", vec![Value::Integer(5), Value::Integer(3)]).as_i64(),
            Some(2)
        );
        assert_eq!(
            call("MOD", vec![Value::Integer(i64::MIN), Value::Integer(-1)]).as_i64(),
            Some(0)
        );
        assert!(call("SQRT", vec![Value::Float(-1.0)]).is_null());
    }

    #[test]
    fn unknown_function_is_binding_error() {
        let e = eval_scalar("FROBNICATE", &[]).unwrap_err();
        assert!(matches!(e, EngineError::Binding { .. }));
    }

    #[test]
    fn dispatch_ignores_case_and_patterns_need_not_be_text() {
        let d = Value::Date(Date::new(2023, 5, 1).unwrap());
        let upper = call("TO_CHAR", vec![d.clone(), "YYYY-MM".into()]);
        assert_eq!(call("to_char", vec![d.clone(), "YYYY-MM".into()]), upper);
        assert_eq!(call("To_Char", vec![d.clone(), "YYYY-MM".into()]), upper);
        // A non-text pattern renders first, as before: no field letters,
        // so it comes back verbatim.
        assert_eq!(
            call("TO_CHAR", vec![d, Value::Integer(7)]),
            Value::Text("7".into())
        );
        let e = eval_scalar("frobnicate", &[]).unwrap_err();
        assert_eq!(e, eval_scalar("FROBNICATE", &[]).unwrap_err());
        // Messages quote the name as the caller wrote it.
        let e = eval_scalar("abs", &["x".into()]).unwrap_err();
        assert!(e.to_string().contains("abs requires"), "{e}");
    }

    #[test]
    fn like_patterns() {
        assert!(sql_like("hello", "he%"));
        assert!(sql_like("hello", "%llo"));
        assert!(sql_like("hello", "h_llo"));
        assert!(sql_like("hello", "%"));
        assert!(!sql_like("hello", "H%")); // case-sensitive
        assert!(!sql_like("hello", "he"));
        assert!(sql_like("", "%"));
        assert!(!sql_like("", "_"));
        assert!(sql_like("a%b", "a%b"));
    }

    #[test]
    fn iif() {
        assert_eq!(
            call(
                "IIF",
                vec![Value::Boolean(true), Value::Integer(1), Value::Integer(2)]
            )
            .as_i64(),
            Some(1)
        );
        assert_eq!(
            call(
                "IIF",
                vec![Value::Null, Value::Integer(1), Value::Integer(2)]
            )
            .as_i64(),
            Some(2)
        );
    }
}
