//! Aggregate function accumulators, and the typed per-group loops the
//! columnar engine runs instead of them where the input allows.

use crate::array::{Array, Bitmap};
use crate::error::{EngineError, EngineResult};
use crate::key::{key_elem, KeyElem};
use crate::value::{total_cmp_f64, Value};
use std::cmp::Ordering;
use std::collections::HashSet;

/// A running aggregate computation.
#[derive(Debug)]
pub enum Accumulator {
    CountStar(i64),
    Count {
        seen: i64,
        distinct: Option<HashSet<KeyElem>>,
    },
    Sum {
        acc: Option<f64>,
        all_int: bool,
        distinct: Option<HashSet<KeyElem>>,
    },
    Avg {
        sum: f64,
        n: i64,
        distinct: Option<HashSet<KeyElem>>,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    GroupConcat {
        parts: Vec<String>,
        sep: String,
    },
}

impl Accumulator {
    /// Construct the accumulator for an aggregate function name.
    pub fn for_function(name: &str, distinct: bool, star: bool) -> EngineResult<Accumulator> {
        let upper = name.to_ascii_uppercase();
        Ok(match upper.as_str() {
            "COUNT" if star => Accumulator::CountStar(0),
            "COUNT" => Accumulator::Count {
                seen: 0,
                distinct: if distinct { Some(HashSet::new()) } else { None },
            },
            "SUM" => Accumulator::Sum {
                acc: None,
                all_int: true,
                distinct: if distinct { Some(HashSet::new()) } else { None },
            },
            "AVG" => Accumulator::Avg {
                sum: 0.0,
                n: 0,
                distinct: if distinct { Some(HashSet::new()) } else { None },
            },
            "MIN" => Accumulator::Min(None),
            "MAX" => Accumulator::Max(None),
            "GROUP_CONCAT" => Accumulator::GroupConcat {
                parts: Vec::new(),
                sep: ",".into(),
            },
            other => {
                return Err(EngineError::binding(format!(
                    "unknown aggregate function {other}"
                )))
            }
        })
    }

    /// Feed one input value. For `COUNT(*)` the value is ignored.
    pub fn update(&mut self, value: &Value) -> EngineResult<()> {
        match self {
            Accumulator::CountStar(n) => *n += 1,
            Accumulator::Count { seen, distinct } => {
                if !value.is_null() {
                    match distinct {
                        Some(set) => {
                            if set.insert(key_elem(value)) {
                                *seen += 1;
                            }
                        }
                        None => *seen += 1,
                    }
                }
            }
            Accumulator::Sum {
                acc,
                all_int,
                distinct,
            } => {
                if value.is_null() {
                    return Ok(());
                }
                if let Some(set) = distinct {
                    if !set.insert(key_elem(value)) {
                        return Ok(());
                    }
                }
                let f = value.as_f64().ok_or_else(|| {
                    EngineError::typing(format!("SUM over non-numeric value {value}"))
                })?;
                if !matches!(value, Value::Integer(_)) {
                    *all_int = false;
                }
                *acc = Some(acc.unwrap_or(0.0) + f);
            }
            Accumulator::Avg { sum, n, distinct } => {
                if value.is_null() {
                    return Ok(());
                }
                if let Some(set) = distinct {
                    if !set.insert(key_elem(value)) {
                        return Ok(());
                    }
                }
                let f = value.as_f64().ok_or_else(|| {
                    EngineError::typing(format!("AVG over non-numeric value {value}"))
                })?;
                *sum += f;
                *n += 1;
            }
            Accumulator::Min(best) => {
                if !value.is_null() {
                    let replace = match best {
                        None => true,
                        Some(b) => matches!(value.sql_cmp(b)?, Some(std::cmp::Ordering::Less)),
                    };
                    if replace {
                        *best = Some(value.clone());
                    }
                }
            }
            Accumulator::Max(best) => {
                if !value.is_null() {
                    let replace = match best {
                        None => true,
                        Some(b) => matches!(value.sql_cmp(b)?, Some(std::cmp::Ordering::Greater)),
                    };
                    if replace {
                        *best = Some(value.clone());
                    }
                }
            }
            Accumulator::GroupConcat { parts, .. } => {
                if !value.is_null() {
                    parts.push(value.to_string());
                }
            }
        }
        Ok(())
    }

    /// Produce the final aggregate value.
    pub fn finish(self) -> Value {
        match self {
            Accumulator::CountStar(n) => Value::Integer(n),
            Accumulator::Count { seen, .. } => Value::Integer(seen),
            Accumulator::Sum { acc, all_int, .. } => match acc {
                // SUM over empty / all-NULL input is NULL, per the standard.
                None => Value::Null,
                Some(f) if all_int => Value::Integer(f as i64),
                Some(f) => Value::Float(f),
            },
            Accumulator::Avg { sum, n, .. } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.unwrap_or(Value::Null),
            Accumulator::GroupConcat { parts, sep } => {
                if parts.is_empty() {
                    Value::Null
                } else {
                    Value::Text(parts.join(&sep))
                }
            }
        }
    }
}

/// Per-group `COUNT(*)`: how many rows `gids` sends to each of the
/// `groups` groups.
pub fn count_star_by_group(gids: &[u32], groups: usize) -> Vec<Value> {
    let mut counts = vec![0i64; groups];
    for &g in gids {
        counts[g as usize] += 1;
    }
    counts.into_iter().map(Value::Integer).collect()
}

/// Per-group values of a non-`DISTINCT` `SUM`, `AVG`, `MIN` or `MAX`
/// named `name` over `arr`, row `i` going to group `gids[i]`, in one typed
/// loop over an `Int` or `Float` array; `None` for any other function or
/// layout.
///
/// Equal bit for bit to feeding each group its rows in order through an
/// [`Accumulator`]: sums add in row order starting from `0.0`, a `SUM` of
/// integers finishes as an integer, and of tied extremes under `sql_cmp`
/// the first is kept.
pub fn typed_by_group(name: &str, arr: &Array, gids: &[u32], groups: usize) -> Option<Vec<Value>> {
    match arr {
        Array::Int { data, validity } => fold_numbers(name, data, validity, gids, groups),
        Array::Float { data, validity } => fold_numbers(name, data, validity, gids, groups),
        _ => None,
    }
}

/// An element of a typed numeric array, as the aggregates read it.
trait Number: Copy {
    fn as_f64(self) -> f64;
    /// `ValueRef::sql_cmp` of two non-NULL elements, which cannot fail.
    fn sql_cmp(self, other: Self) -> Ordering;
    fn value(self) -> Value;
    /// What a `SUM` of these elements finishes as.
    fn sum_value(sum: f64) -> Value;
}

impl Number for i64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn sql_cmp(self, other: i64) -> Ordering {
        self.cmp(&other)
    }
    fn value(self) -> Value {
        Value::Integer(self)
    }
    fn sum_value(sum: f64) -> Value {
        Value::Integer(sum as i64)
    }
}

impl Number for f64 {
    fn as_f64(self) -> f64 {
        self
    }
    fn sql_cmp(self, other: f64) -> Ordering {
        total_cmp_f64(self, other)
    }
    fn value(self) -> Value {
        Value::Float(self)
    }
    fn sum_value(sum: f64) -> Value {
        Value::Float(sum)
    }
}

fn fold_numbers<T: Number>(
    name: &str,
    data: &[T],
    validity: &Bitmap,
    gids: &[u32],
    groups: usize,
) -> Option<Vec<Value>> {
    let rows = || {
        let valid = gids.iter().enumerate().filter(|&(i, _)| validity.get(i));
        valid.map(|(i, &g)| (g as usize, data[i]))
    };
    let upper = name.to_ascii_uppercase();
    match upper.as_str() {
        "SUM" | "AVG" => {
            let mut sums = vec![0.0f64; groups];
            let mut counts = vec![0i64; groups];
            for (g, v) in rows() {
                sums[g] += v.as_f64();
                counts[g] += 1;
            }
            let finish = |(sum, n): (f64, i64)| match n {
                0 => Value::Null,
                _ if upper == "AVG" => Value::Float(sum / n as f64),
                _ => T::sum_value(sum),
            };
            Some(sums.into_iter().zip(counts).map(finish).collect())
        }
        "MIN" | "MAX" => {
            let wanted = if upper == "MIN" {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut best: Vec<Option<T>> = vec![None; groups];
            for (g, v) in rows() {
                match best[g] {
                    Some(b) if v.sql_cmp(b) != wanted => {}
                    _ => best[g] = Some(v),
                }
            }
            Some(
                best.into_iter()
                    .map(|b| b.map_or(Value::Null, T::value))
                    .collect(),
            )
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, distinct: bool, star: bool, inputs: &[Value]) -> Value {
        let mut acc = Accumulator::for_function(name, distinct, star).unwrap();
        for v in inputs {
            acc.update(v).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn count_star_counts_everything() {
        assert_eq!(
            run("COUNT", false, true, &[Value::Null, Value::Integer(1)]).as_i64(),
            Some(2)
        );
    }

    #[test]
    fn count_skips_nulls() {
        assert_eq!(
            run(
                "COUNT",
                false,
                false,
                &[Value::Null, Value::Integer(1), Value::Integer(1)]
            )
            .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn count_distinct() {
        assert_eq!(
            run(
                "COUNT",
                true,
                false,
                &[
                    Value::Integer(1),
                    Value::Integer(1),
                    Value::Integer(2),
                    Value::Null
                ]
            )
            .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn sum_stays_integer_for_ints() {
        assert!(matches!(
            run("SUM", false, false, &[Value::Integer(1), Value::Integer(2)]),
            Value::Integer(3)
        ));
        assert!(matches!(
            run("SUM", false, false, &[Value::Integer(1), Value::Float(2.5)]),
            Value::Float(f) if (f - 3.5).abs() < 1e-9
        ));
    }

    #[test]
    fn sum_of_nothing_is_null() {
        assert!(run("SUM", false, false, &[]).is_null());
        assert!(run("SUM", false, false, &[Value::Null]).is_null());
    }

    #[test]
    fn avg() {
        assert!(matches!(
            run("AVG", false, false, &[Value::Integer(1), Value::Integer(2), Value::Null]),
            Value::Float(f) if (f - 1.5).abs() < 1e-9
        ));
        assert!(run("AVG", false, false, &[]).is_null());
    }

    #[test]
    fn min_max() {
        assert_eq!(
            run(
                "MIN",
                false,
                false,
                &[Value::Integer(3), Value::Integer(1), Value::Null]
            )
            .as_i64(),
            Some(1)
        );
        assert_eq!(
            run("MAX", false, false, &["a".into(), "c".into(), "b".into()]),
            Value::Text("c".into())
        );
    }

    #[test]
    fn group_concat() {
        assert_eq!(
            run(
                "GROUP_CONCAT",
                false,
                false,
                &["a".into(), Value::Null, "b".into()]
            ),
            Value::Text("a,b".into())
        );
        assert!(run("GROUP_CONCAT", false, false, &[]).is_null());
    }

    #[test]
    fn sum_over_text_is_type_error() {
        let mut acc = Accumulator::for_function("SUM", false, false).unwrap();
        assert!(acc.update(&"x".into()).is_err());
    }

    #[test]
    fn unknown_aggregate() {
        assert!(Accumulator::for_function("MEDIAN", false, false).is_err());
    }
}
