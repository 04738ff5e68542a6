//! The typed per-group aggregate loops held to the [`Accumulator`] they
//! stand in for, bit for bit.
//!
//! `aggregate::typed_by_group` runs non-`DISTINCT` `SUM`, `AVG`, `MIN`
//! and `MAX` over an `Int` or `Float` array in one loop, and
//! `aggregate::count_star_by_group` counts rows per group. The columnar
//! engine uses them instead of feeding each group's rows to an
//! `Accumulator`, so they must agree to the last bit: the same `f64`
//! summation order, an integer `SUM` finishing as an integer, and the
//! first of tied extremes kept. Columns mix NULLs, `-0.0`, NaNs of both
//! signs, infinities, magnitudes whose sum depends on its order, and
//! integers beyond ±2^53; group ids are random.

use genedit_sql::aggregate::{count_star_by_group, typed_by_group, Accumulator};
use genedit_sql::{Array, Bitmap, Value};
use proptest::prelude::*;

const FUNCTIONS: [&str; 4] = ["SUM", "AVG", "MIN", "MAX"];

fn arb_int() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        Just(None),
        (-40i64..40).prop_map(Some),
        (-40i64..40).prop_map(Some),
        prop_oneof![
            Just(i64::MAX),
            Just(i64::MIN),
            Just((1i64 << 53) + 1),
            Just(-(1i64 << 53) - 3),
            any::<i64>(),
        ]
        .prop_map(Some),
    ]
}

fn arb_float() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        (-40i64..40).prop_map(|i| Some(i as f64 / 4.0)),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(1e16),
            Just(-1e16),
            Just(0.1),
            any::<f64>(),
        ]
        .prop_map(Some),
    ]
}

/// Rows of `(group id, value)` over `groups` groups.
fn arb_rows<T: 'static>(
    value: BoxedStrategy<Option<T>>,
) -> impl Strategy<Value = (usize, Vec<(u32, Option<T>)>)> {
    (1usize..6).prop_flat_map(move |groups| {
        let row = (0..groups as u32, value.clone());
        prop::collection::vec(row, 0..40).prop_map(move |rows| (groups, rows))
    })
}

fn validity<T>(rows: &[(u32, Option<T>)]) -> Bitmap {
    let mut bits = Bitmap::new();
    for (_, v) in rows {
        bits.push(v.is_some());
    }
    bits
}

fn int_array(rows: &[(u32, Option<i64>)]) -> Array {
    Array::Int {
        data: rows.iter().map(|(_, v)| v.unwrap_or(0)).collect(),
        validity: validity(rows),
    }
}

fn float_array(rows: &[(u32, Option<f64>)]) -> Array {
    Array::Float {
        data: rows.iter().map(|(_, v)| v.unwrap_or(0.0)).collect(),
        validity: validity(rows),
    }
}

/// A value with its float's exact bits: `-0.0` is not `0.0`, and a NaN
/// `MIN` or `MAX` keeps is the NaN it read, sign and payload. A NaN that
/// arithmetic made (`SUM`, `AVG`) has no defined sign or payload in Rust,
/// where the compiler may swap the operands of an addition; it is
/// compared as NaN.
fn bits(name: &str, v: &Value) -> String {
    match v {
        Value::Float(f) if f.is_nan() && matches!(name, "SUM" | "AVG") => "Float(NaN)".into(),
        Value::Float(f) => format!("Float({:#018x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Each group's rows, in order, through an `Accumulator`.
fn accumulated(name: &str, star: bool, arr: &Array, gids: &[u32], groups: usize) -> Vec<String> {
    let mut accs: Vec<Accumulator> = (0..groups)
        .map(|_| Accumulator::for_function(name, false, star).expect("known aggregate"))
        .collect();
    for (i, &g) in gids.iter().enumerate() {
        accs[g as usize]
            .update(&arr.get(i))
            .expect("numbers never raise");
    }
    accs.into_iter().map(|a| bits(name, &a.finish())).collect()
}

fn typed(name: &str, arr: &Array, gids: &[u32], groups: usize) -> Vec<String> {
    typed_by_group(name, arr, gids, groups)
        .expect("a typed numeric array takes the typed loop")
        .iter()
        .map(|v| bits(name, v))
        .collect()
}

fn check(arr: &Array, gids: &[u32], groups: usize) -> TestCaseResult {
    for name in FUNCTIONS {
        prop_assert_eq!(
            typed(name, arr, gids, groups),
            accumulated(name, false, arr, gids, groups),
            "{name} over {arr:?} by {gids:?}"
        );
    }
    let counted: Vec<String> = count_star_by_group(gids, groups)
        .iter()
        .map(|v| bits("COUNT", v))
        .collect();
    prop_assert_eq!(counted, accumulated("COUNT", true, arr, gids, groups));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn typed_loops_equal_the_accumulator_over_ints(case in arb_rows(arb_int().boxed())) {
        let (groups, rows) = case;
        let gids: Vec<u32> = rows.iter().map(|(g, _)| *g).collect();
        check(&int_array(&rows), &gids, groups)?;
    }

    #[test]
    fn typed_loops_equal_the_accumulator_over_floats(case in arb_rows(arb_float().boxed())) {
        let (groups, rows) = case;
        let gids: Vec<u32> = rows.iter().map(|(g, _)| *g).collect();
        check(&float_array(&rows), &gids, groups)?;
    }
}

#[test]
fn other_layouts_and_functions_keep_the_accumulator() {
    let texts = Array::from_values(vec![Value::Text("a".into())]);
    assert!(typed_by_group("MIN", &texts, &[0], 1).is_none());
    let ints = int_array(&[(0, Some(1))]);
    assert!(typed_by_group("GROUP_CONCAT", &ints, &[0], 1).is_none());
    assert!(typed_by_group("COUNT", &ints, &[0], 1).is_none());
}
