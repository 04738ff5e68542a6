//! Typed keys: the identity of a value for grouping, DISTINCT (in
//! aggregates too), set operations, window partitions, hash joins and
//! the EX fingerprint of a result.
//!
//! Identity is not SQL equality. Two values share a key exactly when:
//!
//! * both are NULL (all NULLs group together),
//! * both are integers, or both floats, of the same value — `1` groups
//!   apart from `1.0`,
//! * both are floats with the same bits, except that every NaN is one
//!   group (NaN bit patterns are canonicalized) and `-0.0` groups apart
//!   from `0.0` (the sign bit is kept),
//! * both are text, booleans or dates, and equal.
//!
//! A composite key is a tuple of typed components hashed structurally,
//! so no text value can alias two composites — as one containing a `|`
//! did when keys were strings joined with `"|"`.

use crate::value::{Date, Value, ValueRef};

/// One typed component of a key, over its text `S`: borrowed
/// ([`KeyRef`]) where the key lives no longer than the values it was
/// read from, so probes over columnar batches allocate nothing; owned
/// ([`KeyElem`]) where it outlives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key<S> {
    /// SQL NULL.
    Null,
    /// Integer component.
    Int(i64),
    /// Float component, as bits with NaN canonicalized (see
    /// [`float_key_bits`]).
    Float(u64),
    /// Text component.
    Text(S),
    /// Boolean component.
    Bool(bool),
    /// Date component.
    Date(Date),
}

/// A key component that owns its text.
pub type KeyElem = Key<String>;

/// A key component that borrows its text.
pub type KeyRef<'a> = Key<&'a str>;

/// Float bits with every NaN collapsed onto the canonical NaN, so all
/// NaNs land in one group; the sign of zero is kept.
#[inline]
pub fn float_key_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

/// The key component of one value.
pub fn key_ref(v: ValueRef<'_>) -> KeyRef<'_> {
    match v {
        ValueRef::Null => Key::Null,
        ValueRef::Int(i) => Key::Int(i),
        ValueRef::Float(f) => Key::Float(float_key_bits(f)),
        ValueRef::Str(s) => Key::Text(s),
        ValueRef::Bool(b) => Key::Bool(b),
        ValueRef::Date(d) => Key::Date(d),
    }
}

/// [`key_ref`], owning its text.
pub fn key_elem(v: &Value) -> KeyElem {
    match key_ref(v.into()) {
        Key::Null => Key::Null,
        Key::Int(i) => Key::Int(i),
        Key::Float(bits) => Key::Float(bits),
        Key::Text(s) => Key::Text(s.to_owned()),
        Key::Bool(b) => Key::Bool(b),
        Key::Date(d) => Key::Date(d),
    }
}

/// Typed composite key for a whole row.
pub fn row_key(row: &[Value]) -> Vec<KeyElem> {
    row.iter().map(key_elem).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_bearing_strings_do_not_collide() {
        let r1 = vec![Value::Text("a|t:b".into()), Value::Text("c".into())];
        let r2 = vec![Value::Text("a".into()), Value::Text("b|t:c".into())];
        assert_ne!(row_key(&r1), row_key(&r2));
    }

    #[test]
    fn int_and_float_group_apart() {
        assert_ne!(key_elem(&Value::Integer(1)), key_elem(&Value::Float(1.0)));
    }

    #[test]
    fn nan_canonicalized_negative_zero_preserved() {
        let nan1 = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_eq!(
            key_elem(&Value::Float(f64::NAN)),
            key_elem(&Value::Float(nan1))
        );
        assert_ne!(key_elem(&Value::Float(0.0)), key_elem(&Value::Float(-0.0)));
    }

    #[test]
    fn nulls_group_together() {
        assert_eq!(key_elem(&Value::Null), key_elem(&Value::Null));
        assert_ne!(key_elem(&Value::Null), key_elem(&Value::Integer(0)));
    }
}
