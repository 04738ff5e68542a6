//! Columnar arrays and batches for the vectorized engine.
//!
//! An [`Array`] is one column of values in a typed layout with a validity
//! bitmap; a [`DataChunk`] is a batch of equal-length columns behind
//! `Arc` so operators can share columns without copying. Columns whose
//! values mix types (legal in this dynamically typed engine) degrade to
//! the [`Array::Any`] layout, which stores boxed [`Value`]s — semantics
//! never change, only the memory layout does. The same holds for
//! [`Array::Dict`], which stores each distinct value once and a `u32`
//! code per row: copying a row copies four bytes, and work that depends
//! only on the value can be done once per distinct value.

use crate::value::{Date, Value, ValueRef};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A packed validity bitmap: bit `i` set means row `i` is non-NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` entries, all set to `valid`.
    pub fn with_len(len: usize, valid: bool) -> Bitmap {
        let word = if valid { u64::MAX } else { 0 };
        Bitmap {
            bits: vec![word; len.div_ceil(64)],
            len,
        }
    }

    /// Append one entry.
    pub fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if valid {
            self.bits[word] |= 1 << bit;
        } else {
            self.bits[word] &= !(1 << bit);
        }
        self.len += 1;
    }

    /// Mark entry `i` valid.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Is entry `i` valid (non-NULL)?
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the bitmap empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of valid (non-NULL) entries.
    pub fn count_valid(&self) -> usize {
        let mut n: usize = 0;
        for (w, word) in self.bits.iter().enumerate() {
            let live = if (w + 1) * 64 <= self.len {
                *word
            } else {
                let tail = self.len - w * 64;
                if tail == 0 {
                    0
                } else {
                    *word & (u64::MAX >> (64 - tail))
                }
            };
            n += live.count_ones() as usize;
        }
        n
    }
}

/// One column of a batch in a typed layout.
///
/// Invalid (NULL) slots of the typed layouts hold an arbitrary default;
/// readers must consult the validity bitmap first (as [`Array::at`] does).
#[derive(Debug, Clone)]
pub enum Array {
    /// 64-bit integers.
    Int {
        /// Element storage; NULL slots hold 0.
        data: Vec<i64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// 64-bit floats.
    Float {
        /// Element storage; NULL slots hold 0.0.
        data: Vec<f64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Strings.
    Str {
        /// Element storage; NULL slots hold "".
        data: Vec<String>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Booleans.
    Bool {
        /// Element storage; NULL slots hold false.
        data: Vec<bool>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Dates.
    Date {
        /// Element storage; NULL slots hold an arbitrary date.
        data: Vec<Date>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Mixed-type fallback: boxed values, NULLs stored inline.
    Any(Vec<Value>),
    /// Dictionary encoding: element `i` is `values[codes[i]]`. NULL is an
    /// entry of `values` like any other, not a reserved code, so an
    /// expression evaluated over `values` alone (which may map NULL to a
    /// non-NULL value, or several entries to one) yields a valid
    /// dictionary over the same codes. Entries need not be distinct and
    /// need not all be referenced.
    Dict {
        /// One index into `values` per element.
        codes: Vec<u32>,
        /// The dictionary, shared by every array gathered from this one.
        values: Arc<Array>,
    },
}

impl Array {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Array::Int { data, .. } => data.len(),
            Array::Float { data, .. } => data.len(),
            Array::Str { data, .. } => data.len(),
            Array::Bool { data, .. } => data.len(),
            Array::Date { data, .. } => data.len(),
            Array::Any(v) => v.len(),
            Array::Dict { codes, .. } => codes.len(),
        }
    }

    /// Is the array empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is element `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Array::Int { validity, .. }
            | Array::Float { validity, .. }
            | Array::Str { validity, .. }
            | Array::Bool { validity, .. }
            | Array::Date { validity, .. } => !validity.get(i),
            Array::Any(v) => v[i].is_null(),
            Array::Dict { codes, values } => values.is_null(codes[i] as usize),
        }
    }

    /// Borrowed view of element `i`.
    #[inline]
    pub fn at(&self, i: usize) -> ValueRef<'_> {
        match self {
            Array::Int { data, validity } => {
                if validity.get(i) {
                    ValueRef::Int(data[i])
                } else {
                    ValueRef::Null
                }
            }
            Array::Float { data, validity } => {
                if validity.get(i) {
                    ValueRef::Float(data[i])
                } else {
                    ValueRef::Null
                }
            }
            Array::Str { data, validity } => {
                if validity.get(i) {
                    ValueRef::Str(&data[i])
                } else {
                    ValueRef::Null
                }
            }
            Array::Bool { data, validity } => {
                if validity.get(i) {
                    ValueRef::Bool(data[i])
                } else {
                    ValueRef::Null
                }
            }
            Array::Date { data, validity } => {
                if validity.get(i) {
                    ValueRef::Date(data[i])
                } else {
                    ValueRef::Null
                }
            }
            Array::Any(v) => ValueRef::from(&v[i]),
            Array::Dict { codes, values } => values.at(codes[i] as usize),
        }
    }

    /// Owned copy of element `i`.
    pub fn get(&self, i: usize) -> Value {
        self.at(i).to_value()
    }

    /// New array of the elements at `indices`, in order. Typed layouts
    /// copy storage directly rather than routing every element through
    /// the builder's type dispatch; a dictionary copies codes and shares
    /// its values.
    pub fn gather(&self, indices: &[u32]) -> Array {
        fn bits(validity: &Bitmap, indices: &[u32]) -> Bitmap {
            let mut v = Bitmap::with_len(indices.len(), false);
            for (o, &i) in indices.iter().enumerate() {
                if validity.get(i as usize) {
                    v.set(o);
                }
            }
            v
        }
        match self {
            Array::Int { data, validity } => Array::Int {
                data: indices.iter().map(|&i| data[i as usize]).collect(),
                validity: bits(validity, indices),
            },
            Array::Float { data, validity } => Array::Float {
                data: indices.iter().map(|&i| data[i as usize]).collect(),
                validity: bits(validity, indices),
            },
            Array::Str { data, validity } => Array::Str {
                data: indices.iter().map(|&i| data[i as usize].clone()).collect(),
                validity: bits(validity, indices),
            },
            Array::Bool { data, validity } => Array::Bool {
                data: indices.iter().map(|&i| data[i as usize]).collect(),
                validity: bits(validity, indices),
            },
            Array::Date { data, validity } => Array::Date {
                data: indices.iter().map(|&i| data[i as usize]).collect(),
                validity: bits(validity, indices),
            },
            Array::Any(values) => Array::Any(
                indices
                    .iter()
                    .map(|&i| values[i as usize].clone())
                    .collect(),
            ),
            Array::Dict { codes, values } => Array::Dict {
                codes: indices.iter().map(|&i| codes[i as usize]).collect(),
                values: Arc::clone(values),
            },
        }
    }

    /// Like [`Array::gather`], but `u32::MAX` entries produce NULL —
    /// used to pad the unmatched side of LEFT joins.
    pub fn gather_padded(&self, indices: &[u32]) -> Array {
        if !indices.contains(&u32::MAX) {
            return self.gather(indices);
        }
        if let Array::Dict { codes, values } = self {
            // Padding needs the code of a NULL entry: use the one the
            // dictionary has, wherever it is, or append one.
            let found = (0..values.len()).find(|&k| values.is_null(k));
            let (values, null_code) = match found {
                Some(k) => (Arc::clone(values), k as u32),
                None => {
                    let mut entries: Vec<u32> = (0..values.len() as u32).collect();
                    entries.push(u32::MAX);
                    (
                        Arc::new(values.gather_padded(&entries)),
                        values.len() as u32,
                    )
                }
            };
            let pad = |&i: &u32| match i {
                u32::MAX => null_code,
                i => codes[i as usize],
            };
            return Array::Dict {
                codes: indices.iter().map(pad).collect(),
                values,
            };
        }
        let mut b = ArrayBuilder::with_capacity(indices.len());
        for &i in indices {
            if i == u32::MAX {
                b.push_ref(ValueRef::Null);
            } else {
                b.push_ref(self.at(i as usize));
            }
        }
        b.finish()
    }

    /// Build an array from owned values.
    pub fn from_values(values: Vec<Value>) -> Array {
        let mut b = ArrayBuilder::with_capacity(values.len());
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// The codes and dictionary of a [`Array::Dict`]; `None` for every
    /// other layout.
    pub fn as_dict(&self) -> Option<(&[u32], &Arc<Array>)> {
        match self {
            Array::Dict { codes, values } => Some((codes, values)),
            _ => None,
        }
    }

    /// [`Array::as_dict`] when the dictionary has fewer entries than the
    /// `rows` a kernel is about to visit: the one test for doing
    /// per-value work once per entry instead of once per row. The code
    /// reads it off its input; there is nothing to configure.
    pub fn per_entry(&self, rows: usize) -> Option<(&[u32], &Arc<Array>)> {
        self.as_dict().filter(|(_, values)| values.len() < rows)
    }

    /// The array `values[codes[i]]`. Every code must index `values`.
    pub fn dict(codes: Vec<u32>, values: Arc<Array>) -> Array {
        debug_assert!(codes.iter().all(|&c| (c as usize) < values.len()));
        Array::Dict { codes, values }
    }

    /// Re-encode the two layouts whose elements cost an allocation to
    /// copy or to render — strings and dates — as a dictionary with one
    /// entry per distinct value (NULL included), in first-occurrence
    /// order. Other layouts are returned unchanged.
    pub fn dictionary_encoded(self) -> Array {
        let (codes, first_rows) = match &self {
            Array::Str { data, validity } => {
                distinct_rows(validity, data.iter().map(String::as_str))
            }
            Array::Date { data, validity } => distinct_rows(validity, data.iter().copied()),
            _ => return self,
        };
        Array::Dict {
            codes,
            values: Arc::new(self.gather(&first_rows)),
        }
    }
}

/// One code per element of a typed column (`items` with its `validity`),
/// and for each code the row where its value first occurs. All NULLs
/// share one code.
fn distinct_rows<T: Hash + Eq>(
    validity: &Bitmap,
    items: impl Iterator<Item = T>,
) -> (Vec<u32>, Vec<u32>) {
    let mut codes = Vec::with_capacity(validity.len());
    let mut first_rows: Vec<u32> = Vec::new();
    let mut index: HashMap<Option<T>, u32> = HashMap::new();
    for (i, item) in items.enumerate() {
        let key = validity.get(i).then_some(item);
        let code = *index.entry(key).or_insert_with(|| {
            first_rows.push(i as u32);
            first_rows.len() as u32 - 1
        });
        codes.push(code);
    }
    (codes, first_rows)
}

/// Incremental [`Array`] constructor.
///
/// The layout is decided by the first non-NULL value pushed; a later
/// value of a different type degrades the whole column to [`Array::Any`].
#[derive(Debug)]
pub enum ArrayBuilder {
    /// Nothing but NULLs seen so far.
    Untyped {
        /// NULL count.
        nulls: usize,
        /// Elements to reserve room for once the layout is known.
        cap: usize,
    },
    /// Integer layout.
    Int {
        /// Element storage.
        data: Vec<i64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Float layout.
    Float {
        /// Element storage.
        data: Vec<f64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// String layout.
    Str {
        /// Element storage.
        data: Vec<String>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Boolean layout.
    Bool {
        /// Element storage.
        data: Vec<bool>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Date layout.
    Date {
        /// Element storage.
        data: Vec<Date>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Mixed-type fallback.
    Any(Vec<Value>),
}

macro_rules! builder_start {
    ($nulls:expr, $cap:expr, $variant:ident, $default:expr, $v:expr) => {{
        let mut data = Vec::with_capacity($cap.max($nulls + 8));
        data.resize($nulls, $default);
        let mut validity = Bitmap::with_len($nulls, false);
        data.push($v);
        validity.push(true);
        ArrayBuilder::$variant { data, validity }
    }};
}

impl ArrayBuilder {
    /// An empty builder.
    pub fn new() -> ArrayBuilder {
        ArrayBuilder::with_capacity(0)
    }

    /// An empty builder with room for `cap` elements, reserved when the
    /// first non-NULL value decides the layout.
    pub fn with_capacity(cap: usize) -> ArrayBuilder {
        ArrayBuilder::Untyped { nulls: 0, cap }
    }

    /// A builder holding `array`'s elements in the state pushing them one
    /// by one leaves it in: pushing more and finishing gives the array
    /// of all of them. A typed array is taken over as it is, a dictionary
    /// is decoded, and an all-NULL [`Array::Any`] is untyped again.
    pub fn resume(array: Array) -> ArrayBuilder {
        match array {
            Array::Int { data, validity } => ArrayBuilder::Int { data, validity },
            Array::Float { data, validity } => ArrayBuilder::Float { data, validity },
            Array::Str { data, validity } => ArrayBuilder::Str { data, validity },
            Array::Bool { data, validity } => ArrayBuilder::Bool { data, validity },
            Array::Date { data, validity } => ArrayBuilder::Date { data, validity },
            Array::Any(values) if values.iter().all(Value::is_null) => ArrayBuilder::Untyped {
                nulls: values.len(),
                cap: 0,
            },
            Array::Any(values) => ArrayBuilder::Any(values),
            Array::Dict { codes, values } => ArrayBuilder::resume(values.gather(&codes)),
        }
    }

    /// Number of elements pushed so far.
    pub fn len(&self) -> usize {
        match self {
            ArrayBuilder::Untyped { nulls, .. } => *nulls,
            ArrayBuilder::Int { data, .. } => data.len(),
            ArrayBuilder::Float { data, .. } => data.len(),
            ArrayBuilder::Str { data, .. } => data.len(),
            ArrayBuilder::Bool { data, .. } => data.len(),
            ArrayBuilder::Date { data, .. } => data.len(),
            ArrayBuilder::Any(v) => v.len(),
        }
    }

    /// Is the builder empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one owned value.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ArrayBuilder::Untyped { nulls, .. }, Value::Null) => *nulls += 1,
            (ArrayBuilder::Untyped { nulls, cap }, Value::Integer(i)) => {
                *self = builder_start!(*nulls, *cap, Int, 0, i);
            }
            (ArrayBuilder::Untyped { nulls, cap }, Value::Float(f)) => {
                *self = builder_start!(*nulls, *cap, Float, 0.0, f);
            }
            (ArrayBuilder::Untyped { nulls, cap }, Value::Text(s)) => {
                *self = builder_start!(*nulls, *cap, Str, String::new(), s);
            }
            (ArrayBuilder::Untyped { nulls, cap }, Value::Boolean(b)) => {
                *self = builder_start!(*nulls, *cap, Bool, false, b);
            }
            (ArrayBuilder::Untyped { nulls, cap }, Value::Date(d)) => {
                *self = builder_start!(*nulls, *cap, Date, d, d);
            }
            (ArrayBuilder::Int { data, validity }, Value::Integer(i)) => {
                data.push(i);
                validity.push(true);
            }
            (ArrayBuilder::Int { data, validity }, Value::Null) => {
                data.push(0);
                validity.push(false);
            }
            (ArrayBuilder::Float { data, validity }, Value::Float(f)) => {
                data.push(f);
                validity.push(true);
            }
            (ArrayBuilder::Float { data, validity }, Value::Null) => {
                data.push(0.0);
                validity.push(false);
            }
            (ArrayBuilder::Str { data, validity }, Value::Text(s)) => {
                data.push(s);
                validity.push(true);
            }
            (ArrayBuilder::Str { data, validity }, Value::Null) => {
                data.push(String::new());
                validity.push(false);
            }
            (ArrayBuilder::Bool { data, validity }, Value::Boolean(b)) => {
                data.push(b);
                validity.push(true);
            }
            (ArrayBuilder::Bool { data, validity }, Value::Null) => {
                data.push(false);
                validity.push(false);
            }
            (ArrayBuilder::Date { data, validity }, Value::Date(d)) => {
                data.push(d);
                validity.push(true);
            }
            (ArrayBuilder::Date { data, validity }, Value::Null) => {
                // Reuse the first element as the placeholder; readers
                // never look at invalid slots.
                data.push(data[0]);
                validity.push(false);
            }
            (ArrayBuilder::Any(values), v) => values.push(v),
            (_, v) => {
                self.degrade();
                if let ArrayBuilder::Any(values) = self {
                    values.push(v);
                }
            }
        }
    }

    /// Append one borrowed value.
    pub fn push_ref(&mut self, v: ValueRef<'_>) {
        // Typed fast paths that avoid materializing a Value.
        match (&mut *self, v) {
            (ArrayBuilder::Int { data, validity }, ValueRef::Int(i)) => {
                data.push(i);
                validity.push(true);
                return;
            }
            (ArrayBuilder::Float { data, validity }, ValueRef::Float(f)) => {
                data.push(f);
                validity.push(true);
                return;
            }
            (ArrayBuilder::Untyped { nulls, .. }, ValueRef::Null) => {
                *nulls += 1;
                return;
            }
            _ => {}
        }
        self.push(v.to_value());
    }

    fn degrade(&mut self) {
        let taken = std::mem::replace(self, ArrayBuilder::Any(Vec::new()));
        let values = array_to_values(taken.finish());
        *self = ArrayBuilder::Any(values);
    }

    /// Finalize into an [`Array`]. An all-NULL column finishes as
    /// [`Array::Any`] holding NULLs.
    pub fn finish(self) -> Array {
        match self {
            ArrayBuilder::Untyped { nulls, .. } => Array::Any(vec![Value::Null; nulls]),
            ArrayBuilder::Int { data, validity } => Array::Int { data, validity },
            ArrayBuilder::Float { data, validity } => Array::Float { data, validity },
            ArrayBuilder::Str { data, validity } => Array::Str { data, validity },
            ArrayBuilder::Bool { data, validity } => Array::Bool { data, validity },
            ArrayBuilder::Date { data, validity } => Array::Date { data, validity },
            ArrayBuilder::Any(values) => Array::Any(values),
        }
    }
}

impl Default for ArrayBuilder {
    fn default() -> Self {
        ArrayBuilder::new()
    }
}

fn array_to_values(a: Array) -> Vec<Value> {
    match a {
        Array::Any(values) => values,
        Array::Int { data, validity } => data
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                if validity.get(i) {
                    Value::Integer(x)
                } else {
                    Value::Null
                }
            })
            .collect(),
        Array::Float { data, validity } => data
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                if validity.get(i) {
                    Value::Float(x)
                } else {
                    Value::Null
                }
            })
            .collect(),
        Array::Str { data, validity } => data
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                if validity.get(i) {
                    Value::Text(x)
                } else {
                    Value::Null
                }
            })
            .collect(),
        Array::Bool { data, validity } => data
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                if validity.get(i) {
                    Value::Boolean(x)
                } else {
                    Value::Null
                }
            })
            .collect(),
        Array::Date { data, validity } => data
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                if validity.get(i) {
                    Value::Date(x)
                } else {
                    Value::Null
                }
            })
            .collect(),
        Array::Dict { codes, values } => codes.iter().map(|&c| values.get(c as usize)).collect(),
    }
}

/// Columns `columns` of `rows`, in that order; a row too short for one
/// leaves that column short.
fn transpose(rows: &[Vec<Value>], columns: &[usize]) -> impl Iterator<Item = Array> {
    let mut builders: Vec<ArrayBuilder> = columns
        .iter()
        .map(|_| ArrayBuilder::with_capacity(rows.len()))
        .collect();
    for row in rows {
        for (b, &c) in builders.iter_mut().zip(columns) {
            if let Some(v) = row.get(c) {
                b.push(v.clone());
            }
        }
    }
    builders.into_iter().map(ArrayBuilder::finish)
}

/// Transpose columns `columns` of borrowed row-major values, in that
/// order, into shared columns.
pub fn columns_from_rows(rows: &[Vec<Value>], columns: &[usize]) -> Vec<Arc<Array>> {
    transpose(rows, columns).map(Arc::new).collect()
}

/// [`columns_from_rows`] with every column
/// [dictionary-encoded](Array::dictionary_encoded): the layout a table
/// stores its rows in, which [`ColumnStore`](crate::catalog::ColumnStore)
/// keeps up to date append by append.
pub fn encoded_columns_from_rows(rows: &[Vec<Value>], width: usize) -> Vec<Arc<Array>> {
    let columns: Vec<usize> = (0..width).collect();
    transpose(rows, &columns)
        .map(|a| Arc::new(a.dictionary_encoded()))
        .collect()
}

/// A batch of equal-length columns. The row count is carried explicitly
/// so zero-column chunks (the `SELECT` with no `FROM` case) still have a
/// well-defined length.
#[derive(Debug, Clone)]
pub struct DataChunk {
    /// Columns, shared by reference between operators.
    pub cols: Vec<Arc<Array>>,
    len: usize,
}

impl DataChunk {
    /// A chunk from pre-built columns. All columns must have `len` rows.
    pub fn new(cols: Vec<Arc<Array>>, len: usize) -> DataChunk {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        DataChunk { cols, len }
    }

    /// The zero-column, one-row chunk used for `SELECT` without `FROM`.
    pub fn unit() -> DataChunk {
        DataChunk {
            cols: Vec::new(),
            len: 1,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the chunk empty (zero rows)?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Owned copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Transpose row-major values into columns, consuming the rows.
    /// `width` disambiguates the zero-row case.
    pub fn from_rows(rows: Vec<Vec<Value>>, width: usize) -> DataChunk {
        let len = rows.len();
        let mut builders: Vec<ArrayBuilder> = (0..width).map(|_| ArrayBuilder::new()).collect();
        for row in rows {
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v);
            }
        }
        DataChunk {
            cols: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            len,
        }
    }

    /// Copy out row-major values (columns stay shared).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Move out row-major values. Columns not shared elsewhere are
    /// transposed without cloning element payloads.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        let width = self.cols.len();
        let mut rows: Vec<Vec<Value>> = (0..self.len).map(|_| Vec::with_capacity(width)).collect();
        for col in self.cols {
            match Arc::try_unwrap(col) {
                Ok(array) => {
                    for (i, v) in array_to_values(array).into_iter().enumerate() {
                        rows[i].push(v);
                    }
                }
                Err(shared) => {
                    for (i, row) in rows.iter_mut().enumerate() {
                        row.push(shared.get(i));
                    }
                }
            }
        }
        rows
    }

    /// New chunk of the rows at `indices`, in order.
    pub fn take(&self, indices: &[u32]) -> DataChunk {
        DataChunk {
            cols: self
                .cols
                .iter()
                .map(|c| Arc::new(c.gather(indices)))
                .collect(),
            len: indices.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get_count() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn builder_typed_layout_with_nulls() {
        let a = Array::from_values(vec![
            Value::Null,
            Value::Integer(7),
            Value::Null,
            Value::Integer(9),
        ]);
        assert!(matches!(a, Array::Int { .. }));
        assert!(a.is_null(0));
        assert_eq!(a.get(1), Value::Integer(7));
        assert!(a.is_null(2));
        assert_eq!(a.get(3), Value::Integer(9));
    }

    #[test]
    fn builder_degrades_to_any_on_mixed_types() {
        let a = Array::from_values(vec![
            Value::Integer(1),
            Value::Text("x".into()),
            Value::Null,
            Value::Float(2.5),
        ]);
        assert!(matches!(a, Array::Any(_)));
        assert_eq!(a.get(0), Value::Integer(1));
        assert_eq!(a.get(1), Value::Text("x".into()));
        assert!(a.is_null(2));
        assert_eq!(a.get(3), Value::Float(2.5));
    }

    #[test]
    fn all_null_column_round_trips() {
        let a = Array::from_values(vec![Value::Null; 5]);
        assert_eq!(a.len(), 5);
        assert!((0..5).all(|i| a.is_null(i)));
    }

    #[test]
    fn gather_and_padded_gather() {
        let a = Array::from_values(vec![Value::Integer(10), Value::Null, Value::Integer(30)]);
        let g = a.gather(&[2, 0, 1]);
        assert_eq!(g.get(0), Value::Integer(30));
        assert_eq!(g.get(1), Value::Integer(10));
        assert!(g.is_null(2));
        let p = a.gather_padded(&[0, u32::MAX]);
        assert_eq!(p.get(0), Value::Integer(10));
        assert!(p.is_null(1), "u32::MAX pads NULL (LEFT join semantics)");
    }

    fn text(s: &str) -> Value {
        Value::Text(s.into())
    }

    fn values_of(a: &Array) -> Vec<Value> {
        (0..a.len()).map(|i| a.get(i)).collect()
    }

    #[test]
    fn dictionary_encoding_keeps_every_element() {
        let d = |day| Value::Date(Date::new(2023, 1, day).unwrap());
        for column in [
            vec![text("a"), Value::Null, text("b"), text("a"), Value::Null],
            vec![d(1), d(2), d(1), Value::Null, d(2), d(2)],
        ] {
            let plain = Array::from_values(column.clone());
            let encoded = plain.clone().dictionary_encoded();
            let (codes, values) = encoded.as_dict().expect("strings and dates encode");
            assert_eq!(
                values.len(),
                3,
                "one entry per distinct value, NULL included"
            );
            assert_eq!(codes.len(), column.len());
            assert_eq!(values_of(&encoded), column);
            for i in 0..column.len() {
                assert_eq!(encoded.is_null(i), plain.is_null(i), "element {i}");
            }
        }
        // Layouts whose elements copy for free are left alone.
        let ints = Array::from_values(vec![Value::Integer(1), Value::Integer(1)]);
        assert!(ints.dictionary_encoded().as_dict().is_none());
    }

    #[test]
    fn dictionary_gather_copies_codes_and_shares_values() {
        let a = Array::from_values(vec![text("x"), Value::Null, text("y"), text("x")])
            .dictionary_encoded();
        let g = a.gather(&[3, 1, 1, 2]);
        assert_eq!(
            values_of(&g),
            vec![text("x"), Value::Null, Value::Null, text("y")]
        );
        let (_, before) = a.as_dict().unwrap();
        let (_, after) = g.as_dict().unwrap();
        assert!(Arc::ptr_eq(before, after));
    }

    /// `COALESCE(c, 'x')` evaluated once per distinct value: the entry
    /// that was NULL in the source column now holds a value, and nothing
    /// may remember that its code used to mean NULL.
    #[test]
    fn dictionary_whose_null_entry_was_mapped_to_a_value() {
        let source =
            Array::from_values(vec![text("a"), Value::Null, text("a")]).dictionary_encoded();
        let (codes, values) = source.as_dict().unwrap();
        let mapped: Vec<Value> = (0..values.len())
            .map(|k| match values.get(k) {
                Value::Null => text("x"),
                v => v,
            })
            .collect();
        let a = Array::dict(codes.to_vec(), Arc::new(Array::from_values(mapped)));
        let want = vec![text("a"), text("x"), text("a")];
        assert!((0..3).all(|i| !a.is_null(i)));
        assert_eq!(values_of(&a), want);
        assert_eq!(values_of(&a.gather(&[1, 0])), vec![text("x"), text("a")]);
        let chunk = DataChunk::new(vec![Arc::new(a)], 3);
        let rows: Vec<Vec<Value>> = want.into_iter().map(|v| vec![v]).collect();
        assert_eq!(chunk.to_rows(), rows);
        assert_eq!(chunk.into_rows(), rows);
    }

    #[test]
    fn dictionary_padded_gather_finds_or_adds_its_null() {
        // A NULL entry that is neither first nor last.
        let with_null =
            Array::from_values(vec![text("a"), Value::Null, text("b")]).dictionary_encoded();
        let p = with_null.gather_padded(&[2, u32::MAX, 1, 0, u32::MAX]);
        assert_eq!(
            values_of(&p),
            vec![text("b"), Value::Null, Value::Null, text("a"), Value::Null]
        );
        let (_, values) = p.as_dict().unwrap();
        assert_eq!(values.len(), 3, "the existing NULL entry pads");

        let without = Array::from_values(vec![text("a"), text("b")]).dictionary_encoded();
        let p = without.gather_padded(&[u32::MAX, 1, 0]);
        assert_eq!(values_of(&p), vec![Value::Null, text("b"), text("a")]);
        assert!(p.is_null(0) && !p.is_null(1));
        let (_, values) = p.as_dict().unwrap();
        assert_eq!(values.len(), 3, "a NULL entry was appended");
        // Nothing to pad: a plain gather, dictionary untouched.
        let (_, values) = without.as_dict().unwrap();
        let g = without.gather_padded(&[1, 1]);
        assert!(Arc::ptr_eq(values, g.as_dict().unwrap().1));
    }

    #[test]
    fn chunk_row_round_trip_preserves_value_identity() {
        let rows = vec![
            vec![Value::Integer(1), Value::Text("a|b".into()), Value::Null],
            vec![Value::Integer(2), Value::Null, Value::Float(0.5)],
        ];
        let chunk = DataChunk::from_rows(rows.clone(), 3);
        assert_eq!(chunk.len(), 2);
        assert_eq!(chunk.width(), 3);
        assert_eq!(chunk.to_rows(), rows);
        assert_eq!(chunk.into_rows(), rows);
    }

    #[test]
    fn unit_chunk_has_one_empty_row() {
        let c = DataChunk::unit();
        assert_eq!(c.len(), 1);
        assert_eq!(c.row(0), Vec::<Value>::new());
        assert_eq!(c.take(&[0, 0]).len(), 2);
    }

    #[test]
    fn float_bits_preserved_through_chunk() {
        // NaN and -0.0 must survive transposition bit-for-bit so result
        // fingerprints stay identical to the row engine.
        let rows = vec![vec![Value::Float(f64::NAN)], vec![Value::Float(-0.0)]];
        let chunk = DataChunk::from_rows(rows, 1);
        let out = chunk.into_rows();
        match (&out[0][0], &out[1][0]) {
            (Value::Float(a), Value::Float(b)) => {
                assert!(a.is_nan());
                assert_eq!(b.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
