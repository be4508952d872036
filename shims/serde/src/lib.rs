//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal serde-compatible framework. It keeps the parts of
//! the real API this repository uses — `Serialize`/`Deserialize` derive
//! macros, generic `Serializer`/`Deserializer` bounds (for
//! `#[serde(with = "...")]` modules), and a `serde_json`-style facade —
//! but collapses the data model to one owned [`Value`] tree instead of
//! the visitor machinery. Formats other than JSON are out of scope.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// The universal data-model value all (de)serialization goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A negative integer (stored when the value does not fit `u64`).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (insertion order preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Deserialization (and generic serialization) error: a plain message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// An error carrying `msg`.
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Mirror of `serde::ser::Error` / `serde::de::Error`: constructible
/// from any displayable message.
pub trait ErrorTrait: Sized {
    /// Builds the error from a message.
    fn custom(msg: impl fmt::Display) -> Self;
}

impl ErrorTrait for DeError {
    fn custom(msg: impl fmt::Display) -> Self {
        DeError::custom(msg)
    }
}

/// A sink consuming one [`Value`] tree.
pub trait Serializer: Sized {
    /// Success payload.
    type Ok;
    /// Failure payload.
    type Error: ErrorTrait;
    /// Consumes the serialized value.
    fn serialize_value(self, v: Value) -> Result<Self::Ok, Self::Error>;
}

/// A source yielding one [`Value`] tree.
pub trait Deserializer<'de>: Sized {
    /// Failure payload.
    type Error: ErrorTrait;
    /// Produces the value to deserialize from.
    fn take_value(self) -> Result<Value, Self::Error>;
}

/// Types serializable into the value data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`] tree.
    fn to_value(&self) -> Value;

    /// serde-compatible entry point.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.to_value())
    }
}

/// Types reconstructible from the value data model.
pub trait Deserialize<'de>: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// serde-compatible entry point.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = deserializer.take_value()?;
        Self::from_value(&v).map_err(<D::Error as ErrorTrait>::custom)
    }
}

/// A [`Serializer`] that simply hands the value tree back.
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = DeError;
    fn serialize_value(self, v: Value) -> Result<Value, DeError> {
        Ok(v)
    }
}

/// A [`Deserializer`] over an owned value tree.
pub struct ValueDeserializer(pub Value);

impl ValueDeserializer {
    /// Wraps `v`.
    pub fn new(v: Value) -> Self {
        ValueDeserializer(v)
    }
}

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = DeError;
    fn take_value(self) -> Result<Value, DeError> {
        Ok(self.0)
    }
}

// ---------------------------------------------------------------------
// Support helpers used by the derive expansion.
// ---------------------------------------------------------------------

/// Runs a `#[serde(with = "...")]` serialize fn against [`ValueSerializer`].
pub fn with_to_value<F>(f: F) -> Value
where
    F: FnOnce(ValueSerializer) -> Result<Value, DeError>,
{
    f(ValueSerializer).unwrap_or(Value::Null)
}

/// The value of field `name` in map `v` (Null when absent).
pub fn field_value(v: &Value, name: &str) -> Value {
    v.get(name).cloned().unwrap_or(Value::Null)
}

/// Deserializes field `name` out of map `v`.
pub fn field_from_value<T: for<'x> Deserialize<'x>>(v: &Value, name: &str) -> Result<T, DeError> {
    match v.get(name) {
        Some(fv) => T::from_value(fv).map_err(|e| DeError(format!("field `{name}`: {e}"))),
        None => T::from_value(&Value::Null).map_err(|_| DeError(format!("missing field `{name}`"))),
    }
}

/// The elements of a sequence value, or an error naming `what`.
pub fn seq_elements<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], DeError> {
    match v {
        Value::Seq(items) => Ok(items),
        other => Err(DeError(format!("{what}: expected sequence, got {}", other.type_name()))),
    }
}

/// The single `(variant, payload)` entry of an externally tagged enum map.
pub fn enum_parts<'v>(v: &'v Value, what: &str) -> Result<(&'v str, Option<&'v Value>), DeError> {
    match v {
        Value::Str(name) => Ok((name, None)),
        Value::Map(entries) if entries.len() == 1 => {
            Ok((entries[0].0.as_str(), Some(&entries[0].1)))
        }
        other => Err(DeError(format!(
            "{what}: expected variant string or single-entry map, got {}",
            other.type_name()
        ))),
    }
}

// ---------------------------------------------------------------------
// Primitive impls.
// ---------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected bool, got {}", other.type_name()))),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
                    other => {
                        return Err(DeError(format!(
                            concat!("expected ", stringify!($t), ", got {}"),
                            other.type_name()
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!(concat!("integer {} out of range for ", stringify!($t)), raw)))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw: i64 = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| DeError(format!("integer {n} out of range for i64")))?,
                    Value::F64(f) if f.fract() == 0.0 => *f as i64,
                    other => {
                        return Err(DeError(format!(
                            concat!("expected ", stringify!($t), ", got {}"),
                            other.type_name()
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| DeError(format!(concat!("integer {} out of range for ", stringify!($t)), raw)))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::F64(f) => Ok(*f as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    other => Err(DeError(format!(
                        concat!("expected ", stringify!($t), ", got {}"),
                        other.type_name()
                    ))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError(format!("expected char, got {}", other.type_name()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, got {}", other.type_name()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Arc::new)
    }
}

// The generic `Arc<T>` impls above are implicitly `T: Sized`; shared
// byte slices need their own (serialized like `Vec<u8>`).
impl Serialize for Arc<[u8]> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de> Deserialize<'de> for Arc<[u8]> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<u8>::from_value(v).map(Arc::from)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

// ---------------------------------------------------------------------
// Sequences.
// ---------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        seq_elements(v, "Vec")?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = seq_elements(v, "array")?;
        if items.len() != N {
            return Err(DeError(format!("expected array of {N}, got {}", items.len())));
        }
        let vec: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        vec.try_into().map_err(|_| DeError("array length mismatch".into()))
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        seq_elements(v, "VecDeque")?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        seq_elements(v, "BTreeSet")?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize + Eq + Hash> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de> + Eq + Hash> Deserialize<'de> for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        seq_elements(v, "HashSet")?.iter().map(T::from_value).collect()
    }
}

// ---------------------------------------------------------------------
// Maps: any (de)serializable key travels as a string, like serde_json
// does for integer keys.
// ---------------------------------------------------------------------

fn key_to_string<K: Serialize>(k: &K) -> String {
    match k.to_value() {
        Value::Str(s) => s,
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => crate::json::to_compact_string(&other),
    }
}

fn key_from_string<K: for<'x> Deserialize<'x>>(s: &str) -> Result<K, DeError> {
    // String-like keys first; fall back to parsing the key as JSON
    // (covers the integer keys this repo actually uses).
    if let Ok(k) = K::from_value(&Value::Str(s.to_string())) {
        return Ok(k);
    }
    let parsed = crate::json::parse(s).map_err(|e| DeError(format!("bad map key `{s}`: {e}")))?;
    K::from_value(&parsed)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(self.iter().map(|(k, v)| (key_to_string(k), v.to_value())).collect())
    }
}

impl<'de, K, V> Deserialize<'de> for BTreeMap<K, V>
where
    K: for<'x> Deserialize<'x> + Ord,
    V: Deserialize<'de>,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, val)| Ok((key_from_string(k)?, V::from_value(val)?)))
                .collect(),
            other => Err(DeError(format!("expected map, got {}", other.type_name()))),
        }
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (key_to_string(k), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<'de, K, V> Deserialize<'de> for HashMap<K, V>
where
    K: for<'x> Deserialize<'x> + Eq + Hash,
    V: Deserialize<'de>,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, val)| Ok((key_from_string(k)?, V::from_value(val)?)))
                .collect(),
            other => Err(DeError(format!("expected map, got {}", other.type_name()))),
        }
    }
}

// ---------------------------------------------------------------------
// Tuples.
// ---------------------------------------------------------------------

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<'de> Deserialize<'de> for () {
    fn from_value(_: &Value) -> Result<Self, DeError> {
        Ok(())
    }
}

macro_rules! impl_tuple {
    ($len:literal: $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = seq_elements(v, "tuple")?;
                if items.len() != $len {
                    return Err(DeError(format!(
                        "expected tuple of {}, got {}", $len, items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    };
}

impl_tuple!(1: A.0);
impl_tuple!(2: A.0, B.1);
impl_tuple!(3: A.0, B.1, C.2);
impl_tuple!(4: A.0, B.1, C.2, D.3);
impl_tuple!(5: A.0, B.1, C.2, D.3, E.4);
impl_tuple!(6: A.0, B.1, C.2, D.3, E.4, F.5);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------
// JSON text encoding (used by the serde_json facade and map keys).
// ---------------------------------------------------------------------

/// JSON writer/parser over [`Value`] trees.
pub mod json {
    use super::Value;

    /// Serializes a value as compact JSON.
    pub fn to_compact_string(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v, None, 0);
        out
    }

    /// Serializes a value as two-space-indented JSON.
    pub fn to_pretty_string(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, v, Some(2), 0);
        out
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::F64(f) => {
                if f.is_finite() {
                    let s = f.to_string();
                    out.push_str(&s);
                    // Keep floats distinguishable from integers.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Seq(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_value(out, item, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Value::Map(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, val, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// The deepest array/object nesting [`parse`] accepts (trained specs
    /// nest 16 levels): a hostile nest is an error, not a stack overflow.
    pub const MAX_DEPTH: usize = 128;

    /// Parses JSON text into a [`Value`] tree.
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at offset {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at offset {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str) -> bool {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                true
            } else {
                false
            }
        }

        /// One value nested `depth` arrays/objects deep.
        fn value(&mut self, depth: usize) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'n') if self.literal("null") => Ok(Value::Null),
                Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[' | b'{') if depth == MAX_DEPTH => {
                    Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos))
                }
                Some(b'[') => self.seq(depth + 1),
                Some(b'{') => self.map(depth + 1),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(format!("unexpected `{}` at offset {}", c as char, self.pos)),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn seq(&mut self, depth: usize) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(self.value(depth)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                }
            }
        }

        fn map(&mut self, depth: usize) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                entries.push((key, self.value(depth)?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err("bad escape".to_string()),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid UTF-8")?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
            if !is_float {
                if let Some(stripped) = text.strip_prefix('-') {
                    if let Ok(n) = stripped.parse::<u64>() {
                        if n <= i64::MAX as u64 {
                            return Ok(Value::I64(-(n as i64)));
                        }
                    }
                } else if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::U64(n));
                }
            }
            text.parse::<f64>().map(Value::F64).map_err(|_| format!("bad number `{text}`"))
        }
    }
}
