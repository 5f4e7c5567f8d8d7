//! `comfase-json` — the one JSON codec of the workspace.
//!
//! Every persisted artifact — journal lines, result-cache files, claim
//! ledger files, `metrics.json`, dataset shards and manifests, Chrome
//! traces, the lint baseline and cache, `repro`'s JSON outputs — is
//! written by [`Writer`] and read back by [`parse`]. The format decisions
//! are therefore made once, here:
//!
//! - **Floats** use Rust's shortest round-trip `Display` (`2`, `-0.25`,
//!   `0.0000001`): never exponent notation, bit-exact back through
//!   `str::parse::<f64>` (including `-0`). Non-finite values are written
//!   as `null`; a `null` where a plain `f64` is expected is an error.
//! - **Integers** are exact over the full `u64`/`i64` range: the parser
//!   keeps each number's text ([`Number`]) and converts on demand.
//! - **Strings** escape `"`, `\` and U+0000–U+001F (as `\u00xx`);
//!   everything else is written verbatim.
//! - **Key order**: typed records write their fields in declaration
//!   order; a [`Value::Object`] is a `BTreeMap` and writes sorted keys.
//! - **Layout**: compact (no whitespace) or pretty (2-space indent,
//!   `"key": value`, `[]`/`{}` when empty).
//! - **Strictness**: the parser accepts RFC 8259 and nothing else, and
//!   rejects duplicate keys; typed decoders ([`FromJson`]) reject unknown
//!   keys, so a damaged key name is a rejection, never a silently
//!   defaulted field.
//!
//! Types opt in with [`ToJson`] / [`FromJson`]; the [`record!`],
//! [`variants!`] and [`newtype!`] macros implement them for plain
//! structs, externally tagged enums and single-field wrappers in one
//! line each.

mod parse;
mod value;
mod write;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

pub use parse::{parse, parse_slice};
pub use value::{Number, Value};
pub use write::{write_f64, write_str, Writer};

/// A parse or decode error: what went wrong, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }

    fn expected(what: &str, found: &Value) -> Error {
        let found = match found {
            Value::Null => "null",
            Value::Bool(_) => "a bool",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        };
        Error(format!("expected {what}, found {found}"))
    }

    fn within(self, key: &str) -> Error {
        Error(format!("`{key}`: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type with a JSON encoding.
pub trait ToJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut Writer<'_>);
}

/// A type that decodes from a parsed JSON value.
pub trait FromJson: Sized {
    /// Decodes `v`, rejecting any shape the encoder would not produce.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    fn from_json(v: &Value) -> Result<Self, Error>;

    /// The value a record field of this type takes when its key is
    /// absent; `None` makes the key required. `Option` fields default to
    /// `None`.
    fn missing() -> Option<Self> {
        None
    }
}

/// Compact JSON of `value`.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut Writer::compact(&mut out));
    out
}

/// Pretty JSON of `value` (no trailing newline).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut Writer::pretty(&mut out));
    out
}

/// The [`Value`] tree of `value` (objects re-sorted by key).
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    parse(&to_string(value)).expect("the writer emits valid JSON")
}

/// Parses and decodes one document.
///
/// # Errors
///
/// A grammar violation or a shape mismatch.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

/// [`from_str`] over bytes that must be UTF-8.
///
/// # Errors
///
/// Invalid UTF-8, a grammar violation or a shape mismatch.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, Error> {
    T::from_json(&parse_slice(bytes)?)
}

/// Strict field-by-field decoding of one JSON object.
///
/// Every key must be taken exactly once ([`Fields::get`],
/// [`Fields::get_or_default`], or [`Fields::ignore`] for a tolerated
/// legacy key); [`Fields::finish`] rejects whatever is left over.
#[derive(Debug)]
pub struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    what: &'static str,
    taken: Vec<&'a str>,
}

impl<'a> Fields<'a> {
    /// Starts decoding `v`, which must be an object; `what` names the
    /// type in error messages.
    ///
    /// # Errors
    ///
    /// `v` is not an object.
    pub fn new(v: &'a Value, what: &'static str) -> Result<Fields<'a>, Error> {
        match v {
            Value::Object(map) => Ok(Fields {
                map,
                what,
                taken: Vec::with_capacity(map.len()),
            }),
            other => Err(Error::expected("an object", other).within(what)),
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a Value> {
        let (k, v) = self.map.get_key_value(key)?;
        self.taken.push(k);
        Some(v)
    }

    /// Decodes the value under `key`; an absent key falls back to
    /// [`FromJson::missing`].
    ///
    /// # Errors
    ///
    /// A required key is absent, or its value does not decode.
    pub fn get<T: FromJson>(&mut self, key: &str) -> Result<T, Error> {
        match self.take(key) {
            Some(v) => T::from_json(v).map_err(|e| e.within(key)),
            None => T::missing()
                .ok_or_else(|| Error::new(format!("{}: missing field `{key}`", self.what))),
        }
    }

    /// Decodes the value under `key`, or `T::default()` when absent.
    ///
    /// # Errors
    ///
    /// The value is present but does not decode.
    pub fn get_or_default<T: FromJson + Default>(&mut self, key: &str) -> Result<T, Error> {
        match self.take(key) {
            Some(v) => T::from_json(v).map_err(|e| e.within(key)),
            None => Ok(T::default()),
        }
    }

    /// Marks `key` as tolerated and unused (a legacy key old writers
    /// emitted).
    pub fn ignore(&mut self, key: &str) {
        self.take(key);
    }

    /// Ends decoding.
    ///
    /// # Errors
    ///
    /// The object has a key no decoder took.
    pub fn finish(self) -> Result<(), Error> {
        match self.map.keys().find(|k| !self.taken.contains(&k.as_str())) {
            None => Ok(()),
            Some(k) => Err(Error::new(format!("{}: unknown field `{k}`", self.what))),
        }
    }
}

/// Splits an externally tagged enum value: `"Tag"` is a unit variant,
/// `{"Tag": body}` a variant with data.
///
/// # Errors
///
/// Anything else.
pub fn variant(v: &Value) -> Result<(&str, Option<&Value>), Error> {
    match v {
        Value::String(tag) => Ok((tag, None)),
        Value::Object(map) if map.len() == 1 => match map.iter().next() {
            Some((tag, body)) => Ok((tag, Some(body))),
            None => Err(Error::expected("an enum variant", v)),
        },
        other => Err(Error::expected("an enum variant", other)),
    }
}

/// The data of a variant that must carry some.
///
/// # Errors
///
/// The variant was written as a bare tag.
pub fn variant_body<'a>(body: Option<&'a Value>, tag: &str) -> Result<&'a Value, Error> {
    body.ok_or_else(|| Error::new(format!("variant `{tag}` needs data")))
}

/// Emptiness test behind a record's `#[skip_empty]` fields, which are
/// omitted when empty (and default when absent).
pub trait SkipEmpty {
    /// `true` when the field is omitted.
    fn is_empty(&self) -> bool;
}

impl<T> SkipEmpty for Option<T> {
    fn is_empty(&self) -> bool {
        self.is_none()
    }
}

impl<T> SkipEmpty for Vec<T> {
    fn is_empty(&self) -> bool {
        Vec::is_empty(self)
    }
}

impl<K, V> SkipEmpty for BTreeMap<K, V> {
    fn is_empty(&self) -> bool {
        BTreeMap::is_empty(self)
    }
}

/// A type usable as an object key: strings verbatim, integers in their
/// canonical decimal form.
pub trait JsonKey: Ord + Sized {
    /// The key text.
    fn to_key(&self) -> Cow<'_, str>;

    /// Decodes key text, accepting only the canonical form.
    ///
    /// # Errors
    ///
    /// The text is not a key this type writes.
    fn from_key(key: &str) -> Result<Self, Error>;
}

impl JsonKey for String {
    fn to_key(&self) -> Cow<'_, str> {
        Cow::Borrowed(self)
    }

    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

macro_rules! integer_codecs {
    ($($t:ty: $as:ident),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer<'_>) {
                use std::fmt::Write as _;
                let _ = write!(w.scalar(), "{self}");
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                v.$as()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error::expected(concat!("a ", stringify!($t)), v))
            }
        }

        impl JsonKey for $t {
            fn to_key(&self) -> Cow<'_, str> {
                Cow::Owned(self.to_string())
            }

            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse::<$t>()
                    .ok()
                    .filter(|n| n.to_string() == key)
                    .ok_or_else(|| Error::new(format!("bad {} key `{key}`", stringify!($t))))
            }
        }
    )*};
}
integer_codecs!(u8: as_u64, u32: as_u64, u64: as_u64, usize: as_u64, i64: as_i64);

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer<'_>) {
        write_f64(w.scalar(), *self);
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::expected("a finite number", v))
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.scalar().push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::expected("a bool", v))
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer<'_>) {
        write_str(w.scalar(), self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer<'_>) {
        self.as_str().write_json(w);
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("a string", v))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer<'_>) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer<'_>) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_array();
        for item in self {
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer<'_>) {
        self.as_slice().write_json(w);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("an array", v))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.within(&i.to_string())))
            .collect()
    }
}

impl<T: ToJson> ToJson for Arc<[T]> {
    fn write_json(&self, w: &mut Writer<'_>) {
        (**self).write_json(w);
    }
}

impl<T: FromJson> FromJson for Arc<[T]> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Vec::from_json(v).map(Arc::from)
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_array();
        self.0.write_json(w);
        self.1.write_json(w);
        self.2.write_json(w);
        w.end_array();
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_object();
        for (k, v) in self {
            w.field(&k.to_key(), v);
        }
        w.end_object();
    }
}

impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_object()
            .ok_or_else(|| Error::expected("an object", v))?;
        let mut out = BTreeMap::new();
        for (k, item) in map {
            let value = V::from_json(item).map_err(|e| e.within(k))?;
            if out.insert(K::from_key(k)?, value).is_some() {
                return Err(Error::new(format!("duplicate key `{k}`")));
            }
        }
        Ok(out)
    }
}

impl ToJson for Value {
    fn write_json(&self, w: &mut Writer<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => b.write_json(w),
            Value::Number(n) => w.scalar().push_str(n.as_str()),
            Value::String(s) => s.write_json(w),
            Value::Array(items) => items.write_json(w),
            Value::Object(map) => map.write_json(w),
        }
    }
}

/// Implements [`ToJson`] — and, with `ToJson, FromJson`, [`FromJson`] —
/// for a struct with named fields, written as an object in the order
/// listed (list them in declaration order).
///
/// A field is required unless its type defaults when absent (`Option`).
/// `#[default]` makes an absent key decode as `Default::default()`;
/// `#[skip_empty]` additionally omits the key when the value is empty
/// ([`SkipEmpty`]). Unknown keys are rejected.
///
/// ```
/// #[derive(Debug, Default, PartialEq)]
/// struct Row { index: u64, note: Option<String>, tags: Vec<String> }
/// comfase_json::record!(ToJson, FromJson for Row { index, note, #[skip_empty] tags });
///
/// let row = Row { index: 3, ..Row::default() };
/// assert_eq!(comfase_json::to_string(&row), r#"{"index":3,"note":null}"#);
/// assert_eq!(comfase_json::from_str::<Row>(r#"{"index":3}"#), Ok(row));
/// assert!(comfase_json::from_str::<Row>(r#"{"index":3,"idnex":4}"#).is_err());
/// ```
#[macro_export]
macro_rules! record {
    (ToJson for $ty:ty { $($body:tt)* }) => {
        $crate::__record_to_json!($ty { $($body)* });
    };
    (ToJson, FromJson for $ty:ty { $($body:tt)* }) => {
        $crate::__record_to_json!($ty { $($body)* });
        $crate::__record_from_json!($ty { $($body)* });
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __record_to_json {
    ($ty:ty { $( $(#[$mode:ident])? $field:ident ),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::Writer<'_>) {
                w.begin_object();
                $( $crate::__record_field_to_json!(w, stringify!($field), &self.$field $(, $mode)?); )*
                w.end_object();
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __record_field_to_json {
    ($w:ident, $key:expr, $value:expr) => {
        $w.field($key, $value)
    };
    ($w:ident, $key:expr, $value:expr, default) => {
        $w.field($key, $value)
    };
    ($w:ident, $key:expr, $value:expr, skip_empty) => {
        if !$crate::SkipEmpty::is_empty($value) {
            $w.field($key, $value)
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __record_from_json {
    ($ty:ty { $( $(#[$mode:ident])? $field:ident ),* $(,)? }) => {
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let mut fields = $crate::Fields::new(v, stringify!($ty))?;
                let record = Self {
                    $( $field: $crate::__record_field_from_json!(fields, stringify!($field) $(, $mode)?)?, )*
                };
                fields.finish()?;
                Ok(record)
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __record_field_from_json {
    ($fields:ident, $key:expr) => {
        $fields.get($key)
    };
    ($fields:ident, $key:expr, $mode:ident) => {
        $fields.get_or_default($key)
    };
}

/// Implements [`ToJson`] — and, with `ToJson, FromJson`, [`FromJson`] —
/// for an enum in the externally tagged form: a unit variant is its name
/// as a string, `V { a, b }` is `{"V":{"a":…,"b":…}}` and a one-field
/// tuple variant `V(x)` is `{"V":…}`. List every variant with its field
/// names.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Circle { r: f64 }, Tagged(u32) }
/// comfase_json::variants!(ToJson, FromJson for Shape { Dot, Circle { r }, Tagged(id) });
///
/// let json = comfase_json::to_string(&vec![Shape::Dot, Shape::Circle { r: 1.5 }, Shape::Tagged(7)]);
/// assert_eq!(json, r#"["Dot",{"Circle":{"r":1.5}},{"Tagged":7}]"#);
/// assert_eq!(comfase_json::from_str::<Shape>(r#"{"Circle":{"r":1.5}}"#), Ok(Shape::Circle { r: 1.5 }));
/// ```
#[macro_export]
macro_rules! variants {
    (ToJson for $ty:ident { $($body:tt)* }) => {
        $crate::__variants_to_json!($ty { $($body)* });
    };
    (ToJson, FromJson for $ty:ident { $($body:tt)* }) => {
        $crate::__variants_to_json!($ty { $($body)* });
        $crate::__variants_from_json!($ty { $($body)* });
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __variants_to_json {
    ($ty:ident { $( $var:ident $({ $($field:ident),* $(,)? })? $(($inner:ident))? ),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::Writer<'_>) {
                match self {
                    $( $ty::$var $({ $($field),* })? $(($inner))? => {
                        $crate::__variant_to_json!(w, $var $({ $($field),* })? $(($inner))?)
                    } )*
                }
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __variant_to_json {
    ($w:ident, $var:ident) => {
        $w.value(stringify!($var))
    };
    ($w:ident, $var:ident { $($field:ident),* }) => {{
        $w.begin_object();
        $w.key(stringify!($var));
        $w.begin_object();
        $( $w.field(stringify!($field), $field); )*
        $w.end_object();
        $w.end_object();
    }};
    ($w:ident, $var:ident ($inner:ident)) => {{
        $w.begin_object();
        $w.field(stringify!($var), $inner);
        $w.end_object();
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __variants_from_json {
    ($ty:ident { $( $var:ident $({ $($field:ident),* $(,)? })? $(($inner:ident))? ),* $(,)? }) => {
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let (tag, body) = $crate::variant(v)?;
                $( if tag == stringify!($var) {
                    return $crate::__variant_from_json!($ty, body, $var $({ $($field),* })? $(($inner))?);
                } )*
                Err($crate::Error::new(format!(
                    "unknown {} variant `{tag}`",
                    stringify!($ty)
                )))
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __variant_from_json {
    ($ty:ident, $body:ident, $var:ident) => {
        match $body {
            None => Ok($ty::$var),
            Some(_) => Err($crate::Error::new(concat!(
                "unit variant `",
                stringify!($var),
                "` carries data"
            ))),
        }
    };
    ($ty:ident, $body:ident, $var:ident { $($field:ident),* }) => {{
        let mut fields =
            $crate::Fields::new($crate::variant_body($body, stringify!($var))?, stringify!($var))?;
        let value = $ty::$var { $( $field: fields.get(stringify!($field))?, )* };
        fields.finish()?;
        Ok(value)
    }};
    ($ty:ident, $body:ident, $var:ident ($inner:ident)) => {
        $crate::FromJson::from_json($crate::variant_body($body, stringify!($var))?).map($ty::$var)
    };
}

/// Implements [`ToJson`] — and, with `ToJson, FromJson`, [`FromJson`] —
/// for a single-field tuple struct as its inner value.
#[macro_export]
macro_rules! newtype {
    (ToJson for $ty:ident) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::Writer<'_>) {
                $crate::ToJson::write_json(&self.0, w);
            }
        }
    };
    (ToJson, FromJson for $ty:ident) => {
        $crate::newtype!(ToJson for $ty);
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                $crate::FromJson::from_json(v).map($ty)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_f64(v: f64) -> String {
        let text = to_string(&v);
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{v:?} came back as {back:?}");
        text
    }

    #[test]
    fn floats_use_shortest_display_and_round_trip_bit_exactly() {
        assert_eq!(round_trip_f64(0.1), "0.1");
        assert_eq!(round_trip_f64(-0.0), "-0");
        assert_eq!(round_trip_f64(2.0), "2");
        assert_eq!(round_trip_f64(-0.25), "-0.25");
        assert_eq!(round_trip_f64(1e21), "1000000000000000000000");
        assert_eq!(round_trip_f64(1.5e-7), "0.00000015");
        for v in [5e-324, f64::MAX, f64::MIN_POSITIVE, -f64::MAX, 1.0 / 3.0] {
            let text = round_trip_f64(v);
            assert!(!text.contains(['e', 'E']), "exponent in {text}");
        }
        // Exponent spellings (older writers) still read back.
        assert_eq!(from_str::<f64>("1e21"), Ok(1e21));
        assert_eq!(from_str::<f64>("2.0"), Ok(2.0));
    }

    #[test]
    fn non_finite_floats_write_null_and_null_is_not_an_f64() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&v), "null");
        }
        assert!(from_str::<f64>("null").is_err());
        assert_eq!(from_str::<Option<f64>>("null"), Ok(None));
    }

    #[test]
    fn integers_are_exact_over_the_full_range() {
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(from_str::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(to_string(&i64::MIN), "-9223372036854775808");
        assert_eq!(from_str::<i64>("-9223372036854775808"), Ok(i64::MIN));
        // 2^53 + 1 is not an f64, so a float-backed reader would round it.
        assert_eq!(
            from_str::<u64>("9007199254740993"),
            Ok(9_007_199_254_740_993)
        );
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u64>("1.0").is_err());
    }

    #[test]
    fn strings_escape_quote_backslash_and_controls_only() {
        assert_eq!(to_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\u000ad\"");
        assert_eq!(to_string("é/\u{7f}"), "\"é/\u{7f}\"");
        let s = "\u{0}\u{1f} \"\\\t\r\n😀";
        assert_eq!(from_str::<String>(&to_string(s)).unwrap(), s);
    }

    #[test]
    fn grammar_rejections() {
        for bad in [
            "1 2",
            "[1,]",
            "01",
            "\"open",
            "\"\\u00g0\"",
            "{\"k\":1,\"k\":1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[derive(Debug, Default, PartialEq)]
    struct Row {
        index: u64,
        ratio: f64,
        note: Option<String>,
        count: u64,
        counters: BTreeMap<String, u64>,
    }
    record!(ToJson, FromJson for Row { index, ratio, note, #[default] count, #[skip_empty] counters });

    #[test]
    fn records_keep_field_order_defaults_and_skips() {
        let mut row = Row {
            index: 7,
            ratio: 0.5,
            ..Row::default()
        };
        assert_eq!(
            to_string(&row),
            r#"{"index":7,"ratio":0.5,"note":null,"count":0}"#
        );
        row.counters.insert("b".into(), 2);
        row.counters.insert("a".into(), 1);
        let text = to_string(&row);
        assert_eq!(
            text,
            r#"{"index":7,"ratio":0.5,"note":null,"count":0,"counters":{"a":1,"b":2}}"#
        );
        assert_eq!(from_str::<Row>(&text), Ok(row));
        // Absent optional/defaulted keys decode; absent required keys do not.
        let sparse = from_str::<Row>(r#"{"index":1,"ratio":2}"#).unwrap();
        assert_eq!((sparse.note, sparse.count), (None, 0));
        assert!(from_str::<Row>(r#"{"ratio":2}"#).is_err());
    }

    #[test]
    fn records_reject_unknown_and_duplicate_keys() {
        let err = from_str::<Row>(r#"{"index":1,"ratio":2,"cuonters":{"a":1}}"#).unwrap_err();
        assert!(
            err.to_string().contains("unknown field `cuonters`"),
            "{err}"
        );
        assert!(from_str::<Row>(r#"{"index":1,"ratio":2,"counters":{"a":1,"a":1}}"#).is_err());
        assert!(from_str::<Row>(r#"{"index":1,"index":1,"ratio":2}"#).is_err());
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Plain,
        Shaped { w: f64, h: f64 },
        Wrapped(u32),
    }
    variants!(ToJson, FromJson for Kind { Plain, Shaped { w, h }, Wrapped(x) });

    #[test]
    fn variants_are_externally_tagged() {
        let all = vec![
            Kind::Plain,
            Kind::Shaped { w: 1.0, h: 0.5 },
            Kind::Wrapped(3),
        ];
        let text = to_string(&all);
        assert_eq!(
            text,
            r#"["Plain",{"Shaped":{"w":1,"h":0.5}},{"Wrapped":3}]"#
        );
        assert_eq!(from_str::<Vec<Kind>>(&text), Ok(all));
        for bad in [
            r#""Other""#,
            r#"{"Plain":null}"#,
            r#""Shaped""#,
            r#"{"Shaped":{"w":1}}"#,
            r#"{"Shaped":{"w":1,"h":1,"d":1}}"#,
            r#"{"Wrapped":3,"Plain":1}"#,
        ] {
            assert!(from_str::<Kind>(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn integer_map_keys_are_canonical() {
        let map = BTreeMap::from([(2u32, true), (10, false)]);
        assert_eq!(to_string(&map), r#"{"2":true,"10":false}"#);
        assert_eq!(
            from_str::<BTreeMap<u32, bool>>(r#"{"10":false,"2":true}"#),
            Ok(map)
        );
        assert!(from_str::<BTreeMap<u32, bool>>(r#"{"02":true}"#).is_err());
    }

    #[test]
    fn values_write_sorted_keys_and_pretty_layout() {
        let v = Value::object([
            ("zeta", Value::from(1u32)),
            ("alpha", Value::from(vec![0.5, 2.0])),
            ("empty", Value::Array(Vec::new())),
        ]);
        assert_eq!(to_string(&v), r#"{"alpha":[0.5,2],"empty":[],"zeta":1}"#);
        assert_eq!(
            to_string_pretty(&v),
            "{\n  \"alpha\": [\n    0.5,\n    2\n  ],\n  \"empty\": [],\n  \"zeta\": 1\n}"
        );
        assert_eq!(
            to_value(&Kind::Wrapped(3))
                .get("Wrapped")
                .and_then(Value::as_u64),
            Some(3)
        );
    }
}
