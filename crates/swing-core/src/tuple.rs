//! Data tuples flowing along the edges of a Swing application graph.
//!
//! The paper's programming model passes *tuples* — lists of serializable
//! named values such as "a bitmap image, a matrix of floating-point values
//! or a text string" — between function units. [`Tuple`] mirrors the Java
//! API (`data.getValue("value1")`, `data.setValues(...)`) with typed
//! accessors, and additionally carries the metadata the LRS algorithm
//! needs: a per-source sequence number and the timestamp the upstream
//! attached when dispatching the tuple.

use crate::error::{Error, Result};
use crate::payload::SharedBytes;
use crate::SeqNo;
use std::fmt;
use std::sync::Arc;

/// A single named value inside a [`Tuple`].
///
/// The two bulk variants ([`Value::Bytes`], [`Value::F32Vec`]) hold their
/// data behind shared, reference-counted buffers, so cloning a `Value` —
/// and therefore a [`Tuple`] — never copies a frame's pixels or a feature
/// vector's floats. See [`crate::payload`] for the ownership rules.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Value {
    /// Raw bytes — e.g. an encoded video frame or audio segment.
    /// Cheap to clone: the buffer is shared, not copied.
    Bytes(SharedBytes),
    /// UTF-8 text — e.g. a recognized name or translated sentence.
    Str(String),
    /// A 64-bit signed integer.
    I64(i64),
    /// A 64-bit float.
    F64(f64),
    /// A vector of 32-bit floats — e.g. a feature vector.
    /// Cheap to clone: the storage is shared, not copied.
    F32Vec(Arc<[f32]>),
    /// A boolean flag.
    Bool(bool),
}

/// The kind (discriminant) of a [`Value`], used for schema declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ValueKind {
    /// Raw bytes.
    Bytes,
    /// UTF-8 text.
    Str,
    /// 64-bit signed integer.
    I64,
    /// 64-bit float.
    F64,
    /// Vector of 32-bit floats.
    F32Vec,
    /// Boolean flag.
    Bool,
}

impl Value {
    /// The kind of this value.
    #[must_use]
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Bytes(_) => ValueKind::Bytes,
            Value::Str(_) => ValueKind::Str,
            Value::I64(_) => ValueKind::I64,
            Value::F64(_) => ValueKind::F64,
            Value::F32Vec(_) => ValueKind::F32Vec,
            Value::Bool(_) => ValueKind::Bool,
        }
    }

    /// Approximate serialized size in bytes; used by the network models to
    /// compute transmission delays.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Bytes(b) => b.len(),
            Value::Str(s) => s.len(),
            Value::I64(_) | Value::F64(_) => 8,
            Value::F32Vec(v) => v.len() * 4,
            Value::Bool(_) => 1,
        }
    }

    fn kind_name(&self) -> &'static str {
        self.kind().name()
    }
}

impl ValueKind {
    /// Human-readable name of the kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Bytes => "bytes",
            ValueKind::Str => "string",
            ValueKind::I64 => "i64",
            ValueKind::F64 => "f64",
            ValueKind::F32Vec => "f32vec",
            ValueKind::Bool => "bool",
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(SharedBytes::from_vec(v))
    }
}
impl From<SharedBytes> for Value {
    fn from(v: SharedBytes) -> Self {
        Value::Bytes(v)
    }
}
impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value::Bytes(SharedBytes::copy_from_slice(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<Vec<f32>> for Value {
    fn from(v: Vec<f32>) -> Self {
        Value::F32Vec(v.into())
    }
}
impl From<Arc<[f32]>> for Value {
    fn from(v: Arc<[f32]>) -> Self {
        Value::F32Vec(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Longest field name stored inline in a [`FieldKey`].
const INLINE_KEY: usize = 22;

/// A field name. Names of up to `INLINE_KEY` (22) bytes — every key the
/// runtime and the apps use — are stored inline, so building, decoding
/// and cloning tuples never allocates per field; longer names fall back
/// to the heap.
#[derive(Clone)]
pub struct FieldKey(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Inline { len: u8, buf: [u8; INLINE_KEY] },
    Heap(String),
}

impl FieldKey {
    /// The name as a string slice.
    #[must_use]
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline { len, buf } => std::str::from_utf8(&buf[..*len as usize])
                .expect("inline keys are built from valid strings"),
            KeyRepr::Heap(s) => s,
        }
    }

    /// The raw name bytes. Comparisons go through this accessor: the
    /// bytes are always valid UTF-8 by construction, so equality on
    /// bytes equals equality on the string, without re-validating.
    #[must_use]
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, buf } => &buf[..*len as usize],
            KeyRepr::Heap(s) => s.as_bytes(),
        }
    }

    /// Build a key from raw name bytes, returning `None` when they are
    /// not valid UTF-8. ASCII names — every key the runtime and apps
    /// use — take a validation-free inline fast path; anything else
    /// goes through full UTF-8 validation.
    #[must_use]
    #[inline]
    pub fn try_from_bytes(raw: &[u8]) -> Option<FieldKey> {
        if raw.len() <= INLINE_KEY && raw.iter().all(|&b| b < 0x80) {
            let mut buf = [0u8; INLINE_KEY];
            for (dst, &src) in buf.iter_mut().zip(raw) {
                *dst = src;
            }
            return Some(FieldKey(KeyRepr::Inline {
                len: raw.len() as u8,
                buf,
            }));
        }
        std::str::from_utf8(raw).ok().map(FieldKey::from)
    }

    /// Name length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            KeyRepr::Inline { len, .. } => *len as usize,
            KeyRepr::Heap(s) => s.len(),
        }
    }

    /// Whether the name is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<&str> for FieldKey {
    #[inline]
    fn from(s: &str) -> Self {
        if s.len() <= INLINE_KEY {
            let mut buf = [0u8; INLINE_KEY];
            // An explicit loop: for these tiny lengths the compiler
            // emits a handful of moves instead of a memcpy call.
            for (dst, &src) in buf.iter_mut().zip(s.as_bytes()) {
                *dst = src;
            }
            FieldKey(KeyRepr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            FieldKey(KeyRepr::Heap(s.to_owned()))
        }
    }
}

impl From<String> for FieldKey {
    #[inline]
    fn from(s: String) -> Self {
        if s.len() <= INLINE_KEY {
            FieldKey::from(s.as_str())
        } else {
            FieldKey(KeyRepr::Heap(s))
        }
    }
}

impl From<&String> for FieldKey {
    #[inline]
    fn from(s: &String) -> Self {
        FieldKey::from(s.as_str())
    }
}

impl std::ops::Deref for FieldKey {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for FieldKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for FieldKey {}

impl std::hash::Hash for FieldKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for FieldKey {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl std::fmt::Debug for FieldKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for FieldKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A data tuple exchanged between function units.
///
/// Fields are stored in insertion order; lookup is by key. Tuples are small
/// (a handful of fields), so linear scans beat a hash map here.
///
/// Cloning a tuple copies its (short, inline — see [`FieldKey`]) field
/// keys but *shares* bulk payloads — see [`Value`]. This is what makes
/// retaining every dispatched tuple in the in-flight retransmission
/// table affordable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    seq: SeqNo,
    /// Microsecond timestamp attached by the dispatching upstream unit.
    /// Downstreams echo it back in their ACKs so the upstream can compute
    /// the tuple's end-to-end latency (paper §V-B).
    sent_at_us: u64,
    fields: Vec<(FieldKey, Value)>,
}

impl Tuple {
    /// Create an empty tuple with sequence number zero.
    #[must_use]
    pub fn new() -> Self {
        Tuple::default()
    }

    /// Create an empty tuple carrying the given sequence number.
    #[must_use]
    #[inline]
    pub fn with_seq(seq: SeqNo) -> Self {
        Tuple {
            seq,
            ..Tuple::default()
        }
    }

    /// The per-source sequence number.
    #[must_use]
    #[inline]
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    /// Set the sequence number (used by sources when emitting).
    pub fn set_seq(&mut self, seq: SeqNo) {
        self.seq = seq;
    }

    /// The dispatch timestamp attached by the upstream, in microseconds.
    #[must_use]
    #[inline]
    pub fn sent_at_us(&self) -> u64 {
        self.sent_at_us
    }

    /// Stamp the tuple with the dispatch time (done by the routing layer).
    #[inline]
    pub fn stamp_sent(&mut self, now_us: u64) {
        self.sent_at_us = now_us;
    }

    /// Add or replace a field, builder style.
    #[must_use]
    pub fn with(mut self, key: impl Into<FieldKey>, value: impl Into<Value>) -> Self {
        self.set_value(key, value);
        self
    }

    /// Reserve room for `additional` more fields. Decoders that know the
    /// field count up front use this to build the tuple in one
    /// allocation instead of growing it push by push.
    #[inline]
    pub fn reserve_fields(&mut self, additional: usize) {
        self.fields.reserve(additional);
    }

    /// Add or replace a field.
    pub fn set_value(&mut self, key: impl Into<FieldKey>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key, value));
        }
    }

    /// Look up a field by key.
    #[inline]
    pub fn get_value(&self, key: &str) -> Result<&Value> {
        self.fields
            .iter()
            .find(|(k, _)| k.as_bytes() == key.as_bytes())
            .map(|(_, v)| v)
            .ok_or_else(|| Error::MissingField(key.to_owned()))
    }

    /// Look up a byte-array field (the paper's `(byte[]) data.getValue(..)`).
    pub fn bytes(&self, key: &str) -> Result<&[u8]> {
        match self.get_value(key)? {
            Value::Bytes(b) => Ok(b.as_slice()),
            other => Err(self.kind_mismatch(key, "bytes", other)),
        }
    }

    /// Look up a byte-array field as a shared handle. The returned clone
    /// shares the field's allocation (an O(1) refcount bump), so units can
    /// forward a frame downstream without copying it.
    pub fn bytes_shared(&self, key: &str) -> Result<SharedBytes> {
        match self.get_value(key)? {
            Value::Bytes(b) => Ok(b.clone()),
            other => Err(self.kind_mismatch(key, "bytes", other)),
        }
    }

    /// Look up a string field.
    pub fn str(&self, key: &str) -> Result<&str> {
        match self.get_value(key)? {
            Value::Str(s) => Ok(s),
            other => Err(self.kind_mismatch(key, "string", other)),
        }
    }

    /// Look up an integer field.
    pub fn i64(&self, key: &str) -> Result<i64> {
        match self.get_value(key)? {
            Value::I64(v) => Ok(*v),
            other => Err(self.kind_mismatch(key, "i64", other)),
        }
    }

    /// Look up a float field.
    pub fn f64(&self, key: &str) -> Result<f64> {
        match self.get_value(key)? {
            Value::F64(v) => Ok(*v),
            other => Err(self.kind_mismatch(key, "f64", other)),
        }
    }

    /// Look up a float-vector field.
    pub fn f32_vec(&self, key: &str) -> Result<&[f32]> {
        match self.get_value(key)? {
            Value::F32Vec(v) => Ok(v),
            other => Err(self.kind_mismatch(key, "f32vec", other)),
        }
    }

    /// Look up a boolean field.
    pub fn bool(&self, key: &str) -> Result<bool> {
        match self.get_value(key)? {
            Value::Bool(v) => Ok(*v),
            other => Err(self.kind_mismatch(key, "bool", other)),
        }
    }

    /// Remove a field, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self
            .fields
            .iter()
            .position(|(k, _)| k.as_bytes() == key.as_bytes())?;
        Some(self.fields.remove(idx).1)
    }

    /// Whether a field with this key exists.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.fields
            .iter()
            .any(|(k, _)| k.as_bytes() == key.as_bytes())
    }

    /// Number of fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the tuple has no fields.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Approximate on-wire payload size in bytes (fields + keys + header).
    ///
    /// The network models use this to compute transmission delays; the wire
    /// format in `swing-net` produces frames of almost exactly this size.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        let header = 8 + 8; // seq + timestamp
        self.fields
            .iter()
            .map(|(k, v)| k.len() + v.size_bytes() + 6)
            .sum::<usize>()
            + header
    }

    fn kind_mismatch(&self, key: &str, requested: &'static str, actual: &Value) -> Error {
        Error::FieldKindMismatch {
            key: key.to_owned(),
            requested,
            actual: actual.kind_name(),
        }
    }
}

/// Declared field layout of tuples on a graph edge.
///
/// Mirrors the paper's "define tuple structure" step. Schemas are advisory:
/// units can check incoming tuples against them with [`TupleSchema::check`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TupleSchema {
    fields: Vec<(String, ValueKind)>,
}

impl TupleSchema {
    /// Create an empty schema.
    #[must_use]
    pub fn new() -> Self {
        TupleSchema::default()
    }

    /// Add a field declaration, builder style.
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, kind: ValueKind) -> Self {
        self.fields.push((key.into(), kind));
        self
    }

    /// Declared fields in order.
    #[must_use]
    pub fn fields(&self) -> &[(String, ValueKind)] {
        &self.fields
    }

    /// Verify that `tuple` contains every declared field with the declared
    /// kind. Extra fields are allowed (operators may enrich tuples).
    pub fn check(&self, tuple: &Tuple) -> Result<()> {
        for (key, kind) in &self.fields {
            match tuple.get_value(key) {
                Ok(v) if v.kind() == *kind => {}
                Ok(v) => {
                    return Err(Error::SchemaViolation(format!(
                        "field `{key}` should be {} but is {}",
                        kind.name(),
                        v.kind().name()
                    )))
                }
                Err(_) => {
                    return Err(Error::SchemaViolation(format!(
                        "required field `{key}` ({}) is missing",
                        kind.name()
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        Tuple::with_seq(SeqNo(7))
            .with("value1", vec![1u8, 2, 3])
            .with("value2", "hello")
            .with("count", 42i64)
    }

    #[test]
    fn typed_accessors_return_values() {
        let t = sample();
        assert_eq!(t.bytes("value1").unwrap(), &[1, 2, 3]);
        assert_eq!(t.str("value2").unwrap(), "hello");
        assert_eq!(t.i64("count").unwrap(), 42);
        assert_eq!(t.seq(), SeqNo(7));
    }

    #[test]
    fn missing_field_errors() {
        let t = sample();
        assert_eq!(
            t.str("nope").unwrap_err(),
            Error::MissingField("nope".into())
        );
    }

    #[test]
    fn kind_mismatch_errors_name_both_kinds() {
        let t = sample();
        let err = t.bytes("value2").unwrap_err();
        match err {
            Error::FieldKindMismatch {
                requested, actual, ..
            } => {
                assert_eq!(requested, "bytes");
                assert_eq!(actual, "string");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn set_value_replaces_existing_key() {
        let mut t = sample();
        t.set_value("value2", "world");
        assert_eq!(t.str("value2").unwrap(), "world");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn remove_and_contains() {
        let mut t = sample();
        assert!(t.contains("count"));
        assert_eq!(t.remove("count"), Some(Value::I64(42)));
        assert!(!t.contains("count"));
        assert_eq!(t.remove("count"), None);
    }

    #[test]
    fn size_accounts_for_payload() {
        let frame = vec![0u8; 6_000]; // the paper's 6.0 kB video frame
        let t = Tuple::new().with("frame", frame);
        assert!(t.size_bytes() >= 6_000);
        assert!(t.size_bytes() < 6_100);
    }

    #[test]
    fn stamping_records_dispatch_time() {
        let mut t = sample();
        assert_eq!(t.sent_at_us(), 0);
        t.stamp_sent(123_456);
        assert_eq!(t.sent_at_us(), 123_456);
    }

    #[test]
    fn schema_check_accepts_matching_tuple() {
        let schema = TupleSchema::new()
            .field("value1", ValueKind::Bytes)
            .field("value2", ValueKind::Str);
        schema.check(&sample()).unwrap();
    }

    #[test]
    fn schema_check_rejects_missing_and_mismatched() {
        let schema = TupleSchema::new().field("absent", ValueKind::Bool);
        assert!(schema.check(&sample()).is_err());

        let schema = TupleSchema::new().field("value2", ValueKind::Bytes);
        assert!(schema.check(&sample()).is_err());
    }

    #[test]
    fn schema_allows_extra_fields() {
        let schema = TupleSchema::new().field("value1", ValueKind::Bytes);
        schema.check(&sample()).unwrap();
    }

    #[test]
    fn value_kinds_and_sizes() {
        assert_eq!(Value::from(1.5f64).kind(), ValueKind::F64);
        assert_eq!(Value::from(true).size_bytes(), 1);
        assert_eq!(Value::from(vec![0.0f32; 4]).size_bytes(), 16);
        assert_eq!(Value::from("abc").size_bytes(), 3);
        assert_eq!(Value::from(7i64).size_bytes(), 8);
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let t = sample();
        let keys: Vec<&str> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["value1", "value2", "count"]);
    }
}
