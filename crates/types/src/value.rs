//! Dynamically typed cell values.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{LinkageError, Result};

/// A single cell value inside a [`crate::Record`].
///
/// String payloads are stored behind an [`Arc<str>`] because the symmetric
/// hash joins keep every scanned tuple resident in memory for the lifetime of
/// the join (paper §2.3); cloning a record must therefore not duplicate the
/// string heap data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL-style NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (shared).
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn string(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Human-readable name of the runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }

    /// View the value as a string slice.
    ///
    /// Join attributes in the linkage pipeline are always strings; operators
    /// call this and propagate a typed error when the schema lied.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(LinkageError::Type {
                expected: "string",
                found: other.type_name(),
            }),
        }
    }

    /// View the value as an integer.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(LinkageError::Type {
                expected: "integer",
                found: other.type_name(),
            }),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            // Floats are compared by total order so that Value can be used as
            // a join key without NaN poisoning equality.
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::string(value)
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::Str(Arc::from(value.as_str()))
    }
}

impl From<i64> for Value {
    fn from(value: i64) -> Self {
        Value::Int(value)
    }
}

impl From<f64> for Value {
    fn from(value: f64) -> Self {
        Value::Float(value)
    }
}

impl From<bool> for Value {
    fn from(value: bool) -> Self {
        Value::Bool(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn string_values_share_storage_on_clone() {
        let v = Value::string("TAA BZ SANTA CRISTINA VALGARDENA");
        let w = v.clone();
        match (&v, &w) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected string values"),
        }
    }

    #[test]
    fn accessors_enforce_types() {
        let s = Value::string("abc");
        assert_eq!(s.as_str().unwrap(), "abc");
        assert!(s.as_int().is_err());

        let i = Value::Int(7);
        assert_eq!(i.as_int().unwrap(), 7);
        assert!(i.as_str().is_err());

        let err = Value::Null.as_str().unwrap_err();
        assert_eq!(
            err,
            LinkageError::Type {
                expected: "string",
                found: "null"
            }
        );
    }

    #[test]
    fn float_equality_uses_total_order() {
        let nan_a = Value::Float(f64::NAN);
        let nan_b = Value::Float(f64::NAN);
        assert_eq!(nan_a, nan_b);
        assert_eq!(hash_of(&nan_a), hash_of(&nan_b));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn equality_distinguishes_types() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::Null, Value::Bool(false));
    }

    #[test]
    fn ordering_is_total_and_groups_by_type() {
        let mut values = [
            Value::string("b"),
            Value::Int(10),
            Value::Null,
            Value::Float(2.5),
            Value::string("a"),
            Value::Bool(true),
        ];
        values.sort();
        assert_eq!(values[0], Value::Null);
        assert_eq!(values[1], Value::Bool(true));
        assert_eq!(values[2], Value::Int(10));
        assert_eq!(values[3], Value::Float(2.5));
        assert_eq!(values[4], Value::string("a"));
        assert_eq!(values[5], Value::string("b"));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::string("x y").to_string(), "x y");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from("s"), Value::string("s"));
        assert_eq!(Value::from(String::from("s")), Value::string("s"));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(0.5f64), Value::Float(0.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn clone_round_trip_shares_string_payload() {
        // The serde round-trip test is parked until the offline serde shim is
        // replaced by the real crate (see vendor/README.md); cloning is the
        // operation the join hot path actually relies on.
        let v = Value::string("CAL CS ACRI");
        let back = v.clone();
        assert_eq!(v, back);
        match (&v, &back) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }
}
