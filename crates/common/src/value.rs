//! Scalar values and their types.
//!
//! The paper (Section 2) assumes a database without NULLs, so [`Value`]
//! has no null variant; executor operators and the binder enforce this.
//! Floats use a *total order* (`f64::total_cmp`) so values can serve as
//! grouping keys in hash tables and sort keys in sort-based operators.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The scalar types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float with total ordering.
    Float,
    /// Immutable UTF-8 string (cheaply clonable).
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Whether the type participates in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A scalar runtime value.
///
/// `Str` uses `Arc<str>` so that tuples — which are cloned freely by join
/// operators — stay cheap to copy.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Bool(bool),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view of the value, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory/page width of this value in bytes, used by
    /// the IO accounting layer.
    pub fn width(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len().max(1),
            Value::Bool(_) => 1,
        }
    }

    /// Compare two values of possibly different numeric types.
    ///
    /// Int and Float compare numerically; other cross-type comparisons
    /// return `None`.
    pub fn try_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.try_cmp(other) == Some(Ordering::Equal)
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: cross-type comparisons fall back to ordering by type
    /// tag so that heterogeneous collections can still be sorted
    /// deterministically (used by result-set comparison in tests).
    fn cmp(&self, other: &Self) -> Ordering {
        self.try_cmp(other)
            .unwrap_or_else(|| self.type_rank().cmp(&other.type_rank()))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Int and Float that compare equal must hash equally: hash every
        // numeric through its f64 bit pattern.
        match self {
            Value::Int(i) => {
                state.write_u8(0);
                state.write_u64((*i as f64).to_bits());
            }
            Value::Float(f) => {
                state.write_u8(0);
                state.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(1);
                s.hash(state);
            }
            Value::Bool(b) => {
                state.write_u8(2);
                b.hash(state);
            }
        }
    }
}

impl Value {
    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) | Value::Float(_) => 0,
            Value::Str(_) => 1,
            Value::Bool(_) => 2,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_equality_is_numeric() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn equal_values_hash_equally_across_types() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Float(42.0)));
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let mut vs = [
            Value::str("b"),
            Value::Int(2),
            Value::Bool(true),
            Value::Float(1.5),
            Value::str("a"),
            Value::Int(1),
        ];
        vs.sort();
        // Numerics first (1, 1.5, 2), then strings, then bools.
        assert_eq!(vs[0], Value::Int(1));
        assert_eq!(vs[1], Value::Float(1.5));
        assert_eq!(vs[2], Value::Int(2));
        assert_eq!(vs[3], Value::str("a"));
        assert_eq!(vs[4], Value::str("b"));
        assert_eq!(vs[5], Value::Bool(true));
    }

    #[test]
    fn cross_type_cmp_returns_none() {
        assert_eq!(Value::Int(1).try_cmp(&Value::str("1")), None);
        assert_eq!(Value::Bool(true).try_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn widths() {
        assert_eq!(Value::Int(7).width(), 8);
        assert_eq!(Value::str("abcd").width(), 4);
        assert_eq!(Value::Bool(false).width(), 1);
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(DataType::Float.to_string(), "FLOAT");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::str("x"));
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(4.5).as_f64(), Some(4.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Int(4).as_i64(), Some(4));
        assert_eq!(Value::Float(4.5).as_i64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("s").as_str(), Some("s"));
    }
}
