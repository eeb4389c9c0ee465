//! Runtime tuples.

use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// A runtime row: a fixed-arity sequence of values.
///
/// Tuples are the unit of data flow between executor operators. They are
/// deliberately simple — positional access only; column-name resolution
/// happens once, at plan-build time, producing positional indexes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple {
    /// Boxed, not a `Vec`: a stored row never grows, and the capacity
    /// word would cost 8 bytes on every row of every table.
    values: Box<[Value]>,
}

impl Tuple {
    /// Construct from values (no copy when `values` is at capacity).
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple {
            values: values.into_boxed_slice(),
        }
    }

    /// Arity of the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The values in order, for rewriting in place.
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Consume and return the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.into_vec()
    }

    /// Concatenate two tuples (used by join operators).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple::new(values)
    }

    /// Project positions `idxs` into a new tuple.
    pub fn project(&self, idxs: &[usize]) -> Tuple {
        Tuple {
            values: idxs.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Total byte width of the tuple under the page/IO model.
    pub fn width(&self) -> usize {
        self.values.iter().map(Value::width).sum()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Tuple {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            v.fmt(f)?;
        }
        write!(f, "]")
    }
}

/// Build a tuple from literal-ish values: `tuple![1i64, 2.5, "x"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_preserves_order() {
        let a = tuple![1i64, "x"];
        let b = tuple![true];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c[0], Value::Int(1));
        assert_eq!(c[2], Value::Bool(true));
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let t = tuple![10i64, 20i64, 30i64];
        let p = t.project(&[2, 0, 0]);
        assert_eq!(p, tuple![30i64, 10i64, 10i64]);
    }

    #[test]
    fn width_sums_value_widths() {
        assert_eq!(tuple![1i64, "abc"].width(), 11);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1i64, "a"].to_string(), "[1, a]");
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = (0..3).map(Value::Int).collect();
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn tuples_order_lexicographically() {
        let mut v = [tuple![2i64, 1i64], tuple![1i64, 9i64], tuple![1i64, 2i64]];
        v.sort();
        assert_eq!(v[0], tuple![1i64, 2i64]);
        assert_eq!(v[2], tuple![2i64, 1i64]);
    }
}
