//! Relation schemas.

use crate::error::{AggViewError, Result};
use crate::value::DataType;
use std::fmt;

/// A named, typed column of a base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (unique within a schema, case-insensitive).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, ty: DataType) -> Field {
        Field {
            name: name.into(),
            ty,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.ty)
    }
}

/// An ordered list of fields describing a base table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema, validating that column names are unique
    /// (case-insensitively, following SQL identifier semantics).
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            for g in &fields[..i] {
                if f.name.eq_ignore_ascii_case(&g.name) {
                    return Err(AggViewError::Schema(format!(
                        "duplicate column name `{}`",
                        f.name
                    )));
                }
            }
        }
        Ok(Schema { fields })
    }

    /// Convenience constructor from `(name, type)` pairs; panics on
    /// duplicate names (intended for statically-known schemas in tests and
    /// generators).
    pub fn of(cols: &[(&str, DataType)]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("static schema must have unique column names")
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at ordinal `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Ordinal of the column named `name` (case-insensitive).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Like [`Schema::index_of`] but returns a bind error naming the
    /// missing column.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| AggViewError::Bind(format!("unknown column `{name}`")))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            field.fmt(f)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> Schema {
        Schema::of(&[
            ("eno", DataType::Int),
            ("name", DataType::Str),
            ("dno", DataType::Int),
            ("sal", DataType::Float),
            ("age", DataType::Int),
        ])
    }

    #[test]
    fn index_lookup_is_case_insensitive() {
        let s = emp();
        assert_eq!(s.index_of("SAL"), Some(3));
        assert_eq!(s.index_of("Sal"), Some(3));
        assert_eq!(s.index_of("salary"), None);
    }

    #[test]
    fn resolve_errors_name_the_column() {
        let err = emp().resolve("bogus").unwrap_err();
        assert_eq!(err.kind(), "bind");
        assert!(err.message().contains("bogus"));
    }

    #[test]
    fn duplicate_names_rejected_case_insensitively() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("A", DataType::Float),
        ])
        .unwrap_err();
        assert_eq!(err.kind(), "schema");
    }

    #[test]
    fn display_lists_fields() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Bool)]);
        assert_eq!(s.to_string(), "(a INT, b BOOL)");
    }

    #[test]
    fn empty_schema() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
