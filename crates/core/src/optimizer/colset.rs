//! Column sets as fixed-width bitsets.
//!
//! Block enumeration asks the same set questions for every candidate —
//! which predicates became evaluable, what must be projected, is an
//! early group-by legal — over a column universe that is fixed for the
//! whole block. [`ColUniverse`] numbers that universe once, in `Col`
//! order, so a [`ColSet`] is four machine words, every question is a
//! handful of mask operations, and iterating a set yields columns in
//! the order a `BTreeSet<Col>` would.

use crate::optimizer::bits_of;
use aggview_common::{AggViewError, Col, Result};
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

const WORDS: usize = 4;

/// A set of columns of one [`ColUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ColSet([u64; WORDS]);

impl ColSet {
    /// How many columns a universe may number.
    pub(crate) const CAPACITY: usize = WORDS * 64;

    pub(crate) fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn contains(self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    pub(crate) fn is_empty(self) -> bool {
        self.0 == [0; WORDS]
    }

    pub(crate) fn is_subset(self, of: ColSet) -> bool {
        (self & !of).is_empty()
    }

    pub(crate) fn intersects(self, other: ColSet) -> bool {
        !(self & other).is_empty()
    }

    /// Member numbers, ascending.
    pub(crate) fn iter(self) -> impl Iterator<Item = usize> + Clone {
        self.0
            .into_iter()
            .enumerate()
            .flat_map(|(w, word)| bits_of(word).map(move |i| w * 64 + i))
    }
}

impl BitOr for ColSet {
    type Output = ColSet;
    fn bitor(self, o: ColSet) -> ColSet {
        ColSet(std::array::from_fn(|w| self.0[w] | o.0[w]))
    }
}

impl BitOrAssign for ColSet {
    fn bitor_assign(&mut self, o: ColSet) {
        *self = *self | o;
    }
}

impl BitAnd for ColSet {
    type Output = ColSet;
    fn bitand(self, o: ColSet) -> ColSet {
        ColSet(std::array::from_fn(|w| self.0[w] & o.0[w]))
    }
}

impl Not for ColSet {
    type Output = ColSet;
    fn not(self) -> ColSet {
        ColSet(self.0.map(|w| !w))
    }
}

/// The columns one block can ever mention, numbered in `Col` order.
#[derive(Debug)]
pub(crate) struct ColUniverse {
    cols: Vec<Col>,
}

impl ColUniverse {
    /// Number `cols` (duplicates welcome). A universe wider than
    /// [`ColSet::CAPACITY`] is refused rather than truncated.
    pub(crate) fn new(mut cols: Vec<Col>) -> Result<ColUniverse> {
        cols.sort_unstable();
        cols.dedup();
        if cols.len() > ColSet::CAPACITY {
            return Err(AggViewError::Optimize(format!(
                "block too large for exhaustive enumeration: {} columns (limit {})",
                cols.len(),
                ColSet::CAPACITY
            )));
        }
        Ok(ColUniverse { cols })
    }

    /// The number of `c`; `None` for a column outside the universe.
    pub(crate) fn index(&self, c: Col) -> Option<usize> {
        self.cols.binary_search(&c).ok()
    }

    /// The set holding those of `cols` the universe numbers.
    pub(crate) fn set<'a>(&self, cols: impl IntoIterator<Item = &'a Col>) -> ColSet {
        let mut s = ColSet::default();
        for i in cols.into_iter().filter_map(|c| self.index(*c)) {
            s.insert(i);
        }
        s
    }

    /// Every column of the universe, in `Col` order.
    pub(crate) fn all(&self) -> &[Col] {
        &self.cols
    }

    /// The members of `set`, in `Col` order.
    pub(crate) fn cols(&self, set: ColSet) -> impl Iterator<Item = Col> + Clone + '_ {
        set.iter().map(|i| self.cols[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{RelId, ViewId};

    #[test]
    fn sets_iterate_in_col_order_across_words() {
        let cols: Vec<Col> = (0..200).rev().map(|c| Col::base(RelId(0), c)).collect();
        let mut all = cols.clone();
        all.push(Col::agg(ViewId::Top, 0));
        let uni = ColUniverse::new(all).unwrap();
        let picked = [cols[3], cols[150], cols[70], Col::agg(ViewId::Top, 0)];
        let set = uni.set(&picked);
        let mut sorted = picked.to_vec();
        sorted.sort();
        assert_eq!(uni.cols(set).collect::<Vec<_>>(), sorted);
        let has = |c| uni.index(c).is_some_and(|i| set.contains(i));
        assert!(has(cols[150]) && !has(cols[4]) && !has(Col::base(RelId(9), 0)));
    }

    #[test]
    fn mask_algebra() {
        let uni = ColUniverse::new((0..130).map(|c| Col::base(RelId(1), c)).collect()).unwrap();
        let c = |i| Col::base(RelId(1), i);
        let a = uni.set(&[c(1), c(65), c(129)]);
        let b = uni.set(&[c(65)]);
        assert!(b.is_subset(a) && !a.is_subset(b));
        assert!(a.intersects(b) && !b.intersects(uni.set(&[c(2)])));
        assert_eq!((a & !b).iter().collect::<Vec<_>>(), vec![1, 129]);
        assert_eq!(a | b, a);
        assert!(ColSet::default().is_empty() && ColSet::default().is_subset(b));
    }

    #[test]
    fn a_universe_over_capacity_is_refused() {
        let wide = |n| (0..n).map(|c| Col::base(RelId(0), c)).collect::<Vec<_>>();
        assert!(ColUniverse::new(wide(ColSet::CAPACITY)).is_ok());
        let err = ColUniverse::new(wide(ColSet::CAPACITY + 1)).unwrap_err();
        assert!(err.message().contains("block too large"), "{err}");
    }
}
