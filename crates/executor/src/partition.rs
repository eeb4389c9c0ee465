//! Hash structures shared by the executor's kernels.
//!
//! Three pieces live here:
//!
//! * [`JoinIndex`] — the flat build-side index of hash joins: `key
//!   hash → build-row indices`, resolved to real matches by comparing
//!   the key columns themselves (hash-then-compare — no `Vec<Value>` key
//!   is ever materialized), over the directory rule [`dir_index`] that
//!   the group table shares;
//! * [`Ordinals`], [`dir_cells`] — the ordinal rule both directories
//!   share: a one-column key of small integers whose range fits the
//!   cells a hashed directory would take is the cell itself, and then
//!   nothing is hashed or compared;
//! * [`AggInput`] — how one aggregate reads its per-row input (raw
//!   argument, partial-state components, or a duplicate-factor-scaled
//!   argument), resolved by the columnar aggregation kernel into typed
//!   accumulators.
//!
//! Every lookup keys on a 64-bit hash computed in place over the key
//! columns ([`aggview_common::hash`]); candidate lists store `u32` row
//! or slot indices, so the hot loops allocate only when a *new* group or
//! output tuple is created.

use aggview_common::expr::BoundExpr;
use aggview_common::ColumnVec;
use std::ops::Range;

/// Home cell of `hash` in a directory of `1 << bits` cells (`bits` in
/// `1..64`): the top `bits` bits. The fx chain ends in a multiply, which
/// pushes a key's entropy towards the high end of the word — the low
/// bits of hashed small integers barely differ. The one rule for every
/// directory in the executor, [`JoinIndex`] and the group table alike.
#[inline]
pub fn dir_index(hash: u64, bits: u32) -> usize {
    (hash >> (64 - bits)) as usize
}

/// Cells of a hashed directory over `n` keys: a power of two with at
/// least two cells per key, so probe chains stay short. [`JoinIndex`]
/// allocates exactly this many; the group table's directory grows
/// towards it. It is also the one bound of the *ordinal rule*: a key
/// column of small integers ([`Ordinals`]) whose value range needs no
/// more cells than this is addressed directly, `value - min` being the
/// cell — no hash, no probe chain, no key comparison.
pub fn dir_cells(n: usize) -> usize {
    (n * 2).next_power_of_two().max(16)
}

/// A key column whose values are small integers: an `Int` column's
/// values, or a string column's dictionary codes (equal codes are equal
/// strings under one dictionary, so the code can stand for the key).
#[derive(Clone, Copy)]
pub enum Ordinals<'a> {
    Int(&'a [i64]),
    Code(&'a [u32]),
}

impl<'a> Ordinals<'a> {
    pub fn of(col: &'a ColumnVec) -> Option<Ordinals<'a>> {
        match col {
            ColumnVec::Int(xs) => Some(Ordinals::Int(xs)),
            ColumnVec::Str(xs) => Some(Ordinals::Code(xs.codes())),
            _ => None,
        }
    }

    /// The key columns of a one-column equi-join, when one ordinal on
    /// both sides means one key: two `Int` columns, or two string columns
    /// over the same dictionary.
    pub fn pair(build: &'a ColumnVec, probe: &'a ColumnVec) -> Option<(Self, Self)> {
        match (build, probe) {
            (ColumnVec::Int(b), ColumnVec::Int(p)) => Some((Ordinals::Int(b), Ordinals::Int(p))),
            (ColumnVec::Str(b), ColumnVec::Str(p)) if b.same_dict(p) => {
                Some((Ordinals::Code(b.codes()), Ordinals::Code(p.codes())))
            }
            _ => None,
        }
    }

    #[inline]
    pub fn at(&self, i: usize) -> i64 {
        match self {
            Ordinals::Int(xs) => xs[i],
            Ordinals::Code(xs) => i64::from(xs[i]),
        }
    }

    /// The smallest ordinal of rows `range` and how many cells a flat
    /// array from it to the largest takes — when that is at most
    /// `max_cells` (one pass over the rows; `None` for an empty range
    /// or a span past the bound, `i64` overflow included).
    pub fn span(&self, range: Range<usize>, max_cells: usize) -> Option<(i64, usize)> {
        fn min_max<T: Copy + Ord>(xs: &[T]) -> Option<(T, T)> {
            let first = *xs.first()?;
            Some(
                xs.iter()
                    .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x))),
            )
        }
        let (lo, hi) = match self {
            Ordinals::Int(xs) => min_max(&xs[range])?,
            Ordinals::Code(xs) => {
                let (lo, hi) = min_max(&xs[range])?;
                (i64::from(lo), i64::from(hi))
            }
        };
        let cells = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
        (cells <= max_cells).then_some((lo, cells))
    }
}

/// Cell of `ordinal` in a flat array that starts at `min`; out of range
/// (either side) comes back as an index no array holds.
#[inline]
pub fn ordinal_cell(ordinal: i64, min: i64) -> usize {
    // A value below `min` wraps to the far end of `u64`.
    usize::try_from(ordinal.wrapping_sub(min) as u64).unwrap_or(usize::MAX)
}

/// The build side of a hash join as flat arrays: `buckets[cell]` heads
/// the chain of build rows homed in `cell` and `next[row]` links to the
/// following row of that chain. Links are `row + 1`, `0` ends a chain.
///
/// What a cell is depends on the key. In general it is [`dir_index`] of
/// the key hash, over [`dir_cells`] cells, and `hashes[row]` tells rows
/// of other keys sharing the cell apart without touching the key
/// columns. Under the ordinal rule the cell is the key itself
/// ([`ordinal_cell`]): a chain then holds the rows of exactly one key,
/// and nothing is hashed or compared.
///
/// Every chain ascends by build row, so a probe row meets its matches
/// in build order whatever the addressing.
#[derive(Debug)]
pub struct JoinIndex {
    buckets: Vec<u32>,
    next: Vec<u32>,
    addressing: Addressing,
}

#[derive(Debug)]
enum Addressing {
    Hashed {
        bits: u32,
        hashes: Vec<u64>,
    },
    /// `buckets[ordinal - min]`.
    Direct {
        min: i64,
    },
}

impl JoinIndex {
    /// Link build rows `0..n` into the chains `cell_of` homes them in,
    /// from the last row to the first, each at the head of its chain —
    /// which is what leaves the chains ascending.
    fn link(cells: usize, n: usize, cell_of: impl Fn(usize) -> usize) -> (Vec<u32>, Vec<u32>) {
        let mut buckets = vec![0u32; cells];
        let mut next = vec![0u32; n];
        for row in (0..n).rev() {
            let head = &mut buckets[cell_of(row)];
            next[row] = *head;
            *head = row as u32 + 1;
        }
        (buckets, next)
    }

    /// Index build rows `0..hashes.len()` by their key hashes.
    pub fn new(hashes: Vec<u64>) -> JoinIndex {
        let cells = dir_cells(hashes.len());
        let bits = cells.trailing_zeros();
        let (buckets, next) = Self::link(cells, hashes.len(), |row| dir_index(hashes[row], bits));
        JoinIndex {
            buckets,
            next,
            addressing: Addressing::Hashed { bits, hashes },
        }
    }

    /// Index build rows `0..n` directly by their key ordinals, when the
    /// ordinal rule admits them: the range fits the cells
    /// [`new`](Self::new) would allocate for as many rows.
    pub fn direct(keys: Ordinals<'_>, n: usize) -> Option<JoinIndex> {
        let (min, cells) = keys.span(0..n, dir_cells(n))?;
        let (buckets, next) = Self::link(cells, n, |row| ordinal_cell(keys.at(row), min));
        Some(JoinIndex {
            buckets,
            next,
            addressing: Addressing::Direct { min },
        })
    }

    /// Bytes the index holds while its join probes.
    pub fn bytes(&self) -> u64 {
        let hashes = match &self.addressing {
            Addressing::Hashed { hashes, .. } => hashes.len(),
            Addressing::Direct { .. } => 0,
        };
        (4 * (self.buckets.len() + self.next.len()) + 8 * hashes) as u64
    }

    /// Whether probes address this index by key ordinal
    /// ([`matches`](Self::matches)) rather than by hash
    /// ([`chain`](Self::chain)).
    pub fn is_direct(&self) -> bool {
        matches!(self.addressing, Addressing::Direct { .. })
    }

    fn walk(&self, mut at: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::from_fn(move || {
            let row = at.checked_sub(1)?;
            at = self.next[row as usize];
            Some(row)
        })
    }

    /// The build rows homed in `hash`'s cell, ascending — candidates
    /// only. Rows of other hashes share the cell, and equal hashes do not
    /// make equal keys: skip the first kind with
    /// [`hash_of`](Self::hash_of) (or, where that is as cheap, by the
    /// key itself) and always confirm with a key comparison. Empty on a
    /// direct index.
    pub fn chain(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let head = match &self.addressing {
            Addressing::Hashed { bits, .. } => self.buckets[dir_index(hash, *bits)],
            Addressing::Direct { .. } => 0,
        };
        self.walk(head)
    }

    /// The build rows whose key ordinal is `ordinal`, ascending — all of
    /// them and nothing else. Empty on a hashed index.
    pub fn matches(&self, ordinal: i64) -> impl Iterator<Item = u32> + '_ {
        self.walk(self.head(ordinal))
    }

    /// Link (`row + 1`; `0`: none) to the first build row whose key
    /// ordinal is `ordinal`, and from build row `row` to the next of its
    /// key: [`matches`](Self::matches) in two steps, for a probe loop that
    /// must not branch on whether a row has a match. `0` on a hashed
    /// index.
    #[inline]
    pub fn head(&self, ordinal: i64) -> u32 {
        match &self.addressing {
            Addressing::Direct { min } => {
                let cell = ordinal_cell(ordinal, *min);
                self.buckets.get(cell).copied().unwrap_or(0)
            }
            Addressing::Hashed { .. } => 0,
        }
    }

    #[inline]
    pub fn after(&self, row: u32) -> u32 {
        self.next[row as usize]
    }

    /// The key hash build row `row` was indexed under (`0` on a direct
    /// index, which keeps none).
    pub fn hash_of(&self, row: u32) -> u64 {
        match &self.addressing {
            Addressing::Hashed { hashes, .. } => hashes[row as usize],
            Addressing::Direct { .. } => 0,
        }
    }
}

/// How one aggregate reads its per-row input: a raw expression, the
/// implicit COUNT(*) row count, or partial-state components produced by
/// a lower partial group-by (the coalescing input shape).
#[derive(Debug)]
pub enum AggInput {
    Raw(BoundExpr),
    RawCountStar,
    /// Positions of the partial-state component columns in the input
    /// layout, in component order.
    Partial(Vec<usize>),
    /// Duplicate-factor compensation for eager aggregation: each input
    /// row stands for the count held at the given position (the partner
    /// side's per-group count column), so the argument — `None` for
    /// COUNT(*) — is absorbed with that weight.
    Scaled(Option<BoundExpr>, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{tuple, AggFunc, AggViewError, Batch, PartialAggState, Result, Value};
    use std::sync::Arc;

    impl AggInput {
        /// Absorb one row, exposed through a position accessor, into
        /// `state`: the `Value` fold the typed accumulators are checked
        /// against.
        pub(crate) fn absorb_with(
            &self,
            state: &mut PartialAggState,
            get: &impl Fn(usize) -> Value,
        ) -> Result<()> {
            match self {
                AggInput::Raw(e) => state.update(Some(&e.eval_with(get)?)),
                AggInput::RawCountStar => state.update(None),
                AggInput::Partial(comps) => {
                    let mut buf = [Value::Bool(false), Value::Bool(false), Value::Bool(false)];
                    for (k, &i) in comps.iter().enumerate() {
                        buf[k] = get(i);
                    }
                    state.merge_components(&buf[..comps.len()])
                }
                AggInput::Scaled(e, cnt) => {
                    let v = get(*cnt);
                    let n = v.as_i64().ok_or_else(|| {
                        AggViewError::Exec(format!("non-integer duplicate factor {v}"))
                    })?;
                    let arg = e.as_ref().map(|e| e.eval_with(get)).transpose()?;
                    state.update_weighted(arg.as_ref(), n)
                }
            }
        }
    }

    /// The directory rule against the key families joins and group-bys
    /// actually see. A uniform hash would occupy 83% as many cells as
    /// there are keys; the fx chain keeps its entropy in the high bits,
    /// and an index taken from the low ones fell to 50% with chains of 12.
    #[test]
    fn dir_index_spreads_hashed_keys_over_the_directory() {
        const N: usize = 12_500;
        const BITS: u32 = 15;
        let ints = |f: fn(i64) -> i64| ColumnVec::Int((0..N as i64).map(f).collect());
        let families = [
            ("Int i", ints(|i| i)),
            ("Int 1000i + 7", ints(|i| 1000 * i + 7)),
            (
                "Float 12.5i + 0.5",
                ColumnVec::Float((0..N).map(|i| 12.5 * i as f64 + 0.5).collect()),
            ),
            (
                "Str",
                ColumnVec::Str((0..N).map(|i| Arc::from(format!("key-{i}"))).collect()),
            ),
        ];
        for (family, keys) in families {
            let mut hashes = Vec::new();
            Batch::new(vec![keys]).hash_rows(&[0], 0..N, &mut hashes);
            let mut per_cell = vec![0usize; 1 << BITS];
            for &h in &hashes {
                per_cell[dir_index(h, BITS)] += 1;
            }
            let occupied = per_cell.iter().filter(|&&n| n > 0).count();
            let longest = per_cell.iter().copied().max().unwrap_or(0);
            assert!(
                occupied * 10 >= N * 8,
                "{family}: {N} keys on only {occupied} home cells"
            );
            assert!(longest <= 6, "{family}: a chain of {longest}");
            // The join index sizes itself to this directory and homes
            // its rows by the same rule.
            let index = JoinIndex::new(hashes.clone());
            for &h in &hashes {
                assert_eq!(index.chain(h).count(), per_cell[dir_index(h, BITS)]);
            }
        }
    }

    #[test]
    fn join_index_chains_ascend_and_hold_every_row_of_their_hash() {
        // Seven distinct hashes over 500 rows, spread over the directory.
        let hashes: Vec<u64> = (0..500u64)
            .map(|i| (i % 7).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let index = JoinIndex::new(hashes.clone());
        for (row, &h) in hashes.iter().enumerate() {
            let chain: Vec<u32> = index.chain(h).collect();
            assert!(chain.windows(2).all(|w| w[0] < w[1]), "chains ascend");
            let same_hash: Vec<u32> = chain
                .into_iter()
                .filter(|&r| index.hash_of(r) == h)
                .collect();
            let expect: Vec<u32> = (0..500u32).filter(|&r| hashes[r as usize] == h).collect();
            assert_eq!(same_hash, expect);
            assert!(expect.contains(&(row as u32)));
        }
        assert_eq!(JoinIndex::new(Vec::new()).chain(42).count(), 0);
    }

    #[test]
    fn ordinal_rule_admits_ranges_the_hashed_directory_would_cover() {
        let ints = |xs: &[i64]| ColumnVec::Int(xs.to_vec());
        let span = |col: &ColumnVec, n: usize| Ordinals::of(col).unwrap().span(0..n, dir_cells(n));
        // 100 rows may address up to dir_cells(100) = 256 cells.
        let mut xs: Vec<i64> = (0..100).collect();
        assert_eq!(span(&ints(&xs), 100), Some((0, 100)));
        xs[7] = -155;
        assert_eq!(span(&ints(&xs), 100), Some((-155, 255)));
        xs[7] = -156;
        assert_eq!(span(&ints(&xs), 100), Some((-156, 256)));
        xs[7] = -157;
        assert_eq!(span(&ints(&xs), 100), None, "257 cells for 100 rows");
        // Overflowing ranges are refused, not wrapped; no row, no range.
        assert_eq!(span(&ints(&[i64::MIN, i64::MAX]), 2), None);
        assert_eq!(
            span(&ints(&[i64::MAX, i64::MAX - 3]), 2),
            Some((i64::MAX - 3, 4))
        );
        assert_eq!(span(&ints(&[]), 0), None);
        // Codes count from the smallest one present.
        let strs: ColumnVec = ColumnVec::Str(
            ["a", "b", "c", "b", "c"]
                .iter()
                .map(|&s| Arc::from(s))
                .collect(),
        );
        assert_eq!(Ordinals::of(&strs).unwrap().span(2..5, 16), Some((1, 2)));
        assert!(Ordinals::of(&ColumnVec::Float(vec![1.0])).is_none());
        // Out-of-range ordinals land in no cell, on either side.
        assert_eq!(ordinal_cell(5, 5), 0);
        assert_eq!(ordinal_cell(4, 5), usize::MAX);
        assert_eq!(ordinal_cell(i64::MAX, i64::MIN), usize::MAX);
        assert_eq!(ordinal_cell(i64::MIN, i64::MAX), 1);
    }

    #[test]
    fn direct_index_chains_hold_exactly_the_rows_of_their_key() {
        let keys: Vec<i64> = (0..300).map(|i| (i * 7) % 13 - 6).collect();
        let col = ColumnVec::Int(keys.clone());
        let index = JoinIndex::direct(Ordinals::of(&col).unwrap(), keys.len()).unwrap();
        assert!(index.is_direct());
        for k in -8..9 {
            let got: Vec<u32> = index.matches(k).collect();
            let want: Vec<u32> = (0..300u32).filter(|&r| keys[r as usize] == k).collect();
            assert_eq!(got, want, "key {k}");
        }
        assert_eq!(index.matches(i64::MIN).count(), 0);
        assert_eq!(index.matches(i64::MAX).count(), 0);
        assert_eq!(index.chain(0).count(), 0, "nothing is hashed");
        // A sparse key column stays hashed; so does an empty build side.
        let sparse = ColumnVec::Int(vec![0, 1_000_000]);
        assert!(JoinIndex::direct(Ordinals::of(&sparse).unwrap(), 2).is_none());
        assert!(JoinIndex::direct(Ordinals::of(&col).unwrap(), 0).is_none());
        assert!(!JoinIndex::new(vec![1, 2, 3]).is_direct());
        assert_eq!(JoinIndex::new(vec![1, 2, 3]).matches(1).count(), 0);
    }

    #[test]
    fn partial_input_absorbs_components_without_alloc_per_row() {
        // AVG partial components at positions [1, 2] of the row.
        let mut state = PartialAggState::empty(AggFunc::Avg);
        let row = tuple![0i64, 10.0f64, 2i64]; // sum=10, count=2
        let get = |i: usize| row.get(i).clone();
        AggInput::Partial(vec![1, 2])
            .absorb_with(&mut state, &get)
            .unwrap();
        AggInput::Partial(vec![1, 2])
            .absorb_with(&mut state, &get)
            .unwrap();
        assert_eq!(state.finalize().unwrap(), Value::Float(5.0));
    }
}
