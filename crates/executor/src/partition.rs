//! Partitioned hash structures shared by the executor's kernels and
//! the materialized-view maintenance paths.
//!
//! Four pieces live here:
//!
//! * [`chunk_ranges`] — split `n` input rows into contiguous, near-equal
//!   worker chunks;
//! * [`JoinIndex`] — a hash-partitioned build-side index for hash
//!   joins: `key hash → build-row indices`, resolved to real matches by
//!   comparing the key columns themselves (hash-then-compare — no
//!   `Vec<Value>` key is ever materialized);
//! * [`AggInput`] — how one aggregate reads its per-row input (raw
//!   argument, partial-state components, or a duplicate-factor-scaled
//!   argument), shared by the columnar aggregation kernel and the
//!   row-major extent folds;
//! * [`GroupTable`] — an insertion-ordered, row-major hash-aggregation
//!   table whose groups carry [`PartialAggState`]s; extent builds and
//!   delta maintenance fold into it and coalesce a delta's groups into
//!   stored ones with [`GroupTable::merge_from`] — the physical form of
//!   the paper's simple-coalescing transformation (Section 4.2).
//!
//! All lookups key on a 64-bit hash computed in place over the key
//! columns ([`aggview_common::hash`]); candidate lists store `u32` row
//! or slot indices, so the hot loops allocate only when a *new* group or
//! output tuple is created.

use aggview_common::expr::BoundExpr;
use aggview_common::{
    hash_key, hash_values, key_matches_row, AggFunc, PartialAggState, PrehashedMap, Result, Tuple,
    Value,
};
use std::ops::Range;

/// Split `n` items into at most `parts` contiguous near-equal ranges
/// (the leading ranges are one longer when `n % parts != 0`).
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for w in 0..parts {
        let len = base + usize::from(w < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A hash-partitioned build-side index: partition `hash % nparts`, then
/// `hash → ascending build-row indices` within the partition.
///
/// With one partition this is the serial hash-join table; the parallel
/// build ([`crate::vector::build_index`]) scatters `(hash, row)` pairs
/// by partition so independent workers can each own one partition's
/// map. Candidate lists are kept in ascending build-row order regardless
/// of how the index was built, so serial and parallel joins emit matches
/// in the same order.
#[derive(Debug)]
pub struct JoinIndex {
    nparts: usize,
    parts: Vec<PrehashedMap<Vec<u32>>>,
}

impl JoinIndex {
    /// Assemble from per-partition maps (one map = the serial table).
    pub fn from_parts(parts: Vec<PrehashedMap<Vec<u32>>>) -> JoinIndex {
        JoinIndex {
            nparts: parts.len().max(1),
            parts,
        }
    }

    /// Build-row indices whose key hashed to `hash` (candidates — the
    /// caller must confirm with a key comparison).
    pub fn candidates(&self, hash: u64) -> &[u32] {
        self.parts
            .get((hash % self.nparts as u64) as usize)
            .and_then(|m| m.get(&hash))
            .map_or(&[], Vec::as_slice)
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

/// Dummy referent so component references can live in a fixed-size
/// array (max partial arity is 3) without per-row allocation.
static NO_VALUE: Value = Value::Bool(false);

impl AggInput {
    /// Absorb `row` into `state`.
    pub fn absorb(&self, state: &mut PartialAggState, row: &Tuple) -> Result<()> {
        match self {
            AggInput::Raw(e) => {
                let v = e.eval(row)?;
                state.update(Some(&v))
            }
            AggInput::RawCountStar => state.update(None),
            AggInput::Partial(comps) => {
                debug_assert!(comps.len() <= 3);
                let mut buf: [&Value; 3] = [&NO_VALUE; 3];
                for (k, &i) in comps.iter().enumerate() {
                    buf[k] = row.get(i);
                }
                state.merge_components(&buf[..comps.len()])
            }
            AggInput::Scaled(e, cnt) => {
                let n = duplicate_factor(row.get(*cnt))?;
                match e {
                    Some(e) => {
                        let v = e.eval(row)?;
                        state.update_weighted(Some(&v), n)
                    }
                    None => state.update_weighted(None, n),
                }
            }
        }
    }

    /// Absorb a row exposed through a position accessor instead of a
    /// materialized [`Tuple`] — the columnar kernels' equivalent of
    /// [`absorb`](Self::absorb), with identical update semantics.
    pub fn absorb_with(
        &self,
        state: &mut PartialAggState,
        get: &impl Fn(usize) -> Value,
    ) -> Result<()> {
        match self {
            AggInput::Raw(e) => {
                let v = e.eval_with(get)?;
                state.update(Some(&v))
            }
            AggInput::RawCountStar => state.update(None),
            AggInput::Partial(comps) => {
                debug_assert!(comps.len() <= 3);
                let mut buf: [Value; 3] =
                    [Value::Bool(false), Value::Bool(false), Value::Bool(false)];
                for (k, &i) in comps.iter().enumerate() {
                    buf[k] = get(i);
                }
                state.merge_components(&buf[..comps.len()])
            }
            AggInput::Scaled(e, cnt) => {
                let n = duplicate_factor(&get(*cnt))?;
                match e {
                    Some(e) => {
                        let v = e.eval_with(get)?;
                        state.update_weighted(Some(&v), n)
                    }
                    None => state.update_weighted(None, n),
                }
            }
        }
    }
}

/// Read a duplicate-factor count value, rejecting non-integers.
fn duplicate_factor(v: &Value) -> Result<i64> {
    v.as_i64().ok_or_else(|| {
        aggview_common::AggViewError::Exec(format!("non-integer duplicate factor {v}"))
    })
}

/// One aggregation group: its key hash, the projected key tuple, and one
/// partial state per aggregate.
#[derive(Debug)]
pub struct Group {
    pub hash: u64,
    pub key: Tuple,
    pub states: Vec<PartialAggState>,
}

/// Insertion-ordered hash-aggregation table.
///
/// `index` maps key hashes to slots in `groups`; collisions are
/// resolved by comparing the stored key tuple against the incoming
/// row's key columns. Keeping groups in a `Vec` (rather than iterating
/// a `HashMap`) makes output order deterministic: serial aggregation
/// emits groups in first-appearance order.
#[derive(Debug, Default)]
pub struct GroupTable {
    index: PrehashedMap<Vec<u32>>,
    pub groups: Vec<Group>,
}

impl GroupTable {
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    pub fn len(&self) -> usize {
        self.groups.len()
    }

    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Find (or create, with empty states for `funcs`) the group slot
    /// for `row`'s key projection. The only allocations happen on the
    /// first row of a new group.
    pub fn slot_for(&mut self, row: &Tuple, key_pos: &[usize], funcs: &[AggFunc]) -> usize {
        let hash = hash_key(row, key_pos);
        let slots = self.index.entry(hash).or_default();
        for &s in slots.iter() {
            if key_matches_row(&self.groups[s as usize].key, row, key_pos) {
                return s as usize;
            }
        }
        let slot = self.groups.len();
        slots.push(slot as u32);
        self.groups.push(Group {
            hash,
            key: row.project(key_pos),
            states: funcs.iter().map(|&f| PartialAggState::empty(f)).collect(),
        });
        slot
    }

    /// Slot of the group whose key tuple equals `key`, if present —
    /// never creates a group (the lookup half of [`slot_for`](Self::slot_for)).
    pub fn find(&self, key: &Tuple) -> Option<usize> {
        let hash = hash_values(key.values());
        self.index.get(&hash).and_then(|slots| {
            slots
                .iter()
                .find(|&&s| self.groups[s as usize].key == *key)
                .map(|&s| s as usize)
        })
    }

    /// Accumulate one row: route to its group and absorb it into every
    /// aggregate state.
    pub fn accumulate(
        &mut self,
        row: &Tuple,
        key_pos: &[usize],
        inputs: &[AggInput],
        funcs: &[AggFunc],
    ) -> Result<()> {
        let slot = self.slot_for(row, key_pos, funcs);
        let states = &mut self.groups[slot].states;
        for (state, input) in states.iter_mut().zip(inputs) {
            input.absorb(state, row)?;
        }
        Ok(())
    }

    /// Coalesce every group of `other` into `self` — the global merge of
    /// two-phase parallel aggregation. Groups new to `self` keep their
    /// first-appearance order within `other`.
    pub fn merge_from(&mut self, other: GroupTable) -> Result<()> {
        for g in other.groups {
            let slots = self.index.entry(g.hash).or_default();
            let existing = slots
                .iter()
                .find(|&&s| self.groups[s as usize].key == g.key)
                .copied();
            match existing {
                Some(s) => {
                    let states = &mut self.groups[s as usize].states;
                    for (mine, theirs) in states.iter_mut().zip(&g.states) {
                        mine.merge(theirs)?;
                    }
                }
                None => {
                    slots.push(self.groups.len() as u32);
                    self.groups.push(g);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::tuple;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 17, 100] {
            for parts in [1usize, 2, 3, 8] {
                let ranges = chunk_ranges(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                // Contiguous and in order.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert!(ranges.len() <= parts);
            }
        }
    }

    #[test]
    fn group_table_accumulates_and_merges_like_one_pass() {
        let rows: Vec<Tuple> = (0..100).map(|i| tuple![(i % 7) as i64, i as i64]).collect();
        let funcs = [AggFunc::Count, AggFunc::Sum];
        let inputs = [
            AggInput::RawCountStar,
            AggInput::Raw(
                aggview_common::Expr::col(aggview_common::Col::base(aggview_common::RelId(0), 1))
                    .bind(&|c| match c {
                        aggview_common::Col::Base(b) => Some(b.col as usize),
                        _ => None,
                    })
                    .unwrap(),
            ),
        ];

        // One pass.
        let mut one = GroupTable::new();
        for r in &rows {
            one.accumulate(r, &[0], &inputs, &funcs).unwrap();
        }

        // Two halves merged.
        let mut a = GroupTable::new();
        let mut b = GroupTable::new();
        for r in &rows[..41] {
            a.accumulate(r, &[0], &inputs, &funcs).unwrap();
        }
        for r in &rows[41..] {
            b.accumulate(r, &[0], &inputs, &funcs).unwrap();
        }
        a.merge_from(b).unwrap();

        assert_eq!(one.len(), 7);
        assert_eq!(a.len(), 7);
        for g in &one.groups {
            let other = a.groups.iter().find(|x| x.key == g.key).unwrap();
            for (x, y) in g.states.iter().zip(&other.states) {
                assert_eq!(x.finalize().unwrap(), y.finalize().unwrap());
            }
        }
    }

    #[test]
    fn partial_input_absorbs_components_without_alloc_per_row() {
        // AVG partial components at positions [1, 2] of the row.
        let mut state = PartialAggState::empty(AggFunc::Avg);
        let row = tuple![0i64, 10.0f64, 2i64]; // sum=10, count=2
        AggInput::Partial(vec![1, 2])
            .absorb(&mut state, &row)
            .unwrap();
        AggInput::Partial(vec![1, 2])
            .absorb(&mut state, &row)
            .unwrap();
        assert_eq!(state.finalize().unwrap(), Value::Float(5.0));
    }
}
