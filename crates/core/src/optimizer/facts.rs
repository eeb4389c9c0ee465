//! What the optimizer asks of a predicate — its relations, operands,
//! aggregates and `a = b` sides — answered once per statement, so every
//! W candidate, view block, outer combination and block context reads a
//! mask or a slice instead of building sets.

use aggview_common::{Col, Predicate, ViewId};

/// A predicate with its answers.
#[derive(Debug, Clone)]
pub(crate) struct PredFacts {
    pub(crate) pred: Predicate,
    /// The relations its base operands belong to, as a bitset; aggregate
    /// and partial-state operands add none.
    pub(crate) rels: u64,
    /// Its operands, in `Col` order, each once.
    pub(crate) cols: Vec<Col>,
    /// The owners of the aggregate outputs it reads, each once.
    pub(crate) aggs: Vec<ViewId>,
    /// Its two sides, when it is a bare `a = b`.
    pub(crate) eq: Option<(Col, Col)>,
}

impl PredFacts {
    pub(crate) fn new(pred: &Predicate) -> PredFacts {
        let mut cols = Vec::new();
        pred.for_each_col(&mut |c| cols.push(c));
        cols.sort_unstable();
        cols.dedup();
        let rels = rel_mask(&cols);
        let mut aggs: Vec<ViewId> = cols
            .iter()
            .filter_map(|c| Some(c.as_agg()?.owner))
            .collect();
        aggs.dedup();
        PredFacts {
            eq: pred.as_col_eq_col(),
            pred: pred.clone(),
            rels,
            cols,
            aggs,
        }
    }

    /// Does it read exactly one relation and no aggregate: a scan filter?
    pub(crate) fn is_filter(&self) -> bool {
        self.rels.count_ones() == 1 && self.aggs.is_empty()
    }
}

/// The relations the base columns among `cols` belong to, as a bitset.
pub(crate) fn rel_mask<'a>(cols: impl IntoIterator<Item = &'a Col>) -> u64 {
    cols.into_iter()
        .filter_map(Col::as_base)
        .fold(0, |m, b| m | b.rel.bit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{AggRef, BinaryOp, CmpOp, Expr, RelId, Value};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One operand per code: a base column of one of four relations, an
    /// aggregate output or a partial state of one of three views or of
    /// the top group-by, or a constant.
    fn leaf(c: u32) -> Expr {
        let owner = c / 4 % 4;
        let view = if owner == 3 {
            ViewId::Top
        } else {
            ViewId::View(owner)
        };
        let i = (c / 16 % 3) as usize;
        match c % 4 {
            0 => Expr::col(Col::base(RelId(owner), i)),
            1 => Expr::col(Col::agg(view, i)),
            2 => Expr::col(Col::part(AggRef::new(view, i), 0)),
            _ => Expr::val(Value::Int(c as i64)),
        }
    }

    /// The operands of `codes` under arithmetic, left to right.
    fn expr(codes: &[u32]) -> Expr {
        let ops = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div];
        let first = leaf(codes[0]);
        codes[1..]
            .iter()
            .fold(first, |e, &c| e.binary(ops[(c % 4) as usize], leaf(c / 4)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The answers equal what the set-building helpers say, and an
        /// aggregate or partial-state operand adds no relation.
        #[test]
        fn facts_agree_with_the_set_helpers(
            l in proptest::collection::vec(0u32..4096, 1..4),
            r in proptest::collection::vec(0u32..4096, 1..4),
            op in 0usize..2,
        ) {
            let p = Predicate::new(expr(&l), [CmpOp::Eq, CmpOp::Lt][op], expr(&r));
            let f = PredFacts::new(&p);
            let cols = p.cols_used();
            prop_assert!(f.cols.iter().copied().eq(cols.iter().copied()));
            let rels: BTreeSet<RelId> = cols.iter().filter_map(|c| Some(c.as_base()?.rel)).collect();
            prop_assert_eq!(f.rels, rels.iter().fold(0, |m, r| m | r.bit()));
            let base: u64 = cols
                .iter()
                .filter(|c| !c.is_agg() && !c.is_part())
                .fold(0, |m, c| m | c.as_base().map_or(0, |b| b.rel.bit()));
            prop_assert_eq!(f.rels, base);
            let owners: BTreeSet<ViewId> = cols.iter().filter_map(|c| Some(c.as_agg()?.owner)).collect();
            prop_assert!(f.aggs.iter().copied().eq(owners.iter().copied()));
            prop_assert_eq!(f.aggs.is_empty(), !p.uses_agg());
            prop_assert_eq!(f.eq, p.as_col_eq_col());
            prop_assert_eq!(f.is_filter(), rels.len() == 1 && !p.uses_agg());
        }
    }
}
