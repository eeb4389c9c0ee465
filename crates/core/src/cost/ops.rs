//! Page-IO charging formulas for physical operators.
//!
//! Conventions:
//!
//! * Inputs to an operator are *pipelined*: producing them is charged by
//!   the producer, so each formula charges only the **extra** IO the
//!   operator itself incurs (temp-file writes/reads, partition spills,
//!   inner rescans). A base-table scan charges the table's pages.
//! * All sizes are fractional page counts (expected values in the
//!   estimator, measured byte-derived values in the executor).
//! * `mem` is the operator's memory budget in pages.

use crate::plan::JoinAlgo;
use aggview_common::Predicate;

/// Shared parameters: memory budget and aggregation spill model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoParams {
    /// Pages of working memory available to a single operator.
    pub mem_pages: f64,
    /// Ablation knob: charge spilled aggregation like a non-aggregating
    /// Grace partition (`2 × input`) instead of the default hybrid
    /// early-aggregation model (`2 × min(output, input)`). See
    /// DESIGN.md §3a — under the Grace model early aggregation can
    /// never beat the join partitioning it replaces.
    pub grace_agg: bool,
}

impl Default for IoParams {
    fn default() -> Self {
        IoParams {
            mem_pages: 64.0,
            grace_agg: false,
        }
    }
}

/// The per-side quantities a join cost formula needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSides {
    /// Left input: (rows, pages).
    pub left_rows: f64,
    pub left_pages: f64,
    /// Right input: (rows, pages).
    pub right_rows: f64,
    pub right_pages: f64,
}

/// Extra IO of a full table scan: the table's pages (this is the one
/// operator whose input is not pipelined).
pub fn scan_io(table_pages: f64) -> f64 {
    table_pages
}

/// External-sort IO for `pages` with `mem` pages of memory: zero if the
/// input fits, else two transfers (write + read) per pass.
pub fn sort_io(pages: f64, mem: f64) -> f64 {
    if pages <= mem || pages <= 0.0 {
        return 0.0;
    }
    let fan_in = (mem - 1.0).max(2.0);
    let initial_runs = (pages / mem).ceil().max(1.0);
    let passes = 1.0 + initial_runs.log(fan_in).ceil().max(0.0);
    2.0 * pages * passes
}

/// Grace hash join: free when the smaller (build) side fits in memory,
/// else one partition round over both inputs (write + read each).
pub fn hash_join_io(sides: &JoinSides, mem: f64) -> f64 {
    let build = sides.left_pages.min(sides.right_pages);
    if build <= mem {
        0.0
    } else {
        2.0 * (sides.left_pages + sides.right_pages)
    }
}

/// Sort-merge join: sort both sides (zero for a side that fits).
pub fn sort_merge_join_io(sides: &JoinSides, mem: f64) -> f64 {
    sort_io(sides.left_pages, mem) + sort_io(sides.right_pages, mem)
}

/// Block nested loops: outer consumed in memory-sized chunks, inner
/// rescanned per chunk. The first inner pass is free (pipelined); later
/// passes require the inner to have been saved to a temp file (one
/// write) and re-read.
pub fn block_nl_io(sides: &JoinSides, mem: f64) -> f64 {
    let outer = sides.left_pages.max(sides.right_pages);
    let inner = sides.left_pages.min(sides.right_pages);
    let chunk = (mem - 1.0).max(1.0);
    let chunks = (outer / chunk).ceil().max(1.0);
    if chunks <= 1.0 {
        0.0
    } else {
        inner + (chunks - 1.0) * inner
    }
}

/// Tuple-at-a-time nested loops: the inner is rescanned once per outer
/// tuple (beyond the pipelined first pass). Deliberately naive — the
/// educational floor of the execution space.
pub fn nested_loop_io(sides: &JoinSides) -> f64 {
    let rescans = (sides.left_rows - 1.0).max(0.0);
    sides.right_pages + rescans * sides.right_pages
}

/// Hybrid hash aggregation: free when the *output* (the hash table of
/// groups) fits in memory. Otherwise, spill with **early aggregation**:
/// input rows are aggregated into per-partition group states before
/// being written, so the spill volume is the compacted groups — bounded
/// by both the output size and the input size (whichever is smaller),
/// written once and read back once.
///
/// This is the aggregation model eager/lazy-aggregation systems assume
/// (\[YL94\]/\[YL95\], the paper's push-down sources); a non-aggregating
/// Grace fallback would charge `2 × input` and systematically hide the
/// benefit of early aggregation.
pub fn hash_agg_io(input_pages: f64, output_pages: f64, io: &IoParams) -> f64 {
    if output_pages <= io.mem_pages {
        0.0
    } else if io.grace_agg {
        2.0 * input_pages
    } else {
        2.0 * output_pages.min(input_pages)
    }
}

/// Sort-based aggregation: sort the input, aggregate on the fly.
pub fn sort_agg_io(input_pages: f64, mem: f64) -> f64 {
    sort_io(input_pages, mem)
}

/// Whether a join algorithm can execute the given predicate set:
/// hash and sort-merge need at least one column-equality predicate.
pub fn join_algo_applicable(algo: JoinAlgo, preds: &[Predicate]) -> bool {
    match algo {
        JoinAlgo::Hash | JoinAlgo::SortMerge => preds.iter().any(|p| p.as_col_eq_col().is_some()),
        _ => true,
    }
}

/// Cheapest applicable join algorithm for the given sides, with its
/// extra IO.
pub fn best_join(sides: &JoinSides, preds: &[Predicate], mem: f64) -> (JoinAlgo, f64) {
    let mut best = (JoinAlgo::NestedLoop, nested_loop_io(sides));
    let bnl = block_nl_io(sides, mem);
    if bnl < best.1 {
        best = (JoinAlgo::BlockNested, bnl);
    }
    if join_algo_applicable(JoinAlgo::Hash, preds) {
        let h = hash_join_io(sides, mem);
        if h < best.1 {
            best = (JoinAlgo::Hash, h);
        }
    }
    if join_algo_applicable(JoinAlgo::SortMerge, preds) {
        let m = sort_merge_join_io(sides, mem);
        if m < best.1 {
            best = (JoinAlgo::SortMerge, m);
        }
    }
    best
}

/// Extra IO of a specific join algorithm.
pub fn join_io(algo: JoinAlgo, sides: &JoinSides, preds: &[Predicate], mem: f64) -> f64 {
    match algo {
        JoinAlgo::Auto => best_join(sides, preds, mem).1,
        JoinAlgo::NestedLoop => nested_loop_io(sides),
        JoinAlgo::BlockNested => block_nl_io(sides, mem),
        JoinAlgo::Hash => hash_join_io(sides, mem),
        JoinAlgo::SortMerge => sort_merge_join_io(sides, mem),
    }
}

/// Cheapest aggregation algorithm, with its extra IO.
pub fn best_agg(input_pages: f64, output_pages: f64, io: &IoParams) -> (crate::plan::AggAlgo, f64) {
    let h = hash_agg_io(input_pages, output_pages, io);
    let s = sort_agg_io(input_pages, io.mem_pages);
    if h <= s {
        (crate::plan::AggAlgo::Hash, h)
    } else {
        (crate::plan::AggAlgo::Sort, s)
    }
}

/// The algorithm an aggregation annotated `algo` runs (`Auto` resolves
/// to the cheapest) and its extra IO — the one charging rule the cost
/// model and the executor share.
pub fn agg_io(
    algo: crate::plan::AggAlgo,
    input_pages: f64,
    output_pages: f64,
    io: &IoParams,
) -> (crate::plan::AggAlgo, f64) {
    use crate::plan::AggAlgo;
    match algo {
        AggAlgo::Auto => best_agg(input_pages, output_pages, io),
        AggAlgo::Hash => (algo, hash_agg_io(input_pages, output_pages, io)),
        AggAlgo::Sort => (algo, sort_agg_io(input_pages, io.mem_pages)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{Col, Predicate, RelId};

    fn sides(lr: f64, lp: f64, rr: f64, rp: f64) -> JoinSides {
        JoinSides {
            left_rows: lr,
            left_pages: lp,
            right_rows: rr,
            right_pages: rp,
        }
    }

    fn eq_pred() -> Vec<Predicate> {
        vec![Predicate::eq_cols(
            Col::base(RelId(0), 0),
            Col::base(RelId(1), 0),
        )]
    }

    #[test]
    fn hash_join_free_when_build_fits() {
        assert_eq!(hash_join_io(&sides(1e4, 100.0, 1e5, 1000.0), 128.0), 0.0);
        // Build (smaller side) exceeds memory → 2(L+R).
        assert_eq!(
            hash_join_io(&sides(1e4, 200.0, 1e5, 1000.0), 128.0),
            2.0 * 1200.0
        );
    }

    #[test]
    fn sort_io_zero_when_fits() {
        assert_eq!(sort_io(10.0, 64.0), 0.0);
        assert!(sort_io(1000.0, 64.0) >= 2.0 * 1000.0);
        // More memory never increases sort cost.
        assert!(sort_io(10_000.0, 128.0) <= sort_io(10_000.0, 16.0));
    }

    #[test]
    fn block_nl_free_when_outer_fits() {
        assert_eq!(block_nl_io(&sides(100.0, 10.0, 100.0, 10.0), 64.0), 0.0);
        let io = block_nl_io(&sides(1e4, 630.0, 100.0, 10.0), 64.0);
        // 10 chunks → write inner once + 9 rescans = 100 pages.
        assert_eq!(io, 100.0);
    }

    #[test]
    fn block_nl_uses_smaller_side_as_inner() {
        let a = block_nl_io(&sides(1e4, 630.0, 100.0, 10.0), 64.0);
        let b = block_nl_io(&sides(100.0, 10.0, 1e4, 630.0), 64.0);
        assert_eq!(a, b, "symmetric: smaller side becomes inner");
    }

    #[test]
    fn nested_loop_scales_with_outer_rows() {
        let io = nested_loop_io(&sides(1000.0, 10.0, 500.0, 5.0));
        assert_eq!(io, 5.0 * 1000.0);
    }

    #[test]
    fn hash_requires_equality_predicate() {
        assert!(join_algo_applicable(JoinAlgo::Hash, &eq_pred()));
        assert!(!join_algo_applicable(JoinAlgo::Hash, &[]));
        assert!(join_algo_applicable(JoinAlgo::BlockNested, &[]));
    }

    #[test]
    fn best_join_prefers_hash_for_equijoins_that_fit() {
        let (algo, io) = best_join(&sides(1e5, 1000.0, 1e4, 50.0), &eq_pred(), 64.0);
        assert_eq!(algo, JoinAlgo::Hash);
        assert_eq!(io, 0.0);
    }

    #[test]
    fn best_join_without_equality_falls_back() {
        let (algo, _) = best_join(&sides(1e4, 100.0, 1e4, 100.0), &[], 64.0);
        assert_eq!(algo, JoinAlgo::BlockNested);
    }

    #[test]
    fn hash_agg_depends_on_output_size() {
        let io = IoParams {
            mem_pages: 64.0,
            grace_agg: false,
        };
        assert_eq!(hash_agg_io(1000.0, 10.0, &io), 0.0);
        // Spill volume is the compacted groups (early aggregation).
        assert_eq!(hash_agg_io(1000.0, 100.0, &io), 200.0);
        // ... but never more than the input itself.
        assert_eq!(hash_agg_io(50.0, 100.0, &io), 100.0);
        // Ablation: the Grace model charges the full input.
        let grace = IoParams {
            mem_pages: 64.0,
            grace_agg: true,
        };
        assert_eq!(hash_agg_io(1000.0, 100.0, &grace), 2000.0);
        assert_eq!(hash_agg_io(1000.0, 10.0, &grace), 0.0);
    }

    #[test]
    fn best_agg_picks_cheaper() {
        let p = IoParams {
            mem_pages: 64.0,
            grace_agg: false,
        };
        // Tiny output → hash free.
        let (algo, io) = best_agg(1000.0, 5.0, &p);
        assert_eq!(algo, crate::plan::AggAlgo::Hash);
        assert_eq!(io, 0.0);
        // Huge output, input fits → sort free (input ≤ mem handles both).
        let (_, io2) = best_agg(30.0, 100.0, &p);
        assert_eq!(io2, 0.0);
    }

    #[test]
    fn join_io_dispatches() {
        let s = sides(100.0, 10.0, 100.0, 10.0);
        assert_eq!(
            join_io(JoinAlgo::Hash, &s, &eq_pred(), 64.0),
            hash_join_io(&s, 64.0)
        );
        assert_eq!(
            join_io(JoinAlgo::Auto, &s, &eq_pred(), 64.0),
            best_join(&s, &eq_pred(), 64.0).1
        );
    }

    #[test]
    fn costs_monotone_in_input_size() {
        // Doubling input sizes never decreases any formula.
        let small = sides(1e3, 100.0, 1e3, 100.0);
        let big = sides(2e3, 200.0, 2e3, 200.0);
        for mem in [8.0, 64.0] {
            assert!(hash_join_io(&big, mem) >= hash_join_io(&small, mem));
            assert!(block_nl_io(&big, mem) >= block_nl_io(&small, mem));
            assert!(sort_merge_join_io(&big, mem) >= sort_merge_join_io(&small, mem));
            assert!(nested_loop_io(&big) >= nested_loop_io(&small));
        }
    }
}
