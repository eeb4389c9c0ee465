//! Page-IO charging formulas for physical operators, and the engine's
//! per-row CPU prices.
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

// The engine's per-row CPU prices, in nanoseconds, measured on a 2-core
// x86-64 host (DESIGN §3a; EXPERIMENTS.md, "a CPU term in the cost
// model"). The engine performs no IO — pages are accounted, not
// transferred — so these are the terms that follow wall-clock time. The
// per-row constants are a non-negative least-squares fit to the
// executor's time on 238 sub-plans of the benchmark's shapes — each run
// under a `COUNT(*)` so no result is materialized, minimum of 9 runs —
// seeded from and checked against the serial kernels of
// `BENCH_exec.json`, which they reproduce within 25%: `filter` 3.6 ns/row
// (model 4.5), `hash_join` 13.7 (13.8), `group_by` 5.3 (5.6),
// `group_by_many` 7.3 (8.0), `group_by_determined` 5.8 (7.2).

/// Pages one nanosecond is worth: a 4 KiB page moved at about 12 GB/s, a
/// memory copy on that host, is 333 ns. At 0.001 the simulated spill
/// pages of a 4-page memory budget outvote measured work.
const PAGES_PER_NS: f64 = 0.003;
/// Every operator: setting it up (binding its columns, building its
/// layouts), whatever the rows. One-row tables: 1.8 µs for a scan,
/// 2.5 µs per further node.
const OPERATOR_NS: f64 = 2500.0;
/// Scan: per row read and filter evaluated.
const FILTER_NS: f64 = 1.6;
/// Filtered scan: per surviving row and projected column gathered (an
/// unfiltered scan hands its columns over as they are).
const GATHER_NS: f64 = 1.2;
/// Join: per row of the build side indexed.
const BUILD_NS: f64 = 1.2;
/// Join: per row of the probe side looked up.
const PROBE_NS: f64 = 6.0;
/// Join: per key match and residual predicate evaluated — gathering the
/// residual's columns for each key match.
const RESIDUAL_NS: f64 = 17.0;
/// Join: per output row and projected column emitted.
const EMIT_NS: f64 = 1.3;
/// Aggregation: per input row found by the ordinal of its one lookup
/// column.
const GROUP_ORDINAL_NS: f64 = 3.8;
/// Aggregation: per input row and lookup column hashed.
const GROUP_HASHED_NS: f64 = 8.0;
/// Aggregation: per input row and accumulator fed.
const ACCUMULATE_NS: f64 = 0.8;
/// Aggregation: per group entered in the hashed directory — a miss in
/// the slot directory, and its growth.
const HASHED_GROUP_NS: f64 = 28.0;
/// Aggregation: per group and output column finalized.
const GROUP_OUT_NS: f64 = 4.1;

/// The CPU term in pages: `ns` nanoseconds at the engine's rate when
/// `on`; zero, and `ns` not evaluated, under the paper's model.
pub(crate) fn cpu_pages(on: bool, ns: impl FnOnce() -> f64) -> f64 {
    match on {
        true => ns() * PAGES_PER_NS,
        false => 0.0,
    }
}

/// Nanoseconds of a scan of `rows` rows under `filters` predicates,
/// `card` of which survive to have `cols` columns gathered.
pub(crate) fn scan_ns(rows: f64, filters: usize, card: f64, cols: usize) -> f64 {
    OPERATOR_NS
        + match filters {
            0 => 0.0,
            n => rows * n as f64 * FILTER_NS + card * cols as f64 * GATHER_NS,
        }
}

/// Nanoseconds of a join indexing `build` rows, looking up `probe` rows,
/// testing `residuals` predicates on each of `pairs` key matches, and
/// emitting `out` rows of `cols` columns.
pub(crate) fn join_ns(
    build: f64,
    probe: f64,
    (pairs, residuals): (f64, usize),
    out: f64,
    cols: usize,
) -> f64 {
    OPERATOR_NS
        + build * BUILD_NS
        + probe * PROBE_NS
        + pairs * residuals as f64 * RESIDUAL_NS
        + out * cols as f64 * EMIT_NS
}

/// Nanoseconds of an aggregation of `input` rows, each found by `lookup`
/// and fed to `accs` accumulators, into `groups` groups of `cols` output
/// columns.
pub(crate) fn agg_ns(
    input: f64,
    (lookup, accs): (GroupLookup, usize),
    groups: f64,
    cols: usize,
) -> f64 {
    let (per_row, per_group) = match lookup {
        GroupLookup::Ordinal => (GROUP_ORDINAL_NS, 0.0),
        GroupLookup::Hashed(n) => (n.max(1) as f64 * GROUP_HASHED_NS, HASHED_GROUP_NS),
    };
    OPERATOR_NS
        + input * (per_row + accs as f64 * ACCUMULATE_NS)
        + groups * (per_group + cols as f64 * GROUP_OUT_NS)
}

/// How the engine's group table finds an input row's group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupLookup {
    /// By the ordinal of one `Int` or dictionary-coded string column.
    Ordinal,
    /// By hashing this many lookup columns.
    Hashed(usize),
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

/// The cheapest of the paper's join formulas for the given sides: its
/// label (`nl`, `bnl`, `hash`, `merge`) and extra IO. Hash and
/// sort-merge apply only to a `keyed` join, one with a column equality.
/// The label names a formula, not what runs: the engine always probes a
/// hash index.
pub fn best_join(sides: &JoinSides, keyed: bool, mem: f64) -> (&'static str, f64) {
    let mut best = ("nl", nested_loop_io(sides));
    let mut consider = |label, io: f64| {
        if io < best.1 {
            best = (label, io);
        }
    };
    consider("bnl", block_nl_io(sides, mem));
    if keyed {
        consider("hash", hash_join_io(sides, mem));
        consider("merge", sort_merge_join_io(sides, mem));
    }
    best
}

/// The cheaper of the paper's aggregation formulas: its label (`hash`,
/// `sort`) and extra IO — the one charging rule the cost model and the
/// executor share.
pub fn best_agg(input_pages: f64, output_pages: f64, io: &IoParams) -> (&'static str, f64) {
    let h = hash_agg_io(input_pages, output_pages, io);
    let s = sort_agg_io(input_pages, io.mem_pages);
    if h <= s {
        ("hash", h)
    } else {
        ("sort", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn sides(lr: f64, lp: f64, rr: f64, rp: f64) -> JoinSides {
        JoinSides {
            left_rows: lr,
            left_pages: lp,
            right_rows: rr,
            right_pages: rp,
        }
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
        // Hash would be free here, and is only offered with an equality.
        let s = sides(1e4, 100.0, 1e4, 50.0);
        assert_eq!(hash_join_io(&s, 64.0), 0.0);
        assert_eq!(best_join(&s, true, 64.0), ("hash", 0.0));
        let (label, io) = best_join(&s, false, 64.0);
        assert!(label != "hash" && label != "merge" && io > 0.0, "{label}");
    }

    #[test]
    fn best_join_prefers_hash_for_equijoins_that_fit() {
        let (algo, io) = best_join(&sides(1e5, 1000.0, 1e4, 50.0), true, 64.0);
        assert_eq!(algo, "hash");
        assert_eq!(io, 0.0);
    }

    #[test]
    fn best_join_without_equality_falls_back() {
        let (algo, _) = best_join(&sides(1e4, 100.0, 1e4, 100.0), false, 64.0);
        assert_eq!(algo, "bnl");
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
        assert_eq!(algo, "hash");
        assert_eq!(io, 0.0);
        // Huge output, input fits → sort free (input ≤ mem handles both).
        let (_, io2) = best_agg(30.0, 100.0, &p);
        assert_eq!(io2, 0.0);
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
