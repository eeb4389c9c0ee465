//! Data-parallel execution: the options every pipeline reads and the
//! scoped worker pool [`crate::vector`]'s pipeline driver runs on.
//!
//! The source of a pipeline is split into contiguous per-worker chunks
//! ([`crate::partition::chunk_ranges`]), a scoped worker pool
//! (`std::thread::scope`) runs the whole pipeline over each chunk, and
//! the chunks' sinks are merged **in chunk order** — so a parallel
//! pipeline emits rows in exactly the order the one-chunk run would.
//!
//! With `threads == 1` (or a source below
//! [`ExecOptions::parallel_threshold`]) the same code runs inline on the
//! caller's thread — the serial path *is* the one-chunk special case,
//! so there is exactly one implementation of each stage to test.

use aggview_common::{AggViewError, Result};
use std::ops::Range;

/// Executor tuning knobs, threaded from the session/REPL into every
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads a pipeline may run on (`1` = serial).
    pub threads: usize,
    /// Sources with fewer rows than this stay on the single-chunk path
    /// regardless of `threads`: thread spawn costs more than the work,
    /// and small inputs are where float-merge order differences would be
    /// most visible relative to the data.
    pub parallel_threshold: usize,
    /// Rows per columnar tile — also the granularity of cancellation
    /// checks and bulk governor charges inside a worker chunk.
    pub batch_rows: usize,
}

impl Default for ExecOptions {
    /// `AGGVIEW_THREADS` when set (≥ 1), otherwise the host's available
    /// parallelism.
    fn default() -> Self {
        let threads = std::env::var("AGGVIEW_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        ExecOptions::with_threads(threads)
    }
}

impl ExecOptions {
    /// Single-threaded options, independent of the environment.
    pub fn serial() -> Self {
        ExecOptions {
            threads: 1,
            parallel_threshold: 4096,
            batch_rows: 1024,
        }
    }

    /// Options with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads: threads.max(1),
            ..Self::serial()
        }
    }

    /// Worker count for a pipeline over `n` source rows.
    pub fn workers_for(&self, n: usize) -> usize {
        if self.threads <= 1 || n < self.parallel_threshold {
            1
        } else {
            self.threads
        }
    }
}

/// Run `work` over every chunk — inline when there is one chunk, on
/// scoped worker threads otherwise. Results return in chunk order.
pub(crate) fn run_chunks<T, F>(chunks: Vec<Range<usize>>, work: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>) -> Result<T> + Sync,
{
    if chunks.len() <= 1 {
        return chunks.into_iter().map(work).collect();
    }
    let results: Vec<Result<T>> = std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|r| s.spawn(move || work(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(AggViewError::Exec("parallel worker panicked".into())))
            })
            .collect()
    });
    results.into_iter().collect()
}
