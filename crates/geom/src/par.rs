//! Bounded-pool chunked execution for topology-table builds.
//!
//! [`NeighborTables`](crate::NeighborTables) and
//! [`CoverageCsr`](crate::CoverageCsr) builds are embarrassingly parallel
//! over node index, but their output order is part of the determinism
//! contract (grid candidate order within a row, node order across rows).
//! This module runs per-chunk builders on the workspace's one bounded worker
//! pool ([`peas_des::run_pool`], which the sim `Runner` also uses for whole
//! simulations) and returns the chunk outputs **in chunk order**, so
//! splicing them back together reproduces the serial build byte for byte.
//!
//! ## Memory budget
//!
//! Each chunk's scratch output covers at most [`BUILD_CHUNK_NODES`] node
//! rows, and the splice step consumes (and frees) chunk buffers one at a
//! time, so transient memory beyond the final table is bounded by the table
//! size itself — the build never holds more than roughly 2× the final
//! footprint, regardless of node count.

use std::ops::Range;

use peas_des::run_pool;

/// Node-count threshold below which builds stay serial: thread spawn and
/// splice overhead outweigh the work for small topologies (the paper's
/// 480-node scenarios never parallelize, keeping their profile unchanged).
pub const PARALLEL_BUILD_THRESHOLD: usize = 8_192;

/// Nodes per work chunk. Small enough to load-balance across workers and
/// bound per-chunk scratch memory, large enough that the claim counter is
/// not contended.
pub const BUILD_CHUNK_NODES: usize = 4_096;

/// The worker count for an `n`-node build: serial below
/// [`PARALLEL_BUILD_THRESHOLD`], otherwise the machine's available
/// parallelism.
pub fn build_workers(n: usize) -> usize {
    if n < PARALLEL_BUILD_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |w| w.get())
    }
}

/// Runs `build` over consecutive [`BUILD_CHUNK_NODES`]-sized index chunks of
/// `0..n` on at most `workers` pooled threads ([`peas_des::run_pool`]),
/// returning the outputs in chunk order regardless of completion order.
///
/// With `workers <= 1` (or a single chunk) the chunks run serially on the
/// caller's thread; the outputs are identical either way because every
/// chunk is independent.
pub fn chunked_build<T, F>(n: usize, workers: usize, build: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let chunks: Vec<Range<usize>> = (0..n)
        .step_by(BUILD_CHUNK_NODES)
        .map(|lo| lo..(lo + BUILD_CHUNK_NODES).min(n))
        .collect();
    run_pool(chunks.len(), workers, |_, k| build(chunks[k].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_no_chunks() {
        let out = chunked_build(0, 4, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_cover_the_range_in_order() {
        let n = BUILD_CHUNK_NODES * 2 + 17;
        for workers in [1, 3] {
            let out = chunked_build(n, workers, |r| r.clone());
            assert_eq!(out.len(), 3);
            assert_eq!(out[0], 0..BUILD_CHUNK_NODES);
            assert_eq!(out[2].end, n);
            let covered: usize = out.iter().map(|r| r.len()).sum();
            assert_eq!(covered, n);
            for w in out.windows(2) {
                assert_eq!(w[0].end, w[1].start, "chunks must be contiguous");
            }
        }
    }

    #[test]
    fn parallel_output_matches_serial() {
        let n = BUILD_CHUNK_NODES * 3 + 5;
        let build = |r: Range<usize>| r.map(|i| i * i).collect::<Vec<usize>>();
        let serial: Vec<usize> = chunked_build(n, 1, build).concat();
        let parallel: Vec<usize> = chunked_build(n, 8, build).concat();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), n);
    }

    #[test]
    fn small_builds_stay_serial() {
        assert_eq!(build_workers(480), 1);
        assert_eq!(build_workers(PARALLEL_BUILD_THRESHOLD - 1), 1);
        assert!(build_workers(PARALLEL_BUILD_THRESHOLD) >= 1);
    }
}
