//! The workspace's one bounded worker pool: [`run_pool`].
//!
//! Whole simulations (`peas_sim::Runner`), result-cache shards
//! (`peas_sim::ResultCache::execute`) and topology-table chunks
//! (`peas_geom::par`) all fan independent work items out over a few
//! scoped threads and need the results back **in item order**, so that a
//! parallel run is byte-identical to a serial one. Workers claim the next
//! un-started item from a shared counter, so items of uneven cost still
//! balance: a slow item never leaves a worker idle while work remains.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(worker, index)` for every `index` in `0..n` on at most
/// `workers` scoped threads and returns the results in index order,
/// whatever order they completed in.
///
/// `worker` is the slot (`0..workers`) of the thread running the item —
/// callers key per-worker resources on it (the result cache keeps one
/// segment writer per slot). With `workers <= 1` (or at most one item)
/// every item runs on the caller's thread as worker 0; the results are
/// the same either way as long as items are independent.
///
/// # Panics
///
/// A panic inside `f` is re-raised on the caller's thread with its
/// original payload once every worker has stopped.
pub fn run_pool<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(|index| f(0, index)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            return mine;
                        }
                        mine.push((index, f(worker, index)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    // The counter hands out every index exactly once, so sorting by it
    // restores item order.
    done.sort_unstable_by_key(|(index, _)| *index);
    debug_assert_eq!(done.len(), n, "every index claimed exactly once");
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    #[test]
    fn empty_input_runs_nothing() {
        let out: Vec<usize> = run_pool(0, 4, |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let out = run_pool(37, workers, |_, i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        // The serial pool is the caller's thread acting as worker 0.
        assert_eq!(
            run_pool(3, 1, |worker, i| (worker, i)),
            [(0, 0), (0, 1), (0, 2)]
        );
    }

    #[test]
    fn a_blocked_worker_leaves_the_remaining_items_to_the_others() {
        // Item 0 holds its worker until every other item is done, so with
        // dynamic claiming the other worker must take all of them.
        let (done_tx, done_rx) = mpsc::channel();
        let done_rx = Mutex::new(done_rx);
        let out = run_pool(12, 2, |worker, i| {
            if i == 0 {
                let rx = done_rx.lock().expect("only item 0 locks");
                for _ in 1..12 {
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("the other worker finishes the rest");
                }
            } else {
                done_tx.send(()).expect("item 0 is listening");
            }
            worker
        });
        assert!(out.iter().all(|&w| w < 2));
        assert!(out[1..].iter().all(|&w| w != out[0]), "{out:?}");
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn worker_panics_propagate_with_their_payload() {
        let _ = run_pool(6, 3, |_, i| {
            assert!(i != 3, "item 3 failed");
            i
        });
    }
}
