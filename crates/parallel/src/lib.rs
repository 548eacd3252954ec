//! A minimal, std-only worker pool for deterministic fan-out.
//!
//! The characterization pipeline and the analysis layer both fan a fixed
//! list of independent work items (benchmark units, clustering restarts,
//! sweep cells) across threads. This crate provides the one primitive they
//! share: [`ordered_map_with`], a scoped map over a slice where
//!
//! * each worker owns private per-worker state built by an `init` closure
//!   (e.g. a simulation engine), so no state is shared between items;
//! * results are collected **by item index**, so the output order — and
//!   therefore every downstream float operation — is identical to a serial
//!   `items.iter().map(..)` regardless of which worker ran which item or in
//!   what order items completed.
//!
//! Determinism contract: if `f` is a pure function of `(state built by
//! init, item, index)`, then `ordered_map_with` returns bit-identical
//! results for any thread count, including 1. The workspace's per-unit
//! seeding (`mwc_soc::engine::stream_seed`) is designed around exactly this
//! property.
//!
//! A map run under an `mwc-obs` collector records its tasks, on whichever
//! worker threads they run, into that collector and no other.
//!
//! Dependency policy (DESIGN.md §6) rules out rayon; `std::thread::scope`
//! is sufficient at this scale (tens of items, each milliseconds or more).

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding the worker count used by
/// [`configured_threads`].
pub const THREADS_ENV: &str = "MWC_THREADS";

/// The worker count to use: `MWC_THREADS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
///
/// Resolved once per process: the first call reads the environment and
/// the available parallelism (on Linux, cgroup files), and every later
/// call returns that count without reading either.
pub fn configured_threads() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        threads_from(std::env::var(THREADS_ENV).ok().as_deref(), available)
    })
}

/// The worker count a raw `MWC_THREADS` value asks for: the value if it
/// is a positive integer (surrounding whitespace allowed), else
/// `available`.
fn threads_from(raw: Option<&str>, available: usize) -> usize {
    raw.and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(available)
}

/// Map `f` over `items` on up to `threads` workers, each with its own state
/// from `init`, returning results in item order.
///
/// With `threads <= 1` (or fewer than two items) the map runs inline on the
/// calling thread with a single `init()` state — the exact serial loop.
/// Otherwise workers pull item indices from a shared counter and write each
/// result into its item's slot, so the returned `Vec` is always ordered by
/// item index, never by completion order.
///
/// Under an `mwc-obs` collector the whole map is wrapped in a
/// `parallel.map` span and every item runs inside a `parallel.task` span
/// explicitly parented under it, which enters the caller's collector on
/// the worker thread: spans opened inside `f` hang off the task span of
/// whichever worker ran that item, in the caller's collector. With none
/// entered, the instrumentation is one thread-local read and the map is
/// byte-for-byte the uninstrumented loop.
///
/// Every worker thread has exited when the map returns. Panics in `init`
/// or `f` propagate to the caller when the map joins its workers.
pub fn ordered_map_with<T, S, R, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T, usize) -> R + Sync,
{
    let mut map_span = mwc_obs::span("parallel.map");
    map_span.field("items", items.len());
    let map_handle = map_span.handle();
    let run_task = |state: &mut S, item: &T, index: usize| {
        let mut task_span = mwc_obs::span_with_parent("parallel.task", &map_handle);
        task_span.field("index", index);
        mwc_obs::metrics::counter_add("parallel.tasks", 1);
        f(state, item, index)
    };

    if threads <= 1 || items.len() < 2 {
        map_span.field("workers", 1usize);
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| run_task(&mut state, item, index))
            .collect();
    }

    let workers = threads.min(items.len());
    map_span.field("workers", workers);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            break;
                        };
                        let result = run_task(&mut state, item, index);
                        slots.lock().expect("worker panicked holding results lock")[index] =
                            Some(result);
                    }
                })
            })
            .collect();
        // A scope returns once its workers' closures are done, while each
        // detached thread is still exiting and has not yet handed its
        // malloc arena back. A map started then finds no free arena and
        // makes another, so the process's arena count, and with it its
        // peak RSS, would depend on thread timing. Joining waits for the
        // exit.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    slots
        .into_inner()
        .expect("worker panicked holding results lock")
        .into_iter()
        .map(|slot| slot.expect("every index visited exactly once"))
        .collect()
}

/// Map `f` over `items` with stateless workers; see [`ordered_map_with`].
pub fn ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, usize) -> R + Sync,
{
    ordered_map_with(items, threads, || (), |(), item, index| f(item, index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = ordered_map(&items, 8, |&x, i| {
            assert_eq!(x, i);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_for_stateful_workers() {
        // Per-worker state must not leak between items in a way that
        // changes results: f uses state only as a scratch buffer.
        let items: Vec<u64> = (0..53).collect();
        let run = |threads| {
            ordered_map_with(&items, threads, Vec::<u64>::new, |scratch, &x, i| {
                scratch.clear();
                scratch.extend(0..=x);
                scratch.iter().sum::<u64>() + i as u64
            })
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(1), run(16));
    }

    #[test]
    fn single_item_and_single_thread_run_inline() {
        assert_eq!(ordered_map(&[5], 8, |&x: &i32, _| x + 1), vec![6]);
        assert_eq!(
            ordered_map(&[1, 2, 3], 1, |&x: &i32, _| x * 2),
            vec![2, 4, 6]
        );
        assert_eq!(
            ordered_map::<i32, i32, _>(&[], 4, |&x, _| x),
            Vec::<i32>::new()
        );
    }

    #[test]
    fn worker_count_is_capped_by_item_count() {
        // More threads than items must still visit each item exactly once.
        let out = ordered_map(&[10, 20], 64, |&x: &i32, _| x);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn workers_have_exited_when_the_map_returns() {
        // A thread runs its thread-local destructors as it exits, after
        // its closure is done; every worker touches one in `init`.
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct CountsExit;
        impl Drop for CountsExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static ON_EXIT: CountsExit = const { CountsExit });
        for round in 1..=200 {
            ordered_map_with(&[0; 8], 4, || ON_EXIT.with(|_| ()), |(), &x, _| x);
            assert_eq!(EXITED.load(Ordering::SeqCst), 4 * round, "round {round}");
        }
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn threads_parse_takes_positive_integers_and_falls_back_otherwise() {
        assert_eq!(threads_from(None, 6), 6);
        assert_eq!(threads_from(Some(""), 6), 6);
        assert_eq!(threads_from(Some("0"), 6), 6);
        assert_eq!(threads_from(Some(" 3 "), 6), 3);
        assert_eq!(threads_from(Some("x"), 6), 6);
        assert_eq!(threads_from(Some("-1"), 6), 6);
    }
}
