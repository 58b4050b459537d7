//! A scoped, hand-rolled thread pool for the embarrassingly parallel
//! suite runs (Table I/II rows, the kernels bench's suite section, the
//! `bdsmaj` CLI's multi-file mode).
//!
//! Design:
//!
//! * **One shared task counter.** Workers claim the next unclaimed task
//!   index with a single `fetch_add` until all `n` are claimed, so a
//!   worker that drew a short task simply claims again.
//! * **Results by index.** Each worker keeps `(index, result)` pairs and
//!   [`run`] sorts them by index after the join, so results come back in
//!   task order no matter which thread ran what — callers print rows in
//!   the same order and with the same content as a sequential run.
//! * **Panic isolation.** Every task runs under `catch_unwind`: a task
//!   that panics yields its own `Err(message)` and every other task
//!   still runs, so one bad input costs one row, not the batch.
//! * **`jobs == 1` is the exact sequential path** — no threads, no
//!   atomics, a plain in-order `map`.
//!
//! # Ownership rule
//!
//! Tasks must not share a [`bdd::Manager`]: the manager owns its whole
//! kernel state and is deliberately **not `Sync`** (there is a
//! `compile_fail` doctest in the `bdd` crate pinning this). Every flow in
//! this workspace builds one manager per benchmark run, so each worker
//! owns its managers outright.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count used when the caller does not pass `--jobs`: the
/// machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0), f(1), ..., f(n - 1)` on up to `jobs` workers and returns
/// each outcome in index order: `Ok(value)`, or `Err(panic message)` for
/// a task that panicked. Every task runs, whatever the others do.
///
/// With `jobs <= 1` (or fewer than two tasks) this is a plain sequential
/// loop on the calling thread. Otherwise `min(jobs, n)` scoped workers
/// claim task indices from one shared counter; results are sorted by
/// index, so the returned order is independent of scheduling.
pub fn run<T, F>(jobs: usize, n: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let task = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_message);
    if jobs <= 1 || n <= 1 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<T, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    // ordering: Relaxed — the counter only hands out
                    // distinct indices; results travel back through the
                    // join.
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, task(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool tasks run under catch_unwind"))
            .collect()
    });
    // The counter hands out each index once, so sorting by index puts
    // every task's result in its slot.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Renders a caught panic payload as a display string (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of a run in which no task panics.
    fn values<T>(out: Vec<Result<T, String>>) -> Vec<T> {
        out.into_iter()
            .map(|r| r.expect("no task panics"))
            .collect()
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let sq = |i: usize| i * i;
        let seq: Vec<usize> = (0..100).map(sq).collect();
        for jobs in [1, 2, 3, 4, 7, 100, 1000] {
            assert_eq!(values(run(jobs, 100, sq)), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(values(run(4, 0, |i| i)), Vec::<usize>::new());
        assert_eq!(values(run(4, 1, |i| i + 41)), vec![41]);
    }

    #[test]
    fn skewed_workload_runs_every_task_exactly_once() {
        // One task dominates the runtime; the claim-as-you-go schedule
        // must still run each index exactly once and keep result order.
        const N: usize = 64;
        let ran: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let out = values(run(4, N, |i| {
            ran[i].fetch_add(1, Ordering::Relaxed);
            // Index 0 is ~N times the work of the rest.
            let rounds = if i == 0 { 4_000_000u64 } else { 50_000 };
            let mut x = i as u64 + 1;
            for _ in 0..rounds {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            (i, x)
        }));
        for (i, counter) in ran.iter().enumerate() {
            assert_eq!(counter.load(Ordering::Relaxed), 1, "task {i} run count");
        }
        for (slot, (i, _)) in out.iter().enumerate() {
            assert_eq!(slot, *i, "result landed in the wrong slot");
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn panics_are_isolated_per_task() {
        for jobs in [1, 4] {
            let out = run(jobs, 32, |i| {
                if i % 7 == 3 {
                    panic!("task {i} exploded");
                }
                i * 2
            });
            assert_eq!(out.len(), 32, "every task must be accounted for");
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let msg = r.as_ref().expect_err("task should have failed");
                    assert_eq!(msg, &format!("task {i} exploded"), "jobs={jobs}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn every_task_runs_despite_early_panics() {
        // Even when the very first tasks panic, later tasks still run.
        const N: usize = 48;
        let ran: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let out = run(3, N, |i| {
            ran[i].fetch_add(1, Ordering::Relaxed);
            if i < 8 {
                panic!("early loss");
            }
            i
        });
        for (i, counter) in ran.iter().enumerate() {
            assert_eq!(counter.load(Ordering::Relaxed), 1, "task {i} run count");
        }
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 8);
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), N - 8);
    }

    #[test]
    fn string_panic_payloads_are_preserved() {
        let out = run(1, 1, |_| -> usize {
            panic!("{}", String::from("owned message"))
        });
        assert_eq!(out[0].as_ref().unwrap_err(), "owned message");
    }
}
