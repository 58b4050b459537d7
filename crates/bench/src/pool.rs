//! A scoped, hand-rolled thread pool for the embarrassingly parallel
//! suite runs (Table I/II rows, kernels-bench sections, the `bdsmaj`
//! CLI's multi-file mode).
//!
//! Design:
//!
//! * **One shared task counter.** Workers claim the next unclaimed task
//!   index with a single `fetch_add` until all `n` are claimed, so a
//!   worker that drew a short task simply claims again.
//! * **Results by index.** Each worker keeps `(index, result)` pairs and
//!   the caller places them by index after the join, so [`run`] returns
//!   results in task order no matter which thread ran what — callers
//!   print rows in the same order and with the same content as a
//!   sequential run.
//! * **Panic propagation.** A panicking task poisons nothing: the payload
//!   is captured, no further task is claimed, and the payload is
//!   re-thrown on the calling thread via `resume_unwind`, exactly like a
//!   panic in a plain sequential loop.
//! * **`jobs == 1` degrades to the exact sequential path** — no threads,
//!   no atomics, a plain in-order `map`; parallelism is strictly opt-in.
//!
//! # Ownership rule
//!
//! Tasks must not share a [`bdd::Manager`]: the manager owns its whole
//! kernel state and is deliberately **not `Sync`** (there is a
//! `compile_fail` doctest in the `bdd` crate pinning this). Every flow in
//! this workspace builds one manager per benchmark run, so each worker
//! owns its managers outright.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Worker count used when the caller does not say: the `BENCH_JOBS`
/// environment variable if it parses as a positive integer, otherwise the
/// machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("BENCH_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("ignoring BENCH_JOBS={v:?}: need a positive worker count");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0), f(1), ..., f(n - 1)` on up to `jobs` workers and returns
/// the results in index order.
///
/// With `jobs <= 1` (or fewer than two tasks) this is a plain sequential
/// loop on the calling thread. Otherwise `min(jobs, n)` scoped workers
/// claim task indices from one shared counter; results are placed by
/// index, so the returned order is independent of scheduling.
///
/// If any task panics, no further task is claimed, and the lowest-indexed
/// panic payload is re-thrown on the calling thread after all workers
/// have stopped.
pub fn run<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots = claim_all(
        jobs.min(n),
        n,
        |i| catch_unwind(AssertUnwindSafe(|| f(i))),
        |r| r.is_err(),
    );
    let claimed = slots.iter().filter(|s| s.is_some()).count();
    let mut out = Vec::with_capacity(n);
    let mut panic = None;
    for slot in slots.into_iter().flatten() {
        match slot {
            Ok(v) => out.push(v),
            Err(p) => {
                panic.get_or_insert(p);
            }
        }
    }
    if let Some(p) = panic {
        // The early stop abandons every task not yet claimed. Account for
        // them out loud before re-throwing, so a batch log never silently
        // under-reports.
        let abandoned = n - claimed;
        if abandoned > 0 {
            eprintln!("pool: a task panicked; {abandoned} of {n} tasks were abandoned unrun");
        }
        resume_unwind(p);
    }
    out
}

/// Like [`run`], but with per-task panic isolation: every task runs to
/// completion or to its own panic, and the result vector reports each
/// outcome as `Ok(value)` or `Err(panic message)` in task order. No task
/// is ever skipped — one bad input yields one failed row instead of
/// killing the batch (the behavior `bdsmaj --bench` and the table bins
/// want; tests keep [`run`]'s fail-fast `resume_unwind` default).
pub fn run_catching<T, F>(jobs: usize, n: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let call = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_message);
    if jobs <= 1 || n <= 1 {
        return (0..n).map(call).collect();
    }
    claim_all(jobs.min(n), n, call, |_| false)
        .into_iter()
        .map(|slot| slot.expect("every task index is claimed exactly once"))
        .collect()
}

/// The scheduling loop behind [`run`] and [`run_catching`]: `workers`
/// scoped threads claim task indices `0..n` from one shared counter and
/// run `task` on each, until every index is claimed or some result
/// satisfies `stop` (then no further index is claimed). Returns each
/// result at its task index; indices never claimed stay `None`.
fn claim_all<R, F, S>(workers: usize, n: usize, task: F, stop: S) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    S: Fn(&R) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let done: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    // ordering: Relaxed throughout — the counter only
                    // hands out distinct indices and the flag only stops
                    // claiming; results travel back through the join.
                    while !stopped.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = task(i);
                        if stop(&r) {
                            stopped.store(true, Ordering::Relaxed);
                        }
                        done.push((i, r));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool tasks run under catch_unwind"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in done.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
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

    #[test]
    fn sequential_and_parallel_agree() {
        let sq = |i: usize| i * i;
        let seq: Vec<usize> = (0..100).map(sq).collect();
        for jobs in [1, 2, 3, 4, 7, 100, 1000] {
            assert_eq!(run(jobs, 100, sq), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(run(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run(4, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn skewed_workload_runs_every_task_exactly_once() {
        // One task dominates the runtime; the claim-as-you-go schedule
        // must still run each index exactly once and keep result order.
        const N: usize = 64;
        let ran: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let out = run(4, N, |i| {
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
        });
        for (i, counter) in ran.iter().enumerate() {
            assert_eq!(counter.load(Ordering::Relaxed), 1, "task {i} run count");
        }
        for (slot, (i, _)) in out.iter().enumerate() {
            assert_eq!(slot, *i, "result landed in the wrong slot");
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let r = catch_unwind(|| {
            run(4, 32, |i| {
                if i == 17 {
                    panic!("task 17 exploded");
                }
                i
            })
        });
        let p = r.expect_err("the task panic must reach the caller");
        let msg = p.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 17 exploded");
    }

    #[test]
    fn panic_in_sequential_mode_propagates_too() {
        let r = catch_unwind(|| run(1, 4, |i| if i == 2 { panic!("seq") } else { i }));
        assert!(r.is_err());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn run_catching_isolates_panics_per_task() {
        for jobs in [1, 4] {
            let out = run_catching(jobs, 32, |i| {
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
    fn run_catching_runs_every_task_despite_early_panics() {
        // Even when the very first tasks panic, later tasks still run —
        // no early drain in catching mode.
        const N: usize = 48;
        let ran: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let out = run_catching(3, N, |i| {
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
    fn run_catching_all_ok_matches_run() {
        let sq = |i: usize| i * i;
        let plain = run(4, 40, sq);
        let caught: Vec<usize> = run_catching(4, 40, sq)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(plain, caught);
    }

    #[test]
    fn string_panic_payloads_are_preserved() {
        let out = run_catching(1, 1, |_| -> usize {
            panic!("{}", String::from("owned message"))
        });
        assert_eq!(out[0].as_ref().unwrap_err(), "owned message");
    }
}
