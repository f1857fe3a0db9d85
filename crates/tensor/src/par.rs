//! Work-partitioning parallelism over a reusable scoped-thread pool.
//!
//! Every parallel kernel in this workspace funnels through [`run_tasks`]:
//! the caller prepares one closure per **disjoint** slice of the output,
//! the tasks are grouped into at most `threads` contiguous batches, and the
//! batches run on a lazily-grown, process-wide pool of crossbeam-channel
//! workers (the calling thread always executes the first batch itself, so a
//! cold or saturated pool never stalls progress).
//!
//! # Determinism
//!
//! Parallelism here never changes *what* is computed, only *where*: each
//! output element is produced by exactly one task, and every task runs the
//! same scalar code in the same floating-point order as the serial kernel.
//! Results are therefore **bit-identical** at any thread count — the
//! property that keeps the paper's Table-1 fidelity claims valid — and the
//! proptests in `tests/par_proptests.rs` assert exact `f32` equality, not
//! approximate closeness.
//!
//! # Configuration
//!
//! [`Parallelism`] carries the thread count and a serial/parallel work
//! threshold. [`Parallelism::from_env`] (also [`Parallelism::default`])
//! reads the `PC_THREADS` environment variable, falling back to the number
//! of available cores, so `PC_THREADS=1 cargo bench` pins the whole stack
//! to one core without code changes.

use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::sync::WaitGroup;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// How much work is fanned out, and when fanning out is worth it.
///
/// The two fields are deliberately public plain data: configs embed and
/// compare this by value (`ModelConfig`, `EngineConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads to split work across (1 = fully serial).
    pub num_threads: usize,
    /// Minimum work size (`m × k × n` multiply-adds for a matmul, an
    /// equivalent flop estimate elsewhere) below which a kernel stays on
    /// the calling thread — tiny decode-step matvecs must not pay pool
    /// hand-off latency.
    pub min_work: usize,
}

/// Default serial/parallel threshold: ~256k multiply-adds, a few
/// microseconds of scalar work — comfortably above pool hand-off cost,
/// comfortably below one prefill-shaped matmul (`256³ ≈ 16.8M`).
pub const DEFAULT_MIN_WORK: usize = 1 << 18;

impl Parallelism {
    /// Fully serial execution (the old single-core behaviour).
    pub fn serial() -> Self {
        Parallelism {
            num_threads: 1,
            min_work: DEFAULT_MIN_WORK,
        }
    }

    /// `n` threads with the default work threshold.
    pub fn with_threads(n: usize) -> Self {
        Parallelism {
            num_threads: n.max(1),
            min_work: DEFAULT_MIN_WORK,
        }
    }

    /// Thread count from the `PC_THREADS` environment variable, defaulting
    /// to the number of available cores. The value is resolved once per
    /// process.
    pub fn from_env() -> Self {
        static RESOLVED: OnceLock<usize> = OnceLock::new();
        let n = *RESOLVED.get_or_init(|| {
            std::env::var("PC_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                })
        });
        Parallelism::with_threads(n)
    }

    /// Threads to use for a kernel invocation of the given work size:
    /// `num_threads` when the work clears the threshold, else 1.
    pub fn threads_for(&self, work: usize) -> usize {
        if self.num_threads > 1 && work >= self.min_work {
            self.num_threads
        } else {
            1
        }
    }
}

impl Default for Parallelism {
    /// [`Parallelism::from_env`].
    fn default() -> Self {
        Parallelism::from_env()
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Backstop on pool growth; far above any sensible `PC_THREADS`.
const MAX_POOL_THREADS: usize = 128;

struct Pool {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    spawned: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (tx, rx) = unbounded();
        Pool {
            tx,
            rx,
            spawned: AtomicUsize::new(0),
        }
    })
}

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

impl Pool {
    /// Grows the pool so at least `wanted` workers exist (capped).
    fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.min(MAX_POOL_THREADS);
        loop {
            let cur = self.spawned.load(Ordering::Relaxed);
            if cur >= wanted {
                return;
            }
            if self
                .spawned
                .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let rx = self.rx.clone();
            std::thread::Builder::new()
                .name(format!("pc-par-{cur}"))
                .spawn(move || {
                    IN_POOL_WORKER.with(|c| c.set(true));
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn pool worker");
        }
    }
}

/// Runs `tasks` — closures over **disjoint** data — to completion, split
/// into at most `threads` contiguous batches. Batch 0 runs on the calling
/// thread; the rest go to the shared pool. Returns only after every task
/// has finished, so tasks may safely borrow from the caller's stack.
///
/// Called from inside a pool worker (nested parallelism), all tasks run
/// inline on that worker: the outer fan-out already owns the cores, and
/// inline execution cannot deadlock against a bounded pool.
///
/// # Panics
///
/// Re-raises the panic of any panicking task on the calling thread (after
/// all other tasks have completed).
pub fn run_tasks<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>, threads: usize) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    let threads = threads.max(1).min(n);
    if threads == 1 || in_pool_worker() {
        for task in tasks {
            task();
        }
        return;
    }

    let pool = pool();
    pool.ensure_workers(threads - 1);

    // Contiguous batches: batch b gets tasks [b·per, (b+1)·per).
    let per = n.div_ceil(threads);
    let mut tasks = tasks.into_iter();
    let first_batch: Vec<_> = tasks.by_ref().take(per).collect();

    let wg = WaitGroup::new();
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    loop {
        let batch: Vec<_> = tasks.by_ref().take(per).collect();
        if batch.is_empty() {
            break;
        }
        let wg = wg.clone();
        let slot = &panic_slot;
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            for task in batch {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    *slot.lock().unwrap() = Some(payload);
                    break;
                }
            }
            drop(wg);
        });
        // SAFETY: the job borrows only data outliving `'scope` plus the
        // local `panic_slot`, and `wg.wait()` below does not return until
        // every job has run to completion (the WaitGroup clone drops even
        // on panic, which is caught inside the job). No borrow escapes
        // this function, so promoting the closure to `'static` for the
        // pool channel cannot produce a dangling reference.
        let job: Job = unsafe { std::mem::transmute(job) };
        pool.tx.send(job).expect("parallel pool channel closed");
    }
    let caller_outcome = catch_unwind(AssertUnwindSafe(|| {
        for task in first_batch {
            task();
        }
    }));
    wg.wait();
    if let Err(payload) = caller_outcome {
        resume_unwind(payload);
    }
    let propagated = panic_slot.lock().unwrap().take();
    if let Some(payload) = propagated {
        resume_unwind(payload);
    }
}

/// Splits a row-major output buffer of `row_width`-element rows into
/// chunks of `rows_per_task` rows (the last may be shorter) and runs
/// `f(first_row, chunk)` on each, across at most `threads` threads.
/// Disjointness is structural (`chunks_mut`), so `f` can write its chunk
/// freely; `first_row` tells it which global rows the chunk backs. A
/// kernel that works in bands of several rows passes a multiple of its
/// band height, so only the last chunk ends off a band boundary. The
/// weight matmul and the row-partitioned attention kernels funnel through
/// this so serial and parallel execution share one code path.
pub fn parallel_output_blocks<T, F>(
    out: &mut [T],
    row_width: usize,
    rows_per_task: usize,
    threads: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    if threads <= 1 || out.len() <= rows_per_task * row_width {
        f(0, out);
        return;
    }
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(rows_per_task * row_width)
        .enumerate()
        .map(|(chunk_idx, chunk)| {
            let first_row = chunk_idx * rows_per_task;
            Box::new(move || f(first_row, chunk)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    run_tasks(tasks, threads);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_gate_parallelism() {
        let p = Parallelism {
            num_threads: 4,
            min_work: 1000,
        };
        assert_eq!(p.threads_for(999), 1);
        assert_eq!(p.threads_for(1000), 4);
        assert_eq!(Parallelism::serial().threads_for(usize::MAX), 1);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Parallelism::with_threads(0).num_threads, 1);
    }

    #[test]
    fn run_tasks_completes_all_before_returning() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_tasks(tasks, 8);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panic_in_pool_task_propagates() {
        let result = std::panic::catch_unwind(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("task boom");
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_tasks(tasks, 4);
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task boom");
    }

    #[test]
    fn nested_fanout_runs_inline_without_deadlock() {
        let counter = AtomicUsize::new(0);
        let outer: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    // A parallel kernel invoked from within a pool worker
                    // must degrade to inline execution, not deadlock.
                    parallel_output_blocks(&mut [0u8; 16], 1, 4, 4, |_, rows| {
                        counter.fetch_add(rows.len(), Ordering::SeqCst);
                    });
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_tasks(outer, 4);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }
}
