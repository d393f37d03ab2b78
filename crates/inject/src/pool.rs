//! The one worker pool every in-process scheduler runs on: the campaigns
//! ([`crate::Campaign::fold`] and the adaptive rounds, one run per task)
//! and `ree_mc::model_check` (one injection root per task).
//!
//! The pool lives as long as the process. Its workers start on first use
//! and grow to the largest count any call has asked for; they are never
//! joined, and no task's panic ends one (each task runs under
//! `catch_unwind`, and its payload goes back to the call that pushed it).
//! Workers take tasks from one shared first-in, first-out queue: there is
//! no per-worker queue and no stealing, so concurrent calls interleave
//! their tasks in the order they were pushed.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// The available parallelism, capped at 16, taken once per process:
/// `available_parallelism` reads the cgroup CPU quota from the file
/// system on every call.
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16))
}

/// Picks the effective worker count for `tasks` units of work: the one
/// [`run_ordered`] runs on. `None` is the available parallelism, capped
/// at 16.
/// Total for every input — `tasks == 0` yields 1 worker (which then has
/// nothing to claim) instead of constructing an empty clamp range, so
/// callers that do not know their run count up front (the adaptive
/// engine) can share it.
pub fn effective_threads(requested: Option<usize>, tasks: u32) -> usize {
    requested.unwrap_or_else(default_threads).clamp(1, tasks.max(1) as usize)
}

/// Tasks in flight per worker at most. A long task holds back every
/// result after it; the window must let the other workers run on past it.
/// At two per worker the benchmark's `table_mix` (16-run campaign cells,
/// runs of uneven length) ran 15 % slower than on threads spawned per
/// call, which claimed without a bound; at 16 it ran no slower
/// (`docs/bench/PR-49.md`).
const WINDOW_PER_WORKER: usize = 16;

type Job = Box<dyn FnOnce() + Send>;

/// The process-wide queue and the count of workers serving it.
struct Pool {
    state: Mutex<State>,
    /// Signalled once per pushed job.
    queued: Condvar,
}

struct State {
    jobs: VecDeque<Job>,
    workers: usize,
}

thread_local! {
    /// Set on the pool's own workers, where a nested [`run_ordered`] runs
    /// inline: waiting there for other workers could wait forever.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State { jobs: VecDeque::new(), workers: 0 }),
        queued: Condvar::new(),
    })
}

impl Pool {
    /// Jobs run outside the lock and never unwind, and nothing that holds
    /// it can panic.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("the pool queue is never held across a panic")
    }

    /// Spawns workers until there are at least `workers`.
    fn grow(&'static self, workers: usize) {
        let had = {
            let mut state = self.lock();
            let had = state.workers;
            state.workers = had.max(workers);
            had
        };
        for n in had..workers {
            thread::Builder::new()
                .name(format!("ree-pool-{n}"))
                .spawn(move || self.serve())
                .expect("spawn a pool worker");
        }
    }

    fn push(&self, job: Job) {
        self.lock().jobs.push_back(job);
        self.queued.notify_one();
    }

    fn serve(&self) {
        ON_WORKER.with(|w| w.set(true));
        loop {
            let mut state = self
                .queued
                .wait_while(self.lock(), |state| state.jobs.is_empty())
                .expect("the pool queue is never held across a panic");
            let job = state.jobs.pop_front().expect("woken with a job queued");
            drop(state);
            job();
        }
    }
}

/// A task's result, or the payload it panicked with.
type Outcome<T> = thread::Result<T>;

/// The producer's side of one [`run_ordered`] call: each
/// [`push`](Feed::push) makes a task claimable at once and, while the
/// window is full, hands finished results to the sink first.
pub struct Feed<'s, T> {
    /// `None`: every task runs inline, followed by its sink.
    pool: Option<&'static Pool>,
    /// Tasks in flight (pushed, not yet sunk) at most.
    window: usize,
    tx: Sender<(usize, Outcome<T>)>,
    rx: Receiver<(usize, Outcome<T>)>,
    pushed: usize,
    sunk: usize,
    /// Slot `j` holds task `sunk + j`'s outcome once it is back.
    back: VecDeque<Option<Outcome<T>>>,
    sink: &'s mut dyn FnMut(T),
}

impl<T: Send + 'static> Feed<'_, T> {
    /// Queues `task` as the next task, in task order. Blocks, handing
    /// results to the sink, while the window is full.
    pub fn push(&mut self, task: impl FnOnce() -> T + Send + 'static) {
        let Some(pool) = self.pool else {
            (self.sink)(task());
            return;
        };
        while self.pushed - self.sunk >= self.window {
            self.settle();
        }
        let (tx, i) = (self.tx.clone(), self.pushed);
        pool.push(Box::new(move || {
            // The call may have unwound already; then nobody wants this.
            let _ = tx.send((i, panic::catch_unwind(AssertUnwindSafe(task))));
        }));
        self.pushed += 1;
        self.back.push_back(None);
    }

    /// Waits for the oldest unsunk task, keeping any later one that comes
    /// back first, and hands it to the sink, or re-raises its panic.
    fn settle(&mut self) {
        while self.back.front().is_some_and(Option::is_none) {
            let (i, outcome) = self.rx.recv().expect("this feed holds a sender");
            self.back[i - self.sunk] = Some(outcome);
        }
        let outcome = self.back.pop_front().flatten().expect("a task in flight");
        self.sunk += 1;
        match outcome {
            Ok(r) => (self.sink)(r),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// Runs the tasks that `produce` pushes on up to `workers` workers of the
/// process-wide pool and hands each result to `sink` on the caller's
/// thread, **in task order**, as soon as every earlier task's result has
/// been handed over. Callers pick `workers` with [`effective_threads`].
///
/// `produce` runs on the caller's thread, and each task is claimable as
/// soon as it is pushed, so workers start on the first task while the
/// caller builds the next. At most 16 tasks per worker are in flight —
/// queued, running, or finished and waiting for an earlier one — so
/// memory stays O(workers) whatever the task count: a push into a full
/// window first hands results to `sink`.
///
/// With one worker, or when called from inside a task (a worker must not
/// wait on its own pool), there is no pool: each task runs at its push,
/// followed by its `sink`, on the calling thread.
///
/// A task that panics is caught on its worker, which lives on; the panic
/// is re-raised on the caller, with its own payload, when the task's turn
/// in the order comes, after every earlier result reached `sink`.
///
/// # Examples
///
/// ```
/// let mut squares = Vec::new();
/// ree_inject::run_ordered(
///     2,
///     |feed| (0..10u64).for_each(|i| feed.push(move || i * i)),
///     |r| squares.push(r),
/// );
/// assert_eq!(squares, (0..10u64).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn run_ordered<T: Send + 'static>(
    workers: usize,
    produce: impl FnOnce(&mut Feed<'_, T>),
    mut sink: impl FnMut(T),
) {
    let pool = (workers > 1 && !ON_WORKER.with(Cell::get)).then(|| {
        let pool = pool();
        pool.grow(workers);
        pool
    });
    let (tx, rx) = mpsc::channel();
    let mut feed = Feed {
        pool,
        window: WINDOW_PER_WORKER * workers,
        tx,
        rx,
        pushed: 0,
        sunk: 0,
        back: VecDeque::new(),
        sink: &mut sink,
    };
    produce(&mut feed);
    while feed.sunk < feed.pushed {
        feed.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_selection_is_total() {
        // The historical `threads.clamp(1, runs as usize)` panicked for
        // `runs == 0` (clamp with max < min); the adaptive path cannot
        // early-return on a known run count, so selection must be total.
        assert_eq!(effective_threads(Some(8), 0), 1);
        assert_eq!(effective_threads(Some(8), 1), 1);
        assert_eq!(effective_threads(Some(0), 5), 1);
        assert_eq!(effective_threads(Some(3), 5), 3);
        assert_eq!(effective_threads(Some(8), 5), 5);
        assert!(effective_threads(None, u32::MAX) >= 1);
    }
}
