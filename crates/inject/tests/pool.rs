//! The contract of the process-wide pool behind `run_ordered`: results in
//! task order, a task's panic re-raised on its caller with the pool
//! intact, concurrent callers kept apart, nested calls finished, and
//! O(workers) tasks in flight. The tests of this binary share one pool.
//! Each interleaving a test depends on is forced with a channel or a
//! barrier.

use ree_apps::Scenario;
use ree_inject::{run_ordered, Campaign, ErrorModel, RunPlan, RunResult, Target};
use ree_sim::SimTime;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;

fn plan(model: ErrorModel) -> RunPlan {
    RunPlan {
        scenario: Scenario::single_texture(0),
        target: Target::App,
        model,
        timeout: SimTime::from_secs(320),
        net_faults: vec![],
    }
}

#[derive(Debug, PartialEq)]
struct Boom(u32);

/// Tells the sink, while task 1 unwinds, that its panic has been raised.
struct Raised(mpsc::Sender<()>);

impl Drop for Raised {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

#[test]
fn a_panicking_task_re_raises_its_own_payload_and_the_next_call_returns_every_result() {
    let (raised_tx, raised) = mpsc::channel();
    let mut sunk = Vec::new();
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        run_ordered(
            2,
            |feed| {
                for i in 0..8u32 {
                    let raised_tx = raised_tx.clone();
                    feed.push(move || {
                        if i == 1 {
                            let _raised = Raised(raised_tx);
                            panic::panic_any(Boom(1));
                        }
                        i
                    });
                }
            },
            |r| {
                if r == 0 {
                    // Task 1 has panicked before task 0's result is sunk:
                    // the caller holds the payload until its turn.
                    raised.recv().expect("task 1 runs while task 0's result waits");
                }
                sunk.push(r);
            },
        );
    }));
    let payload = caught.expect_err("task 1's panic reaches the caller");
    assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(1)), "its own payload");
    assert_eq!(sunk, [0], "every earlier result is sunk before the panic is re-raised");

    let mut all = Vec::new();
    run_ordered(2, |feed| (0..64u32).for_each(|i| feed.push(move || i)), |r| all.push(r));
    assert_eq!(all, (0..64).collect::<Vec<_>>(), "the pool outlives a task's panic");
}

#[test]
fn concurrent_two_worker_campaigns_each_match_one_thread() {
    // Both callers hold their first result until the other holds its own,
    // so both calls have tasks on the pool at once.
    let both = Arc::new(Barrier::new(2));
    let callers: Vec<_> = [(ErrorModel::Sigint, 4100u64), (ErrorModel::Register, 900)]
        .into_iter()
        .map(|(model, seed)| {
            let both = Arc::clone(&both);
            thread::spawn(move || {
                let p = plan(model);
                let campaign = Campaign::new(&p).runs(12).seed(seed);
                let mut first = true;
                let two: Vec<RunResult> = campaign.clone().threads(2).fold(Vec::new(), |v, r| {
                    if std::mem::take(&mut first) {
                        both.wait();
                    }
                    v.push(r);
                });
                (two, campaign.threads(1).collect())
            })
        })
        .collect();
    for caller in callers {
        let (two, one) = caller.join().expect("a campaign caller finishes");
        assert_eq!(two.len(), 12);
        assert_eq!(two, one, "a 2-worker campaign beside another equals its threads(1) run");
    }
}

#[test]
fn a_call_made_inside_a_task_runs_inline_and_finishes() {
    let (ran_on, on) = mpsc::channel();
    let mut sums = Vec::new();
    run_ordered(
        2,
        |feed| {
            for i in 0..6u64 {
                let ran_on = ran_on.clone();
                feed.push(move || {
                    let outer = thread::current().id();
                    let mut inner = Vec::new();
                    run_ordered(
                        2,
                        |feed| {
                            for j in 0..5u64 {
                                let ran_on = ran_on.clone();
                                feed.push(move || {
                                    ran_on.send(thread::current().id() == outer).expect("open");
                                    i * 10 + j
                                });
                            }
                        },
                        |r| inner.push(r),
                    );
                    inner.iter().sum::<u64>()
                });
            }
        },
        |s| sums.push(s),
    );
    drop(ran_on);
    assert_eq!(sums, (0..6u64).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect::<Vec<u64>>());
    let inline: Vec<bool> = on.iter().collect();
    assert_eq!(inline.len(), 30);
    assert!(inline.into_iter().all(|same| same), "a nested call runs on the task's own worker");
}

#[test]
fn at_most_sixteen_tasks_per_worker_are_in_flight() {
    for workers in [2, 3] {
        let sunk = Cell::new(0usize);
        let mut most = 0;
        run_ordered(
            workers,
            |feed| {
                for i in 0..1000usize {
                    feed.push(move || i);
                    most = most.max(i + 1 - sunk.get());
                }
            },
            |r| {
                assert_eq!(r, sunk.get(), "task order");
                sunk.set(sunk.get() + 1);
            },
        );
        assert_eq!(sunk.get(), 1000);
        assert!(most <= 16 * workers, "{most} tasks in flight on {workers} workers");
    }
}
