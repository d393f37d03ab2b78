//! The pool's workers are spawned once per process: after the first
//! calls have grown it, further campaigns and model checks, and a task's
//! panic, add or lose no thread. A binary of its own, so that no other
//! test shares its pool; the threads are the entries of
//! `/proc/self/task`, one per thread id, and the test is skipped where
//! that is absent.

use ree_inject::{run_ordered, Campaign};
use ree_mc::presets::two_node_sigint_plan;
use ree_mc::{model_check, McBounds};
use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

/// This process's thread ids: a thread spawned and joined since the last
/// look shows as a new id while it runs.
fn threads() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .map(|e| e.expect("a thread entry").file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn later_campaigns_and_model_checks_spawn_no_thread() {
    if !Path::new("/proc/self/task").exists() {
        eprintln!("skipped: no /proc/self/task on this host");
        return;
    }
    let plan = two_node_sigint_plan(7);
    let bounds = McBounds::smoke();
    // Each result is folded while the call's tasks run: the threads then
    // are the ones at hand.
    let campaign = |seed| {
        Campaign::new(&plan)
            .runs(4)
            .seed(seed)
            .threads(2)
            .fold(Vec::new(), |v, _| v.push(threads()))
    };

    let before = threads();
    campaign(0);
    assert!(threads().len() >= before.len() + 2, "the first 2-worker call starts two workers");
    // A model check takes the default worker count, which may be more.
    model_check(&plan, 7, &bounds);
    let grown = threads();

    let boom = panic::catch_unwind(AssertUnwindSafe(|| {
        run_ordered(2, |feed| feed.push(|| panic!("a task's panic")), |()| {});
    }));
    assert!(boom.is_err(), "the task's panic reaches the caller");
    for i in 0..25 {
        for during in campaign(100 + i) {
            assert_eq!(during, grown, "a campaign runs on the workers already there");
        }
        model_check(&plan, 8 + i, &bounds);
    }
    assert_eq!(threads(), grown, "50 more calls and a panic leave the same workers");
}
