//! Pins the rendered trace of seeded testbed runs byte-for-byte.
//!
//! The fixtures under `tests/snapshots/` were generated from the
//! original trace implementation (every detail an eager `String`).
//! Their wording outlived the move to typed `TraceDetail` variants
//! rendered lazily, and the later move of every SIFT/ARMOR/MPI/
//! application sentence back to a `format!` at its emit site (only the
//! OS's own record shapes stay typed). Three real
//! end-to-end runs — one fault-free, one with repeated register
//! injections, one FTM hang — cover injection, signal, recovery and
//! lifecycle records; `trace_grid.rs` pins 224 more runs by digest.
//!
//! Beside each trace sits a `storage_*` fixture: an FNV-1a digest of
//! every `ckpt/*` image left on each node's RAM disk at the end of the
//! same run, with that disk's `writes`/`bytes_written`/`used`. The trace
//! shows what the ARMORs did; this shows what they committed — a change
//! to the microcheckpoint or commit path that alters one stored byte, or
//! skips or adds one commit, fails here.
//!
//! Regenerate with `REGEN_TRACE_SNAPSHOT=1 cargo test -p ree-inject
//! --test trace_snapshot` after an *intentional* trace format change.

use ree_inject::{execute_full, ErrorModel, RunPlan, Target};
use ree_os::{Cluster, HeapTarget, NodeId, Signal};
use ree_sim::{Fnv64, SimTime};
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::PathBuf;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots").join(name)
}

fn check(name: &str, rendered: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("REGEN_TRACE_SNAPSHOT").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    if expected != rendered {
        // Locate the first divergent line for a useful failure message.
        for (line, (a, b)) in (1..).zip(expected.lines().zip(rendered.lines())) {
            if a != b {
                panic!(
                    "trace render diverges from {} at line {line}:\n  expected: {a}\n  \
                     rendered: {b}",
                    path.display()
                );
            }
        }
        panic!(
            "trace render diverges from {} in length: expected {} lines, rendered {}",
            path.display(),
            expected.lines().count(),
            rendered.lines().count()
        );
    }
}

/// Renders every node's RAM-disk counters and a digest of each
/// checkpoint image it holds.
fn render_stable_storage(cluster: &mut Cluster) -> String {
    let mut out = String::new();
    for node in 0..cluster.node_count() {
        let disk = cluster.ramdisk(NodeId(node as u16));
        writeln!(
            out,
            "node{node} writes={} bytes_written={} used={}",
            disk.writes(),
            disk.bytes_written(),
            disk.used()
        )
        .unwrap();
        for path in disk.paths().filter(|p| p.starts_with("ckpt/")) {
            let image = disk.read(path).expect("listed path is readable");
            let mut fnv = Fnv64::default();
            fnv.write(image);
            writeln!(out, "  {path} len={} fnv1a={:016x}", image.len(), fnv.finish()).unwrap();
        }
    }
    out
}

#[test]
fn fault_free_testbed_render_is_byte_identical() {
    let mut running = ree_apps::Scenario::single_texture(7).start();
    running.run_until_done(SimTime::from_secs(200));
    check("trace_fault_free_seed7.txt", &running.cluster.trace().render());
    check("storage_fault_free_seed7.txt", &render_stable_storage(&mut running.cluster));
}

/// The full SIFT stack, forked mid-run: with messages unacknowledged
/// and checkpoints committed, the fork takes a heap flip in every ARMOR
/// and a stop/continue of the FTM (so peers retransmit out of `pending`
/// into it) and runs on, committing as it goes. The original shares
/// event slices and checkpoint images with it and must still end on the
/// fault-free fixtures, trace and stable storage.
#[test]
fn original_of_a_perturbed_mid_run_fork_still_matches_the_fixtures() {
    let mut original = ree_apps::Scenario::single_texture(7).start();
    original.run_until(SimTime::from_secs(40));

    let mut fork = original.clone();
    let ftm = fork.cluster.find_by_name("ftm").expect("FTM is up");
    fork.cluster.send_signal(ftm, Signal::Stop);
    for pid in fork.cluster.all_procs() {
        if fork.cluster.kind_of(pid) == Some("armor") {
            fork.cluster.inject_heap(pid, &HeapTarget::Any);
        }
    }
    fork.run_until(SimTime::from_secs(46));
    fork.cluster.send_signal(ftm, Signal::Cont);
    fork.run_until_done(SimTime::from_secs(200));
    assert_ne!(
        render_stable_storage(&mut fork.cluster),
        render_stable_storage(&mut original.cluster),
        "the fork must have committed something the original has not"
    );

    original.run_until_done(SimTime::from_secs(200));
    check("trace_fault_free_seed7.txt", &original.cluster.trace().render());
    check("storage_fault_free_seed7.txt", &render_stable_storage(&mut original.cluster));
}

#[test]
fn register_injection_render_is_byte_identical() {
    let plan = RunPlan {
        scenario: ree_apps::Scenario::single_texture(7),
        target: Target::App,
        model: ErrorModel::Register,
        timeout: SimTime::from_secs(220),
        net_faults: vec![],
    };
    let (_result, mut running) = execute_full(&plan, 42);
    check("trace_register_seed42.txt", &running.cluster.trace().render());
    check("storage_register_seed42.txt", &render_stable_storage(&mut running.cluster));
}

#[test]
fn sigstop_injection_render_is_byte_identical() {
    // SIGSTOP exercises the hang-detection path: stop/continue signals,
    // probe timeouts, ARMOR kills and recoveries.
    let plan = RunPlan {
        scenario: ree_apps::Scenario::single_texture(7),
        target: Target::Ftm,
        model: ErrorModel::Sigstop,
        timeout: SimTime::from_secs(220),
        net_faults: vec![],
    };
    let (_result, mut running) = execute_full(&plan, 11);
    check("trace_sigstop_ftm_seed11.txt", &running.cluster.trace().render());
    check("storage_sigstop_ftm_seed11.txt", &render_stable_storage(&mut running.cluster));
}
