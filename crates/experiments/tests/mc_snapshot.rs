//! `repro --quick` output, pinned: each snapshot file is what the loop
//! in CI prints for its targets, `==== target ====`, the output and a
//! blank line each. Running a target twice and diffing proves
//! determinism, not that the output is the one it was.
//!
//! - `mc_quick_v1.txt`: the bounded model checker's explored tree. A
//!   change to which states are equal, or to which branches are taken,
//!   moves `explored`/`pruned` or the escape list.
//! - `repro_quick_v4.txt`: every table and figure `repro all` prints,
//!   the adaptive sweeps (`table4a`, `fig6a`, `partition`) included:
//!   their reports are a function of the root and the effort alone.

use std::process::Command;

/// A snapshot file and the targets whose output it holds, in order.
type Snapshot = (&'static str, &'static [&'static str]);

const MC: Snapshot = ("mc_quick_v1.txt", &["mc", "mc-selftest"]);

const REPRO: Snapshot = (
    "repro_quick_v4.txt",
    &[
        "table3",
        "table4",
        "table4a",
        "table5",
        "table6",
        "table7",
        "table8",
        "table9",
        "table10",
        "table11",
        "table12",
        "fig6",
        "fig6a",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "partition",
    ],
);

fn check((file, targets): Snapshot) {
    let mut got = String::new();
    for target in targets {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--quick", target])
            .output()
            .expect("repro binary runs");
        assert!(out.status.success(), "repro {target}: {}", String::from_utf8_lossy(&out.stderr));
        got += &format!("==== {target} ====\n{}\n", String::from_utf8_lossy(&out.stdout));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots").join(file);
    let want = std::fs::read_to_string(&path).expect("snapshot file");
    assert_eq!(got, want, "repro --quick output moved from {file}");
}

#[test]
fn quick_mc_targets_match_the_committed_snapshot() {
    check(MC);
}

#[test]
fn quick_repro_targets_match_the_committed_snapshot() {
    check(REPRO);
}
