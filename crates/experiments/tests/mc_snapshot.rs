//! The bounded model checker's explored tree, pinned: `repro --quick mc`
//! and `repro --quick mc-selftest` must print exactly
//! `snapshots/mc_quick_v1.txt`. Running each twice and diffing (CI's
//! `mc-smoke`) proves determinism, not that the tree is the one it was:
//! a change to which states are equal, or to which branches are taken,
//! moves `explored`/`pruned` or the escape list here. The file is the
//! output of the loop in CI's `mc-smoke` job, in the layout of
//! `repro_quick_v1.txt`.

use std::process::Command;

#[test]
fn quick_mc_targets_match_the_committed_snapshot() {
    let mut got = String::new();
    for target in ["mc", "mc-selftest"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--quick", target])
            .output()
            .expect("repro binary runs");
        assert!(out.status.success(), "repro {target}: {}", String::from_utf8_lossy(&out.stderr));
        got += &format!("==== {target} ====\n{}\n", String::from_utf8_lossy(&out.stdout));
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/mc_quick_v1.txt");
    let want = std::fs::read_to_string(&path).expect("snapshot file");
    assert_eq!(got, want, "the explored tree moved");
}
