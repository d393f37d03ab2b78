//! End-to-end smoke test for the `repro` binary: CI exercises the
//! actual paper-reproduction path, not just the library APIs.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn quick_table3_exits_zero_and_prints_a_table() {
    let out =
        repro().args(["--quick", "--seed", "7", "table3"]).output().expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "repro exited with {:?}; stderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Table 3"), "expected a Table 3 header, got:\n{stdout}");
    assert!(stdout.contains("Baseline"), "expected baseline rows, got:\n{stdout}");
}

#[test]
fn textual_targets_exit_zero() {
    for target in ["table1", "table2"] {
        let out = repro().arg(target).output().expect("repro binary runs");
        assert!(out.status.success(), "repro {target} failed");
        assert!(!out.stdout.is_empty(), "repro {target} printed nothing");
    }
}

#[test]
fn quick_partition_sweep_exits_zero_and_prints_rates() {
    let out =
        repro().args(["--quick", "--seed", "7", "partition"]).output().expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "repro exited with {:?}; stderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Partition during recovery"), "expected sweep title, got:\n{stdout}");
    assert!(stdout.contains("no partition"), "expected control row, got:\n{stdout}");
    assert!(stdout.contains("partition 10.0 s"), "expected duration rows, got:\n{stdout}");
}

/// Fig. 9 is solved in closed form: no root reaches seed arithmetic,
/// and the largest root prints the same table as root 0.
#[test]
fn quick_fig9_is_the_same_table_at_the_largest_root() {
    let top = repro()
        .args(["--seed", "18446744073709551615", "--quick", "fig9"])
        .output()
        .expect("repro binary runs");
    assert!(top.status.success(), "stderr: {}", String::from_utf8_lossy(&top.stderr));
    let zero = repro().args(["--seed", "0", "--quick", "fig9"]).output().expect("runs");
    assert!(String::from_utf8_lossy(&top.stdout).contains("Figure 9"));
    assert_eq!(top.stdout, zero.stdout, "fig9 must not depend on the root");
}

#[test]
fn unknown_target_fails_with_usage() {
    let out = repro().arg("table99").output().expect("repro binary runs");
    assert!(!out.status.success(), "unknown target should exit non-zero");
}

/// Every command line `repro` used to half-understand — a flag value
/// that does not parse (silently replaced by the default), a flag that
/// swallowed the target as its value, a zero worker count, a flag or a
/// second target it ignored — is now refused before anything runs.
#[test]
fn malformed_command_lines_exit_2_with_the_usage_line() {
    let rejected: [&[&str]; 9] = [
        &["--seed", "abc", "table3"],
        &["--seed", "table3"],
        &["--quick", "table3", "--seed"],
        &["--workers", "x", "dist"],
        &["--workers", "0", "dist"],
        &["--chaos", "nope", "dist"],
        &["--sed", "7", "table3"],
        &["table3", "table4"],
        &["table99"],
    ];
    for args in rejected {
        let out = repro().args(args).output().expect("repro binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2; stderr: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} must not start a target");
        assert!(stderr.contains("usage: repro [--quick] [--seed N]"), "{args:?}: {stderr}");
        // The usage line names every target once, from the same table
        // that dispatches them.
        assert!(stderr.contains("|table4a|") && stderr.contains("|dist-selftest|all>"), "{stderr}");
    }
}

#[test]
fn flags_may_follow_the_target() {
    let out =
        repro().args(["table3", "--seed", "7", "--quick"]).output().expect("repro binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let reference = repro().args(["--quick", "--seed", "7", "table3"]).output().expect("runs");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 3"));
    assert_eq!(out.stdout, reference.stdout, "flag order must not change the run");
}
