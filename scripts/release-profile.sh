#!/bin/sh
# Fails unless both workspaces link their release binary with the one
# profile in .cargo/config.toml: `repro` (root workspace) and `bench`
# (perfbench/, a workspace of its own whose manifest is frozen with the
# benchmark). The guard against a `[profile.release]` edit in one manifest,
# or a lost config file, silently splitting what the benchmark times from
# what `repro` ships. Touches one source file per workspace so cargo
# re-runs (and -v prints) the final rustc of each.
set -eu
cd "$(git rev-parse --show-toplevel)"

link_line() { # crate name, then the cargo build arguments
    crate=$1
    shift
    cargo build --release -v "$@" 2>&1 | grep -- "--crate-name $crate " | tail -n 1
}

status=0
check() { # unit name, its link line
    for flag in '-C lto=fat' '-C codegen-units=1' '-C debuginfo=2'; do
        case $2 in
        *"$flag "*) ;;
        *)
            echo "release-profile: the $1 link line lacks '$flag'" >&2
            status=1
            ;;
        esac
    done
}

touch crates/experiments/src/bin/repro.rs perfbench/src/main.rs
check repro "$(link_line repro -p ree-experiments --bin repro)"
check bench "$(link_line bench --locked --manifest-path perfbench/Cargo.toml --bin bench)"
exit $status
