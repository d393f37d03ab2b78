#!/bin/sh
# Fails when a manual cites a repo path that does not exist. Reads
# README.md and docs/*.md (not docs/bench/, ROADMAP.md or CHANGES.md:
# history may cite deleted or planned files) and checks two things
# against the tracked files:
#
#   - every backticked span that starts with crates/, docs/, examples/,
#     scripts/, tests/, src/, perfbench/, vendor/ or .github/ names a
#     tracked file or a directory holding one; a glob (`storage_*.txt`,
#     `crates/*/src`) must match at least one. A `:line` or `#anchor`
#     suffix is ignored.
#   - every relative Markdown link target exists. The badge links
#     (`../../actions/...`) point at the hosting site, not the tree.
#
# Fenced code blocks are skipped. Run from anywhere inside the repository:
# `sh scripts/doc-paths.sh`.
set -eu
cd "$(git rev-parse --show-toplevel)"

tracked() { # a repo-relative path or glob
    [ -n "$(git ls-files -- "$1" "${1%/}/*" | head -n 1)" ]
}

# Prints "file<TAB>kind<TAB>target" for every cited path outside fences.
cited() {
    for doc in README.md docs/*.md; do
        awk -v doc="$doc" '
            /^ *```/ { fence = !fence; next }
            fence { next }
            {
                line = $0
                while (match(line, /`[^`]+`/)) {
                    span = substr(line, RSTART + 1, RLENGTH - 2)
                    line = substr(line, RSTART + RLENGTH)
                    if (span ~ /^(crates|docs|examples|scripts|tests|src|perfbench|vendor|\.github)\//)
                        print doc "\tspan\t" span
                }
                line = $0
                while (match(line, /\]\([^) ]+\)/)) {
                    link = substr(line, RSTART + 2, RLENGTH - 3)
                    line = substr(line, RSTART + RLENGTH)
                    if (link !~ /^([a-z]+:|#|\.\.\/\.\.\/actions\/)/)
                        print doc "\tlink\t" link
                }
            }' "$doc"
    done
}

list=$(mktemp)
trap 'rm -f "$list"' EXIT
cited >"$list"
status=0
tab=$(printf '\t')
while IFS="$tab" read -r doc kind target; do
    case $kind in
    span) path=${target%%[:#]*} ;;
    link) path=$(realpath -m --relative-to=. "$(dirname "$doc")/${target%%#*}") ;;
    esac
    if ! tracked "$path"; then
        echo "doc-paths: $doc cites $kind \`$target\`, which matches no tracked file" >&2
        status=1
    fi
done <"$list"
exit $status
