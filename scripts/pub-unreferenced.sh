#!/bin/sh
# Lists every `pub` item under crates/*/src whose name occurs exactly
# once in all tracked *.rs files outside vendor/ -- defined and never
# mentioned, not even by a test -- and exits non-zero if there is one.
# A floor under ROADMAP item 6, not the census: a name that is also a
# common word, or that only tests mention, passes.
set -eu
export LC_ALL=C # one collation for sort and comm
cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git grep -hoE '\bpub (const |unsafe )*(fn|struct|enum|trait|type|const|static|mod) +[A-Za-z_][A-Za-z0-9_]*' \
    -- 'crates/*/src/*.rs' | awk '{print $NF}' | sort -u >"$tmp/pub"
git grep -hoE '[A-Za-z_][A-Za-z0-9_]*' -- '*.rs' ':!vendor' | sort | uniq -c |
    awk '$1 == 1 {print $2}' >"$tmp/once"
comm -12 "$tmp/pub" "$tmp/once" >"$tmp/unreferenced"

while read -r name; do
    git grep -nw "$name" -- 'crates/*/src/*.rs'
done <"$tmp/unreferenced"
test ! -s "$tmp/unreferenced"
