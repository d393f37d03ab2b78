#!/bin/sh
# Two checks over the `pub` items under crates/*/src (bin targets aside),
# by name, on tracked files only:
#
#   (default)  the floor: fails on a name that occurs exactly once in all
#              *.rs outside vendor/ -- defined and never mentioned, not
#              even by a test. A name that is also a common word passes.
#   --census   prints, sorted, every `crate::name` that no consumer of its
#              crate mentions. The workspace has three consumers: the other
#              crates (their src/, tests/, and a crate's own tests/ and
#              src/bin/), the umbrella `ree` crate with tests/ and
#              examples/, and perfbench/; a crate's own doctests are
#              consumer code too. What remains is `pub` only because an
#              exported signature needs it (a type a consumer receives and
#              never names). CI diffs the list against scripts/pub-census.txt,
#              so it fails when a name appears or disappears; regenerate with
#              `sh scripts/pub-unreferenced.sh --census > scripts/pub-census.txt`.
set -eu
export LC_ALL=C # one collation for sort and comm
cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

pub_re='\bpub (const |unsafe )*(fn|struct|enum|trait|type|const|static|mod) +[A-Za-z_][A-Za-z0-9_]*'
word_re='[A-Za-z_][A-Za-z0-9_]*'

if [ "${1-}" = --census ]; then
    for dir in crates/*/; do
        crate=$(basename "$dir")
        git grep -hoE "$pub_re" -- "crates/$crate/src/*.rs" ":!crates/$crate/src/bin" |
            awk '{print $NF}' | sort -u >"$tmp/pub"
        {
            git grep -hoE "$word_re" -- '*.rs' ':!vendor' ":!crates/$crate/src"
            git grep -hoE "$word_re" -- "crates/$crate/src/bin/*.rs" || true
            # Doctest code: the fenced lines of the crate's doc comments.
            git grep -hE '^ *//[/!]' -- "crates/$crate/src/*.rs" |
                awk '/^ *\/\/[\/!] *```/ {fence = !fence; next} fence' |
                grep -oE "$word_re" || true
        } | sort -u >"$tmp/seen"
        comm -23 "$tmp/pub" "$tmp/seen" | sed "s/^/$crate::/"
    done
    exit 0
fi

git grep -hoE "$pub_re" -- 'crates/*/src/*.rs' | awk '{print $NF}' | sort -u >"$tmp/pub"
git grep -hoE "$word_re" -- '*.rs' ':!vendor' | sort | uniq -c |
    awk '$1 == 1 {print $2}' >"$tmp/once"
comm -12 "$tmp/pub" "$tmp/once" >"$tmp/unreferenced"

while read -r name; do
    git grep -nw "$name" -- 'crates/*/src/*.rs'
done <"$tmp/unreferenced"
test ! -s "$tmp/unreferenced"
