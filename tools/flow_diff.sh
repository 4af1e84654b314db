#!/usr/bin/env bash
# Compare the desk flow's 22 outputs of a git revision with the working tree's.
#
#   tools/flow_diff.sh REV
#
# Extracts `git archive REV` into a temporary directory, runs this tree's
# tools/desk_flow.sh on that checkout and on the working tree, and compares
# the two output directories with `diff -r`.  Exits with diff's status: 0
# when every output is byte-identical, 1 when one differs, and another
# non-zero status on an error.  The temporary directory is removed on
# exit.  Takes about twice desk_flow.sh's time, 16 s on 2 shared cores.
#
# A change that moves output bytes on purpose fails this by design, so it
# is a check to run by hand on a change that should not, not a CI step.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/rev"
git -C "$root" archive "$1" | tar -x -C "$tmp/rev"
"$root/tools/desk_flow.sh" "$tmp/rev" "$tmp/rev.out"
"$root/tools/desk_flow.sh" "$root" "$tmp/tree.out"
diff -r "$tmp/rev.out" "$tmp/tree.out"
