#!/usr/bin/env bash
# Which outputs of the rerun chain a change moves.  BASE and HEAD are
# checked out side by side with git worktree in a temporary directory
# (under $TMPDIR), HEAD's scripts/rerun_chain.sh runs in each of them under
# OPENBLAS_NUM_THREADS=1 (copied into BASE's worktree too, because older
# commits lack it), and every output file whose bytes differ between the
# two, or that only one side wrote, is printed on a line of its own, the
# --config directory's files as config/NAME.
#
# Exit status: 0 when no file moved, 1 when some did, 2 on a usage error
# and 3 when a chain fails (its log is printed).
#
# Usage, from anywhere in a checkout:  scripts/drift.sh BASE
set -euo pipefail
if [ "$#" -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
base="$(git -C "$root" rev-parse --verify --quiet "$1^{commit}")" || {
  echo "$0: $1 is not a commit" >&2
  exit 2
}
tmp="$(mktemp -d)"
cleanup() {
  for side in base head; do
    git -C "$root" worktree remove --force "$tmp/$side" 2>/dev/null || true
  done
  rm -rf "$tmp"
  git -C "$root" worktree prune
}
trap cleanup EXIT

git -C "$root" worktree add --detach --quiet "$tmp/head" HEAD
git -C "$root" worktree add --detach --quiet "$tmp/base" "$base"
mkdir -p "$tmp/base/scripts"
cp "$tmp/head/scripts/rerun_chain.sh" "$tmp/base/scripts/rerun_chain.sh"
for side in base head; do
  if ! OPENBLAS_NUM_THREADS=1 "$tmp/$side/scripts/rerun_chain.sh" "$tmp/out-$side" \
      > "$tmp/$side.log" 2>&1; then
    echo "$0: the rerun chain failed on the $side side:" >&2
    cat "$tmp/$side.log" >&2
    exit 3
  fi
done

moved=0
total=0
for dir in "" -config; do
  prefix="${dir:+config/}"
  names="$( (ls -A "$tmp/out-base$dir"; ls -A "$tmp/out-head$dir") | sort -u)"
  for name in $names; do
    total=$((total + 1))
    if ! cmp -s "$tmp/out-base$dir/$name" "$tmp/out-head$dir/$name"; then
      echo "$prefix$name"
      moved=$((moved + 1))
    fi
  done
done
echo "$moved of $total files moved from $1 to HEAD" >&2
[ "$moved" -eq 0 ]
