#!/usr/bin/env bash
# Which outputs of the rerun chain a change moves.  BASE and HEAD are
# checked out side by side with git worktree in a temporary directory
# (under $TMPDIR), HEAD's scripts/rerun_chain.sh runs in each of them under
# OPENBLAS_NUM_THREADS=1 (copied into BASE's worktree too, because older
# commits lack it), and every output file whose bytes differ between the
# two, or that only one side wrote, is printed on a line of its own, the
# --config directory's files as config/NAME.  Then every model file that
# BASE's chain wrote (NAME.hun) is loaded once by BASE's code and once by
# HEAD's and run through forward_planes on fixed seeded rows (1, 3 and 20,
# so both of a Conv's routes); a model that HEAD refuses, or whose outputs'
# bytes differ from BASE's, is printed as "read NAME".
#
# Exit status: 0 when no file moved and every model reads alike, 1 when
# some file moved or some model reads differently, 2 on a usage error and
# 3 when a chain or a model reader fails to run (its log is printed).
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

# one line per model of BASE's chain: its name and the digest of its
# outputs, or "refused:" and why
read_models() {
  PYTHONPATH="$tmp/$1/src" OPENBLAS_NUM_THREADS=1 python3 - "$tmp/out-base" <<'PY'
import hashlib
import pathlib
import sys

import numpy as np

from hunfold.nets import forward_planes, load_network

for path in sorted(pathlib.Path(sys.argv[1]).glob("*.hun")):
    try:
        net = load_network(path)
    except ValueError as exc:
        print(path.name, "refused:", " ".join(str(exc).split()))
        continue
    digest = hashlib.sha256()
    for rows in (1, 3, 20):
        y = np.random.default_rng(rows).standard_normal((2, rows, net.n_obs))
        for plane in forward_planes(net, y[0], y[1])[:2]:
            digest.update(np.ascontiguousarray(plane).tobytes())
    print(path.name, digest.hexdigest())
PY
}
for side in base head; do
  if ! read_models "$side" > "$tmp/read-$side" 2> "$tmp/read-$side.log"; then
    echo "$0: reading the models failed on the $side side:" >&2
    cat "$tmp/read-$side.log" >&2
    exit 3
  fi
done
misread=0
models=0
while IFS='|' read -r mine theirs; do
  models=$((models + 1))
  if [ "$mine" != "$theirs" ]; then
    echo "read ${mine%% *}"
    misread=$((misread + 1))
  fi
done < <(paste -d '|' "$tmp/read-base" "$tmp/read-head")
echo "$misread of $models models read differently from $1 to HEAD" >&2
[ "$moved" -eq 0 ] && [ "$misread" -eq 0 ]
