#!/bin/sh
# A/B one end-to-end workload: PARENT_REF against the working tree, in
# PAIRS alternating pairs (odd seeds run the parent first, even seeds the
# change), one seed per pair.  Prints each run's contract line, writes
# parent.json and change.json (run.py's --out format) and hands them to
# `run.py --compare`, which owns every statistic.  The parent is
# unpacked with `git archive`: committed files only, as the PR driver
# sees it, and nothing to prune from .git afterwards.
#   sh benchmarks/ab_pairs.sh HEAD~1 sealed_flood_tcp        # ~9 min
set -eu
[ $# -ge 2 ] || { echo "usage: $0 PARENT_REF WORKLOAD [PAIRS=10]" >&2; exit 2; }
parent_ref=$1 workload=$2 pairs=${3:-10}
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work/parent"' EXIT
mkdir "$work/parent"
git -C "$repo_root" archive "$parent_ref" | tar -x -C "$work/parent"

run() {  # run SIDE TREE SEED -> $work/SIDE.SEED.doc
    printf '%s seed %s: ' "$1" "$3"
    python3 "$2/benchmarks/e2e/run.py" --workload "$workload" --seed "$3" \
        --trace 0 --doc "$work/$1.$3.doc" | tail -n 1
}

seed=1
while [ "$seed" -le "$pairs" ]; do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$work/parent" "$seed"; run change "$repo_root" "$seed"
    else
        run change "$repo_root" "$seed"; run parent "$work/parent" "$seed"
    fi
    seed=$((seed + 1))
done
for side in parent change; do
    { printf '{"runs": ['; sep=
      for doc in "$work/$side".*.doc; do printf '%s' "$sep"; cat "$doc"; sep=,; done
      printf ']}\n'; } > "$work/$side.json"
done
echo "wrote $work/parent.json $work/change.json (A = $parent_ref, B = working tree)"
python3 "$repo_root/benchmarks/e2e/run.py" --compare "$work/parent.json" "$work/change.json"
