#!/bin/sh
# A/B one end-to-end workload: PARENT_REF against the working tree, in
# PAIRS alternating pairs (odd seeds run the parent first, even seeds the
# change), one seed per pair.  Prints each run's contract line, writes
# parent.json and change.json (run.py's --out format) and hands them to
# `run.py --compare`, which owns every statistic.  The parent is
# unpacked with `git archive`: committed files only, as the PR driver
# sees it, and nothing to prune from .git afterwards.  churn_sim is
# seeded, so its exact counts (all but process.*) must match seed by
# seed: the script diffs them and exits non-zero on any difference.
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
status=0
python3 "$repo_root/benchmarks/e2e/run.py" --compare "$work/parent.json" "$work/change.json" || status=$?
if [ "$workload" = churn_sim ]; then
    python3 - "$work" "$pairs" <<'EOF' || status=1
import json, sys

work, pairs = sys.argv[1], int(sys.argv[2])


def counts(side, seed):
    with open(f"{work}/{side}.{seed}.doc") as doc:
        return {key: value for key, value in json.load(doc)["counts"].items()
                if not key.startswith("process.")}


differ = []
for seed in range(1, pairs + 1):
    parent, change = counts("parent", seed), counts("change", seed)
    differ += [f"seed {seed}: {key} {parent.get(key)} -> {change.get(key)}"
               for key in sorted(parent.keys() | change.keys())
               if parent.get(key) != change.get(key)]
print("\n".join(differ) if differ else f"counts identical ({pairs} seeds)")
sys.exit(1 if differ else 0)
EOF
fi
exit "$status"
