#!/bin/sh
# A/B one end-to-end workload: PARENT_REF against the working tree, in
# PAIRS alternating pairs (odd seeds run the parent first, even seeds the
# change), one seed per pair.  Prints each run's contract line, writes
# parent.json and change.json (run.py's --out format) and hands them to
# `run.py --compare`, which owns every verdict; then, per end-to-end
# metric, the numbers a claimed gain is judged by: pairs the change won
# (ties count for neither side), the median of the per-pair
# change/parent ratios, and the parent's interquartile spread over its
# median; on a TCP workload also each side's median
# transport.wire.frames_per_op.  The parent is
# unpacked with `git archive`: committed files only, as the PR driver
# sees it, and nothing to prune from .git afterwards.  churn_sim is
# seeded, so its exact counts (all but process.*) must match seed by
# seed: the script diffs them, prints each distinct difference once with
# the seeds it shows at, and exits non-zero on any difference.
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
python3 - "$work" "$pairs" "$repo_root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

work, pairs, manifest = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(manifest) as handle:
    better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}


def load(side, seed):
    with open(f"{work}/{side}.{seed}.doc") as doc:
        return json.load(doc)


docs = [(load("parent", s), load("change", s)) for s in range(1, pairs + 1)]
runs = [(p["end_to_end"], c["end_to_end"]) for p, c in docs]
print(f"{'metric':<14}{'change won':>12}{'median B/A':>12}{'A IQR/median':>14}")
for metric, direction in better.items():
    parent = [p[metric] for p, _ in runs]
    won = sum((c[metric] < p[metric]) if direction == "lower"
              else (c[metric] > p[metric]) for p, c in runs)
    ratio = statistics.median(c[metric] / p[metric] for p, c in runs if p[metric])
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = f"{(q3 - q1) / abs(statistics.median(parent)):14.3f}"
    else:
        spread = f"{'-':>14}"
    print(f"{metric:<14}{f'{won}/{pairs}':>12}{ratio:11.3f}x{spread}")
frames = "transport.wire.frames_per_op"
if all(frames in doc["counts"] for pair in docs for doc in pair):
    parent, change = (statistics.median(pair[i]["counts"][frames] for pair in docs)
                      for i in (0, 1))
    print(f"{frames} median: parent {parent:.2f}, change {change:.2f}")
EOF
if [ "$workload" = churn_sim ]; then
    python3 - "$work" "$pairs" <<'EOF' || status=1
import json, sys

work, pairs = sys.argv[1], int(sys.argv[2])


def counts(side, seed):
    with open(f"{work}/{side}.{seed}.doc") as doc:
        return {key: value for key, value in json.load(doc)["counts"].items()
                if not key.startswith("process.")}


differ = {}  # (key, parent value, change value) -> seeds it differs at
for seed in range(1, pairs + 1):
    parent, change = counts("parent", seed), counts("change", seed)
    for key in sorted(parent.keys() | change.keys()):
        if parent.get(key) != change.get(key):
            differ.setdefault((key, parent.get(key), change.get(key)), []).append(seed)
for (key, before, after), seeds in sorted(differ.items(), key=lambda d: d[0][0]):
    where = (f"all {pairs} seeds" if len(seeds) == pairs
             else "seeds " + ",".join(map(str, seeds)))
    print(f"{key} {before} -> {after} ({where})")
if not differ:
    print(f"counts identical ({pairs} seeds)")
sys.exit(1 if differ else 0)
EOF
fi
exit "$status"
