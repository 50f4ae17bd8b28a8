#!/bin/sh
# Run the chaos crucible and record BENCH_chaos.json at the repo root.
# Pass --quick for a CI-sized smoke soak, --seeds N to change the seed
# count (default 25), --modules cliques,ckd,tgdh for a subset, or
# --replay SEED --module M [--shrink] to replay (and minimize) one run.
# --backend tcp runs the same drill over real sockets behind netem
# proxies instead of the simulator; it records nothing unless --output
# names a file (BENCH_chaos.json is the simulator soak).
# PYTHONHASHSEED is pinned so trace fingerprints are comparable across
# invocations.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

case " $* " in
*" --output "*|*" --replay "*|*" --backend tcp "*) set -- "$@" ;;
*) set -- "$@" --output "$repo_root/BENCH_chaos.json" ;;
esac

PYTHONHASHSEED=0 \
    PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m repro.chaos.crucible "$@"
