#!/bin/sh
# Run the control-plane key-agreement A/B harness plus the parallel
# figure sweep and record BENCH_keyagree.json at the repo root: the
# options are those of `python -m repro.bench.keyagree` (--quick for a
# smoke-sized run, --skip-sweep, --compare, --output PATH, --modules
# cliques,ckd,tgdh, ...).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m repro.bench.keyagree "$@"
