#!/bin/sh
# Run the WAN soak: the real TCP backend routed through the netem fault
# proxy across a loss x latency x asymmetry matrix (recovery time,
# sealed throughput and re-key latency tails per key-agreement module),
# recording BENCH_wansoak.json at the repo root.  Pass --smoke for the
# CI-sized two-cell run, --check to arm the gates (zero invariant
# violations, complete sealed delivery, bounded recovery), --module M
# to restrict to one module, and --dump-dir DIR to keep per-cell obs
# dumps.  The full matrix measures wall-clock timing: run it solo.
# Exits 0 with a note where 127.0.0.1 cannot be bound; a hang or
# timeout is a failure.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

case " $* " in
*" --output "*) set -- "$@" ;;
*) set -- "$@" --output "$repo_root/BENCH_wansoak.json" ;;
esac

PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m repro.chaos.wansoak "$@"
