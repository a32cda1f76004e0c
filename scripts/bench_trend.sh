#!/usr/bin/env bash
# Per-PR wall-clock trend snapshot. Runs the benchmark suite with
# --wall and writes the JSON — cycles deterministic, "wall" section
# host-dependent — to a file keyed by the current commit, so uploaded
# CI artifacts accumulate into a host-performance trend line across
# PRs (docs/PERF.md explains why wall time never gates).
#
#   scripts/bench_trend.sh [outdir] [extra bench args...]
#
# Defaults: outdir=bench_trend, the committed baseline's parameters
# (--scale 0.1 --seed 1), all experiments BENCH_seed.json covers plus
# the additive ones (churn, durset).
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-bench_trend}"
shift || true
mkdir -p "$outdir"

sha="$(git rev-parse --short=12 HEAD 2>/dev/null || echo nogit)"
out="$outdir/bench_wall_${sha}.json"

dune exec bin/nvmpi.exe -- bench --scale 0.1 --seed 1 --wall --json "$out" "$@"
echo "bench_trend: wrote $out"
