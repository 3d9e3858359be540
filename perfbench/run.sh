#!/usr/bin/env bash
# Builds the benchmark and the daemon's CLI from source, then runs one
# workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# With --workload all it runs the workloads BENCHMARK.json lists, one
# after another.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
# Build quietly; dune's shared cache would write outside this tree.
DUNE_CACHE=disabled dune build --root . --display quiet \
  perfbench/bench.exe bin/holistic_cli.exe 1>&2
bench=./_build/default/perfbench/bench.exe
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  if [[ ${args[i]} == --workload && ${args[i + 1]} == all ]]; then
    for w in paper-seq daemon-batch; do
      args[i + 1]=$w
      echo "== $w"
      "$bench" "${args[@]}"
    done
    exit 0
  fi
done
exec "$bench" "$@"
