#!/usr/bin/env bash
# scrubbench entry point. Builds the benchmark (Release, into build-scrubbench/
# at the repository root) and runs it.
#
#   run.sh --workload fanout|join|churn --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the JSON result
#   run.sh --check-driver [--workload NAME]
#       stepped driver vs ScrubSystem::RunUntil + Drain, transcripts compared
#   run.sh [--repeats 5] [--seed N] [--seconds S] [--out FILE] [--trace]
#   run.sh --smoke
#       a set of runs, one process each (see sets.py)
#   run.sh --compare A.json B.json
#       applies the bounds in BENCHMARK.json to two sets
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-scrubbench"

if [[ "${1:-}" == "--compare" ]]; then
  exec python3 "$here/sets.py" "$@"
fi

mkdir -p "$build"
(
  # One build at a time per checkout.
  if command -v flock >/dev/null; then flock 9; fi
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    if ! cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
        >"$build/cmake.log" 2>&1; then
      tail -n 20 "$build/cmake.log" >&2
      rm -f "$build/CMakeCache.txt"
      exit 1
    fi
  fi
  jobs="$(nproc)"
  if (( jobs > 4 )); then jobs=4; fi
  if ! cmake --build "$build" -j "$jobs" >"$build/build.log" 2>&1; then
    tail -n 40 "$build/build.log" >&2
    exit 1
  fi
) 9>"$build/.lock"

for arg in "$@"; do
  if [[ "$arg" == "--workload" || "$arg" == "--check-driver" ]]; then
    exec "$build/scrubbench" --trace-dir "$build" "$@"
  fi
done
exec python3 "$here/sets.py" --binary "$build/scrubbench" "$@"
