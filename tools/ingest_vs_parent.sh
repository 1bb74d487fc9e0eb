#!/usr/bin/env bash
# Same-machine A/B of the ingest microbench (bench_ingest) against the
# parent commit. Runs alternate which side goes first. For the columnar
# scan ("columnar") and both join runs (per-source "columnar" batches and
# the staged "join_columnar"), the change's median events/sec must hold at
# least 0.85x the parent's median.
#
# A verdict is only as good as the machine is quiet. The script measures the
# parent's own spread, (Q3 - Q1) / median of its runs. While that spread is
# wider than the 15% bound the floor allows, a pass or a fail would be noise,
# so it runs more pairs: 5 at least, 11 at most. A metric whose spread stays
# wider than the bound is reported "unresolved", never pass or fail.
#
# The parent is HEAD when tracked files carry uncommitted changes (the
# change under test is the working tree), else HEAD~1 (the change is the
# last commit). Its tree is exported with git archive into build-parent/
# and built Release there; this tree's bench_ingest is built in
# build-bench/, the tree tools/bench_run.sh uses.
#
#   tools/ingest_vs_parent.sh   # exit 0 = every floor holds, 1 = a floor
#                               # broke, 2 = unresolved (and none broke)

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
PARENT_DIR="${REPO}/build-parent"
CHANGE_BUILD="${REPO}/build-bench"
JOBS="$(nproc 2>/dev/null || echo 4)"
MIN_PAIRS=5
MAX_PAIRS=11
FLOOR=0.85

cd "${REPO}"
if git diff --quiet HEAD --; then
  PARENT="$(git rev-parse HEAD~1)"
else
  PARENT="$(git rev-parse HEAD)"
fi

mkdir -p "${PARENT_DIR}" "${CHANGE_BUILD}"
if [ "$(cat "${PARENT_DIR}/commit" 2>/dev/null)" != "${PARENT}" ]; then
  rm -rf "${PARENT_DIR}/src" "${PARENT_DIR}/build"
  mkdir -p "${PARENT_DIR}/src"
  git archive "${PARENT}" | tar -x -C "${PARENT_DIR}/src"
  echo "${PARENT}" > "${PARENT_DIR}/commit"
fi
cmake -B "${PARENT_DIR}/build" -S "${PARENT_DIR}/src" \
  -DCMAKE_BUILD_TYPE=Release > "${PARENT_DIR}/cmake.log" 2>&1
cmake --build "${PARENT_DIR}/build" -j "${JOBS}" --target bench_ingest \
  > "${PARENT_DIR}/build.log" 2>&1
cmake -B "${CHANGE_BUILD}" -S "${REPO}" -DCMAKE_BUILD_TYPE=Release \
  > "${CHANGE_BUILD}/cmake.log" 2>&1
cmake --build "${CHANGE_BUILD}" -j "${JOBS}" --target bench_ingest \
  > "${CHANGE_BUILD}/build.log" 2>&1

OUT="$(mktemp -d /tmp/ingest_ab.XXXXXX)"
trap 'rm -rf "${OUT}"' EXIT

# Verdict over pairs 1..N: one line per metric, exit 0 / 1 / 2 as above.
cat > "${OUT}/verdict.py" <<'PY'
import json
import statistics
import sys

out, pairs, floor, parent = sys.argv[1], int(sys.argv[2]), \
    float(sys.argv[3]), sys.argv[4]
bound = 1.0 - floor


def eps(path, section, pipeline):
    with open(path) as f:
        doc = json.load(f)
    runs = doc["runs"] if section is None else doc[section]["runs"]
    return next(r["events_per_sec"] for r in runs
                if r["pipeline"] == pipeline)


failed = unresolved = False
for label, section, pipeline in (("scan columnar", None, "columnar"),
                                 ("join columnar", "join", "columnar"),
                                 ("join join_columnar", "join",
                                  "join_columnar")):
    base_runs = [eps(f"{out}/parent_{i}.json", section, pipeline)
                 for i in range(1, pairs + 1)]
    cur_runs = [eps(f"{out}/change_{i}.json", section, pipeline)
                for i in range(1, pairs + 1)]
    base = statistics.median(base_runs)
    cur = statistics.median(cur_runs)
    q1, _, q3 = statistics.quantiles(base_runs, n=4)
    spread = (q3 - q1) / base
    ratio = cur / base
    if spread > bound:
        verdict = "UNRESOLVED"
        unresolved = True
    elif ratio < floor:
        verdict = "FAIL"
        failed = True
    else:
        verdict = "ok"
    print(f"{verdict:<4} ingest {label} vs parent {parent[:10]}: median "
          f"{base:,.0f} -> {cur:,.0f} ev/s ({ratio:.3f}x, floor {floor:.2f}x; "
          f"parent spread {spread:.1%}, bound {bound:.0%}; "
          f"{pairs} alternating pairs)")
sys.exit(1 if failed else 2 if unresolved else 0)
PY

# Alternate which side runs first, so drift within a pair (frequency,
# neighbours on a shared host) does not always favour the same side.
pairs=0
while [ "${pairs}" -lt "${MAX_PAIRS}" ]; do
  pairs=$((pairs + 1))
  if (( pairs % 2 == 1 )); then
    "${PARENT_DIR}/build/bench/bench_ingest" > "${OUT}/parent_${pairs}.json"
    "${CHANGE_BUILD}/bench/bench_ingest" > "${OUT}/change_${pairs}.json"
  else
    "${CHANGE_BUILD}/bench/bench_ingest" > "${OUT}/change_${pairs}.json"
    "${PARENT_DIR}/build/bench/bench_ingest" > "${OUT}/parent_${pairs}.json"
  fi
  if [ "${pairs}" -ge "${MIN_PAIRS}" ]; then
    status=0
    python3 "${OUT}/verdict.py" "${OUT}" "${pairs}" "${FLOOR}" "${PARENT}" \
      > /dev/null || status=$?
    if [ "${status}" -ne 2 ]; then
      break
    fi
  fi
done

python3 "${OUT}/verdict.py" "${OUT}" "${pairs}" "${FLOOR}" "${PARENT}"
