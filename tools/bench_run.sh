#!/usr/bin/env bash
# Refreshes BENCH_scrub.json: builds the benchmark suite in a plain
# (non-sanitized, optimized) tree, runs the parallel-central sweep, the
# ingest microbench and the fleet and multitenant benches, and merges their
# JSON into one document:
#
#   {"bench": "scrub", "parallel_central": {...}, "ingest": {...},
#    "fleet": {...}, "multitenant": {...}}
#
# The committed BENCH_scrub.json is the regression baseline
# tools/bench_compare.py gates against in tools/check.sh.
#
#   tools/bench_run.sh              # rewrite BENCH_scrub.json in place
#   tools/bench_run.sh /tmp/out.json  # write elsewhere (what check.sh does)

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${REPO}/build-bench"
OUT="${1:-${REPO}/BENCH_scrub.json}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Logs live inside the build tree (gitignored as a directory); nothing is
# ever written next to it at the repo root.
mkdir -p "${BUILD_DIR}"
cmake -B "${BUILD_DIR}" -S "${REPO}" -DCMAKE_BUILD_TYPE=Release \
  > "${BUILD_DIR}/cmake.log" 2>&1
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  --target bench_parallel_central bench_ingest bench_fleet \
           bench_multitenant \
  > "${BUILD_DIR}/build.log" 2>&1

PC_JSON="$(mktemp /tmp/bench_pc.XXXXXX.json)"
INGEST_JSON="$(mktemp /tmp/bench_ingest.XXXXXX.json)"
FLEET_JSON="$(mktemp /tmp/bench_fleet.XXXXXX.json)"
MT_JSON="$(mktemp /tmp/bench_mt.XXXXXX.json)"
trap 'rm -f "${PC_JSON}" "${INGEST_JSON}" "${FLEET_JSON}" "${MT_JSON}"' EXIT

"${BUILD_DIR}/bench/bench_parallel_central" > "${PC_JSON}"
"${BUILD_DIR}/bench/bench_ingest" > "${INGEST_JSON}"
"${BUILD_DIR}/bench/bench_fleet" > "${FLEET_JSON}"
"${BUILD_DIR}/bench/bench_multitenant" > "${MT_JSON}"

python3 - "${OUT}" "${PC_JSON}" "${INGEST_JSON}" "${FLEET_JSON}" \
  "${MT_JSON}" <<'EOF'
import json
import sys

out_path, pc_path, ingest_path, fleet_path, mt_path = sys.argv[1:6]
with open(pc_path) as f:
    pc = json.load(f)
with open(ingest_path) as f:
    ingest = json.load(f)
with open(fleet_path) as f:
    fleet = json.load(f)
with open(mt_path) as f:
    mt = json.load(f)
doc = {"bench": "scrub", "parallel_central": pc, "ingest": ingest,
       "fleet": fleet, "multitenant": mt}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
echo "wrote ${OUT}"
