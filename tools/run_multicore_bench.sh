#!/usr/bin/env bash
# Replays every multicore-sensitive bench (p1 parallel scaling, p2
# pipeline, p5 service) in one command
# on the current machine and collects their --json reports in one
# directory, each prefixed with the host's core count so reports from
# different machines can sit side by side. Re-run on a many-core host to
# refresh the multicore story that the single-core CI container cannot
# measure (see ROADMAP.md).
#
# usage: tools/run_multicore_bench.sh [results-dir] [--smoke]
#
# Builds into build-bench/ (Release, -O2) unless ODBURG_BENCH_BUILD_DIR
# points at an existing configured build. Compare two result sets with:
#   tools/bench_compare.py old/NN-core_BENCH_p1.json new/NN-core_BENCH_p1.json

set -euo pipefail

cd "$(dirname "$0")/.."

RESULTS=results-multicore
SMOKE=
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=--smoke ;;
    --help|-h)
      sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) RESULTS=$arg ;;
  esac
done

BUILD=${ODBURG_BENCH_BUILD_DIR:-build-bench}
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-O2 -DNDEBUG" >/dev/null
fi

BENCHES=(bench_p1_parallel bench_p2_pipeline bench_p5_service)
cmake --build "$BUILD" -j "$(nproc)" --target "${BENCHES[@]}"

CORES=$(nproc)
mkdir -p "$RESULTS"
echo "== running ${#BENCHES[@]} benches on ${CORES} cores -> $RESULTS/"
for bench in "${BENCHES[@]}"; do
  short=${bench#bench_}
  short=${short%%_*}
  out="$RESULTS/${CORES}-core_BENCH_${short}.json"
  echo "-- $bench"
  "$BUILD/bench/$bench" $SMOKE --json="$out"
done

echo "== reports:"
ls -l "$RESULTS"/*.json
