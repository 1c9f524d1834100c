#!/bin/sh
# Stress check of the test suite: tier-1 must pass at any ctest
# parallelism and on every repeat, and the hostile-input parsers and the
# streaming pipeline must be clean under the sanitizers.
#
#   1. the whole suite, ctest -j8 --repeat until-fail:10 (temp-file or
#      scheduling races show up here);
#   2. ASan and UBSan builds of test_dns (including the zone-reader
#      mutation loop), test_zone_gen, test_scale, test_alloc, and of
#      test_homoglyph_db, test_detector and test_db (the canonical() page
#      table, the skeleton probe and the artifact-loader corruption suite);
#   3. a TSan build of test_scale (the chunk ring and shard queues).
#
# Exits non-zero on the first failure.
#
#   $ tools/check_stress.sh              # uses ./build (configures if absent)
#   $ BUILD_DIR=build-rel JOBS=8 tools/check_stress.sh
set -e
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-4}"  # compile jobs
SUITES="test_dns test_zone_gen test_scale test_alloc test_homoglyph_db test_detector test_db"

# Configure and build quietly; on failure show the tail of the log.
build() {
  dir="$1"
  shift
  log="$dir/check_stress_build.log"
  mkdir -p "$dir"
  if ! { cmake -B "$dir" -S . "$@" && cmake --build "$dir" -j "$JOBS" $TARGETS; } >"$log" 2>&1; then
    tail -n 40 "$log"
    echo "build failed in $dir (full log: $log)"
    exit 1
  fi
}

TARGETS=""
build "$BUILD_DIR"

echo "=== ctest -j8 --repeat until-fail:10 ==="
log="$BUILD_DIR/check_stress_ctest.log"
if ! (cd "$BUILD_DIR" && ctest -j8 --repeat until-fail:10 --output-on-failure) >"$log" 2>&1; then
  tail -n 60 "$log"
  echo "ctest stress run failed (full log: $log)"
  exit 1
fi
grep -E "tests passed" "$log"

run_sanitized() {
  san="$1"
  shift
  dir="build-$san"
  echo "=== SHAM_SANITIZE=$san: $* ==="
  TARGETS="--target $*"
  build "$dir" -DSHAM_SANITIZE="$san"
  for suite in "$@"; do
    "$dir/tests/$suite" --gtest_brief=1
  done
}

run_sanitized address $SUITES
run_sanitized undefined $SUITES
run_sanitized thread test_scale

echo "stress check: PASS"
