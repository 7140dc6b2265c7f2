#!/usr/bin/env bash
# Repo check: configure, build, run the full test suite, then verify
# that event tracing is deterministic end-to-end (two identical
# klocsim runs must dump byte-identical traces, with the invariant
# checker clean on both).
#
# Independent simulation runs execute concurrently: the a/b trace
# pairs run as background shell jobs, and the fault-fuzz sweep runs
# its seeds on the in-process RunPool with KLOC_JOBS workers. All
# comparisons stay byte-exact — parallelism never touches sim time.
#
# Optional stages (any combination, default is build+test+determinism):
#   --lint      run klint and, when available, clang-tidy over src/
#   --lint-fast build only the klint target and run it against the
#               on-disk index cache, skipping everything else — the
#               seconds-fast pre-commit / CI lint path. Extra klint
#               flags (e.g. --github) pass through via KLINT_FLAGS.
#   --sanitize  rebuild with -DKLOC_SANITIZE=ON (ASan+UBSan) in
#               BUILD_DIR-asan and run the full test suite there
#   --tsan      rebuild with -DKLOC_TSAN=ON in BUILD_DIR-tsan and run
#               the RunPool/parallel-identity/fuzz-sweep tests there
#   --all       everything above (except --lint-fast, which --lint
#               subsumes)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
export KLOC_JOBS=${KLOC_JOBS:-$(nproc)}

DO_LINT=0
DO_LINT_FAST=0
DO_SANITIZE=0
DO_TSAN=0
for arg in "$@"; do
    case "$arg" in
      --lint) DO_LINT=1 ;;
      --lint-fast) DO_LINT_FAST=1 ;;
      --sanitize) DO_SANITIZE=1 ;;
      --tsan) DO_TSAN=1 ;;
      --all) DO_LINT=1; DO_SANITIZE=1; DO_TSAN=1 ;;
      *) echo "usage: check.sh [--lint] [--lint-fast] [--sanitize]" \
              "[--tsan] [--all]" >&2
         exit 2 ;;
    esac
done

if [ "$DO_LINT_FAST" = 1 ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
    cmake --build "$BUILD_DIR" -j "$JOBS" --target klint
    # shellcheck disable=SC2086  # KLINT_FLAGS is a flag list
    "$BUILD_DIR"/tools/klint --root=. \
        --cache="${KLINT_CACHE:-$BUILD_DIR/klint-cache.txt}" \
        ${KLINT_FLAGS:-} || {
        echo "FAIL: klint reported findings" >&2
        exit 1
    }
    echo "check.sh: lint-fast OK"
    exit 0
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Golden-style determinism check on the CLI path: same command, two
# fresh processes, identical serialized traces, zero violations. The
# two runs are independent processes, so they run concurrently; each
# must exit 0 (klocsim exits 2 when --check finds a violation).
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
ab_check() {
    local name=$1
    shift
    "$BUILD_DIR"/tools/klocsim run "$@" --trace "$tracedir/$name.a" \
        --check > "$tracedir/$name.a.out" &
    local pid_a=$!
    "$BUILD_DIR"/tools/klocsim run "$@" --trace "$tracedir/$name.b" \
        --check > "$tracedir/$name.b.out" &
    local pid_b=$!
    local rc_a=0 rc_b=0
    wait "$pid_a" || rc_a=$?
    wait "$pid_b" || rc_b=$?
    if [ "$rc_a" != 0 ] || [ "$rc_b" != 0 ]; then
        echo "FAIL: klocsim $name runs exited $rc_a/$rc_b" >&2
        cat "$tracedir/$name.a.out" >&2
        exit 1
    fi
    cmp "$tracedir/$name.a" "$tracedir/$name.b" || {
        echo "FAIL: klocsim $name traces differ between identical runs" >&2
        exit 1
    }
}

ab_check rocksdb --workload rocksdb --ops 2000 --scale 16

# thrash's sweep is the per-access hot path (the cost memo, the
# cached current socket, LRU activation).
ab_check thrash --workload thrash --ops 1000 --scale 64

# varmail's directory scans charge DirBuffer fills through the count
# form of readdir (getdents), one batched touch per buffer.
ab_check varmail --workload varmail --ops 2000 --scale 256

# With fault injection armed, injected faults, retries, and recovery
# must land on the same virtual ticks in both runs.
cat > "$tracedir/faults.txt" <<'EOF'
seed 11
device_write prob 0.02
device_read prob 0.01
device_timeout prob 0.005
migration_no_space prob 0.1
journal_commit_crash prob 0.1
EOF
ab_check rocksdb-faulted --workload rocksdb --ops 2000 --scale 16 \
    --fault-spec "$tracedir/faults.txt"

# An armed injector draws frame_poison_access on every memory touch,
# so varmail's batched dirent fills fall back to one touch at a time.
# Poisoned frames, their containment and the data loss they cause
# must land on the same ticks in both runs.
cat > "$tracedir/poison.txt" <<'EOF'
seed 13
frame_poison_access prob 0.001
EOF
ab_check varmail-faulted --workload varmail --ops 2000 --scale 256 \
    --fault-spec "$tracedir/poison.txt"

# The randomized fault fuzz must be invariant-clean on every seed;
# the sweep fans the seeds out over KLOC_JOBS RunPool workers.
"$BUILD_DIR"/tests/test_fault --gtest_filter='FaultFuzzSweep*' \
    > /dev/null || {
    echo "FAIL: fault fuzz reported invariant violations" >&2
    exit 1
}

if [ "$DO_LINT" = 1 ]; then
    # klint: the repo's own static analysis (see docs/ANALYSIS.md).
    "$BUILD_DIR"/tools/klint --root=. || {
        echo "FAIL: klint reported findings" >&2
        exit 1
    }
    # clang-tidy is best-effort: run it when installed (CI installs
    # it; a bare container may not have it).
    if command -v clang-tidy >/dev/null 2>&1; then
        cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
            > /dev/null
        mapfile -t tidy_files < <(git ls-files 'src/*.cc')
        clang-tidy -p "$BUILD_DIR" --quiet "${tidy_files[@]}" || {
            echo "FAIL: clang-tidy reported findings" >&2
            exit 1
        }
    else
        echo "check.sh: clang-tidy not installed, skipping"
    fi
    echo "check.sh: lint stage OK"
fi

if [ "$DO_SANITIZE" = 1 ]; then
    ASAN_DIR="${BUILD_DIR}-asan"
    cmake -B "$ASAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKLOC_SANITIZE=ON
    cmake --build "$ASAN_DIR" -j "$JOBS"
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS"
    echo "check.sh: sanitizer stage OK"
fi

if [ "$DO_TSAN" = 1 ]; then
    # ThreadSanitizer smoke over the concurrency surface: the pool
    # itself, the parallel-vs-serial identity tests, and the pooled
    # fuzz sweep. The rest of the suite is single-threaded and runs
    # under ASan/UBSan above.
    TSAN_DIR="${BUILD_DIR}-tsan"
    cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKLOC_TSAN=ON
    cmake --build "$TSAN_DIR" -j "$JOBS"
    ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
        -R 'RunPool|ParallelIdentity|FaultFuzz'
    echo "check.sh: tsan stage OK"
fi

echo "check.sh: build, tests, trace and fault determinism all OK"
