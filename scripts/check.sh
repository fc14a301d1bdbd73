#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full tier1 test suite,
# optionally under AddressSanitizer/UBSan, plus a formatting check when
# clang-format is available.
#
# Usage:
#   scripts/check.sh             # default preset (RelWithDebInfo) + tests
#   scripts/check.sh --asan      # ALSO build + test the asan-ubsan preset
#   scripts/check.sh --tsan      # ALSO build the tsan preset and run the
#                                # "parallel"-labelled sweep-engine tests
#   scripts/check.sh --coverage  # build+test the coverage preset, then
#                                # print per-directory line coverage and
#                                # fail if src/obs/, src/cluster/,
#                                # src/fault/, or src/mem/ is below 90%
#   scripts/check.sh --resilience # only the overload-resilience
#                                # control-plane + chaos suites
#   scripts/check.sh --fleet     # only the fleet-tier suites
#                                # (hierarchical routing, SLO
#                                # autoscaler, traffic mixes)
#   scripts/check.sh --mem       # only the memory-hierarchy suites
#                                # (unit+property tier and the
#                                # passthrough/differential tier)
#   scripts/check.sh --bench-smoke # build the default preset, run the
#                                # perf-tracking benches (fig7, event
#                                # kernel, cluster scaling, overload
#                                # resilience, fleet scaling, memory
#                                # hierarchy), require each fresh BENCH
#                                # record, and diff it against the
#                                # committed bench/baselines/ (fails on
#                                # a >10% events/s regression, a missing
#                                # baseline, or a bench that never wrote
#                                # its record; widen on noisy runners
#                                # with EQX_BENCH_TOLERANCE), then run
#                                # the repo benchmark's own tests
#                                # (python3 perfbench/test_perfbench.py:
#                                # builds perfbench, which calls the
#                                # routing front-ends directly, and runs
#                                # every workload once)
#   scripts/check.sh --format    # only run the clang-format check
#   scripts/check.sh --digests   # print the result digest of every
#                                # workload in BENCHMARK.json (perfbench
#                                # at --seed 1, one short run each), for
#                                # diffing a behaviour-preserving change
#                                # against its parent commit
#   scripts/check.sh --digests REV # the same for the working tree and
#                                # for REV (extracted with git archive
#                                # under build/), then diff the two sets
#                                # of digest lines; fails on any
#                                # difference
#   scripts/check.sh --bench-stdout REV # extract REV the same way,
#                                # build and run overload_resilience,
#                                # fleet_scaling and cluster_scaling
#                                # (--jobs=1) in REV and in the working
#                                # tree, and cmp each bench's stdout;
#                                # fails on any difference (host timing
#                                # goes to stderr, so stdout is a pure
#                                # function of the code)
#   scripts/check.sh --lines REV # .cc/.hh line counts of every src/
#                                # module and of src/ in total, for REV
#                                # (read with git show) and for the
#                                # working tree, with the delta -- the
#                                # size measure of a simplification
#
# The "resilience" ctest label is a subset of tier1, so the default run
# (and the asan/tsan presets, via the tier1/parallel labels) already
# exercises the control-plane suites; --resilience is the fast loop.
#
# Exits nonzero on the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

run_format_check() {
    # The container image may not ship clang-format; the style gate is
    # advisory there and must not fail the tier-1 run.
    local cf
    cf=$(command -v clang-format || true)
    if [ -z "$cf" ]; then
        echo "check.sh: clang-format not found; skipping format check"
        return 0
    fi
    echo "check.sh: clang-format check ($cf)"
    local bad=0
    while IFS= read -r f; do
        if ! "$cf" --dry-run --Werror "$f" >/dev/null 2>&1; then
            echo "  needs formatting: $f"
            bad=1
        fi
    done < <(git ls-files '*.cc' '*.hh')
    if [ "$bad" -ne 0 ]; then
        echo "check.sh: formatting violations (run clang-format -i)"
        return 1
    fi
    echo "check.sh: formatting clean"
}

run_preset() {
    local preset="$1"
    local label="${2:-tier1}"
    echo "check.sh: configure+build+test preset '$preset'"
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$(nproc)"
    ctest --preset "$preset" -L "$label" -j "$(nproc)"
}

run_bench_smoke() {
    # Perf-regression gate: run the perf-tracking benches serially
    # (jobs=1 pins the exact dispatch path the digests cover), require
    # the fresh BENCH record (a bench exiting zero without writing one
    # -- or writing a stale/wrong-artifact one -- fails here instead of
    # silently diffing an old file), then diff it against the committed
    # baseline. bench_compare.py exits nonzero on a missing baseline
    # too, so a bench added here without a committed record fails
    # loudly.
    local benches=(fig7_inference_latency event_kernel cluster_scaling
                   overload_resilience fleet_scaling memory_hierarchy)
    echo "check.sh: configure+build preset 'default' (bench smoke)"
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target "${benches[@]}"
    local bench
    for bench in "${benches[@]}"; do
        echo "check.sh: bench smoke: $bench"
        rm -f "build/bench/BENCH_$bench.json"
        (cd build/bench && "./$bench" --jobs=1 >/dev/null)
        python3 scripts/bench_compare.py --require "$bench" \
            "build/bench/BENCH_$bench.json"
        python3 scripts/bench_compare.py \
            "bench/baselines/BENCH_$bench.json" \
            "build/bench/BENCH_$bench.json"
    done
    # Nothing in tier1 compiles perfbench, so an API change it depends
    # on would otherwise surface only in the benchmark pipeline.
    echo "check.sh: bench smoke: perfbench self-tests"
    python3 perfbench/test_perfbench.py
}

run_digests() {
    # The driver prints one "digest <workload> <hex>" line per run; a
    # workload that prints none fails the pipeline (pipefail).
    local workloads w
    workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
    for w in $workloads; do
        python3 perfbench/run.py --workload "$w" --seed 1 --seconds 0.1 \
            --trace 0 | grep '^digest '
    done
}

extract_rev() {
    # Extract REV once into the gitignored build/ tree, keyed by its
    # commit sha, and print the directory.
    local sha dir
    sha=$(git rev-parse --verify "$1^{commit}")
    dir="build/digests-$sha"
    if [ ! -d "$dir" ]; then
        mkdir -p build
        rm -rf "$dir.tmp"
        mkdir "$dir.tmp"
        git archive "$sha" | tar -x -C "$dir.tmp"
        mv "$dir.tmp" "$dir"
    fi
    echo "$dir"
}

compare_digests() {
    # Run REV's own perfbench with the same arguments as the working
    # tree's, so the two digest sets come from the two sources.
    local dir base head
    dir=$(extract_rev "$1")
    echo "check.sh: digests of $1 ($dir)"
    base=$(cd "$dir" && run_digests)
    echo "$base"
    echo "check.sh: digests of the working tree"
    head=$(run_digests)
    echo "$head"
    if ! diff <(echo "$base") <(echo "$head"); then
        echo "check.sh: digests differ from $1"
        return 1
    fi
    echo "check.sh: digests identical to $1"
}

compare_bench_stdout() {
    # Build and run the routing benches in REV and in the working tree
    # (each tree's default preset, so REV builds under its own build/)
    # and cmp their stdout byte for byte.
    local benches=(overload_resilience fleet_scaling cluster_scaling)
    local dir tree bench out="build/bench-stdout"
    dir=$(extract_rev "$1")
    mkdir -p "$out/rev" "$out/head"
    for tree in "$dir" .; do
        echo "check.sh: bench stdout: build $tree"
        (cd "$tree" && cmake --preset default >/dev/null &&
            cmake --build --preset default -j "$(nproc)" \
                --target "${benches[@]}" >/dev/null)
    done
    local bad=0
    for bench in "${benches[@]}"; do
        echo "check.sh: bench stdout: $bench"
        (cd "$dir/build/bench" && "./$bench" --jobs=1) \
            >"$out/rev/$bench.txt"
        (cd build/bench && "./$bench" --jobs=1) >"$out/head/$bench.txt"
        if ! cmp "$out/rev/$bench.txt" "$out/head/$bench.txt"; then
            echo "check.sh: $bench stdout differs from $1"
            bad=1
        fi
    done
    if [ "$bad" -ne 0 ]; then
        return 1
    fi
    echo "check.sh: bench stdout identical to $1"
}

lines_of_rev() {
    # "<path> <lines>" for every .cc/.hh file under src/ at REV.
    local f
    git ls-tree -r --name-only "$1" -- src | grep -E '\.(cc|hh)$' |
        while IFS= read -r f; do
            echo "$f $(git show "$1:$f" | wc -l)"
        done
}

lines_of_tree() {
    # The same for the working tree, untracked files included.
    local f
    find src -type f \( -name '*.cc' -o -name '*.hh' \) |
        while IFS= read -r f; do
            echo "$f $(wc -l <"$f")"
        done
}

module_lines() {
    # Sum "<path> <lines>" records per src/<module>, sorted by module.
    awk '{ split($1, p, "/"); n[p[1] "/" p[2]] += $2 }
         END { for (m in n) print m, n[m] }' | sort
}

compare_lines() {
    git rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
        echo "check.sh: unknown revision $1" >&2
        return 2
    }
    join -a 1 -a 2 -e 0 -o 0,1.2,2.2 \
        <(lines_of_rev "$1" | module_lines) \
        <(lines_of_tree | module_lines) |
        awk -v rev="$1" '
            BEGIN { printf "%-14s %9s %9s %7s\n", "module", rev, "tree",
                           "delta" }
            { printf "%-14s %9d %9d %+7d\n", $1, $2, $3, $3 - $2
              a += $2; b += $3 }
            END { printf "%-14s %9d %9d %+7d\n", "src total", a, b,
                         b - a }'
}

case "${1:-}" in
  --format)
    run_format_check
    ;;
  --asan)
    run_format_check
    run_preset default
    run_preset asan-ubsan
    ;;
  --tsan)
    run_format_check
    run_preset default
    run_preset tsan parallel
    ;;
  --coverage)
    run_format_check
    run_preset coverage
    echo "check.sh: per-directory line coverage" \
         "(gates: src/obs, src/cluster, src/fault, src/mem >= 90%)"
    python3 scripts/coverage_report.py build-coverage
    ;;
  --resilience)
    run_preset default resilience
    ;;
  --fleet)
    run_preset default fleet
    ;;
  --mem)
    run_preset default mem
    ;;
  --bench-smoke)
    run_bench_smoke
    ;;
  --digests)
    if [ -n "${2:-}" ]; then
        compare_digests "$2"
    else
        run_digests
    fi
    ;;
  --bench-stdout)
    if [ -z "${2:-}" ]; then
        echo "usage: scripts/check.sh --bench-stdout REV" >&2
        exit 2
    fi
    compare_bench_stdout "$2"
    ;;
  --lines)
    if [ -z "${2:-}" ]; then
        echo "usage: scripts/check.sh --lines REV" >&2
        exit 2
    fi
    compare_lines "$2"
    ;;
  "")
    run_format_check
    run_preset default
    ;;
  *)
    echo "usage: scripts/check.sh" \
         "[--asan|--tsan|--coverage|--resilience|--fleet|--mem|--bench-smoke|--digests [REV]|--bench-stdout REV|--lines REV|--format]" >&2
    exit 2
    ;;
esac

echo "check.sh: OK"
