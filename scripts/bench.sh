#!/usr/bin/env bash
# bench.sh — run the repo's benchmarks and emit a machine-readable snapshot.
#
# Benchmarks the root package (ablations, kernel, placement, runner, engine)
# and internal/experiments (one benchmark per study).
#
# Produces two files in $OUT_DIR (default: bench/):
#   BENCH_<git-sha>.txt   raw `go test -bench` output (benchstat-compatible)
#   BENCH_<git-sha>.json  parsed {benchmark, ns_op, b_op, allocs_op, metrics{}}
#
# <git-sha> is the short HEAD sha, with a "-dirty" suffix when tracked files
# differ from HEAD, so uncommitted work is never filed under its parent's
# name. The script refuses to overwrite an existing snapshot.
#
# Usage:
#   scripts/bench.sh                 # micro benchmarks, count=6
#   BENCH_PATTERN='Fig|Sim' scripts/bench.sh
#   BENCH_COUNT=10 OUT_DIR=/tmp scripts/bench.sh
#
# The JSON is produced with awk only — no dependencies beyond the go
# toolchain and a POSIX userland — so CI can upload it as an artifact and
# later sessions can diff snapshots across commits.
set -euo pipefail

# Benchmark the checkout the script is called from, so a copy of the script
# kept outside the tree (CI's merge-base compare) still measures that
# checkout; outside git, fall back to the script's own parent directory.
cd "$(git rev-parse --show-toplevel 2>/dev/null || echo "$(dirname "$0")/..")"

PATTERN="${BENCH_PATTERN:-SimKernelEvents|SimKernelMillionTimers|SimKernelTimerChurn|FluidServer|Fig1ContainerReuse|Fig2ParallelScaling|ColdStart|RunnerWorkers|KubePlacement|WorkflowFanOut}"
COUNT="${BENCH_COUNT:-6}"
BENCHTIME="${BENCH_TIME:-1s}"
OUT_DIR="${OUT_DIR:-bench}"

SHA="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
if [ "$SHA" != nogit ] && ! git diff --quiet HEAD; then
    SHA="${SHA}-dirty"
fi
mkdir -p "$OUT_DIR"
RAW="$OUT_DIR/BENCH_${SHA}.txt"
JSON="$OUT_DIR/BENCH_${SHA}.json"
for f in "$RAW" "$JSON"; do
    if [ -e "$f" ]; then
        echo "error: snapshot $f already exists; move it away or set OUT_DIR" >&2
        exit 1
    fi
done

if [ -n "${BENCH_INPUT:-}" ]; then
    # Test hook: parse a pre-recorded raw file instead of running go test.
    cp "$BENCH_INPUT" "$RAW"
else
    echo "benchmarking '${PATTERN}' count=${COUNT} benchtime=${BENCHTIME} -> ${RAW}" >&2
    go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . ./internal/experiments | tee "$RAW"
fi

# A pattern that matches nothing still exits 0 from `go test` and would
# produce a snapshot with an empty benchmark list — which a later benchstat
# compare silently treats as "no regressions". Fail loudly instead.
if [ "$(grep -c '^Benchmark' "$RAW" || true)" -eq 0 ]; then
    echo "error: pattern '${PATTERN}' matched no benchmarks; no snapshot written" >&2
    rm -f "$RAW" "$JSON"
    exit 1
fi

# Parse the raw output: average repeated counts per benchmark, keep custom
# ReportMetric columns (unit taken from the trailing token, e.g. "reps/s").
awk -v sha="$SHA" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)            # strip GOMAXPROCS suffix
    seen[name] = 1
    n[name]++
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9_\/%.-]/, "", unit)
        sum[name, unit] += $i
        cnt[name, unit]++
        units[name] = units[name] SUBSEP unit
    }
}
END {
    printf "{\n  \"commit\": \"%s\",\n  \"benchmarks\": [\n", sha
    first = 1
    for (name in seen) order[++k] = name
    asort_done = 0
    # stable output: simple insertion sort on names
    for (i = 2; i <= k; i++) {
        v = order[i]
        for (j = i - 1; j >= 1 && order[j] > v; j--) order[j + 1] = order[j]
        order[j + 1] = v
    }
    for (i = 1; i <= k; i++) {
        name = order[i]
        if (!first) printf ",\n"
        first = 0
        printf "    {\"name\": \"%s\", \"runs\": %d", name, n[name]
        split(units[name], us, SUBSEP)
        delete emitted
        for (u in us) {
            unit = us[u]
            if (unit == "" || emitted[unit]) continue
            emitted[unit] = 1
            key = unit
            gsub(/\//, "_per_", key)
            gsub(/%/, "pct_", key)
            gsub(/[^A-Za-z0-9_]/, "_", key)
            printf ", \"%s\": %.6g", key, sum[name, unit] / cnt[name, unit]
        }
        printf "}"
    }
    printf "\n  ]\n}\n"
}' "$RAW" > "$JSON"

echo "wrote ${JSON}" >&2
