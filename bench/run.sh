#!/usr/bin/env bash
# The repository benchmark. Three ways to call it:
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run (what BENCHMARK.json's command does): builds, runs, and
#       prints the result object as the last line of standard output.
#   bench/run.sh [--seed N] [--seconds S]
#       every workload, untraced then traced, each in its own process;
#       prints every metric by name with its unit, keeps the outputs under
#       bench/out/ and writes bench/out/entry.json.
#   bench/run.sh --check
#       every workload in both modes for one short round, with the full
#       output verification; fails on a wrong bit, a wrong paper figure, a
#       missing or invalid metric name.
set -euo pipefail

BENCH_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
OUT="$BENCH_DIR/out"
NAMES=(cold_volatile cold_durable zipf_swap fit_refit)

build() {
    # Release only; a relative CARGO_TARGET_DIR is taken from where the
    # caller stands, as cargo itself does.
    cargo build --release --offline --quiet --manifest-path "$BENCH_DIR/Cargo.toml" >&2
    BIN="${CARGO_TARGET_DIR:-$BENCH_DIR/target}/release/pfr-e2e-bench"
}

seed=42
seconds=18
check=0
workload=""
passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --check) check=1; shift ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --trace | --record) passthrough+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

build

if [ -n "$workload" ]; then
    exec "$BIN" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --out "$OUT" ${passthrough[@]+"${passthrough[@]}"}
fi

# Journals live under out/scratch and must not outlive the run, whichever
# way it ends.
trap 'rm -rf "$OUT/scratch"' EXIT
mkdir -p "$OUT"
rm -f "$OUT"/*.txt "$OUT"/*.trace.jsonl "$OUT/entry.json"

if [ "$check" = 1 ]; then
    seconds=1
fi
status=0
for w in "${NAMES[@]}"; do
    for trace in 0 1; do
        result="$OUT/$w.trace$trace.txt"
        echo "== $w (trace $trace, seed $seed, ${seconds}s)"
        if ! "$BIN" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$OUT" >"$result"; then
            echo "run.sh: $w (trace $trace) exited without a result" >&2
            status=1
            continue
        fi
        grep -v '^{' "$result" || true
        last="$(tail -n 1 "$result")"
        case "$last" in
            '{"correct": true, "attempted": '*', "failed": 0, "metrics": {'*'}}') ;;
            *)
                echo "run.sh: $w (trace $trace) failed its output checks: ${last:0:80}" >&2
                status=1
                ;;
        esac
    done
done

# One github-action-benchmark style entry (tool customSmallerIsBetter), so a
# later CI step can append it to a trajectory. Rates are inverted so that
# smaller is better for every line.
{
    commit="$(git -C "$BENCH_DIR" rev-parse HEAD 2>/dev/null || echo unknown)"
    printf '{\n  "commit": {"id": "%s"},\n  "date": %s000,\n' "$commit" "$(date +%s)"
    printf '  "tool": "customSmallerIsBetter",\n  "benches": [\n'
    first=1
    for w in "${NAMES[@]}"; do
        while IFS=$'\t' read -r name value unit; do
            case "$name" in
                setup_s | latency_us | fit_wide_s | peak_rss_mb) ;;
                capacity_rps)
                    name=capacity_us_per_op
                    value="$(awk -v v="$value" 'BEGIN { printf "%.6f", 1e6 / v }')"
                    unit=us
                    ;;
                *) continue ;;
            esac
            [ "$first" = 1 ] || printf ',\n'
            first=0
            printf '    {"name": "%s/%s", "value": %s, "unit": "%s"}' "$w" "$name" "$value" "$unit"
        done < <(grep -v -e '^#' -e '^{' "$OUT/$w.trace0.txt" 2>/dev/null || true)
    done
    printf '\n  ]\n}\n'
} >"$OUT/entry.json"

exit "$status"
