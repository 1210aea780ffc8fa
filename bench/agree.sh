#!/usr/bin/env bash
# Runs the untraced benchmark twice on the same commit and fails if the two
# sets disagree: for each workload and end-to-end metric, the medians of the
# two sets may differ by at most the bound BENCHMARK.json fixes for it.
#
#   bench/agree.sh [runs-per-set (default 3)] [first-seed (default 42)]
#
# Every run of a set uses another seed; both sets use the same seeds.
set -euo pipefail

BENCH_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
RUNS="${1:-3}"
FIRST_SEED="${2:-42}"
NAMES=(cold_volatile cold_durable zipf_swap fit_refit)
RESULTS="$BENCH_DIR/out/agree.tsv"

mkdir -p "$BENCH_DIR/out"
: >"$RESULTS"
failed=0
for set in 1 2; do
    for w in "${NAMES[@]}"; do
        for ((i = 0; i < RUNS; i++)); do
            seed=$((FIRST_SEED + i))
            echo "set $set: $w seed $seed" >&2
            out="$(bash "$BENCH_DIR/run.sh" --workload "$w" --seed "$seed" --trace 0)"
            case "$(tail -n 1 <<<"$out")" in
                '{"correct": true, "attempted": '*', "failed": 0, '*) ;;
                *) echo "agree.sh: $w seed $seed failed its output checks" >&2; failed=1 ;;
            esac
            grep -v -e '^#' -e '^{' <<<"$out" |
                awk -F'\t' -v s="$set" -v w="$w" '{ print s "\t" w "\t" $1 "\t" $2 }' >>"$RESULTS"
        done
    done
done

# Bounds and directions come from BENCHMARK.json, one metric per line there.
sed -n 's/.*"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1\t\2\t\3/p' \
    "$BENCH_DIR/../BENCHMARK.json" >"$BENCH_DIR/out/agree.bounds.tsv"

awk -F'\t' '
function median(values, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && values[j - 1] > values[j]; j--) {
            t = values[j]; values[j] = values[j - 1]; values[j - 1] = t
        }
    return values[int((n + 1) / 2)]
}
FNR == NR { bound[$1] = $3; order[++metrics] = $1; next }
($3 in bound) {
    key = $1 SUBSEP $2 SUBSEP $3
    sample[key, ++count[key]] = $4
    if (!seen[$2]++) workloads[++nw] = $2
}
END {
    printf "%-14s %-13s %14s %14s %9s %6s  %s\n", "workload", "metric", "set 1", "set 2", "differ by", "bound", "verdict"
    bad = 0
    for (w = 1; w <= nw; w++) for (m = 1; m <= metrics; m++) {
        for (s = 1; s <= 2; s++) {
            key = s SUBSEP workloads[w] SUBSEP order[m]
            n = count[key]
            for (i = 1; i <= n; i++) v[i] = sample[key, i]
            med[s] = median(v, n)
        }
        differ = med[1] > 0 ? (med[2] > med[1] ? med[2] - med[1] : med[1] - med[2]) / med[1] : 1
        ok = differ <= bound[order[m]]
        if (!ok) bad = 1
        printf "%-14s %-13s %14.4f %14.4f %8.1f%% %5.0f%%  %s\n", workloads[w], order[m], med[1], med[2], 100 * differ, 100 * bound[order[m]], ok ? "agree" : "DISAGREE"
    }
    exit bad
}' "$BENCH_DIR/out/agree.bounds.tsv" "$RESULTS" || failed=1

exit "$failed"
