#!/usr/bin/env bash
# h1_rate.sh — states H1's false-failure rate: how often the tier-1
# TestStatisticalTierConfirms fails at a base revision and on the
# working tree, run alternately.
#
#   scripts/h1_rate.sh [runs] [base]       (default 200 runs, base HEAD)
#
# It builds the internal/hypo test binary of base (from `git archive`
# into a temporary directory) and of the working tree, then runs the
# test `runs` times on each side, swapping which side goes first every
# pair so a drift in the host's speed lands on both alike. It prints
# each side's failure count and, for every failed run, each seed that
# did not hold with its warm speedup (H1's estimator: cold ns over warm
# ns, floor 100x). H1_BASE_BIN and H1_TREE_BIN, when set, name prebuilt
# test binaries to run instead of building them.
set -uo pipefail

cd "$(dirname "$0")/.."

runs="${1:-200}"
base="${2:-HEAD}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

base_bin="${H1_BASE_BIN:-}"
tree_bin="${H1_TREE_BIN:-}"
if [ -z "$base_bin" ]; then
    mkdir "$tmp/base"
    git archive "$base" | tar -x -C "$tmp/base" || exit 2
    (cd "$tmp/base" && go test -c -o "$tmp/base.test" ./internal/hypo) || exit 2
    base_bin="$tmp/base.test"
fi
if [ -z "$tree_bin" ]; then
    go test -c -o "$tmp/tree.test" ./internal/hypo || exit 2
    tree_bin="$tmp/tree.test"
fi

declare -A fails=([base]=0 [tree]=0)
# run_once runs the test once on one side and records a failure with
# the seeds that did not hold.
run_once() {
    local side=$1 bin=$2 run=$3
    if (cd internal/hypo && "$bin" -test.run '^TestStatisticalTierConfirms$' -test.count 1) > "$tmp/log" 2>&1; then
        return
    fi
    fails[$side]=$((fails[$side] + 1))
    local seeds
    seeds=$(grep -oE '"seed":[0-9]+,"holds":false,[^{]*\{[^}]*\},"timings_ns":\{[^}]*\}' "$tmp/log" |
        sed -E 's/^"seed":([0-9]+).*"speedup_x":([0-9.e+-]+).*$/seed \1 at \2x/' | paste -sd ',' -)
    echo "$side run $run failed: ${seeds:-$(grep -m1 -E 'FAIL|panic' "$tmp/log")}"
}

for ((i = 1; i <= runs; i++)); do
    if ((i % 2)); then
        run_once base "$base_bin" "$i"
        run_once tree "$tree_bin" "$i"
    else
        run_once tree "$tree_bin" "$i"
        run_once base "$base_bin" "$i"
    fi
done
echo "h1-rate: base $base failed ${fails[base]}/$runs, tree failed ${fails[tree]}/$runs"
