#!/usr/bin/env bash
# Same-machine pair gate over the end-to-end benchmark in benchmark/.
#
#   .github/scripts/bench-pairs.sh BASE
#
# Extracts BASE and HEAD with `git archive` and builds `bench` from each,
# in a target dir of its own. Then runs PAIRS pairs of untraced
# `bench run --seed i`, one per side, alternating which side goes
# first. A run lasts BENCHMARK.json's run_seconds per workload. Each
# side runs from its own checkout, because `bench` reads BENCHMARK.json
# from the working directory. Results are kept as
# BENCH_pairs/{parent,change}_<i>.json and judged by `judge` below; the
# `bench compare` table is BENCH_pairs/compare.md. Commit first: the
# change side is HEAD, not the working tree.
#
# Fails when `judge` fails: a result is missing or failed an output
# check (a failed `bench run` also ends the pairs early), `bench
# compare` refuses the results, or a row reads WORSE, or reads
# unresolved while the change lost nine pairs in ten. When benchmark/
# or BENCHMARK.json differ between BASE and HEAD the two sides would
# run different benchmarks, so the pairs are skipped; such a change
# re-measures the baseline after it merges.
#
# Sourcing this file defines `judge` and `selftest` and runs nothing.
set -euo pipefail

# Pairs per gate: the fewest at which `bench compare` can call a gain
# (nine tenths of at least ten pairs), and so the fewest at which
# `judge` can call an unresolved row lost by the same share. Checked
# against 30 runs of one binary on the 2-vCPU reference VM, drawn at
# random into 10-pair gates as if independent: 3% of them failed, and
# a 1.5x slower manet_100k step failed 99.5%. Ten pairs take about 40
# minutes there.
PAIRS=10

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
OUT=$ROOT/BENCH_pairs
BUILD=$OUT/build

# judge DIR: judges DIR/parent_<i>.json against DIR/change_<i>.json and
# writes the `bench compare` table to DIR/compare.md. Returns 0 when
# the change may land; 1 when a row reads WORSE, or reads unresolved
# while the change read better in at most a tenth of the pairs; 2 when
# `bench compare` refuses the results (a result lacks a metric, say);
# and 3 when a result is missing or failed an output check.
#
# `unresolved` means a side's inter-quartile spread is wider than the
# bound, and compare says so before it looks at the medians. On the
# reference VM manet_100k's step p50 spreads about a quarter of its
# median between runs of one binary, so a 1.5x slower step usually
# reads unresolved, not WORSE. Losing nine pairs in ten is the mirror of
# compare's rule for a gain, and it does not depend on the spread.
judge() {
    local dir=$1 i status=0 rows
    local parent=() change=()
    for ((i = 1; i <= PAIRS; i++)); do
        parent+=("$dir/parent_$i.json")
        change+=("$dir/change_$i.json")
    done
    if ! jq -s -e 'all(.[].workloads[]; .correct == true)' \
        "${parent[@]}" "${change[@]}" > /dev/null; then
        echo "bench-pairs: a result is missing or failed an output check" >&2
        return 3
    fi
    "$BUILD/target-change/release/bench" compare --parent "${parent[@]}" \
        --change "${change[@]}" --spec "$BUILD/change/BENCHMARK.json" > "$dir/compare.md" ||
        status=$?
    cat "$dir/compare.md"
    if ((status > 1)); then
        echo "bench-pairs: bench compare exited $status" >&2
        return 2
    fi
    # Table columns: workload | metric | parent | change | wins/pairs |
    # bound | floor | verdict.
    rows=$(awk -F' *[|] *' '
        $9 == "WORSE" { print "fail:", $2, $3, "reads WORSE" }
        $9 == "unresolved" {
            split($6, wp, "/")
            tag = wp[1] * 10 <= wp[2] ? "fail:" : "note:"
            print tag, $2, $3, "reads unresolved; the change read better in", $6, "pairs"
        }' "$dir/compare.md")
    if [[ -n $rows ]]; then
        echo "$rows"
    fi
    if ((status == 1)) && [[ -z $rows ]]; then
        echo "bench-pairs: bench compare exited 1 without a WORSE or unresolved row" >&2
        return 2
    fi
    if [[ $rows == *fail:* ]]; then
        echo "bench-pairs: the change is worse than its parent (fail: rows above)" >&2
        return 1
    fi
}

# selftest: judges doctored copies of the results in BENCH_pairs and
# fails unless each doctored copy is refused for its own reason and the
# untouched copy passes, so the gate cannot pass vacuously.
selftest() {
    local name want files filter dir f got failed=0
    # name | judge's expected status | change files doctored | jq filter.
    # The slowdown goes into every change file so that it moves the median.
    while IFS='|' read -r name want files filter; do
        dir=$OUT/selftest/$name
        rm -rf "$dir"
        mkdir -p "$dir"
        cp "$OUT"/parent_*.json "$OUT"/change_*.json "$dir"/
        for f in "$dir"/$files; do
            jq "$filter" "$f" > "$f.doctored"
            mv "$f.doctored" "$f"
        done
        got=0
        judge "$dir" > "$dir/judge.log" 2>&1 || got=$?
        if ((got == want)); then
            echo "selftest $name: judge returned $got as expected"
        else
            echo "selftest $name: judge returned $got, expected $want" >&2
            cat "$dir/judge.log" >&2
            failed=1
        fi
    done <<'CASES'
slower|1|change_*.json|.workloads.manet_100k.end_to_end.latency_ms_p50.value *= 1.5
missing|2|change_1.json|del(.workloads.manet_100k.end_to_end.latency_ms_p50)
incorrect|3|change_1.json|.workloads.manet_100k.correct = false
untouched|0|change_*.json|.
CASES
    return "$failed"
}

# checkout REV SIDE: builds `bench` at REV into $BUILD/target-SIDE and
# leaves the checkout at $BUILD/SIDE. Both sides compile at one path,
# $BUILD/src: cargo hashes a dependency's path into its symbol names and
# rustc writes it into panic locations, so built at two paths the same
# source compiled to different machine code, and on the reference VM
# one side ran the quick suite 6% slower than the other.
checkout() {
    local src=$BUILD/src
    mkdir -p "$src"
    git archive "$1" | tar -x -C "$src"
    cargo build --release --offline --quiet --bin bench \
        --manifest-path "$src/benchmark/Cargo.toml" --target-dir "$BUILD/target-$2"
    mv "$src" "$BUILD/$2"
}

# run_side SIDE SEED: one untraced `bench run` from SIDE's checkout. Its
# result, if it wrote one, goes to BENCH_pairs/SIDE_SEED.json, failed or
# not, and its exit status is returned. "parent" and "change" have one
# length, so both runs see the same environment size.
run_side() {
    local side=$1 seed=$2 dir=$BUILD/$1 start=$SECONDS status=0
    echo "== pair $seed/$PAIRS: $side =="
    (cd "$dir" && "$BUILD/target-$side/release/bench" run --seed "$seed") || status=$?
    if [[ -e $dir/bench_result.json ]]; then
        mv "$dir/bench_result.json" "$OUT/${side}_$seed.json"
    fi
    echo "bench-pairs: $side run $seed exited $status after $((SECONDS - start)) s"
    return "$status"
}

main() {
    if (($# != 1)); then
        echo "usage: $0 BASE" >&2
        exit 2
    fi
    cd "$ROOT"
    local base i side order
    base=$(git rev-parse --verify "$1^{commit}")
    if ! git diff --quiet "$base" HEAD -- benchmark BENCHMARK.json; then
        echo "bench-pairs: benchmark/ or BENCHMARK.json differ between $1 and HEAD;" \
            "skipping the pairs. Re-measure the baseline after this change merges."
        return 0
    fi
    rm -rf "$OUT"
    echo "bench-pairs: building bench at $base and at HEAD ($(git rev-parse HEAD))"
    checkout "$base" parent
    checkout HEAD change
    local started=$SECONDS
    for ((i = 1; i <= PAIRS; i++)); do
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            # A failed run fails the gate in `judge`; the pairs left
            # cannot change that.
            run_side "$side" "$i" || break 2
        done
    done
    echo "bench-pairs: the pairs ran for $((SECONDS - started)) s"
    judge "$OUT"
}

if [[ ${BASH_SOURCE[0]} == "$0" ]]; then
    main "$@"
fi
