#!/usr/bin/env bash
# Smoke pass: every workload, untraced and traced, at tiny sizes (--quick).
# Asserts that outputs are correct, that every metric prints, that the
# bypass workload never touches the cache, that the open loop leaves no
# backlog, and that the temporary disk tier is gone afterwards.
# Run from the repository root:  benchmark/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pc-benchmark"

value() { # value <metric> <result line>
    printf '%s' "$2" | grep -o "\"$1\": {\"value\": [-0-9.e+]*" | sed 's/.*: //'
}
names() { # metric names under <key> in BENCHMARK.json
    python3 -c "import json,sys; print('\n'.join(m['name'] for m in json.load(open('BENCHMARK.json'))[sys.argv[1]]))" "$1"
}

started=$SECONDS
for workload in hit_closed miss_closed decode_saturated churn_open; do
    for trace in 0 1; do
        line=$("$bin" --workload "$workload" --seed 7 --trace "$trace" --quick | tail -n 1)
        case "$line" in
            '{"correct": true, '*'"failed": 0, '*) ;;
            *) echo "smoke: $workload trace=$trace is not correct: ${line:0:120}" >&2; exit 1 ;;
        esac
        key=$([ "$trace" = 1 ] && echo per_layer || echo end_to_end)
        for name in $(names "$key"); do
            [ -n "$(value "$name" "$line")" ] || { echo "smoke: $workload does not print $name" >&2; exit 1; }
        done
        if [ "$trace" = 1 ] && [ "$workload" = miss_closed ]; then
            [ "$(value cache.hits "$line")" = 0 ] || { echo "smoke: miss_closed hit the cache" >&2; exit 1; }
        fi
        if [ "$trace" = 1 ] && [ "$workload" = churn_open ]; then
            [ "$(value client.backlog_at_end "$line")" = 0 ] || { echo "smoke: churn_open left a backlog" >&2; exit 1; }
        fi
    done
done
[ ! -e benchmark/.tmp ] || { echo "smoke: benchmark/.tmp was not removed" >&2; exit 1; }
echo "smoke: ok in $((SECONDS - started)) s"
