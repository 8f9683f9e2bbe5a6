#!/usr/bin/env bash
# Observability smoke: the full analysis sweep with tracing, metrics
# and profiling all on must still pass, produce a JSONL trace and a
# collapsed-stack profile per standard job and no other trace format,
# and the JSON report (including the per-window metrics and profile
# objects) must be machine-parseable.
#
# Usage: trace_smoke.sh <mpos_bench binary> <mpos_trace binary>

set -u

bench="${1:?usage: trace_smoke.sh <mpos_bench> <mpos_trace>}"
trace_tool="${2:?usage: trace_smoke.sh <mpos_bench> <mpos_trace>}"

export MPOS_CYCLES=300000
export MPOS_WARMUP=150000
export MPOS_SEED=7

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if ! "$bench" --smoke --trace --metrics --profile \
        --obs-dir "$tmp/obs" --json "$tmp/report.json" \
        > "$tmp/stdout.log" 2> "$tmp/stderr.log"; then
    echo "FAIL: mpos_bench --smoke with observability exited non-zero"
    tail -n 40 "$tmp/stderr.log"
    exit 1
fi

fail=0

# The report must be valid JSON, with the obs flags recorded.
if ! "$trace_tool" validate "$tmp/report.json"; then
    fail=1
fi
for key in '"metrics":' '"profile":' '"trace_file":' \
           '"events_per_second":'; do
    if ! grep -q "$key" "$tmp/report.json"; then
        echo "FAIL: report.json carries no $key object"
        fail=1
    fi
done

# JSONL is the only trace format.
for f in "$tmp"/obs/*.trace; do
    if [ -e "$f" ]; then
        echo "FAIL: unexpected trace file $f"
        fail=1
    fi
done

# Every standard job leaves a JSONL trace + folded profile pair.
for wl in Pmake Multpgm Oracle; do
    base="$tmp/obs/std_$wl"
    for ext in jsonl folded; do
        if [ ! -s "$base.$ext" ]; then
            echo "FAIL: missing or empty $base.$ext"
            fail=1
        fi
    done
    # Collapsed stacks: "frame[;frame...] <cycles>" lines only.
    if [ -s "$base.folded" ] &&
       grep -qvE '^[^ ]+( [0-9]+)$' "$base.folded"; then
        echo "FAIL: malformed collapsed-stack line in $base.folded"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "observability smoke FAILED"
    exit 1
fi

echo "observability smoke OK"
