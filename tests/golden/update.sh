#!/usr/bin/env bash
# Regenerate the committed golden corpus in tests/golden/ from a fresh
# mpos_bench --smoke run (same pinned configuration as check.sh).
# Review the resulting diff before committing: every changed line is a
# claimed intentional change to a paper figure/table.
#
# Usage: update.sh <mpos_bench binary> [sim_tests binary
#                                        [mpos_bench args...]]
#
# When the sim_tests binary is also given, the pinned trace golden
# (trace_smoke.jsonl) is regenerated as well (pass
# "" to skip it). Trailing arguments go to mpos_bench, as in check.sh.
# Regenerating the default corpus also regenerates the per-policy lock
# corpora lockproto/<policy>/ (see lockproto.sh) and the job-plan
# golden plan/default.json (see plan.sh).

set -eu

bench="${1:?usage: update.sh <mpos_bench binary> [sim_tests binary [mpos_bench args...]]}"
sim_tests="${2:-}"
shift $(( $# < 2 ? $# : 2 ))
# MPOS_GOLDEN_DIR regenerates an alternate corpus (e.g. smoke8/);
# combine with MPOS_GOLDEN_CPUS/MPOS_GOLDEN_PROTOCOL, as in check.sh.
golden="${MPOS_GOLDEN_DIR:-$(cd "$(dirname "$0")" && pwd)}"
mkdir -p "$golden"

export MPOS_CYCLES=300000
export MPOS_WARMUP=150000
export MPOS_SEED=7
machine=()
if [ -n "${MPOS_GOLDEN_CPUS:-}" ]; then
    machine+=(--cpus "$MPOS_GOLDEN_CPUS")
fi
if [ -n "${MPOS_GOLDEN_PROTOCOL:-}" ]; then
    machine+=(--protocol "$MPOS_GOLDEN_PROTOCOL")
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$bench" --smoke --check --golden-dir "$tmp/fresh" \
    --json "$tmp/results.json" "${machine[@]}" "$@" > /dev/null

# Replace the corpus wholesale so removed analyses don't leave stale
# golden files behind.
rm -f "$golden"/*.json
cp "$tmp/fresh"/*.json "$golden"/

echo "golden corpus updated: $(ls "$golden"/*.json | wc -l) files in" \
     "$golden"

if [ -n "$sim_tests" ]; then
    MPOS_UPDATE_GOLDEN=1 "$sim_tests" \
        --gtest_filter='Trace.GoldenByteIdentical' > /dev/null
    echo "trace golden updated: trace_smoke.jsonl"
fi

if [ -z "${MPOS_GOLDEN_DIR:-}" ] && [ $# -eq 0 ]; then
    bash "$(dirname "$0")/lockproto.sh" update "$bench"
    bash "$(dirname "$0")/plan.sh" update "$bench"
fi
