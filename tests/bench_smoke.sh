#!/usr/bin/env bash
# A sweep under a memory budget: every analysis the sweep runs must
# complete, and the peak resident set the JSON report records
# (peak_rss_mb) must stay within the budget, so a memory regression
# fails here as a number instead of an OOM kill.
#
# Usage: bench_smoke.sh <mpos_bench binary> <report.json>
#                       [budget_mb [mpos_bench flags...]]
#
# The budget defaults to 512 MB and the flags to --smoke (the plain
# smoke sweep). For example, the default sweep on four workers under
# 1536 MB:
#
#   bench_smoke.sh build/bench/mpos_bench sweep.json 1536 --jobs 4

set -u

bench="${1:?usage: bench_smoke.sh <mpos_bench> <report.json> [budget_mb [flags...]]}"
report="${2:?usage: bench_smoke.sh <mpos_bench> <report.json> [budget_mb [flags...]]}"
budget_mb="${3:-512}"
shift 2
if [ $# -gt 0 ]; then
    shift
fi
if [ $# -eq 0 ]; then
    set -- --smoke
fi

"$bench" "$@" --json "$report" || exit 1

rss="$(sed -n 's/^ *"peak_rss_mb": \([0-9.]*\),*$/\1/p' "$report")"
if [ -z "$rss" ]; then
    echo "FAIL: $report carries no peak_rss_mb"
    exit 1
fi
echo "peak_rss_mb: $rss (budget $budget_mb)"
if ! awk -v rss="$rss" -v budget="$budget_mb" \
        'BEGIN { exit !(rss <= budget) }'; then
    echo "FAIL: peak RSS $rss MB exceeds the $budget_mb MB budget"
    exit 1
fi
