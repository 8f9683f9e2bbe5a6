#!/usr/bin/env bash
# The plain smoke sweep under a memory budget: every analysis of
# `mpos_bench --smoke` must complete, and the peak resident set the
# JSON report records (peak_rss_mb) must stay within 2048 MB, so a
# memory regression fails here as a number instead of an OOM kill.
#
# Usage: bench_smoke.sh <mpos_bench binary> <report.json>

set -u

bench="${1:?usage: bench_smoke.sh <mpos_bench> <report.json>}"
report="${2:?usage: bench_smoke.sh <mpos_bench> <report.json>}"
budget_mb=2048

"$bench" --smoke --json "$report" || exit 1

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
