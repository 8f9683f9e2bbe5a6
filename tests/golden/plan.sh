#!/usr/bin/env bash
# Job-plan golden. mpos_bench --dry-run prints every job of the default
# sweep (48 jobs over every CPU count, protocol, lock policy and
# ablation) with its config_hash: the fingerprint of every setting that
# shapes a job's simulated events. At the run lengths and seed check.sh
# pins, the plan must match plan/default.json byte for byte, so a
# change that moves any job's configuration shows up here without
# simulating a cycle.
#
# Usage: plan.sh check|update <mpos_bench binary>

set -u

mode="${1:?usage: plan.sh check|update <mpos_bench binary>}"
bench="${2:?usage: plan.sh check|update <mpos_bench binary>}"
golden="$(cd "$(dirname "$0")" && pwd)/plan/default.json"

plan() {
    env -u MPOS_JOBS -u MPOS_SNAPSHOT_DIR MPOS_CYCLES=300000 \
        MPOS_WARMUP=150000 MPOS_SEED=7 "$bench" --dry-run
}

# One job per line, so a failing check shows which jobs moved.
by_job() {
    sed 's/}, {/},\n{/g'
}

case "$mode" in
  check)
    if ! plan | cmp -s "$golden" -; then
        echo "FAIL: the --dry-run job plan differs from $golden:"
        diff -u <(by_job < "$golden") <(plan | by_job) | sed -n '1,60p'
        exit 1
    fi
    echo "job plan OK: $(grep -o '"config_hash"' "$golden" | wc -l)" \
         "jobs match"
    ;;
  update)
    mkdir -p "$(dirname "$golden")"
    plan > "$golden"
    echo "job plan updated: $golden"
    ;;
  *)
    echo "usage: plan.sh check|update <mpos_bench binary>"
    exit 2
    ;;
esac
