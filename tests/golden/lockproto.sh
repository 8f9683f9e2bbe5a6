#!/usr/bin/env bash
# Per-policy lock goldens. Each lockproto/<policy>/ directory pins the
# lock analyses' output (Tables 10 and 12, Fig. 11) under that
# primitive; the files it holds name the analyses to run. check runs
# check.sh on every policy's corpus; update regenerates them all.
#
# Usage: lockproto.sh check|update <mpos_bench binary>

set -u

mode="${1:?usage: lockproto.sh check|update <mpos_bench binary>}"
bench="${2:?usage: lockproto.sh check|update <mpos_bench binary>}"
here="$(cd "$(dirname "$0")" && pwd)"

fail=0
for dir in "$here"/lockproto/*/; do
    policy="$(basename "$dir")"
    args=(--lock-proto "$policy")
    for f in "$dir"*.json; do
        args+=(--only "$(basename "$f" .json)")
    done
    case "$mode" in
      check)
        echo "== lock policy $policy"
        bash "$here/check.sh" "$bench" "$dir" "${args[@]}" || fail=1
        ;;
      update)
        MPOS_GOLDEN_DIR="$dir" bash "$here/update.sh" "$bench" "" \
            "${args[@]}" || fail=1
        ;;
      *)
        echo "usage: lockproto.sh check|update <mpos_bench binary>"
        exit 2
        ;;
    esac
done
exit "$fail"
