#!/usr/bin/env bash
# Golden regression for every paper figure/table.
#
# Reruns mpos_bench --smoke with the invariant checkers on and pinned
# run lengths/seed, capturing each analysis's exact output, then
# diffs the fresh corpus against the committed tests/golden/*.json
# field by field. Any difference -- changed output, a missing golden,
# an analysis that vanished, or a stale committed file -- is a hard
# failure, never a skip. Regenerate intentionally with update.sh.
#
# Usage: check.sh <mpos_bench binary> [golden dir [mpos_bench args...]]
#
# Trailing arguments go to mpos_bench, e.g. the per-policy lock corpora
# in lockproto/<policy>/ pass --lock-proto <policy> and one --only per
# analysis they hold.

set -u

bench="${1:?usage: check.sh <mpos_bench binary> [golden dir [mpos_bench args...]]}"
golden="${2:-$(cd "$(dirname "$0")" && pwd)}"
shift $(( $# < 2 ? $# : 2 ))

if [ ! -x "$bench" ]; then
    echo "FAIL: mpos_bench binary '$bench' not found or not executable"
    exit 1
fi

# The corpus must exist: a missing corpus is a broken checkout or a
# forgotten update.sh, not a reason to skip.
if ! ls "$golden"/*.json >/dev/null 2>&1; then
    echo "FAIL: no golden files in $golden (run update.sh and commit)"
    exit 1
fi

# Pin everything that shapes the simulated runs so the comparison is
# meaningful regardless of the caller's environment.
export MPOS_CYCLES=300000
export MPOS_WARMUP=150000
export MPOS_SEED=7

# Optional machine flags for the non-default golden corpora (the
# 8-CPU MESI smoke corpus in smoke8/ pins both).
machine=()
if [ -n "${MPOS_GOLDEN_CPUS:-}" ]; then
    machine+=(--cpus "$MPOS_GOLDEN_CPUS")
fi
if [ -n "${MPOS_GOLDEN_PROTOCOL:-}" ]; then
    machine+=(--protocol "$MPOS_GOLDEN_PROTOCOL")
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if ! "$bench" --smoke --check --golden-dir "$tmp/fresh" \
        --json "$tmp/results.json" "${machine[@]}" "$@" \
        > "$tmp/stdout.log" 2> "$tmp/stderr.log"
then
    echo "FAIL: mpos_bench --smoke --check ${machine[*]} $* exited non-zero"
    tail -n 40 "$tmp/stderr.log"
    exit 1
fi

fail=0

for want in "$golden"/*.json; do
    name="$(basename "$want")"
    got="$tmp/fresh/$name"
    if [ ! -f "$got" ]; then
        echo "FAIL: analysis ${name%.json} produced no output (golden" \
             "$name has no fresh counterpart)"
        fail=1
        continue
    fi
    if ! diff -u "$want" "$got" > "$tmp/diff"; then
        echo "FAIL: ${name%.json} output differs from the golden file:"
        sed -n '1,60p' "$tmp/diff"
        fail=1
    fi
done

# Fresh analyses with no committed golden mean the corpus is stale.
for got in "$tmp/fresh"/*.json; do
    name="$(basename "$got")"
    if [ ! -f "$golden/$name" ]; then
        echo "FAIL: analysis ${name%.json} has no committed golden" \
             "file (run update.sh and commit $name)"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "golden regression FAILED (regenerate with" \
         "tests/golden/update.sh only if the change is intended)"
    exit 1
fi

echo "golden regression OK: $(ls "$golden"/*.json | wc -l) analyses" \
     "match"
