#!/usr/bin/env bash
# Lines of Rust per crate: total, and non-test (each file cut at its
# first `#[cfg(test)]` whose next line opens a `mod` — a test-only item
# among the code does not end the count; files under a tests/ directory
# are test code whole, benches and examples are programs and count). One
# row per crate plus a workspace total — the table ROADMAP asks every
# CHANGES.md entry to report.
#
#   scripts/loc.sh [repo-root]        # default: the checkout this script is in
#   scripts/loc.sh --against <rev>    # this checkout next to <rev>: before → after (Δ)
set -euo pipefail
against=
if [ "${1:-}" = --against ]; then
    against="${2:?--against needs a revision}"
    shift 2
fi
cd "${1:-$(dirname "$0")/..}"

# Prints "<total> <non-test>" for the .rs files under the given dirs.
count() {
    find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort | xargs -r awk '
        FNR == 1 { nontest += held; held = 0; cut = (FILENAME ~ /(^|\/)tests\//) }
        { total++ }
        cut { next }
        held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { held = 0; cut = 1; next }
        { nontest += held; held = 0 }
        /#\[cfg\(test\)\]/ { held = 1; next }
        { nontest++ }
        END { printf "%d %d\n", total, nontest + held }'
}

# Prints "<crate> <total> <non-test>" per crate of the checkout at $1,
# the workspace sum last.
table() (
    cd "$1"
    sum_total=0 sum_nontest=0
    row() {
        read -r total nontest <<<"$(count "${@:2}")"
        echo "$1 ${total:-0} ${nontest:-0}"
        sum_total=$((sum_total + ${total:-0})) sum_nontest=$((sum_nontest + ${nontest:-0}))
    }
    for dir in crates/*/; do
        row "$(basename "$dir")" "$dir"
    done
    row facade src tests examples
    echo "workspace $sum_total $sum_nontest"
)

if [ -z "$against" ]; then
    printf '%-12s %8s %9s\n' crate total non-test
    table . | while read -r name total nontest; do
        printf '%-12s %8d %9d\n' "$name" "$total" "$nontest"
    done
    exit
fi

before="$(mktemp -d)"
trap 'rm -rf "$before"' EXIT
git archive "$against" | tar -x -C "$before"
printf '%-12s %-25s %s\n' crate "total ($against → here)" non-test
{
    table "$before" | sed 's/^/before /'
    table . | sed 's/^/after /'
} | awk '
    { if (!($2 in seen)) { seen[$2] = 1; order[n++] = $2 }; total[$1, $2] = $3; nontest[$1, $2] = $4 }
    function cell(v, c) { return sprintf("%6d → %-6d %-8s", v["before", c], v["after", c], sprintf("(%+d)", v["after", c] - v["before", c])) }
    function line(c) { printf "%-12s %s  %s\n", c, cell(total, c), cell(nontest, c) }
    END {
        for (i = 0; i < n; i++) if (order[i] != "workspace") line(order[i])
        line("workspace")
    }' | sed 's/ *$//'
