#!/usr/bin/env bash
# Lines of Rust per crate: total, and non-test (each file cut at its
# first `#[cfg(test)]`; files under a tests/ directory are test code
# whole, benches and examples are programs and count). One row per crate
# plus a workspace total — the table ROADMAP asks every CHANGES.md entry
# to report.
#
#   scripts/loc.sh [repo-root]        # default: the checkout this script is in
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Prints "<total> <non-test>" for the .rs files under the given dirs.
count() {
    find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort | xargs -r awk '
        FNR == 1 { cut = (FILENAME ~ /(^|\/)tests\//) }
        /#\[cfg\(test\)\]/ { cut = 1 }
        { total++; if (!cut) nontest++ }
        END { printf "%d %d\n", total, nontest }'
}

printf '%-12s %8s %9s\n' crate total non-test
sum_total=0 sum_nontest=0
row() {
    read -r total nontest <<<"$(count "${@:2}")"
    printf '%-12s %8d %9d\n' "$1" "${total:-0}" "${nontest:-0}"
    sum_total=$((sum_total + ${total:-0})) sum_nontest=$((sum_nontest + ${nontest:-0}))
}
for dir in crates/*/; do
    row "$(basename "$dir")" "$dir"
done
row facade src tests examples
printf '%-12s %8d %9d\n' workspace "$sum_total" "$sum_nontest"
