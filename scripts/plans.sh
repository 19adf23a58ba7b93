#!/usr/bin/env bash
# Plans at two commits: builds sgq-experiments at <rev> (a git archive
# into $TMPDIR, its own target directory) and at this checkout, runs
# `estimates --smoke` on both, and prints each catalog's `plans digest`
# and `shared node` lines side by side, each pair `identical` or
# `differ`. It only reports: a change that means to move plans exits 0
# too. A failed build or run exits non-zero.
#
#   scripts/plans.sh --against <rev>
set -euo pipefail
[ "${1:-}" = --against ] || { echo "usage: $0 --against <rev>" >&2; exit 2; }
against="${2:?--against needs a revision}"
cd "$(dirname "$0")/.."

before="$(mktemp -d)"
trap 'rm -rf "$before"' EXIT
git archive "$against" | tar -x -C "$before"

# The `estimates --smoke` lines that fingerprint the plans of the checkout
# at $1.
plans() (
    cd "$1"
    cargo run --release --quiet --bin sgq-experiments -- estimates --smoke |
        grep -E 'plans digest|plan a shared node'
)

CARGO_TARGET_DIR="$before/target" plans "$before" >"$before/plans.before"
plans . >"$before/plans.after"
echo "plans: $against → here"
# Lines pair by catalog and kind (`<catalog>: digest` / `<catalog>:
# shared`), not by position: a line one side lacks is `differ` against
# `(none)`, and so is a kind a side prints twice.
awk '
    { key = $1 (/plans digest/ ? " digest" : " shared") }
    FNR == NR { old[key] = nold[key]++ ? old[key] " | " $0 : $0 }
    FNR != NR { new[key] = nnew[key]++ ? new[key] " | " $0 : $0 }
    !(key in seen) { seen[key] = 1; order[++n] = key }
    END {
        for (i = 1; i <= n; i++) {
            k = order[i]
            a = (k in old) ? old[k] : "(none)"
            b = (k in new) ? new[k] : "(none)"
            if (a == b && a !~ / \| /) {
                printf "  %-9s %s\n", "identical", a
            } else {
                printf "  %-9s %s\n  %-9s %s\n", "differ", a, "", b
            }
        }
    }' "$before/plans.before" "$before/plans.after"
