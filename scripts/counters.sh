#!/usr/bin/env bash
# Work counters at two commits: runs the benchmark at its full sizes for
# a short slice with its per-layer trace (`benchmark/run.sh --workload
# all --seconds 3 --trace 1`: several rounds of every workload, whose
# median each count is) at <rev> (a git archive into $TMPDIR, its own
# target directory) and at this checkout, and prints every per-layer
# metric whose unit is `count`, per workload, side by side: `identical`
# or `differ` (the smoke sizes miss plan changes the full sizes show). Three runs of one commit gave all
# 195 counts equal but `serve-mixed`'s `service.cache.evictions`, so its
# `service.*` counts are skipped: they count what its timed closed loop
# happened to do (cache evictions, rejections). It only reports: a
# change that means to move counters exits 0 too. A failed build or run,
# or a run with a wrong row, exits non-zero. About 1 min per side plus
# two builds.
#
#   scripts/counters.sh --against <rev>
set -euo pipefail
[ "${1:-}" = --against ] || { echo "usage: $0 --against <rev>" >&2; exit 2; }
against="${2:?--against needs a revision}"
cd "$(dirname "$0")/.."

before="$(mktemp -d)"
trap 'rm -rf "$before"' EXIT
git archive "$against" | tar -x -C "$before"

# Writes the merged report of the checkout at $1 to $2.
counters() (
    cd "$1"
    benchmark/run.sh --workload all --seconds 3 --trace 1 --out "$2" >/dev/null
)

CARGO_TARGET_DIR="$before/target" counters "$before" "$before/counters.before.json"
counters . "$before/counters.after.json"
echo "counters: $against → here (per-layer metrics of unit count; skipped: serve-mixed service.*)"
python3 - "$before/counters.before.json" "$before/counters.after.json" <<'EOF'
import json
import sys

def counts(path):
    """(workload, metric) -> value of every per-layer count, in report order."""
    out = {}
    for workload, parts in json.load(open(path))["workloads"].items():
        for name, m in parts["per_layer"].items():
            skipped = workload == "serve-mixed" and name.startswith("service.")
            if m["unit"] == "count" and not skipped:
                out[workload, name] = m["value"]
    return out

def show(v):
    if v is None:
        return "(none)"
    return str(int(v)) if float(v).is_integer() else repr(v)

old, new = counts(sys.argv[1]), counts(sys.argv[2])
for key in list(old) + [k for k in new if k not in old]:
    a, b = old.get(key), new.get(key)
    label = "%-12s %s" % key
    if a == b:
        print("  %-9s %-48s %s" % ("identical", label, show(a)))
    else:
        print("  %-9s %-48s %s → %s" % ("differ", label, show(a), show(b)))
EOF
