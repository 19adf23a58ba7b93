#!/usr/bin/env bash
# Builds the benchmark (release, pinned profile) and runs it with the
# given arguments, from the root of the checkout:
#
#   benchmark/run.sh --workload <name|all> [--seed N] [--seconds S]
#                    [--trace 0|1] [--out FILE] [--smoke]
#   benchmark/run.sh --check-repeat [--seed N]
#   benchmark/run.sh --write-expected
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
SGQ_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
SGQ_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SGQ_RUSTC SGQ_COMMIT
exec "$target/release/sgq-benchmark" "$@"
