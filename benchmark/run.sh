#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   benchmark/run.sh [--seed N] [--smoke] [--runs K]
#       all four workloads, an untraced then a traced pass each, one
#       process per pass; writes benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line of standard output is the
#       JSON result object
#
# Exits non-zero if the build fails or any output check fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Everything the build prints goes to standard error, so the result
# object stays the last line of standard output.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --bin genedit-benchmark 1>&2
exec "$target/release/genedit-benchmark" --out "$here/out" "$@"
