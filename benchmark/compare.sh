#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — judge the runs in B against the
# runs in A (both written by run.sh). Exits 1 on a regression.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --bin compare 1>&2
exec "$target/release/compare" "$@"
