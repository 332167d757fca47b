#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it; see README.md.
#
#   benchmark/run.sh [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--quick]
#   benchmark/run.sh compare <a.json> <b.json>
#
# Run from anywhere; a relative CARGO_TARGET_DIR is taken relative to the
# current directory, as cargo does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/op2-benchmark"
if [[ "${1:-}" == "compare" ]]; then
    exec "$bin" "$@"
fi
exec "$bin" --out "$here/out" "$@"
