#!/usr/bin/env bash
# Builds the `impact` binary and the benchmark from this checkout, then
# runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 20 --trace 0
# Run it from the repository root.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin impact
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --impact-bin "$CARGO_TARGET_DIR/release/impact" "$@"
