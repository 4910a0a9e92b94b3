#!/usr/bin/env bash
# Builds the benchmark and the `sufsat` daemon from source, then runs the
# benchmark with the given arguments, from the repository root:
#
#   bash sufbench/run.sh --workload oneshot --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path sufbench/Cargo.toml >&2
cargo build --release --quiet --offline --bin sufsat >&2
exec "$CARGO_TARGET_DIR/release/sufbench" --sufsat "$CARGO_TARGET_DIR/release/sufsat" "$@"
