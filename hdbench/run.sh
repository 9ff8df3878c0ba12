#!/usr/bin/env bash
# Builds the shipped `hdoutlier` binary and the benchmark from source, then
# runs the benchmark against that binary. Run from anywhere:
#
#   bash hdbench/run.sh --workload detect-brute --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build at the root).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline --manifest-path Cargo.toml -p hdoutlier-cli --bin hdoutlier >&2
cargo build --quiet --release --offline --manifest-path hdbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hdbench" --bin "$CARGO_TARGET_DIR/release/hdoutlier" "$@"
