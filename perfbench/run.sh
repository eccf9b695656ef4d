#!/usr/bin/env bash
# Builds the program under test (the `dvbp-serve` binary, from the
# workspace at the checkout root) and this benchmark, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the checkout root. Build output goes to CARGO_TARGET_DIR
# (default .bench_build); the benchmark's scratch files go under
# .bench_build/perfbench-work and are removed when a run ends.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p dvbp-serve --bin dvbp-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
