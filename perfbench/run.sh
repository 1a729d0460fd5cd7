#!/usr/bin/env bash
# Build the benchmark and the `datalens` binary from this checkout, then
# run one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload clean_full --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries the report and, as its last
# line, the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --locked --quiet \
    --manifest-path perfbench/Cargo.toml -p perfbench -p datalens 1>&2
exec "$target/release/perfbench" \
    --datalens "$target/release/datalens" \
    --work-dir "$target/perfbench-work" "$@"
