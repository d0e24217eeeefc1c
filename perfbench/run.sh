#!/usr/bin/env bash
# Build the gpufreq CLI and the benchmark binary from source (release),
# then run one benchmark from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: target); spans, port
# files and server logs go to <target>/perfbench.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" -p gpufreq-cli --bin gpufreq >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --gpufreq "$target/release/gpufreq" \
    --out-dir "$target/perfbench" "$@"
