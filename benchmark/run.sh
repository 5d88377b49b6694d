#!/usr/bin/env bash
# The repo benchmark, one command. Builds the harness from source (an
# offline release build into $CARGO_TARGET_DIR, default benchmark/target)
# and runs it from the root of the checkout.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--trace] [--agree] [--quick]
#       every workload, each in a fresh child process; writes
#       benchmark/out/result.json (and trace-<workload>.jsonl with --trace)
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload in this process; the last line of stdout is the
#       result object the driver reads
#   benchmark/run.sh --print-spec
#       BENCHMARK.json as the harness defines it
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sentinel-benchmark" "$@"
