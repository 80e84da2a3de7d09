#!/usr/bin/env bash
# Build the benchmark package and run all four workloads, untraced then
# traced, each in its own process. Results: benchmark/out/result.json;
# traces: benchmark/out/trace-<workload>.json.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--sets K] [--out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- suite "$@"
