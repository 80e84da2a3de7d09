#!/usr/bin/env bash
# Second acceptance run: two full result files from the same build, same
# seeds, fed to `compare`. They must agree within the benchmark's own
# bounds on every bounded metric and bit for bit on every exact one.
#
#   SETS=3 SECONDS_PER_RUN=20 benchmark/selfcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."
sets="${SETS:-3}"
seconds="${SECONDS_PER_RUN:-20}"
run() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
run suite --sets "$sets" --seconds "$seconds" --out benchmark/out/selfcheck-a.json
run suite --sets "$sets" --seconds "$seconds" --out benchmark/out/selfcheck-b.json
run compare benchmark/out/selfcheck-a.json benchmark/out/selfcheck-b.json
