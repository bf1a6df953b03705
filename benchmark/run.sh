#!/usr/bin/env bash
# Builds the benchmark (offline, release, in its own workspace) and runs
# it with the arguments given. From the root of a checkout:
#
#   bash benchmark/run.sh --seed 1                      # every workload, tables, out/results-seed1.json
#   bash benchmark/run.sh --seed 1 --workload solo_tiny # one workload, untraced then traced
#   bash benchmark/run.sh --workload solo_tiny --seed 1 --seconds 10 --trace 0   # one run, JSON on the last line
#   bash benchmark/run.sh compare A.json B.json
#
# Run it from inside the checkout: cargo finds the repository's
# .cargo/config.toml (target-cpu=native) from the working directory, and
# the benchmark must be built with the flags the program itself is.
set -euo pipefail
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "${BASH_SOURCE[0]}")/Cargo.toml" -- "$@"
