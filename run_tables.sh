#!/bin/sh
# Regeneration of every paper table at a reduced duration, one binary at
# a time (each parallelizes over its own runs; results are identical at
# every RLA_JOBS). Stdout lands in results/<name>.txt.
set -x
export RLA_DURATION_SECS=${RLA_DURATION_SECS:-300}
cd "$(dirname "$0")" || exit 1
cargo run --release -p experiments --bin tables > results/tables.txt
cargo run --release -p experiments --bin ablation      > results/ablation.txt
echo ALL_TABLES_DONE
