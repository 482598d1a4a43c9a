#!/bin/sh
# Regeneration of every paper table at a reduced duration, one binary at
# a time (each parallelizes over its own runs; results are identical at
# every RLA_JOBS). Stdout lands in results/<name>.txt.
set -x
export RLA_DURATION_SECS=${RLA_DURATION_SECS:-300}
cd "$(dirname "$0")" || exit 1
cargo run --release -p experiments --bin tables > results/tables.txt
cargo run --release -p experiments --bin fig5  > results/fig5.txt
cargo run --release -p experiments --bin buffer_period > results/buffer_period.txt
cargo run --release -p experiments --bin phase_effect  > results/phase_effect.txt
cargo run --release -p experiments --bin baseline_cmp  > results/baseline_cmp.txt
cargo run --release -p experiments --bin ablation      > results/ablation.txt
echo ALL_TABLES_DONE
