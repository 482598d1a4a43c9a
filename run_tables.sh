#!/bin/sh
# Sequential regeneration of all paper tables at a reduced duration
# (single-core machine: one binary at a time, one sweep worker each).
# Results land in results/.
set -x
export RLA_DURATION_SECS=${RLA_DURATION_SECS:-300}
export RLA_JOBS=1
cd "$(dirname "$0")" || exit 1
cargo run --release -p experiments --bin fig7  > results/fig7.txt  2>results/fig7.log
cargo run --release -p experiments --bin fig8  > results/fig8.txt  2>results/fig8.log
cargo run --release -p experiments --bin fig9  > results/fig9.txt  2>results/fig9.log
cargo run --release -p experiments --bin fig10 > results/fig10.txt 2>results/fig10.log
cargo run --release -p experiments --bin sec52 > results/sec52.txt 2>results/sec52.log
cargo run --release -p experiments --bin theorem_check > results/theorem_check.txt 2>results/theorem_check.log
cargo run --release -p experiments --bin fig5  > results/fig5.txt  2>results/fig5.log
cargo run --release -p experiments --bin fig4  > results/fig4.txt  2>results/fig4.log
cargo run --release -p experiments --bin eq1   > results/eq1.txt   2>results/eq1.log
cargo run --release -p experiments --bin eq3   > results/eq3.txt   2>results/eq3.log
cargo run --release -p experiments --bin buffer_period > results/buffer_period.txt 2>results/buffer_period.log
cargo run --release -p experiments --bin phase_effect  > results/phase_effect.txt  2>results/phase_effect.log
cargo run --release -p experiments --bin baseline_cmp  > results/baseline_cmp.txt  2>results/baseline_cmp.log
cargo run --release -p experiments --bin bounds_sweep  > results/bounds_sweep.txt  2>results/bounds_sweep.log
cargo run --release -p experiments --bin ablation      > results/ablation.txt      2>results/ablation.log
echo ALL_TABLES_DONE
