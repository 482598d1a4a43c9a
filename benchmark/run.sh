#!/usr/bin/env bash
# Build the benchmark and run it from the repository root.
#
#   benchmark/run.sh [--quick] [--seed N] [--label L]     every workload, end to end then traced
#   benchmark/run.sh selfcheck [--quick] [--runs R]       spread and A/A drift against the bounds
#   benchmark/run.sh compare <a.json> <b.json>            two result files against the bounds
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                                         one measured run (what the driver calls)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
manifest=benchmark/Cargo.toml

# The repository's `cargo fmt --all` and `cargo clippy --workspace` do not
# reach a separate workspace, so lint here; a single measured run skips it.
if [[ "${1:-}" != "--workload" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
fi

cargo build --release --offline --quiet --manifest-path "$manifest"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark" "$@"
