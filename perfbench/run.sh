#!/usr/bin/env bash
# Build the weblab binary and the benchmark from source, then run the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the benchmark's scratch files and reports go to
# .perfbench/. See perfbench/README.md.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# One codegen unit: with the default 16, the same source built in two
# directories ran serve-resident about 20 % apart, likely because the split
# of functions between units (and so what gets inlined) follows symbol
# hashes that include the path. With one unit the two builds agreed.
export CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1
cargo build --release --offline --quiet --bin weblab
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
# Run as a child, not with exec: a process keeps the resource usage of the
# children it waited for across exec, and the benchmark reads the peak
# memory of its own children, which must not include cargo's.
"$CARGO_TARGET_DIR/release/perfbench" --weblab "$CARGO_TARGET_DIR/release/weblab" "$@"
