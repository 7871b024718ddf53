#!/usr/bin/env bash
# Build hhbench together with the route_serve it drives, then run hhbench
# with the arguments given. Run it from the repository root:
#
#   bash hhbench/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] ...
#
# The build goes to $CARGO_TARGET_DIR when that is set, else hhbench/target.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/hhbench" "$@"
