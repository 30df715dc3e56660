#!/usr/bin/env bash
# The benchmark's own CI: format, lints and unit tests of the benchmark
# crate, then a smoke run of every workload at minimal sizes. The smoke
# run checks that every metric BENCHMARK.json names is emitted with its
# declared unit, that every correctness check passes, and that each
# traced pass's trace passes trace_lint. Its numbers are not comparable.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cd "$root/benchmark"
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline

cd "$root"
bash benchmark/run.sh --seed 1 --smoke
