#!/usr/bin/env bash
# Builds slopt and the benchmark (release, offline), then runs the
# benchmark. Run from anywhere; everything happens at the repository root.
#
#   benchmark/run.sh --workload W --seed N [--seconds S] [--trace 0|1]
#       one workload in one runner process; the last stdout line is the
#       JSON result
#   benchmark/run.sh --seed N [--seconds S] [--out results.json]
#       every workload, untraced and traced; exits non-zero on any
#       failed check
#   benchmark/run.sh --seed N --smoke
#       minimal sizes, for benchmark/check.sh; numbers are not comparable
#   benchmark/run.sh compare --parent A.json... --change B.json...
#
# Both workspaces share one target directory: $CARGO_TARGET_DIR when set,
# else target/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p slopt-cli -p slopt-serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export SLOPT_BIN_DIR="$target/release"
export SLOPT_BENCH_DIR="$root/benchmark"
# Not exec: the runner must be a fresh process, so that its
# getrusage(RUSAGE_CHILDREN) peak RSS covers only the programs it ran,
# not the compilers above.
"$target/release/slopt-benchmark" "$@"
