#!/usr/bin/env bash
# The repository's benchmark: build the server and the load generator from source, then run.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is JSON
#   run.sh [--seed N] [--repeats K] [--out FILE]              every workload; writes a record
#   run.sh --smoke                                            the same at ~1/20 size
#   run.sh --self-test                                        unit tests + a run that must fail
#   run.sh compare A.json B.json                              judge record B against record A
#
# Everything is written under the cargo target directory ($CARGO_TARGET_DIR, default
# <repo>/target) and under benchmarks/e2e/results/.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"

# One target directory for both builds. A relative CARGO_TARGET_DIR means relative to where
# the command was started, which is how cargo itself reads it.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$TARGET" in
  /*) ;;
  *) TARGET="$PWD/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"

# cargo reports on stderr, so stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" --bin graphflow-serve
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml"
BIN="$TARGET/release/bench_e2e"

case "${1:-}" in
  compare | manifest)
    exec "$BIN" "$@"
    ;;
  --self-test)
    cargo test --release --offline --quiet --manifest-path "$HERE/Cargo.toml"
    # A planted wrong expected answer must turn into "correct": false and a failing exit.
    if out="$("$BIN" --workload analytic_count --seed 1 --seconds 1 --trace 0 \
              --scale 0.25 --setup-reps 1 --falsify 2>/dev/null)"; then
      echo "self-test: a falsified oracle was not noticed" >&2
      exit 1
    fi
    case "$out" in
      *'"correct": false'*) echo "self-test: ok" ;;
      *) echo "self-test: the failing run printed no result" >&2; exit 1 ;;
    esac
    ;;
  *)
    for arg in "$@"; do
      if [ "$arg" = "--workload" ]; then
        exec "$BIN" "$@"
      fi
    done
    exec "$BIN" suite "$@"
    ;;
esac
