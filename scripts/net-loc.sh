#!/usr/bin/env bash
# Net non-test lines of code per crate: for every .rs file under crates/<c>/src, the lines
# before its first `#[cfg(test)]` (all of them when it has none). This is the number CHANGES.md
# reports for simplicity PRs.
#
#   scripts/net-loc.sh               count the checked-out tree
#   scripts/net-loc.sh <base-rev>    also count <base-rev> (read with `git show`) and the delta
set -euo pipefail

cd "$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
base="${1:-}"

# Stdin: one file's text. Stdout: its non-test line count.
non_test() { awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'; }

count() { # <crate> [<rev>]: the crate's .rs files in the checked-out tree, or at <rev>
  local total=0 f n
  while IFS= read -r f; do
    if [ -n "${2:-}" ]; then n="$(git show "$2:$f" | non_test)"; else n="$(non_test < "$f")"; fi
    total=$((total + n))
  done < <(
    if [ -n "${2:-}" ]; then
      git ls-tree -r --name-only "$2" -- "crates/$1/src"
    else
      find "crates/$1/src" -type f
    fi | grep '\.rs$' || true
  )
  echo "$total"
}

if [ -n "$base" ]; then
  git rev-parse --verify --quiet "$base^{commit}" > /dev/null || {
    echo "net-loc: $base is not a commit" >&2
    exit 2
  }
  printf '%-10s %8s %8s %7s\n' crate "$base" tree delta
else
  printf '%-10s %8s\n' crate tree
fi
sum_here=0
sum_base=0
for dir in crates/*/; do
  c="$(basename "$dir")"
  n="$(count "$c")"
  sum_here=$((sum_here + n))
  if [ -n "$base" ]; then
    b="$(count "$c" "$base")"
    sum_base=$((sum_base + b))
    printf '%-10s %8d %8d %+7d\n' "$c" "$b" "$n" $((n - b))
  else
    printf '%-10s %8d\n' "$c" "$n"
  fi
done
if [ -n "$base" ]; then
  printf '%-10s %8d %8d %+7d\n' total "$sum_base" "$sum_here" $((sum_here - sum_base))
else
  printf '%-10s %8d\n' total "$sum_here"
fi
