#!/usr/bin/env bash
# Net non-test lines of code per crate: for every .rs file under crates/<c>/src, the lines
# before its first `#[cfg(test)]` (all of them when it has none). A `#[cfg(test)]` that gates
# a `mod x;` declaration does not end the count: the two lines are skipped and the file they
# name (`x.rs` or `x/mod.rs` beside the declaring module) is not counted at all. This is the
# number CHANGES.md reports for simplicity PRs.
#
#   scripts/net-loc.sh               count the checked-out tree
#   scripts/net-loc.sh <base-rev>    also count <base-rev> (read with `git show`) and the delta
set -euo pipefail

cd "$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
base="${1:-}"

# A `mod x;` declaration line (any visibility), as an awk regex.
mod_decl='^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;'

# Stdin: one file's text. Stdout: its non-test line count.
non_test() {
  awk -v decl="$mod_decl" '
    gated && $0 ~ decl { gated = 0; next }
    gated { exit }
    /#\[cfg\(test\)\]/ { gated = 1; next }
    { n++ }
    END { print n + 0 }'
}

# Stdin: the text of the file <path>. Stdout: the files its `#[cfg(test)]`-gated `mod x;`
# declarations name — `x.rs` and `x/mod.rs` in <path>'s directory for `mod.rs`, `lib.rs` and
# `main.rs`, in the directory named after <path>'s stem otherwise.
test_files() {
  local dir
  case "$(basename "$1")" in
    mod.rs | lib.rs | main.rs) dir="$(dirname "$1")" ;;
    *) dir="${1%.rs}" ;;
  esac
  awk -v decl="$mod_decl" -v dir="$dir" '
    gated && $0 ~ decl {
      sub(/[[:space:]]*;.*/, ""); sub(/.*mod[[:space:]]+/, "")
      print dir "/" $0 ".rs"; print dir "/" $0 "/mod.rs"
    }
    { gated = /#\[cfg\(test\)\]/ }'
}

count() { # <crate> [<rev>]: the crate's .rs files in the checked-out tree, or at <rev>
  local total=0 f n files skip=""
  text() { if [ -n "${2:-}" ]; then git show "$2:$1"; else cat "$1"; fi; }
  files="$(
    if [ -n "${2:-}" ]; then
      git ls-tree -r --name-only "$2" -- "crates/$1/src"
    else
      find "crates/$1/src" -type f
    fi | grep '\.rs$' || true
  )"
  while IFS= read -r f; do
    [ -n "$f" ] && skip+="$(text "$f" "${2:-}" | test_files "$f")"$'\n'
  done <<< "$files"
  while IFS= read -r f; do
    [ -n "$f" ] || continue
    grep -qxF -- "$f" <<< "$skip" && continue
    n="$(text "$f" "${2:-}" | non_test)"
    total=$((total + n))
  done <<< "$files"
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
