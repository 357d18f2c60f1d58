#!/usr/bin/env bash
# loc.sh — non-test Go lines per package and in total, bench/ excluded: the
# figure ROADMAP and the simplicity PRs quote ("27,179 → 25,077"). Counts
# every line of every *.go file that is not a _test.go, comments and blanks
# included, so a PR cannot lower it by deleting comments alone without that
# showing in its diff. Run locally with: ./scripts/loc.sh [dir]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 \
    | xargs -0 wc -l \
    | awk '$2 != "total" {
          pkg = $2; sub(/^\.\//, "", pkg); sub(/\/?[^\/]*$/, "", pkg)
          if (pkg == "") pkg = "."
          lines[pkg] += $1; total += $1
      }
      END {
          for (p in lines) printf "%7d  %s\n", lines[p], p | "sort -k2"
          close("sort -k2")
          printf "%7d  total\n", total
      }'
