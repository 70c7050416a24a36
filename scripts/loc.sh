#!/bin/sh
# Non-test Go lines per package, and the serve + shard + sweep + obs
# total ROADMAP item 14 tracks — the one command the numbers in ROADMAP,
# CHANGES.md and the next issue come from.
# Usage: scripts/loc.sh   (from the repository root)
set -eu
count() { find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }
for dir in $(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs -n1 dirname | sort -u); do
  printf '%6d  %s\n' "$(count "$dir" -maxdepth 1)" "${dir#./}"
done
printf '%6d  all non-test Go (bench/ excluded: its own module)\n' \
  "$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
printf '%6d  serve + shard + sweep + obs\n' \
  "$(count internal/serve internal/shard internal/sweep internal/obs)"
