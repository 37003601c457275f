#!/usr/bin/env bash
# Runs the serial paper-table benches and diffs each one's stdout against
# its golden copy in bench/baselines/paper/. The tables print page-access
# counts from fixed seeds and no wall times, so they repeat byte for byte;
# any difference is a drift in query accounting, the page format or the
# workload generators.
#
# Usage: scripts/check_paper_tables.sh BUILD_DIR
#   BUILD_DIR is a configured CMake tree (Release is fastest: fig8, fig9 and
#   fig10 take ~40 s each on 4 vCPUs); the five bench targets are built
#   first. Exit 0 when every table matches, 1 on a mismatch or a failed
#   bench, 2 on a usage error.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build=$1
root=$(cd "$(dirname "$0")/.." && pwd)
golden=$root/bench/baselines/paper
benches=(fig8_small_objects fig9_medium_objects fig10_space
         table1_appquery_rules ddim_scaling)

cmake --build "$build" --target "${benches[@]}"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for name in "${benches[@]}"; do
  start=$SECONDS
  if ! "$build/bench/$name" > "$out/$name.txt"; then
    echo "FAIL $name: the bench exited non-zero"
    status=1
  elif diff -u "$golden/$name.txt" "$out/$name.txt"; then
    echo "ok   $name ($((SECONDS - start)) s)"
  else
    echo "FAIL $name: stdout differs from bench/baselines/paper/$name.txt"
    status=1
  fi
done
exit $status
