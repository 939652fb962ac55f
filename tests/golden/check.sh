#!/bin/sh
# Golden seed-equivalence check, run by ctest (test name
# `golden_seed_equivalence`). Re-runs every manifest cell plus the
# vds_mc / vds_sweep fixtures against the committed corpus; any byte of
# drift is a behaviour change and fails the test. vds_mc and vds_sweep
# are exercised at two thread counts, so thread-count independence is
# checked in the same pass.
set -eu

build=${1:?usage: check.sh BUILD_DIR}
here=$(dirname "$0")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
while IFS='|' read -r name args; do
  case $name in ''|'#'*) continue ;; esac
  # shellcheck disable=SC2086
  "$build/tools/vds_cli" $args > "$tmp/$name.json" || true
  if ! cmp -s "$here/run_report/$name.json" "$tmp/$name.json"; then
    echo "MISMATCH run_report/$name.json"
    fail=1
  fi
done < "$here/manifest.txt"

for threads in 1 3; do
  "$build/tools/vds_mc" --replicas 40 --grid 1,7,13,20 --scheme det \
    --predictor two_bit --seed 3 --rounds 60 --threads "$threads" \
    --quiet --json-out "$tmp/mc_$threads.json"
  if ! cmp -s "$here/mc_summary.json" "$tmp/mc_$threads.json"; then
    echo "MISMATCH mc_summary.json (threads=$threads)"
    fail=1
  fi

  "$build/tools/vds_sweep" --dataset schemes --threads "$threads" \
    > "$tmp/sweep_$threads.csv"
  if ! cmp -s "$here/sweep_schemes.csv" "$tmp/sweep_$threads.csv"; then
    echo "MISMATCH sweep_schemes.csv (threads=$threads)"
    fail=1
  fi

  "$build/tools/vds_sweep" --dataset engines --threads "$threads" \
    > "$tmp/engines_$threads.csv"
  if ! cmp -s "$here/sweep_engines.csv" "$tmp/engines_$threads.csv"; then
    echo "MISMATCH sweep_engines.csv (threads=$threads)"
    fail=1
  fi
done

[ "$fail" -eq 0 ] && echo "all golden outputs bitwise identical"
exit "$fail"
