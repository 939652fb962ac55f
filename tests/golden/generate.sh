#!/bin/sh
# Regenerates the golden seed-equivalence corpus from a *trusted* build.
#
#   tests/golden/generate.sh path/to/build
#
# The corpus locks the engines' observable behaviour: for every
# (engine, scheme, seed) cell in manifest.txt, the committed file must
# stay bitwise identical across refactors. Regenerate only when an
# intentional behaviour change is reviewed and documented.
set -eu

build=${1:?usage: generate.sh BUILD_DIR}
here=$(dirname "$0")
cli=$build/tools/vds_cli
mc=$build/tools/vds_mc
sweep=$build/tools/vds_sweep

mkdir -p "$here/run_report"
while IFS='|' read -r name args; do
  case $name in ''|'#'*) continue ;; esac
  # shellcheck disable=SC2086
  "$cli" $args > "$here/run_report/$name.json" || true
  printf 'wrote run_report/%s.json\n' "$name"
done < "$here/manifest.txt"

"$mc" --replicas 40 --grid 1,7,13,20 --scheme det --predictor two_bit \
      --seed 3 --rounds 60 --threads 1 --quiet --json-out \
      "$here/mc_summary.json"
printf 'wrote mc_summary.json\n'

"$sweep" --dataset schemes --threads 1 > "$here/sweep_schemes.csv"
printf 'wrote sweep_schemes.csv\n'

"$sweep" --dataset engines --threads 1 > "$here/sweep_engines.csv"
printf 'wrote sweep_engines.csv\n'

VDS_WRITE_GOLDEN_TRACE=1 "$build/tests/core_test_trace_golden" > /dev/null
printf 'wrote trace/*.tsv\n'
