#!/bin/sh
# Golden deterministic-counter check, run by ctest (test name
# `golden_metrics_counters`). One reference campaign per engine kind;
# the vds.metrics.v1 "counters" section (the deterministic counters —
# pure functions of the work done, independent of scheduling) must stay
# bitwise identical to the committed snapshot at every thread count.
# Wall-clock timings and scheduling-dependent counts are outside the
# contract and are not compared.
#
# Regenerate from a trusted build after a reviewed behaviour change:
#   tests/golden/check_metrics.sh BUILD_DIR --generate
set -eu

build=${1:?usage: check_metrics.sh BUILD_DIR [--generate]}
mode=${2:-check}
here=$(dirname "$0")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Fixed reference campaign; only the engine kind varies.
campaign_args='--replicas 20 --grid 1,7,13 --seed 5 --rounds 60 --quiet'

extract_counters() {
  sed -n '/^  "counters": {/,/^  },$/p' "$1"
}

fail=0
for kind in smt conv srt duplex replay dme; do
  golden=$here/metrics/$kind.counters
  if [ "$mode" = "--generate" ]; then
    # shellcheck disable=SC2086
    "$build/tools/vds_mc" --engine "$kind" $campaign_args --threads 1 \
      --metrics "$tmp/$kind.json" --json-out /dev/null
    mkdir -p "$here/metrics"
    extract_counters "$tmp/$kind.json" > "$golden"
    printf 'wrote metrics/%s.counters\n' "$kind"
    continue
  fi
  for threads in 1 3; do
    # shellcheck disable=SC2086
    "$build/tools/vds_mc" --engine "$kind" $campaign_args \
      --threads "$threads" --metrics "$tmp/$kind-$threads.json" \
      --json-out /dev/null
    extract_counters "$tmp/$kind-$threads.json" > "$tmp/$kind-$threads.counters"
    if ! cmp -s "$golden" "$tmp/$kind-$threads.counters"; then
      echo "MISMATCH metrics/$kind.counters (threads=$threads)"
      diff "$golden" "$tmp/$kind-$threads.counters" || true
      fail=1
    fi
  done
done

[ "$mode" = "--generate" ] && exit 0
[ "$fail" -eq 0 ] && echo "all golden deterministic counters identical"
exit "$fail"
