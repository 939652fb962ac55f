#!/usr/bin/env bash
# Exit-code convention across the tools:
#   0 success; 1 job did not complete (vds_cli only); 2 usage/parse
#   error; 3 runtime failure; 130 signal drain (vds_mc, covered by
#   check_drain_resume.sh; vds_serve, covered by check_serve.sh;
#   vds_fabric, covered by check_fabric.sh).
# Also pins the strict-parse diagnostic shape: every bad flag value is
# reported as  FLAG: expected WANTED, got 'VALUE'.
# Usage: check_exit_codes.sh BUILD_DIR
set -u

build="${1:?usage: check_exit_codes.sh BUILD_DIR}"
cli="$build/tools/vds_cli"
mc="$build/tools/vds_mc"
sweep="$build/tools/vds_sweep"
serve="$build/tools/vds_serve"
fabric="$build/tools/vds_fabric"
journal_tool="$build/tools/vds_journal"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

failures=0
expect() {
  local want="$1"; shift
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*" >&2
    failures=$((failures + 1))
  fi
}

# Asserts stderr carries the canonical strict-parse message.
expect_message() {
  local needle="$1"; shift
  if ! "$@" 2>&1 > /dev/null | grep -qF -e "$needle"; then
    echo "FAIL: stderr missing \"$needle\": $*" >&2
    failures=$((failures + 1))
  fi
}

# 0: clean runs.
expect 0 "$cli" --rounds 50 --seed 3
expect 0 "$mc" --quiet --replicas 2 --grid 1,3 --kinds transient \
  --rounds 20 --threads 2
expect 0 "$sweep" --dataset gmax
expect 0 "$mc" --quiet --replicas 2 --grid 1 --kinds transient \
  --rounds 20 --target-ci 0            # 0 = fixed grid, as in serve JSON

# 2: usage and parse errors.
expect 2 "$cli" --no-such-flag
expect 2 "$cli" --alpha 0.2            # scenario.validate() rejection
expect 2 "$cli" --engine replay --replay-window 0
expect 2 "$cli" --engine dme --decorrelation 1.5
expect 2 "$cli" --engine dme --common-mode -0.1
expect 2 "$mc" --no-such-flag
expect 2 "$mc" --grid 0                # invalid grid value
expect 2 "$mc" --chaos cell.explode=1  # unknown chaos site
expect 2 "$mc" --chaos cell.fail=2     # probability out of range
expect 2 "$mc" --cell-range 5:5        # inverted/empty dispatch window
expect 2 "$mc" --journal-format v3     # retired: one journal encoding
expect 2 "$mc" --target-ci -0.5        # a CI target is >= 0 (0 = off)
expect 2 "$mc" --replicas 0            # the grid needs a replica
expect 2 "$mc" --rate 5                # single-run flag: campaigns draw
expect 2 "$mc" --seed 1 --bias 0.7     #   their own faults
expect 2 "$mc" --threads 2 --rounds 20 --job-rounds 20  # one flag each
expect 2 "$mc" --max-replicas 10       # cap without a CI target
expect 2 "$sweep" --dataset nope
expect 2 "$sweep" --no-such-flag
echo '{"schema": "vds.serve_request.v1", "id": "x", "type": "stats"}' |
  expect 0 "$serve" --threads 1
expect 2 "$serve" --no-such-flag
expect 2 "$serve" --queue-limit 0
expect 2 "$serve" --batch-max bogus
expect 2 "$serve" --tcp 70000
expect 2 "$fabric"                       # no mode picked
expect 2 "$fabric" --no-such-flag
expect 2 "$fabric" --coordinate          # no rendezvous
expect 2 "$fabric" --worker              # no coordinator address
expect 2 "$fabric" --coordinate --socket x --target-ci 0.05
expect 2 "$fabric" --coordinate --socket x --rate 5
expect 2 "$fabric" --coordinate --socket x --journal j.journal
expect 2 "$fabric" --coordinate --socket x --cell-range 0:10
expect 2 "$fabric" --coordinate --socket x --expiry-ms 0
expect 2 "$fabric" --coordinate --socket x --backoff-ms 200 --backoff-cap-ms 100

# Strict-parse diagnostics: flag AND value, in the one canonical shape.
expect_message "--grid: expected a positive round number, got '0'" \
  "$mc" --grid 0
expect_message "--kinds: expected transient, crash, permanent or processor_crash, got 'meteor'" \
  "$mc" --kinds meteor
expect_message "--cell-timeout: expected a number >= 0, got '-1'" \
  "$mc" --cell-timeout -1
expect_message "--alpha: expected a number, got 'bogus'" \
  "$cli" --alpha bogus
expect_message "--engine: expected smt, conv, srt, duplex, replay or dme, got 'abacus'" \
  "$cli" --engine abacus
expect_message "--scheme: expected rollback, retry, det, prob or predict, got 'hope'" \
  "$cli" --scheme hope
expect_message "--predictor: expected a registered predictor name, got 'crystal_ball'" \
  "$cli" --predictor crystal_ball
expect_message "--cell-range: expected LO < HI, got '5:5'" \
  "$mc" --cell-range 5:5
expect_message "--target-ci: expected a relative half-width >= 0, got '-0.5'" \
  "$mc" --target-ci -0.5
expect_message "--replicas: expected a replica count >= 1, got '0'" \
  "$mc" --replicas 0
expect_message "--min-replicas: expected a replica count >= 1, got '0'" \
  "$mc" --min-replicas 0
expect_message "--batch: expected a wave size >= 1, got '0'" \
  "$mc" --batch 0
expect_message "--max-replicas requires --target-ci" \
  "$mc" --max-replicas 10
expect_message "--dataset: expected fig4, fig5, gmax, schemes, alpha, reliability or engines, got 'nope'" \
  "$sweep" --dataset nope
expect_message "--engine: expected smt, conv, srt, duplex, replay or dme, got 'abacus'" \
  "$sweep" --dataset engines --engine abacus
expect_message "--queue-limit: expected a positive request count, got '0'" \
  "$serve" --queue-limit 0
expect_message "--tcp: expected a port in 1..65535, got '70000'" \
  "$serve" --tcp 70000
expect_message "pick a mode: --coordinate or --worker" \
  "$fabric"
expect_message "--target-ci is not supported in fabric mode; run vds_mc" \
  "$fabric" --coordinate --socket x --target-ci 0.05
expect_message "--coordinate needs --socket PATH or --port N" \
  "$fabric" --coordinate

# 2 via environment: $VDS_CHAOS is parsed like --chaos.
VDS_CHAOS="bogus" expect 2 "$mc" --quiet --replicas 1 --grid 1 \
  --kinds transient --rounds 10

# 3: runtime failure — a resume fingerprint mismatch.
"$mc" --quiet --replicas 1 --grid 1 --kinds transient --rounds 10 \
  --journal "$tmp/j.journal" > /dev/null 2>&1
expect 3 "$mc" --quiet --replicas 1 --grid 1 --kinds transient \
  --rounds 10 --seed 99 --journal "$tmp/j.journal" --resume

# 3: shards that disagree about a stopping point refuse to merge, with
# the one canonical diagnostic. Honest runs cannot produce this (the
# CI target is part of the fingerprint), so the conflicting shard
# journals are written by hand as v3 bytes (docs/SCHEMAS.md §6):
# header = magic "vdsjrnl\0", u32 version 3, u64 fingerprint 0xaa, \n;
# record = 0xA5, payload length 11, stop payload (flags 0x04, stratum
# 3, stop_after 16 or 24, f64 achieved_ci 0x1p-5 or 0x1p-6), CRC32C of
# the payload (precomputed), \n.
header='vdsjrnl\x00\x03\x00\x00\x00\xaa\x00\x00\x00\x00\x00\x00\x00\n'
printf "$header"'\xa5\x0b\x04\x03\x10\x00\x00\x00\x00\x00\x00\xa0\x3f\xb1\x81\x6b\x3b\n' \
  > "$tmp/stop_a.journal"
printf "$header"'\xa5\x0b\x04\x03\x18\x00\x00\x00\x00\x00\x00\x90\x3f\xa5\x61\x56\xc3\n' \
  > "$tmp/stop_b.journal"
# 2: the retired output-encoding flag is an unknown flag now.
expect 2 "$journal_tool" merge "$tmp/stop_a.journal" --out "$tmp/fmt.journal" \
  --format v3
expect 3 "$journal_tool" merge "$tmp/stop_a.journal" "$tmp/stop_b.journal" \
  --out "$tmp/stop_m.journal"
expect_message "(same fingerprint, different stopping point); the shards disagree — refusing to merge" \
  "$journal_tool" merge "$tmp/stop_a.journal" "$tmp/stop_b.journal" \
  --out "$tmp/stop_m.journal"

if [ "$failures" -ne 0 ]; then
  echo "exit-code convention: $failures violation(s)" >&2
  exit 1
fi
echo "exit-code convention holds"
