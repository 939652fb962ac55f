#!/usr/bin/env bash
# SIGINT graceful drain, end to end: interrupt a live vds_mc campaign,
# expect exit 130 and a resumable journal, resume it, and require the
# final digest to be bitwise identical to an uninterrupted run's.
# Usage: check_drain_resume.sh BUILD_DIR
set -u

build="${1:?usage: check_drain_resume.sh BUILD_DIR}"
mc="$build/tools/vds_mc"
journal_tool="$build/tools/vds_journal"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The digest-neutral cell.hang chaos site (no watchdog armed) sleeps
# 50 ms before about 1% of the cells' attempts, which then run
# normally, so the campaign outlasts the journal poll below however
# fast the engine and the journal get. It is keyed per cell, not per
# pool task: a task runs a block of up to 64 cells. Every compared run
# carries the same flags.
flags=(--quiet --replicas 500 --grid 1,3,5 --kinds transient,crash
       --rounds 200 --seed 11 --threads 2 --chaos cell.hang=0.01)

digest_of() { grep -o '"digest": "[0-9a-f]*"' "$1"; }

# Intact cell records in a journal (0 while it does not parse yet). A
# v3 journal is binary, so counting its newline bytes says nothing.
records_in() {
  local n
  n=$("$journal_tool" inspect "$1" 2> /dev/null |
      sed -n 's/^ *"records": \([0-9]*\).*/\1/p' | head -n 1)
  echo "${n:-0}"
}

# Uninterrupted reference.
"$mc" "${flags[@]}" --json-out "$tmp/reference.json" || {
  echo "FAIL: reference campaign failed" >&2; exit 1; }

# Interrupted run: wait until the journal shows real progress, then
# SIGINT. If the campaign wins the race and finishes first, retry with
# an earlier kill rather than fail on scheduling luck.
for attempt in 1 2 3 4 5; do
  rm -f "$tmp/campaign.journal"
  "$mc" "${flags[@]}" --journal "$tmp/campaign.journal" \
    --json-out "$tmp/partial.json" &
  pid=$!
  want=$((50 / attempt))
  while kill -0 "$pid" 2> /dev/null; do
    records=$(records_in "$tmp/campaign.journal")
    [ "$records" -ge "$want" ] && break
    sleep 0.01
  done
  kill -INT "$pid" 2> /dev/null
  wait "$pid"
  code=$?
  [ "$code" -eq 130 ] && break
  if [ "$code" -ne 0 ]; then
    echo "FAIL: interrupted campaign exited $code, want 130" >&2
    exit 1
  fi
  echo "campaign outran the signal (attempt $attempt), retrying" >&2
done
if [ "$code" -ne 130 ]; then
  echo "FAIL: could not interrupt the campaign mid-flight" >&2
  exit 1
fi

journaled=$(records_in "$tmp/campaign.journal")
total=$((500 * 3 * 2))
if [ "$journaled" -le 0 ] || [ "$journaled" -ge "$total" ]; then
  echo "FAIL: drain journaled $journaled of $total cells" >&2
  exit 1
fi

# The drained snapshot must say so.
grep -q '"drained": true' "$tmp/partial.json" || {
  echo "FAIL: partial snapshot does not report drained=true" >&2; exit 1; }

# Resume to completion; the digest must match the uninterrupted run.
"$mc" "${flags[@]}" --journal "$tmp/campaign.journal" --resume \
  --json-out "$tmp/resumed.json" || {
  echo "FAIL: resume after drain failed" >&2; exit 1; }
ref=$(digest_of "$tmp/reference.json")
res=$(digest_of "$tmp/resumed.json")
if [ -z "$ref" ] || [ "$ref" != "$res" ]; then
  echo "FAIL: digest mismatch after drain+resume: '$ref' vs '$res'" >&2
  exit 1
fi
echo "drain+resume reproduces the uninterrupted digest ($journaled cells were journaled at the kill)"
