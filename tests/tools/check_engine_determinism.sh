#!/usr/bin/env bash
# Campaign-digest determinism for the replay and dme engines, across a
# process boundary: the digest must be bitwise identical across
# --threads 1/4/8, across a --cell-range shard split merged with
# vds_journal, and across a SIGINT drain + --resume. The older engines
# earn the same guarantee from check_drain_resume.sh and
# check_journal.sh; this drill pins the two newest ones.
# Usage: check_engine_determinism.sh BUILD_DIR
set -u

build="${1:?usage: check_engine_determinism.sh BUILD_DIR}"
mc="$build/tools/vds_mc"
journal_tool="$build/tools/vds_journal"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

digest_of() { grep -o '"digest": "[0-9a-f]*"' "$1"; }

failures=0
for engine in replay dme; do
  flags=(--quiet --engine "$engine" --replicas 2000 --grid 1,5,9
         --kinds transient,crash --rounds 400 --seed 11)

  # --- thread invariance ---------------------------------------------
  "$mc" "${flags[@]}" --threads 1 --json-out "$tmp/$engine.t1.json" || {
    echo "FAIL: $engine reference campaign failed" >&2; exit 1; }
  ref=$(digest_of "$tmp/$engine.t1.json")
  if [ -z "$ref" ]; then
    echo "FAIL: $engine snapshot carries no digest" >&2; exit 1
  fi
  for threads in 4 8; do
    "$mc" "${flags[@]}" --threads "$threads" \
      --json-out "$tmp/$engine.t$threads.json" || {
      echo "FAIL: $engine campaign at --threads $threads failed" >&2
      exit 1; }
    got=$(digest_of "$tmp/$engine.t$threads.json")
    if [ "$got" != "$ref" ]; then
      echo "FAIL: $engine digest differs at --threads $threads" >&2
      failures=$((failures + 1))
    fi
  done

  # --- shard split + merge + resume ----------------------------------
  # 2 kinds x 3 rounds x 2000 replicas = 12000 cells; split at 5000.
  "$mc" "${flags[@]}" --threads 2 --cell-range 0:5000 \
    --journal "$tmp/$engine.shard_a.journal" > /dev/null || {
    echo "FAIL: $engine shard A failed" >&2; exit 1; }
  "$mc" "${flags[@]}" --threads 2 --cell-range 5000:12000 \
    --journal "$tmp/$engine.shard_b.journal" > /dev/null || {
    echo "FAIL: $engine shard B failed" >&2; exit 1; }
  "$journal_tool" merge "$tmp/$engine.shard_a.journal" \
    "$tmp/$engine.shard_b.journal" \
    --out "$tmp/$engine.merged.journal" > /dev/null || {
    echo "FAIL: $engine shard merge failed" >&2; exit 1; }
  "$mc" "${flags[@]}" --threads 2 --journal "$tmp/$engine.merged.journal" \
    --resume --json-out "$tmp/$engine.merged.json" || {
    echo "FAIL: $engine resume of merged shards failed" >&2; exit 1; }
  got=$(digest_of "$tmp/$engine.merged.json")
  if [ "$got" != "$ref" ]; then
    echo "FAIL: $engine digest differs after shard merge + resume" >&2
    failures=$((failures + 1))
  fi

  # --- SIGINT drain + resume -----------------------------------------
  code=1
  for attempt in 1 2 3 4 5; do
    rm -f "$tmp/$engine.kill.journal"
    "$mc" "${flags[@]}" --threads 2 \
      --journal "$tmp/$engine.kill.journal" > /dev/null &
    pid=$!
    # The default journal is v3 binary: poll its byte count, shrinking
    # the threshold each attempt in case the campaign is winning.
    want=$((4000 / attempt))
    while kill -0 "$pid" 2> /dev/null; do
      bytes=$(wc -c < "$tmp/$engine.kill.journal" 2> /dev/null || echo 0)
      [ "$bytes" -ge "$want" ] && break
    done
    kill -INT "$pid" 2> /dev/null
    wait "$pid"
    code=$?
    [ "$code" -eq 130 ] && break
    if [ "$code" -ne 0 ]; then
      echo "FAIL: $engine interrupted campaign exited $code, want 130" >&2
      exit 1
    fi
    echo "$engine campaign outran the signal (attempt $attempt), retrying" >&2
  done
  if [ "$code" -ne 130 ]; then
    echo "FAIL: could not interrupt the $engine campaign mid-flight" >&2
    exit 1
  fi
  "$mc" "${flags[@]}" --threads 2 --journal "$tmp/$engine.kill.journal" \
    --resume --json-out "$tmp/$engine.resumed.json" || {
    echo "FAIL: $engine resume after drain failed" >&2; exit 1; }
  got=$(digest_of "$tmp/$engine.resumed.json")
  if [ "$got" != "$ref" ]; then
    echo "FAIL: $engine digest differs after drain + resume" >&2
    failures=$((failures + 1))
  fi

  echo "$engine: digest stable across threads, shard merge and drain+resume"
done

# --- --hw-threads is the scenario's "threads" key ---------------------
# The flag and a scenario file must configure the same campaign: same
# digest and fingerprint, both unlike the default 2-thread SMT model.
hw_flags=(--replicas 20 --grid 1,5 --quiet --json-out -)
printf '{"schema": "vds.scenario.v1", "threads": 5, "rounds": 60}\n' \
  > "$tmp/threads5.json"
by_flag=$("$mc" --hw-threads 5 "${hw_flags[@]}" |
  grep -E '"(digest|fingerprint)"')
by_file=$("$mc" --scenario "$tmp/threads5.json" "${hw_flags[@]}" |
  grep -E '"(digest|fingerprint)"')
default=$("$mc" "${hw_flags[@]}" | grep -E '"(digest|fingerprint)"')
if [ -z "$by_flag" ] || [ "$by_flag" != "$by_file" ]; then
  echo "FAIL: --hw-threads 5 and a threads=5 scenario file disagree" >&2
  failures=$((failures + 1))
elif [ "$by_flag" = "$default" ]; then
  echo "FAIL: --hw-threads 5 left the campaign at the default model" >&2
  failures=$((failures + 1))
else
  echo "--hw-threads 5 matches the threads=5 scenario file"
fi

if [ "$failures" -ne 0 ]; then
  echo "engine determinism: $failures violation(s)" >&2
  exit 1
fi
echo "replay/dme campaign digests are deterministic"
