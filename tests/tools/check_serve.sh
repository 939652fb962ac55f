#!/usr/bin/env bash
# vds_serve end-to-end smoke: ~20 requests through a live server over
# stdio and TCP, response digests compared against one-shot vds_mc
# runs (the bitwise-identity oracle), plus a mid-flight SIGTERM drain
# that must answer queued requests with code=drain — never drop them —
# and exit 130.
# Usage: check_serve.sh BUILD_DIR
set -u

build="${1:?usage: check_serve.sh BUILD_DIR}"
serve="$build/tools/vds_serve"
mc="$build/tools/vds_mc"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

scenario_json() { # scheme
  printf '{"schema": "vds.scenario.v1", "scheme": "%s"}' "$1"
}

campaign_request() { # id scheme seed replicas
  printf '{"schema": "vds.serve_request.v1", "id": "%s", "type": "campaign", "scenario": %s, "campaign": {"replicas": %s, "rounds": [1, 5], "seed": %s}}\n' \
    "$1" "$(scenario_json "$2")" "$4" "$3"
}

response_for() { # id file -> the one response line carrying this id
  grep -F "\"id\": \"$1\"" "$2"
}

digest_of() { # stdin -> the digest hex
  grep -o '"digest": "[0-9a-f]*"' | head -1 | grep -o '[0-9a-f]\{16\}'
}

mc_digest_for() { # scheme seed replicas
  "$mc" --scheme "$1" --seed "$2" --replicas "$3" --grid 1,5 \
    --threads 3 --quiet --json-out - | digest_of
}

# --- 1. stdio: a 20-request mix, EOF exit 0 ---------------------------

requests="$tmp/requests.ndjson"
: > "$requests"
ids=""
for scheme in rollback retry det; do
  for seed in 1 2 3; do
    id="c-$scheme-$seed"
    ids="$ids $id:$scheme:$seed"
    campaign_request "$id" "$scheme" "$seed" 10 >> "$requests"
  done
done
# 9 campaigns so far; add runs, health probes and garbage -> 20 lines.
for seed in 4 5 6; do
  printf '{"schema": "vds.serve_request.v1", "id": "run-%s", "type": "run", "scenario": {"schema": "vds.scenario.v1", "scheme": "det", "seed": %s, "rounds": 120}}\n' \
    "$seed" "$seed" >> "$requests"
done
for k in 1 2 3; do
  printf '{"schema": "vds.serve_request.v1", "id": "stats-%s", "type": "stats"}\n' "$k" >> "$requests"
done
printf 'this is not json\n' >> "$requests"
printf '{"schema": "vds.serve_request.v1", "id": "bad-type", "type": "dance"}\n' >> "$requests"
printf '{"schema": "vds.serve_request.v1", "id": "bad-scenario", "type": "campaign", "scenario": {"schema": "vds.scenario.v1", "alpha": 0.2}}\n' >> "$requests"
campaign_request "c-extra-1" det 7 10 >> "$requests"
campaign_request "c-extra-2" retry 8 10 >> "$requests"

total=$(wc -l < "$requests")
[ "$total" -eq 20 ] || fail "request mix is $total lines, wanted 20"

responses="$tmp/responses.ndjson"
"$serve" --threads 2 < "$requests" > "$responses"
code=$?
[ "$code" -eq 0 ] || fail "stdio serve exited $code, wanted 0"

got=$(wc -l < "$responses")
[ "$got" -eq "$total" ] || fail "$got responses for $total requests (every line must be answered)"

# Digest parity: each served campaign must match its one-shot vds_mc
# equivalent byte for byte (equal digests = bitwise-equal summaries).
check_digest() { # id scheme seed replicas file
  local line serve_digest mc_digest
  line=$(response_for "$1" "$5") || { fail "no response for $1"; return; }
  serve_digest=$(printf '%s\n' "$line" | digest_of)
  mc_digest=$(mc_digest_for "$2" "$3" "$4")
  [ -n "$serve_digest" ] || { fail "no digest in response for $1"; return; }
  if [ "$serve_digest" != "$mc_digest" ]; then
    fail "digest mismatch for $1: serve=$serve_digest mc=$mc_digest"
  fi
}
for entry in $ids; do
  id=${entry%%:*}; rest=${entry#*:}; scheme=${rest%%:*}; seed=${rest#*:}
  check_digest "$id" "$scheme" "$seed" 10 "$responses"
done
check_digest c-extra-1 det 7 10 "$responses"
check_digest c-extra-2 retry 8 10 "$responses"

for k in 1 2 3; do
  response_for "stats-$k" "$responses" | grep -q '"schema": "vds.serve_stats.v1"' ||
    fail "stats-$k did not get a vds.serve_stats.v1 line"
done
for seed in 4 5 6; do
  response_for "run-$seed" "$responses" | grep -q '"vds.run_report.v1"' ||
    fail "run-$seed did not get a vds.run_report.v1 body"
done
response_for "bad-type" "$responses" | grep -q '"code": "bad_request"' ||
  fail "bad-type not answered with bad_request"
response_for "bad-scenario" "$responses" | grep -q '"code": "bad_request"' ||
  fail "bad-scenario not answered with bad_request"
badcount=$(grep -c '"code": "bad_request"' "$responses")
[ "$badcount" -eq 3 ] || fail "expected 3 bad_request errors, got $badcount"

# Runs are deterministic too: the same run request twice gives the
# same body bytes (strip the envelope's queue/service timings).
run_a=$(response_for "run-4" "$responses" | sed 's/.*"body": //')
"$serve" --threads 1 < "$requests" > "$tmp/responses2.ndjson" ||
  fail "second stdio pass failed"
run_b=$(response_for "run-4" "$tmp/responses2.ndjson" | sed 's/.*"body": //')
[ "$run_a" = "$run_b" ] || fail "run-4 body differs between serves"

# --- 2. mid-flight SIGTERM drain --------------------------------------

drain_in="$tmp/drain_in"
mkfifo "$drain_in"
drain_out="$tmp/drain_out.ndjson"
"$serve" --threads 2 --batch-max 1 < "$drain_in" > "$drain_out" &
pid=$!
exec 9> "$drain_in"
# One long campaign to hold the dispatcher, three queued behind it.
campaign_request "long" det 1 30000 >&9
campaign_request "q1" det 2 2 >&9
campaign_request "q2" retry 3 2 >&9
campaign_request "q3" rollback 4 2 >&9
# Let "long" dispatch: wait until the server has burned two clock
# ticks of CPU, which only a running campaign does. A fixed sleep would
# race the engine's speed; "long" lasts far longer than the wait.
for _ in $(seq 500); do
  ticks=$(awk '{print $14 + $15}' "/proc/$pid/stat" 2>/dev/null || echo 0)
  [ "${ticks:-0}" -ge 2 ] && break
  sleep 0.01
done
kill -TERM "$pid"
exec 9>&-
wait "$pid"
code=$?
[ "$code" -eq 130 ] || fail "drained serve exited $code, wanted 130"

drained=$(wc -l < "$drain_out")
[ "$drained" -eq 4 ] || fail "drain run answered $drained of 4 requests"
response_for "long" "$drain_out" | grep -q '"schema": "vds.serve_response.v1"' ||
  fail "in-flight request was not answered with a response after SIGTERM"
for id in q1 q2 q3; do
  response_for "$id" "$drain_out" | grep -q '"code": "drain"' ||
    fail "queued request $id did not get a code=drain error"
done
# The in-flight campaign still digest-matches its one-shot equivalent:
# drain must not truncate an admitted request.
long_digest=$(response_for "long" "$drain_out" | digest_of)
long_mc=$(mc_digest_for det 1 30000)
[ "$long_digest" = "$long_mc" ] ||
  fail "drained in-flight digest mismatch: serve=$long_digest mc=$long_mc"

# --- 3. TCP transport: two concurrent clients -------------------------

port=17943
"$serve" --tcp "$port" --threads 2 > /dev/null 2>&1 &
pid=$!
listening=0
for _ in $(seq 50); do
  if (exec 8<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
    listening=1
    break
  fi
  sleep 0.1
done
[ "$listening" -eq 1 ] || fail "tcp listener never came up on $port"

tcp_client() { # id scheme seed outfile
  local line
  exec 7<>"/dev/tcp/127.0.0.1/$port" || { fail "tcp connect failed"; return; }
  campaign_request "$1" "$2" "$3" 10 >&7
  IFS= read -r line <&7
  printf '%s\n' "$line" > "$4"
  exec 7>&-
}
tcp_client t1 det 21 "$tmp/t1.json" &
c1=$!
tcp_client t2 retry 22 "$tmp/t2.json" &
c2=$!
wait "$c1" "$c2"
kill -TERM "$pid" 2>/dev/null
wait "$pid" 2>/dev/null

for entry in "t1:det:21" "t2:retry:22"; do
  id=${entry%%:*}; rest=${entry#*:}; scheme=${rest%%:*}; seed=${rest#*:}
  [ -s "$tmp/$id.json" ] || { fail "tcp client $id got no response"; continue; }
  tcp_digest=$(digest_of < "$tmp/$id.json")
  mc_digest=$(mc_digest_for "$scheme" "$seed" 10)
  [ "$tcp_digest" = "$mc_digest" ] ||
    fail "tcp digest mismatch for $id: $tcp_digest vs $mc_digest"
done

if [ "$failures" -ne 0 ]; then
  echo "vds_serve smoke: $failures failure(s)" >&2
  exit 1
fi
echo "vds_serve smoke: stdio mix, SIGTERM drain and TCP all clean"
