#!/usr/bin/env bash
# vds_fabric end-to-end fault drill. The one oracle throughout: the
# coordinator's merged digest must be bitwise identical to a
# single-process vds_mc run of the same campaign — at any worker
# count, with a worker SIGKILLed mid-lease, with a lease expiring
# while its worker silently keeps computing, with the coordinator
# SIGKILLed and resumed from the assignment log, and with chaos armed
# inside the workers.
# Usage: check_fabric.sh BUILD_DIR
set -u

build="${1:?usage: check_fabric.sh BUILD_DIR}"
fabric="$build/tools/vds_fabric"
mc="$build/tools/vds_mc"
journal_tool="$build/tools/vds_journal"
tmp="$(mktemp -d)"
pids=()
cleanup() {
  for pid in ${pids[@]+"${pids[@]}"}; do
    kill -KILL "$pid" 2>/dev/null
  done
  rm -rf "$tmp"
}
trap cleanup EXIT

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

digest_line() { # file with 'digest: HEX' -> the hex
  grep -o '^digest: [0-9a-f]\{16\}' "$1" | head -1 | cut -d' ' -f2
}

wait_for_socket() { # path
  for _ in $(seq 100); do
    [ -S "$1" ] && return 0
    sleep 0.05
  done
  return 1
}

# Two campaign sizes: SMALL finishes in well under a second (parity
# and chaos drills); BIG takes longer, leaving a window to kill things
# mid-flight. The expiry race drill does not rely on BIG's size: it
# arms the cell.hang chaos site to outlast its 300 ms expiry.
SMALL=(--replicas 800 --grid 1,5 --kinds transient,crash --scheme det --seed 3)
BIG=(--replicas 10000 --grid 1,5 --kinds transient,crash --scheme det --seed 3
     --rounds 180)

small_expected="$("$mc" "${SMALL[@]}" --threads 2 --quiet --json-out - \
  | grep -o '"digest": "[0-9a-f]*"' | grep -o '[0-9a-f]\{16\}')"
big_expected="$("$mc" "${BIG[@]}" --threads 2 --quiet --json-out - \
  | grep -o '"digest": "[0-9a-f]*"' | grep -o '[0-9a-f]\{16\}')"
[ -n "$small_expected" ] || fail "no digest from single-process vds_mc (small)"
[ -n "$big_expected" ] || fail "no digest from single-process vds_mc (big)"

# Launches a worker and leaves its pid in $worker_pid (no command
# substitution: a subshell would lose the pids bookkeeping).
start_worker() { # socket outfile extra-args...
  local sock="$1" out="$2"
  shift 2
  "$fabric" --worker --connect "$sock" "$@" >"$out" 2>&1 &
  worker_pid=$!
  pids+=("$worker_pid")
}

# --- 1. single worker, Unix socket: plain parity -----------------------
sock="$tmp/one.sock"
"$fabric" --coordinate --socket "$sock" --workdir "$tmp/one.work" \
  "${SMALL[@]}" --threads 2 >"$tmp/one.out" 2>"$tmp/one.err" &
coord=$!
pids+=("$coord")
wait_for_socket "$sock" || fail "coordinator never bound $sock"
start_worker "$sock" "$tmp/one.w1.out" --name w1
w=$worker_pid
wait "$coord"
code=$?
wait "$w"
wcode=$?
[ "$code" -eq 0 ] || fail "1-worker coordinator exit $code (want 0)"
[ "$wcode" -eq 0 ] || fail "1-worker worker exit $wcode (want 0)"
got="$(digest_line "$tmp/one.out")"
[ "$got" = "$small_expected" ] \
  || fail "1-worker digest $got != vds_mc $small_expected"

# --- 2. three workers over TCP, many small leases ----------------------
# Below Linux's default ephemeral range (32768-60999): a listen port
# there can already be the local port of some client socket, and the
# coordinator then fails to bind.
port=$((21000 + RANDOM % 11000))
"$fabric" --coordinate --port "$port" --workdir "$tmp/three.work" \
  --lease-cells 200 "${SMALL[@]}" --threads 2 \
  >"$tmp/three.out" 2>"$tmp/three.err" &
coord=$!
pids+=("$coord")
for _ in $(seq 100); do
  (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null && break
  sleep 0.05
done
workers=()
for k in 1 2 3; do
  "$fabric" --worker --port "$port" --name "w$k" --threads 2 \
    >"$tmp/three.w$k.out" 2>&1 &
  workers+=($!)
  pids+=($!)
done
wait "$coord"
code=$?
for w in "${workers[@]}"; do wait "$w"; done
[ "$code" -eq 0 ] || fail "3-worker coordinator exit $code (want 0)"
got="$(digest_line "$tmp/three.out")"
[ "$got" = "$small_expected" ] \
  || fail "3-worker digest $got != vds_mc $small_expected"
grep -q 'audit: 16 leases' "$tmp/three.err" \
  || fail "3-worker audit does not report 16 leases"
grep -q ' 0 expiries' "$tmp/three.err" \
  || fail "healthy 3-worker run reports expiries"

# --- 3. worker SIGKILLed mid-lease: EOF releases, another finishes -----
sock="$tmp/kill.sock"
"$fabric" --coordinate --socket "$sock" --workdir "$tmp/kill.work" \
  --lease-cells 4000 "${BIG[@]}" --threads 2 \
  >"$tmp/kill.out" 2>"$tmp/kill.err" &
coord=$!
pids+=("$coord")
wait_for_socket "$sock" || fail "kill-drill coordinator never bound"
start_worker "$sock" "$tmp/kill.w1.out" --name victim --threads 1
victim=$worker_pid
# Kill the victim once it is demonstrably holding its second lease.
granted=0
for _ in $(seq 200); do
  granted=$(grep -c '<- lease' "$tmp/kill.err" || true)
  [ "$granted" -ge 2 ] && break
  sleep 0.05
done
[ "$granted" -ge 2 ] || fail "victim never reached its second lease"
kill -KILL "$victim" 2>/dev/null
wait "$victim" 2>/dev/null
start_worker "$sock" "$tmp/kill.w2.out" --name finisher --threads 2
finisher=$worker_pid
wait "$coord"
code=$?
wait "$finisher"
[ "$code" -eq 0 ] || fail "kill-drill coordinator exit $code (want 0)"
got="$(digest_line "$tmp/kill.out")"
[ "$got" = "$big_expected" ] \
  || fail "digest after worker SIGKILL $got != vds_mc $big_expected"
grep -q 'attempt 2' "$tmp/kill.err" \
  || fail "released lease was never re-granted (no attempt 2 in log)"

# --- 4. lease expiry racing completion ---------------------------------
# The silent worker (--heartbeat-ms 0) keeps computing while its lease
# expires; a healthy worker picks up the re-issue. Whichever result
# lands second must coalesce — the digest never changes. The workers
# run with the digest-neutral cell.hang chaos site armed (no watchdog:
# a 50 ms sleep before about 0.2% of the cells' attempts, which then
# run normally), so the 20000-cell lease outlasts the 300 ms expiry
# however fast the engine gets. The site is keyed per cell; pool.delay
# is keyed per pool task, and a task runs a block of up to 64 cells.
sock="$tmp/race.sock"
"$fabric" --coordinate --socket "$sock" --workdir "$tmp/race.work" \
  --lease-cells 20000 --expiry-ms 300 --backoff-ms 50 \
  --chaos cell.hang=0.002 \
  "${BIG[@]}" --threads 2 >"$tmp/race.out" 2>"$tmp/race.err" &
coord=$!
pids+=("$coord")
wait_for_socket "$sock" || fail "race-drill coordinator never bound"
start_worker "$sock" "$tmp/race.w1.out" \
  --name mute --threads 1 --heartbeat-ms 0
sleep 0.4
start_worker "$sock" "$tmp/race.w2.out" \
  --name healthy --threads 2
wait "$coord"
code=$?
[ "$code" -eq 0 ] || fail "race-drill coordinator exit $code (want 0)"
got="$(digest_line "$tmp/race.out")"
[ "$got" = "$big_expected" ] \
  || fail "digest after expiry race $got != vds_mc $big_expected"
grep -q 'expired (heartbeat silence)' "$tmp/race.err" \
  || fail "no lease ever expired in the expiry race drill"

# --- 5. coordinator SIGKILLed, then --resume ---------------------------
sock="$tmp/res1.sock"
"$fabric" --coordinate --socket "$sock" --workdir "$tmp/res.work" \
  --lease-cells 4000 "${BIG[@]}" --threads 2 \
  >"$tmp/res1.out" 2>"$tmp/res1.err" &
coord=$!
pids+=("$coord")
wait_for_socket "$sock" || fail "resume-drill coordinator never bound"
start_worker "$sock" "$tmp/res.w1.out" --name r1 --threads 1
w1=$worker_pid
start_worker "$sock" "$tmp/res.w2.out" --name r2 --threads 1
w2=$worker_pid
# SIGKILL the coordinator only after the assignment log holds at least
# one completion — so the resume below has something real to replay.
committed=0
for _ in $(seq 200); do
  committed=$("$journal_tool" inspect "$tmp/res.work/assignment.journal" \
    2>/dev/null | grep -o '"leases_completed": [0-9]*' \
    | grep -o '[0-9]*$' || true)
  [ "${committed:-0}" -ge 1 ] && break
  sleep 0.05
done
[ "${committed:-0}" -ge 1 ] || fail "no lease completed before coordinator kill"
kill -KILL "$coord" 2>/dev/null
wait "$coord" 2>/dev/null
kill -KILL "$w1" "$w2" 2>/dev/null
wait "$w1" "$w2" 2>/dev/null

sock="$tmp/res2.sock"
"$fabric" --coordinate --socket "$sock" --workdir "$tmp/res.work" \
  --resume --lease-cells 4000 "${BIG[@]}" --threads 2 \
  >"$tmp/res2.out" 2>"$tmp/res2.err" &
coord=$!
pids+=("$coord")
wait_for_socket "$sock" || fail "resumed coordinator never bound"
start_worker "$sock" "$tmp/res.w3.out" --name r3 --threads 2
w=$worker_pid
wait "$coord"
code=$?
wait "$w"
[ "$code" -eq 0 ] || fail "resumed coordinator exit $code (want 0)"
grep -q '([1-9][0-9]* committed from log)' "$tmp/res2.err" \
  || fail "resume replayed no committed leases from the assignment log"
got="$(digest_line "$tmp/res2.out")"
[ "$got" = "$big_expected" ] \
  || fail "digest after coordinator kill+resume $got != vds_mc $big_expected"

# --- 6. chaos-armed workers: corrupt journals, hung cells --------------
# journal.corrupt mangles shard records (caught by CRC at merge, cells
# re-executed in the final reduce); cell.hang trips the per-cell
# watchdog. Neither may perturb the digest.
sock="$tmp/chaos.sock"
"$fabric" --coordinate --socket "$sock" --workdir "$tmp/chaos.work" \
  --lease-cells 400 --chaos 'journal.corrupt=0.02:40,cell.hang=0.002:2' \
  --cell-timeout 1 "${SMALL[@]}" --threads 2 \
  >"$tmp/chaos.out" 2>"$tmp/chaos.err" &
coord=$!
pids+=("$coord")
wait_for_socket "$sock" || fail "chaos-drill coordinator never bound"
start_worker "$sock" "$tmp/chaos.w1.out" --name c1 --threads 2
w1=$worker_pid
start_worker "$sock" "$tmp/chaos.w2.out" --name c2 --threads 2
w2=$worker_pid
wait "$coord"
code=$?
wait "$w1" "$w2"
[ "$code" -eq 0 ] || fail "chaos-drill coordinator exit $code (want 0)"
got="$(digest_line "$tmp/chaos.out")"
[ "$got" = "$small_expected" ] \
  || fail "digest under chaos $got != vds_mc $small_expected"
grep -q '[1-9][0-9]* corrupt)' "$tmp/chaos.err" \
  || fail "chaos drill saw no corrupt shard records (chaos never fired?)"

# --- 7. the assignment log reads back as a first-class journal ---------
info="$("$journal_tool" inspect "$tmp/three.work/assignment.journal")"
echo "$info" | grep -q '"lease_records": ' \
  || fail "vds_journal inspect reports no lease_records for assignment log"
echo "$info" | grep -q '"leases_completed": 16' \
  || fail "assignment log does not show all 16 leases completed"
echo "$info" | grep -q '"leases_open": 0' \
  || fail "finished campaign left open leases in the assignment log"

# --- 8. merge --json-out per-shard report over real shard journals -----
shards=("$tmp"/three.work/lease-*.journal)
[ "${#shards[@]}" -ge 2 ] || fail "expected shard journals in three.work"
merge_json="$("$journal_tool" merge "${shards[@]}" \
  --out "$tmp/remerged.journal" --json-out - )" \
  || fail "vds_journal merge of fabric shards failed"
echo "$merge_json" | grep -q '"shards": \[' \
  || fail "merge --json-out carries no per-shard array"
echo "$merge_json" | grep -q '"fingerprint": "[0-9a-f]\{16\}"' \
  || fail "merge --json-out carries no winning fingerprint"

if [ "$failures" -gt 0 ]; then
  echo "check_fabric: $failures failure(s)" >&2
  exit 1
fi
echo "check_fabric: all fabric fault drills passed"
