#!/usr/bin/env bash
# Adaptive sampling end to end: the CI-driven trial stream must
#   (a) produce bitwise-identical digests at any --threads count,
#   (b) actually save work against the fixed-lattice budget and say so
#       in the vds.mc_summary.v2 snapshot, and
#   (c) keep the --progress heartbeat on stderr only — stdout and the
#       JSON snapshot must be byte-identical with and without it.
# Usage: check_sampling.sh BUILD_DIR
set -u

build="${1:?usage: check_sampling.sh BUILD_DIR}"
mc="$build/tools/vds_mc"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Default grid (5 rounds x 4 kinds) at 400 replicas: an 8000-cell
# budget the 5% target undercuts by a wide margin. The digest-neutral
# pool.delay chaos site sleeps 200 us before every pool task, so the
# single-thread run outlasts the 500 ms heartbeat in (c) however fast
# the engine gets. Every compared run carries the same flags.
flags=(--quiet --replicas 400 --rounds 1200 --seed 7
       --target-ci 0.05 --min-replicas 16 --batch 32
       --chaos pool.delay=1)
budget=8000

digest_of() { grep -o '"digest": "[0-9a-f]*"' "$1"; }

failures=0

# (a) Thread-count determinism: stopping decisions are functions of
# canonically-ordered prefixes, never of arrival order.
for t in 1 4 8; do
  "$mc" "${flags[@]}" --threads "$t" --json-out "$tmp/t$t.json" || {
    echo "FAIL: sampling campaign failed at --threads $t" >&2; exit 1; }
done
ref=$(digest_of "$tmp/t1.json")
for t in 4 8; do
  got=$(digest_of "$tmp/t$t.json")
  if [ -z "$ref" ] || [ "$ref" != "$got" ]; then
    echo "FAIL: digest differs between --threads 1 and --threads $t" >&2
    failures=$((failures + 1))
  fi
done

# (b) The v2 snapshot reports the adaptive run: schema bump, at least
# one early-stopped stratum, and fewer cells than the fixed budget.
grep -q '"schema": "vds.mc_summary.v2"' "$tmp/t4.json" || {
  echo "FAIL: sampling snapshot does not carry vds.mc_summary.v2" >&2
  failures=$((failures + 1)); }
grep -q '"early_stopped": true' "$tmp/t4.json" || {
  echo "FAIL: no stratum reports early_stopped in the snapshot" >&2
  failures=$((failures + 1)); }
executed=$(grep -o '"cells_executed": [0-9]*' "$tmp/t4.json" |
  grep -o '[0-9]*$')
if [ -z "$executed" ] || [ "$executed" -ge "$budget" ]; then
  echo "FAIL: adaptive run spent $executed of $budget budget cells" >&2
  failures=$((failures + 1))
fi

# (c) Heartbeat purity: --progress may only write to stderr, and every
# line it writes is a heartbeat; results stay byte-identical.
"$mc" "${flags[@]}" --threads 1 --progress \
  --json-out "$tmp/progress.json" \
  > "$tmp/progress.out" 2> "$tmp/progress.err" || {
  echo "FAIL: --progress campaign failed" >&2; exit 1; }
cmp -s "$tmp/t1.json" "$tmp/progress.json" || {
  echo "FAIL: --progress perturbed the JSON snapshot" >&2
  failures=$((failures + 1)); }
if [ -s "$tmp/progress.out" ]; then
  echo "FAIL: --progress leaked onto stdout:" >&2
  head -3 "$tmp/progress.out" >&2
  failures=$((failures + 1))
fi
if ! [ -s "$tmp/progress.err" ]; then
  echo "FAIL: no heartbeat on stderr during a multi-second campaign" >&2
  failures=$((failures + 1))
elif grep -qv '^progress: ' "$tmp/progress.err"; then
  echo "FAIL: stderr carries non-heartbeat lines:" >&2
  grep -v '^progress: ' "$tmp/progress.err" | head -3 >&2
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "adaptive sampling: $failures violation(s)" >&2
  exit 1
fi
echo "adaptive sampling holds: $executed of $budget cells, digest stable across threads, heartbeat stderr-only"
