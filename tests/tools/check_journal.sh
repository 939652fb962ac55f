#!/usr/bin/env bash
# The campaign journal, end to end across processes:
#   1. a campaign resumes to the fresh-run digest and vds_journal
#      verify/inspect agree with it;
#   2. a text journal written by an older build (the retired v1/v2
#      encodings) is refused by vds_mc --resume, vds_journal
#      verify/inspect/merge and vds_fabric --resume: exit 3, the path
#      in the message, the file left byte-identical;
#   3. a bit-flipped journal is flagged by vds_journal verify (exit 1)
#      and still resumes to the golden digest;
#   4. three --cell-range shards (one overlapping) merge into one
#      journal whose full-range resume reproduces the single-process
#      digest without executing a cell;
#   5. merging journals of different campaigns is refused (exit 3).
# Usage: check_journal.sh BUILD_DIR
set -u

build="${1:?usage: check_journal.sh BUILD_DIR}"
mc="$build/tools/vds_mc"
jr="$build/tools/vds_journal"
fabric="$build/tools/vds_fabric"
for tool in "$mc" "$jr" "$fabric"; do
  [ -x "$tool" ] || { echo "FAIL: $tool not built" >&2; exit 1; }
done
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

flags=(--quiet --replicas 20 --grid 1,4 --kinds transient,crash
       --rounds 60 --seed 13 --threads 2)
# 2 kinds x 2 grid x 20 replicas = 80 cells.

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}
digest_of() { grep -o '"digest": "[0-9a-f]*"' "$1"; }

# Uninterrupted reference digest, no journal involved.
"$mc" "${flags[@]}" --json-out "$tmp/reference.json" ||
  fail "reference campaign failed"
ref=$(digest_of "$tmp/reference.json")
[ -n "$ref" ] || fail "reference snapshot has no digest"

# --- 1. run, verify, inspect, resume ----------------------------------
"$mc" "${flags[@]}" --journal "$tmp/v3.journal" > /dev/null ||
  fail "v3 campaign failed"
"$jr" verify "$tmp/v3.journal" > "$tmp/v3.verify" ||
  fail "verify flagged a clean v3 journal"
grep -q 'v3 .*records 80 corrupt 0' "$tmp/v3.verify" ||
  fail "verify summary wrong: $(cat "$tmp/v3.verify")"
"$jr" inspect "$tmp/v3.journal" > "$tmp/v3.info" || fail "inspect failed"
grep -q '"schema": "vds.journal_info.v1"' "$tmp/v3.info" ||
  fail "inspect missing schema marker"
grep -q '"version": 3' "$tmp/v3.info" || fail "inspect missing version 3"
grep -q '"records": 80' "$tmp/v3.info" || fail "inspect missing 80 records"
"$mc" "${flags[@]}" --journal "$tmp/v3.journal" --resume \
  --json-out "$tmp/v3.resumed.json" > /dev/null || fail "v3 resume failed"
[ "$(digest_of "$tmp/v3.resumed.json")" = "$ref" ] ||
  fail "v3 resume digest differs from fresh run"
grep -q '"cells_executed": 0' "$tmp/v3.resumed.json" ||
  fail "v3 resume re-executed cells"

# --- 2. a text journal from an older build is refused, untouched -----
printf 'vds-mc-journal v2 fingerprint 0000000000000009\ncell 0 1 0x1p+0 0x1p+0 0x1p+0 60 #00000000\n' \
  > "$tmp/text.journal"
cp "$tmp/text.journal" "$tmp/text.orig"
# refused WHAT JOURNAL CMD...: CMD must exit 3, name JOURNAL on stderr
# and leave it byte-identical.
refused() {
  local what="$1" journal="$2"; shift 2
  "$@" > /dev/null 2> "$tmp/text.err"
  local code=$?
  [ "$code" -eq 3 ] || fail "$what of a text journal: exit $code (want 3)"
  grep -qF "$journal" "$tmp/text.err" ||
    fail "$what of a text journal does not name it: $(cat "$tmp/text.err")"
  cmp -s "$journal" "$tmp/text.orig" ||
    fail "$what changed the text journal"
}
refused "vds_mc --resume" "$tmp/text.journal" \
  "$mc" "${flags[@]}" --journal "$tmp/text.journal" --resume
refused "vds_journal verify" "$tmp/text.journal" \
  "$jr" verify "$tmp/text.journal"
refused "vds_journal inspect" "$tmp/text.journal" \
  "$jr" inspect "$tmp/text.journal"
refused "vds_journal merge" "$tmp/text.journal" \
  "$jr" merge "$tmp/text.journal" --out "$tmp/text.merged"
mkdir -p "$tmp/text.work"
cp "$tmp/text.orig" "$tmp/text.work/assignment.journal"
refused "vds_fabric --resume" "$tmp/text.work/assignment.journal" \
  timeout 10 "$fabric" --coordinate --socket "$tmp/text.sock" \
  --workdir "$tmp/text.work" --resume "${flags[@]}"

# --- 3. damaged journal: flagged, then healed by resume ---------------
cp "$tmp/v3.journal" "$tmp/bad.journal"
# Flip one byte inside the third record's payload (the header is 21
# bytes; records are small, so offset 100 is safely past two records).
printf '\x01' | dd of="$tmp/bad.journal" bs=1 seek=100 conv=notrunc \
  2> /dev/null
"$jr" verify "$tmp/bad.journal" > "$tmp/bad.verify"
[ $? -eq 1 ] || fail "verify of a damaged journal must exit 1"
grep -q 'DAMAGED' "$tmp/bad.verify" || fail "verify did not say DAMAGED"
"$mc" "${flags[@]}" --journal "$tmp/bad.journal" --resume \
  --json-out "$tmp/bad.resumed.json" > /dev/null ||
  fail "resume of damaged journal failed"
[ "$(digest_of "$tmp/bad.resumed.json")" = "$ref" ] ||
  fail "damaged-journal resume digest differs"

# --- 4. sharded campaign: three --cell-range windows, merged ----------
"$mc" "${flags[@]}" --cell-range 0:30 --journal "$tmp/shard-a.journal" \
  > /dev/null || fail "shard a failed"
"$mc" "${flags[@]}" --cell-range 30:60 --journal "$tmp/shard-b.journal" \
  > /dev/null || fail "shard b failed"
"$mc" "${flags[@]}" --cell-range 50:80 --journal "$tmp/shard-c.journal" \
  > /dev/null || fail "shard c failed"
"$jr" merge "$tmp/shard-a.journal" "$tmp/shard-b.journal" \
  "$tmp/shard-c.journal" --out "$tmp/merged.journal" > "$tmp/merge.out" ||
  fail "merge failed"
grep -q '80 records (10 duplicates coalesced' "$tmp/merge.out" ||
  fail "merge stats wrong: $(cat "$tmp/merge.out")"
"$jr" verify "$tmp/merged.journal" > /dev/null ||
  fail "merged journal did not verify clean"
"$mc" "${flags[@]}" --journal "$tmp/merged.journal" --resume \
  --json-out "$tmp/merged.resumed.json" > /dev/null ||
  fail "resume of merged journal failed"
[ "$(digest_of "$tmp/merged.resumed.json")" = "$ref" ] ||
  fail "merged-journal resume digest differs from single-process run"
grep -q '"cells_executed": 0' "$tmp/merged.resumed.json" ||
  fail "merged resume re-executed cells"

# --- 5. merging different campaigns is refused ------------------------
"$mc" "${flags[@]}" --seed 99 --journal "$tmp/other.journal" \
  > /dev/null || fail "other-seed campaign failed"
"$jr" merge "$tmp/shard-a.journal" "$tmp/other.journal" \
  --out "$tmp/nope.journal" > /dev/null 2> "$tmp/mismatch.err"
[ $? -eq 3 ] || fail "fingerprint-mismatch merge must exit 3"
grep -q 'fingerprint' "$tmp/mismatch.err" ||
  fail "mismatch error does not mention fingerprints"

if [ "$failures" -ne 0 ]; then
  echo "journal compatibility: $failures problem(s)" >&2
  exit 1
fi
echo "journals resume to the golden digest, text journals are refused untouched; shard merge reproduces the single-process run"
