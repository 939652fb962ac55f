#!/usr/bin/env bash
# Journal format compatibility, end to end across processes:
#   1. a v3 (default) campaign resumes to the fresh-run digest and
#      vds_journal verify/inspect agree with it;
#   2. a v2 text campaign resumes under a v3-default relaunch without
#      re-executing a cell, and the journal stays text;
#   3. a v1 journal (derived from the v2 file exactly as the pre-CRC
#      writer left it) resumes to the same digest;
#   4. a bit-flipped v3 journal is flagged by vds_journal verify
#      (exit 1) and still resumes to the golden digest;
#   5. three --cell-range shards (one v2, one overlapping) merge into
#      one journal whose full-range resume reproduces the
#      single-process digest without executing a cell;
#   6. merging journals of different campaigns is refused (exit 3).
# Usage: check_journal.sh BUILD_DIR
set -u

build="${1:?usage: check_journal.sh BUILD_DIR}"
mc="$build/tools/vds_mc"
jr="$build/tools/vds_journal"
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

# --- 1. v3 default: run, verify, inspect, resume ----------------------
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

# --- 2. v2 text written, resumed by a v3-default relaunch -------------
"$mc" "${flags[@]}" --journal-format v2 --journal "$tmp/v2.journal" \
  > /dev/null || fail "v2 campaign failed"
head -c 17 "$tmp/v2.journal" | grep -q 'vds-mc-journal v2' ||
  fail "v2 journal does not start with the text header"
"$mc" "${flags[@]}" --journal "$tmp/v2.journal" --resume \
  --json-out "$tmp/v2.resumed.json" > /dev/null ||
  fail "v3-default resume of v2 journal failed"
[ "$(digest_of "$tmp/v2.resumed.json")" = "$ref" ] ||
  fail "v2->v3-default resume digest differs"
grep -q '"cells_executed": 0' "$tmp/v2.resumed.json" ||
  fail "v2 resume re-executed cells"
head -c 17 "$tmp/v2.journal" | grep -q 'vds-mc-journal v2' ||
  fail "resume converted the v2 journal in place"

# --- 3. v1 journal (strip CRCs from the v2 file) ----------------------
sed -e '1s/ v2 / v1 /' -e 's/ #[0-9a-f]\{8\}$//' "$tmp/v2.journal" \
  > "$tmp/v1.journal"
"$jr" verify "$tmp/v1.journal" > "$tmp/v1.verify" ||
  fail "verify flagged the derived v1 journal"
grep -q 'v1 .*records 80 corrupt 0' "$tmp/v1.verify" ||
  fail "v1 verify summary wrong: $(cat "$tmp/v1.verify")"
"$mc" "${flags[@]}" --journal "$tmp/v1.journal" --resume \
  --json-out "$tmp/v1.resumed.json" > /dev/null || fail "v1 resume failed"
[ "$(digest_of "$tmp/v1.resumed.json")" = "$ref" ] ||
  fail "v1 resume digest differs"

# --- 4. damaged v3 journal: flagged, then healed by resume ------------
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

# --- 5. sharded campaign: three --cell-range windows, merged ----------
"$mc" "${flags[@]}" --cell-range 0:30 --journal "$tmp/shard-a.journal" \
  > /dev/null || fail "shard a failed"
"$mc" "${flags[@]}" --cell-range 30:60 --journal-format v2 \
  --journal "$tmp/shard-b.journal" > /dev/null || fail "shard b failed"
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

# --- 6. merging different campaigns is refused ------------------------
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
echo "v1/v2/v3 journals all resume to the golden digest; shard merge reproduces the single-process run"
