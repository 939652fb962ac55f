#!/usr/bin/env bash
# Documentation consistency: the reference docs must keep up with the
# code. Three checks, each against the *built* tools and committed
# goldens so drift fails CI rather than rotting quietly:
#   1. every long flag a tool prints in --help appears in docs/CLI.md,
#      and no tool's flag column (lines indented by two spaces) lists
#      one flag twice;
#   2. every top-level key of the golden JSON documents appears in
#      docs/SCHEMAS.md;
#   3. every relative markdown link in README/DESIGN/EXPERIMENTS and
#      docs/ points at a file that exists;
#   4. every engine kind the built tools accept has its own section
#      heading in docs/ENGINES.md (the engine handbook).
# Usage: check_docs.sh BUILD_DIR [REPO_ROOT]
set -u

build="${1:?usage: check_docs.sh BUILD_DIR [REPO_ROOT]}"
root="${2:-$(cd "$(dirname "$0")/../.." && pwd)}"
cli_doc="$root/docs/CLI.md"
schema_doc="$root/docs/SCHEMAS.md"
engines_doc="$root/docs/ENGINES.md"

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

[ -f "$cli_doc" ] || { echo "missing $cli_doc" >&2; exit 1; }
[ -f "$schema_doc" ] || { echo "missing $schema_doc" >&2; exit 1; }

# --- 1. every --help flag is documented in docs/CLI.md ----------------
for tool in vds_cli vds_mc vds_sweep vds_serve vds_journal vds_fabric; do
  bin="$build/tools/$tool"
  [ -x "$bin" ] || { fail "$bin not built"; continue; }
  # Long flags at the start of a help line (alias flags like -h are
  # always printed alongside their long form).
  flags="$("$bin" --help 2>&1 | grep -oE '^\s*--[a-z][a-z-]*' | tr -d ' ' | sort -u)"
  [ -n "$flags" ] || fail "$tool --help lists no flags (parse problem?)"
  for flag in $flags; do
    if ! grep -q -- "$flag" "$cli_doc"; then
      fail "$tool flag '$flag' is missing from docs/CLI.md"
    fi
  done
  twice="$("$bin" --help 2>&1 | grep -oE '^  --[a-z][a-z-]*' | sort | uniq -d)"
  for flag in $twice; do
    fail "$tool --help lists '$flag' twice"
  done
done

# --- 2. golden JSON top-level keys are documented in SCHEMAS.md -------
# Top-level = keys indented by exactly two spaces in the pretty-printed
# goldens (all goldens use the repo's two-space JsonWriter style).
check_keys() {
  local json="$1"
  [ -f "$json" ] || { fail "golden file $json missing"; return; }
  local keys
  keys="$(grep -oE '^  "[a-z_]+"' "$json" | tr -d ' "' | sort -u)"
  for key in $keys; do
    if ! grep -qF "\`$key\`" "$schema_doc" &&
       ! grep -qF "\"$key\"" "$schema_doc"; then
      fail "top-level key '$key' of $(basename "$json") not documented in docs/SCHEMAS.md"
    fi
  done
}
check_keys "$root/tests/golden/mc_summary.json"
first_report="$(ls "$root"/tests/golden/run_report/*.json 2>/dev/null | head -1)"
[ -n "$first_report" ] && check_keys "$first_report"
# A scenario and a metrics snapshot generated fresh from the tools.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$build/tools/vds_cli" --emit-scenario > "$tmp/scenario.json" 2>/dev/null \
  || fail "vds_cli --emit-scenario failed"
check_keys "$tmp/scenario.json"
"$build/tools/vds_sweep" --dataset gmax --metrics "$tmp/metrics.json" \
  > /dev/null 2>&1 || fail "vds_sweep --metrics failed"
check_keys "$tmp/metrics.json"

# --- 3. relative markdown links resolve -------------------------------
docs="$root/README.md $root/DESIGN.md $root/EXPERIMENTS.md"
for f in "$root"/docs/*.md; do docs="$docs $f"; done
for doc in $docs; do
  [ -f "$doc" ] || continue
  # [text](target) links, skipping absolute URLs and pure anchors.
  links="$(grep -oE '\]\([^)#][^)]*\)' "$doc" | sed -E 's/^\]\(//; s/\)$//; s/#.*$//' | sort -u)"
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|"") continue ;;
    esac
    if [ ! -e "$(dirname "$doc")/$link" ]; then
      fail "dead link in $(basename "$doc"): $link"
    fi
  done
done

# --- 4. every registered engine kind has an ENGINES.md section --------
# The authoritative kind list comes from the built binary's own
# strict-parse diagnostic ("--engine: expected smt, conv, ..."), so a
# kind added to the registry without a handbook section fails here
# without any hand-kept list in this script.
[ -f "$engines_doc" ] || fail "missing $engines_doc"
kinds="$("$build/tools/vds_cli" --engine definitely-bogus 2>&1 |
  sed -n 's/.*--engine: expected \(.*\), got.*/\1/p' |
  sed 's/ or /, /' | tr -d ' ' | tr ',' ' ')"
[ -n "$kinds" ] || fail "could not extract engine kinds from vds_cli"
for kind in $kinds; do
  if ! grep -qE "^##+ .*\`$kind\`" "$engines_doc"; then
    fail "engine kind '$kind' has no heading in docs/ENGINES.md"
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "docs consistency: $failures problem(s)" >&2
  exit 1
fi
echo "docs are consistent with the tools and goldens"
