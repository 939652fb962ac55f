#!/usr/bin/env bash
# Reachability audit: every function the src/ libraries define must be
# linked into at least one of the six tools, or be on the keep list
# with a reason.
#
# The tools are built at Debug -O0 with -ffunction-sections and linked
# with --gc-sections, so a tool binary holds exactly the functions its
# call graph reaches. The audit takes the strong (T) vds:: symbols of
# every src/ static library, subtracts the symbols defined in the six
# tool binaries, and diffs what is left against
# tests/tools/reachability_keep.txt (one "symbol<TAB>reason" per line).
# It fails when
#   - a symbol is unreached and not on the keep list, or
#   - a listed symbol is reached now, or no longer exists,
# so the list cannot rot. Inline and template functions are weak (W)
# symbols and fall outside the audit.
#
# Usage: check_reachability.sh BUILD_DIR [REPO_ROOT]
# BUILD_DIR is configured and built here; give it a directory of its
# own (the Debug flags would clobber a normal build).
set -u

build="${1:?usage: check_reachability.sh BUILD_DIR [REPO_ROOT]}"
root="${2:-$(cd "$(dirname "$0")/../.." && pwd)}"
keep="$root/tests/tools/reachability_keep.txt"
tools="vds_cli vds_mc vds_sweep vds_serve vds_journal vds_fabric"

[ -f "$keep" ] || { echo "missing $keep" >&2; exit 1; }

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null || exit 1
# shellcheck disable=SC2086
cmake --build "$build" -j "${JOBS:-4}" --target $tools > /dev/null || exit 1

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# "lib<TAB>symbol" for every strong vds:: function of every library.
for lib in $(find "$build/src" -name 'libvds_*.a' | sort); do
  name="$(basename "$lib" .a)"
  name="${name#libvds_}"
  nm -C --defined-only "$lib" 2>/dev/null |
    sed -n 's/^[0-9a-f]* T \(vds::.*\)$/\1/p' |
    sed "s/^/$name\t/"
done | sort -u -t "$(printf '\t')" -k2 > "$work/defined"

for tool in $tools; do
  nm -C --defined-only "$build/tools/$tool" |
    sed -n 's/^[0-9a-f]* [A-Za-z] \(vds::.*\)$/\1/p'
done | sort -u > "$work/reached"

cut -f2 "$work/defined" | sort -u > "$work/defined_syms"
comm -23 "$work/defined_syms" "$work/reached" > "$work/unreached"
grep -v '^#' "$keep" | grep -v '^$' | cut -f1 | sort -u > "$work/kept"

failures=0
while IFS= read -r line; do
  case "$line" in
    '#'*|'') continue ;;
  esac
  reason="$(printf '%s' "$line" | cut -s -f2)"
  if [ -z "$reason" ]; then
    echo "FAIL: keep-list line has no <TAB>reason: $line" >&2
    failures=$((failures + 1))
  fi
done < "$keep"

while IFS= read -r sym; do
  echo "FAIL: unreached by every tool and not on the keep list: $sym" >&2
  failures=$((failures + 1))
done < <(comm -23 "$work/unreached" "$work/kept")

while IFS= read -r sym; do
  if grep -qxF "$sym" "$work/defined_syms"; then
    echo "FAIL: on the keep list but reached by a tool now: $sym" >&2
  else
    echo "FAIL: on the keep list but no longer defined: $sym" >&2
  fi
  failures=$((failures + 1))
done < <(comm -13 "$work/unreached" "$work/kept")

total="$(wc -l < "$work/defined_syms")"
unreached="$(wc -l < "$work/unreached")"
echo "reachability: $unreached of $total library functions reached by no tool"
awk -F '\t' 'NR == FNR { u[$0] = 1; next } ($2 in u) { n[$1]++ }
             END { for (l in n) printf "  %-11s %d\n", l, n[l] }' \
  "$work/unreached" "$work/defined" | sort -k2,2nr -k1,1

if [ "$failures" -ne 0 ]; then
  echo "reachability: $failures problem(s); delete the code or list it" \
       "in $keep with a reason" >&2
  exit 1
fi
echo "reachability: OK"
