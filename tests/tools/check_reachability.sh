#!/usr/bin/env bash
# Reachability audit: every function the src/ libraries define must be
# linked into at least one of the six tools, or be on the keep list
# with a reason.
#
# The tools are built at Debug -O0 with -ffunction-sections and
# -fkeep-inline-functions and linked with --gc-sections. Every inline
# (header) function then gets a section of its own in each object that
# includes its header, and a tool binary holds exactly the functions
# its call graph reaches. The audit takes the strong (T) and weak (W)
# vds:: functions of every src/ static library, drops two groups of
# compiler noise:
#   - std:: template instantiations (a vds:: type as an argument or
#     return type does not make them vds:: code), and
#   - compiler-generated special members: weak X::X(), X::X(X&&),
#     X::X(X const&), X::~X() and X::operator=(X&&/X const&). A
#     user-written constructor or destructor defined in a .cpp is
#     strong and stays in; so does any constructor with other
#     parameters,
# subtracts the functions defined in the six tool binaries, and diffs
# what is left against tests/tools/reachability_keep.txt (one
# "symbol<TAB>reason" per line). It fails when
#   - a symbol is unreached and not on the keep list, or
#   - a listed symbol is reached now, or no longer exists,
# so the list cannot rot. A template that no library object
# instantiates has no symbol and falls outside the audit.
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
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fkeep-inline-functions" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null || exit 1
# shellcheck disable=SC2086
cmake --build "$build" -j "${JOBS:-4}" --target $tools > /dev/null || exit 1

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# "namespace<TAB>function" for the vds:: functions of an object file or
# archive whose nm type matches $2, demangled. The test runs on the
# mangled name: a function of namespace vds (or a lambda or local class
# inside one) mangles as _ZN[qualifiers]3vds or _ZZN[qualifiers]3vds; a
# std:: template instantiated over vds:: types mangles as _ZSt / _ZNSt.
# The namespace is the component after vds:: (an inline function is
# emitted into every library that includes its header, so the
# namespace, not the library, says where it lives).
vds_functions() {
  nm --defined-only "$1" 2>/dev/null |
    awk -v types="$2" '$2 ~ types && $3 ~ /^_ZZ?N[VKRO]*3vds/ {
      rest = $3
      sub(/^_ZZ?N[VKRO]*3vds/, "", rest)
      len = rest + 0
      ns = len > 0 ? substr(rest, length(len "") + 1, len) : "vds"
      print ns "\t" $3
    }' |
    c++filt -i
}

# A weak special member: X::X(), X::X(X&&), X::X(X const&), X::~X() or
# X::operator=(X&&|X const&), with X possibly a template.
special=$'\t''(.*::)?([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::(~?\2|operator=)\((|(.*::)?\2(<.*>)?(&&| const&))\)$'

for lib in $(find "$build/src" -name 'libvds_*.a' | sort); do
  vds_functions "$lib" '^T$'
  vds_functions "$lib" '^W$' | grep -Ev -- "$special"
done | sort -u > "$work/defined"

for tool in $tools; do
  vds_functions "$build/tools/$tool" '^[A-Za-z]$' | cut -f2
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
             END { for (ns in n) printf "  %-11s %d\n", ns, n[ns] }' \
  "$work/unreached" "$work/defined" | sort -k2,2nr -k1,1

if [ "$failures" -ne 0 ]; then
  echo "reachability: $failures problem(s); delete the code or list it" \
       "in $keep with a reason" >&2
  exit 1
fi
echo "reachability: OK"
