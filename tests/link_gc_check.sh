#!/bin/sh
# Section-GC guard: a binary that never calls the function SYMBOL must not
# contain its code. Fails when `nm -C BINARY` lists SYMBOL as a text symbol
# (the linker kept whole library objects again); exits 77, which ctest
# reports as skipped, when NM is not available. Data that only names the
# function (a sanitizer's type info for a lambda inside it) does not count.
#
# usage: link_gc_check.sh NM BINARY SYMBOL
nm_tool=$1
binary=$2
symbol=$3
if ! command -v "$nm_tool" >/dev/null 2>&1; then
  echo "link_gc_check: '$nm_tool' not found; skipping"
  exit 77
fi
symbols=$("$nm_tool" -C "$binary") || exit 1
if printf '%s\n' "$symbols" |
    grep -qF -e " T $symbol(" -e " t $symbol("; then
  echo "link_gc_check: $binary still contains $symbol; section GC is off"
  exit 1
fi
echo "link_gc_check: $binary does not contain $symbol"
