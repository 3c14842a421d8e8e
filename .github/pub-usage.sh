#!/usr/bin/env bash
# Every `pub` item under crates/*/src must be named in some other .rs file
# of crates/, tests/, examples/ or benchmark/src/; a name used only inside
# its own file is private or `pub(crate)`, and a name used nowhere is
# deleted. Names kept public on purpose are listed in .github/pub-allow.txt
# as `<file> <name> <reason>`; an entry that no longer matches an unused
# name fails too, so the list cannot go stale.
#
# Run from the repository root: bash .github/pub-usage.sh
set -eu

allow=.github/pub-allow.txt
status=0

# `<file> <name>` for every pub fn/struct/enum/trait/type/const/static/mod.
declared=$(grep -rnoE --include='*.rs' \
  '^\s*pub (unsafe )?(const fn|fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*' \
  crates/*/src | sed -E 's/^([^:]*):[0-9]+:.* ([A-Za-z_][A-Za-z0-9_]*)$/\1 \2/' | sort -u)

# A mention on a comment line (`//`, `///`, `//!`) is not a use.
unused=$(while read -r file name; do
  users=$(grep -rnw --include='*.rs' -- "$name" crates tests examples benchmark/src |
    grep -vE '^[^:]*:[0-9]+:\s*//' | cut -d: -f1 | sort -u || true)
  if [ -z "$(printf '%s\n' "$users" | grep -vxF "$file" || true)" ]; then
    echo "$file $name"
  fi
done <<< "$declared")

allowed=$(grep -vE '^(#|$)' "$allow" | awk '{ print $1, $2 }' | sort -u)

while read -r file name; do
  [ -n "$file" ] || continue
  if ! grep -qxF "$file $name" <<< "$allowed"; then
    echo "$file: pub $name is used in no other file (make it private, delete it, or allow it in $allow)" >&2
    status=1
  fi
done <<< "$unused"

while read -r file name; do
  [ -n "$file" ] || continue
  if ! grep -qxF "$file $name" <<< "$unused"; then
    echo "$allow: stale entry $file $name (not an unused pub name any more)" >&2
    status=1
  fi
done <<< "$allowed"

exit $status
