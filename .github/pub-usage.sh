#!/usr/bin/env bash
# Every `pub` item under crates/*/src must be used in some other .rs file
# of crates/, tests/, examples/ or benchmark/src/; a name used only inside
# its own file is private or `pub(crate)`, and a name used nowhere is
# deleted. Names kept public on purpose are listed in .github/pub-allow.txt
# as `<file> <name> <reason>`; an entry that no longer matches an unused
# name fails too, so the list cannot go stale.
#
# Types, traits, constants, modules and the `pub fn`s at the top of a file
# count as used where another file names them as a word. An indented
# `pub fn` — a method, or a function of an inline module — counts only
# where another file calls it, as the compiler resolves the call: a
# method's name is often a common word (`len`, `get`), so a word match
# would find a call to some other type's method. A copy of the sources
# under target/pub-usage marks each such function
# `#[deprecated(note = "pub-usage <file> <name>")]`, `cargo check` builds
# every target of the workspace and of benchmark/, and each "use of
# deprecated" warning names the file of a call and the function it calls.
# Only changed files are rewritten, so a second run is incremental.
#
# Run from the repository root: bash .github/pub-usage.sh
set -eu

allow=.github/pub-allow.txt
status=0
root=$PWD
work=$root/target/pub-usage

pub='pub (unsafe )?(const fn|fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*'
method='^[[:space:]]+pub (unsafe )?(const )?fn [A-Za-z_][A-Za-z0-9_]*'

# `<file> <name>` for every pub item but the indented functions.
items=$(grep -rnoE --include='*.rs' "^[[:space:]]*$pub" crates/*/src | grep -vE ":[0-9]+:$method" |
  sed -E 's/^([^:]*):[0-9]+:.* ([A-Za-z_][A-Za-z0-9_]*)$/\1 \2/' | sort -u)

# `<file> <name>` for every indented pub fn.
methods=$(grep -rnoE --include='*.rs' "$method" crates/*/src |
  sed -E 's/^([^:]*):[0-9]+:.* ([A-Za-z_][A-Za-z0-9_]*)$/\1 \2/' | sort -u)

# The marked copy: the manifests, crates/, tests/, examples/, shims/ and
# benchmark/src, with the indented pub fns of crates/*/src deprecated.
mkdir -p "$work/tree"
sources=$(find Cargo.toml Cargo.lock crates tests examples shims benchmark/Cargo.toml \
  benchmark/Cargo.lock benchmark/src -type f -not -path '*/target/*' | sort)
while read -r file; do
  mkdir -p "$work/tree/$(dirname "$file")"
  case $file in
    crates/*/src/*.rs)
      sed -E "s|^([[:space:]]+)(pub (unsafe )?(const )?fn ([A-Za-z_][A-Za-z0-9_]*))|\1#[deprecated(note = \"pub-usage $file \5\")]\n\1\2|" \
        "$file" > "$work/marked.rs"
      ;;
    *) cp "$file" "$work/marked.rs" ;;
  esac
  if ! cmp -s "$work/marked.rs" "$work/tree/$file"; then
    mv "$work/marked.rs" "$work/tree/$file"
  fi
done <<< "$sources"
# A file deleted since the last run must not linger in the copy.
(cd "$work/tree" && find . -type f -not -path './target/*' | sed 's|^\./||' | sort) |
  comm -23 - <(printf '%s\n' "$sources") | while read -r gone; do rm -f "$work/tree/$gone"; done

# `<caller file> <declaring file> <name>` for every resolved call.
check() {
  (cd "$work/tree/$1" && CARGO_TARGET_DIR=$work/target RUSTFLAGS="-W deprecated" \
    cargo check --offline --quiet --all-targets --message-format=short "${@:2}" 2>&1) ||
    { echo "pub-usage: cargo check failed in the marked copy of ${1:-the workspace}" >&2; exit 1; }
}
# The benchmark's own files only: it reports the crates it depends on by
# absolute path, and the workspace check has their calls already.
workspace=$(check . --workspace)
benchmark=$(check benchmark)
benchmark=$(sed -nE 's|^src/|benchmark/src/|p' <<< "$benchmark")
calls=$(printf '%s\n%s\n' "$workspace" "$benchmark" |
  sed -nE 's/^([^:]+):[0-9]+:[0-9]+: warning: use of deprecated .*: pub-usage ([^ ]+) ([A-Za-z0-9_]+)$/\1 \2 \3/p')
called=$(awk '$1 != $2 { print $2, $3 }' <<< "$calls" | sort -u)

# A mention on a comment line (`//`, `///`, `//!`) is not a use.
unused=$({
  while read -r file name; do
    users=$(grep -rnw --include='*.rs' -- "$name" crates tests examples benchmark/src |
      grep -vE '^[^:]*:[0-9]+:\s*//' | cut -d: -f1 | sort -u || true)
    if [ -z "$(printf '%s\n' "$users" | grep -vxF "$file" || true)" ]; then
      echo "$file $name"
    fi
  done <<< "$items"
  comm -23 <(printf '%s\n' "$methods") <(printf '%s\n' "$called")
} | grep -v '^$' | sort -u)

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
