#!/bin/sh
# Lines of Rust in the program: `crates/*/src` and `src`, per crate and
# in total, counted twice — every line, and every line outside
# `#[cfg(test)]` modules. This is the one definition of the line counts
# ROADMAP.md quotes.
#
# A `#[cfg(test)]` module runs from its attribute to the `}` at the
# attribute's indentation (rustfmt's layout).
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the repository holding
# this script)
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$@" -name '*.rs' -type f | sort | xargs cat | awk '
        skip_until != "" { if ($0 == skip_until) skip_until = ""; next }
        /^ *#\[cfg\(test\)\]$/ { attr = $0; pending = 1; next }
        pending && /^ *(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ \{$/ {
            pending = 0
            indent = substr(attr, 1, index(attr, "#") - 1)
            skip_until = indent "}"
            next
        }
        pending { pending = 0; shipped++ }
        { shipped++ }
        END { print NR, shipped + 0 }'
}

printf '%-16s %8s %8s\n' crate lines non-test
for dir in crates/*/src src; do
    case "$dir" in
    src) name=diablo ;;
    *) name="$(basename "$(dirname "$dir")")" ;;
    esac
    set -- $(count "$dir")
    printf '%-16s %8s %8s\n' "$name" "$1" "$2"
done
set -- $(count crates/*/src src)
printf '%-16s %8s %8s\n' total "$1" "$2"
