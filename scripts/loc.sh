#!/usr/bin/env bash
# Non-test code lines per crate: non-blank lines that do not start with
# `//` (doc and plain comments), counted above the first `#[cfg(test)]`
# of each source file. Informational; nothing is gated on it.
#
#   scripts/loc.sh          one line per crate, then the total
#   scripts/loc.sh net      one line per file of crates/net, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the count for one file under the rule above.
count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ { next }
         /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$1"
}

if [[ $# -gt 0 ]]; then
    total=0
    while IFS= read -r f; do
        n=$(count "$f")
        total=$((total + n))
        printf '%-40s %6d\n' "$f" "$n"
    done < <(find "crates/$1/src" -name '*.rs' | sort)
    printf '%-40s %6d\n' "total" "$total"
    exit 0
fi

total=0
for dir in crates/*/src src; do
    n=0
    while IFS= read -r f; do
        n=$((n + $(count "$f")))
    done < <(find "$dir" -name '*.rs' | sort)
    total=$((total + n))
    printf '%-20s %6d\n' "${dir%/src}" "$n"
done
printf '%-20s %6d\n' "total" "$total"
