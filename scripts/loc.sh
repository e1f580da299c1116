#!/usr/bin/env bash
# Non-test line counts per crate and for the root crate's `src/`.
#
# Each `.rs` file counts up to (not including) its first `#[cfg(test)]`
# line; `crates/platform/src/store/tests.rs` is a test module in a file of
# its own and is left out. Every line counts, blank and comment lines too.
#
#   bash scripts/loc.sh        # from the repository root, or from anywhere
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' ! -path 'crates/platform/src/store/tests.rs' -print0 \
        | xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    name="${dir%/src}"
    name="${name#crates/}"
    n="$(count "$dir")"
    total=$((total + n))
    printf '%-10s %6d\n' "$name" "$n"
done
printf '%-10s %6d\n' total "$total"
