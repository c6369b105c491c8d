#!/bin/sh
# Production line counts per crate: for every .rs file under crates/<crate>/src,
# the lines before its first `#[cfg(test)]`. "code" is a line that is neither
# blank nor starts with `//`. This is the rule EXPERIMENTS.md's size tables use,
# so a line bar in an issue is this command run at two commits.
#
#   sh scripts/production-lines.sh [crate ...]     (default: every crate)
cd "$(dirname "$0")/.." || exit 1
[ $# -gt 0 ] || set -- $(ls crates)
printf '%-12s %7s %7s %8s %6s\n' crate all code comment blank
for crate in "$@"; do
    find "crates/$crate/src" -name '*.rs' | sort | xargs awk -v crate="$crate" '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        {
            all++
            line = $0
            sub(/^[ \t]+/, "", line)
            if (line == "") blank++
            else if (substr(line, 1, 2) == "//") comment++
            else code++
        }
        END { printf "%-12s %7d %7d %8d %6d\n", crate, all, code, comment, blank }'
done | awk '
    { print }
    { all += $2; code += $3; comment += $4; blank += $5 }
    END { printf "%-12s %7d %7d %8d %6d\n", "total", all, code, comment, blank }'
