#!/bin/sh
# Lines-of-code inventory (§6.4 analogue). Usage: tools/loc.sh
#
# "lines" counts every line of every .rs file. "non-test" drops each
# file's lines from its first `#[cfg(test)]` on — the unit-test module
# that closes most source files — and counts integration tests (any
# `tests/` directory) and examples as all test. ROADMAP.md's size
# targets use "non-test".
set -e
cd "$(dirname "$0")/.."

# Sum of lines before each file's first `#[cfg(test)]`.
non_test() {
  find "$@" -name '*.rs' -not -path '*/tests/*' -exec awk '
    FNR == 1 { skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

all_lines() {
  find "$@" -name '*.rs' -exec cat {} + | wc -l
}

echo "crate                 lines  non-test"
echo "---------------------------------------"
for c in crates/*/; do
  printf "%-20s %6d %9d\n" "$(basename "$c")" "$(all_lines "$c")" "$(non_test "$c")"
done
printf "%-20s %6d %9d\n" "integration tests" "$(all_lines tests)" 0
printf "%-20s %6d %9d\n" "examples" "$(all_lines examples)" 0
echo "---------------------------------------"
printf "%-20s %6d %9d\n" "total" "$(all_lines crates tests examples)" "$(non_test crates)"
