#!/usr/bin/env bash
# Test-only module check for the library sources.
#
# Every header under src/ must be used by something other than its own .cpp
# and the unit tests: another file under src/, an example, a bench or the
# end-to-end benchmark. A header that only tests/ includes is code production
# never runs; delete it, or move it under tests/ when it is a test reference.
#
# Includes are matched by their path relative to src/ ("core/foo.hpp"), the
# form every include in the tree uses. The script also prints the line count
# of src/ (wc -l over src/**/*.{cpp,hpp}), the figure ROADMAP.md tracks.
#
# Usage: scripts/check_src_modules.sh [repo_root]   (default: .)
set -euo pipefail

root="${1:-.}"
cd "$root"
status=0
checked=0

while IFS= read -r header; do
  rel="${header#src/}"
  own_cpp="${header%.hpp}.cpp"
  checked=$((checked + 1))
  users=$(grep -rlF --include='*.cpp' --include='*.hpp' "#include \"$rel\"" \
            src examples bench e2ebench 2>/dev/null |
          grep -vxF -e "$header" -e "$own_cpp" || true)
  if [ -z "$users" ]; then
    echo "FAIL: $header is included only by its own .cpp and tests/"
    status=1
  fi
done < <(find src -name '*.hpp' | sort)

lines=$(find src \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
        xargs -0 cat | wc -l)
echo "src/: $checked headers checked, $lines lines"
exit "$status"
