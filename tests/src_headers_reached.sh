#!/bin/sh
# Lint: every header under src/ must be included by some file in src/,
# examples/ or bench/ other than its own .cpp. A header that only its own
# .cpp and the tests include is a library nothing runs; this prints each one
# and fails.
#
# Usage: sh tests/src_headers_reached.sh [repository root]
set -eu
cd "${1:-.}"
status=0
for header in $(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort); do
  own="src/${header%.hpp}.cpp"
  if ! grep -rlF --include='*.cpp' --include='*.hpp' "#include \"$header\"" src examples bench |
      grep -qvxF "$own"; then
    echo "$header"
    status=1
  fi
done
exit "$status"
