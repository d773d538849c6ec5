#!/bin/sh
# Lint: src/ keeps one implementation per job. The splitmix64 finalizer and
# FNV-1a live in stats/samplers.hpp, thread pinning in core/task.cpp and
# JSON string escaping in telemetry/exporters.cpp. For each signature of
# these (the splitmix64 multiplier, the FNV-1a prime, pthread_setaffinity_np
# and the \u escape format) that appears in more than one file under src/,
# this prints the files and fails.
#
# Usage: sh tests/src_one_copy.sh [repository root]
set -eu
cd "${1:-.}"
status=0
for sig in 0xbf58476d1ce4e5b9 0x100000001b3 pthread_setaffinity_np '\\u%04x'; do
  files=$(grep -rlF -- "$sig" src || true)
  if [ "$(printf '%s' "$files" | grep -c .)" -gt 1 ]; then
    echo "$sig appears in more than one file under src/:"
    echo "$files"
    status=1
  fi
done
exit $status
