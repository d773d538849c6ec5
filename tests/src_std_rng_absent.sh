#!/bin/sh
# Lint: src/ draws its random numbers through stats/mt19937_64.hpp, whose
# engine, uniform-real and exponential draws return the standard library's
# values without its branches on random bits. This prints every use of the
# standard Mersenne Twister engines and of the standard uniform-real and
# exponential distributions under src/ and fails if there is one.
#
# Usage: sh tests/src_std_rng_absent.sh [repository root]
set -eu
cd "${1:-.}"
if grep -rnE 'std::mt19937|uniform_real_distribution|exponential_distribution' src; then
  exit 1
fi
