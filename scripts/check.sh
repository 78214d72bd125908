#!/bin/bash
# Full local gate: build matrix -> tests -> tvarak-lint -> clang-tidy.
#
# Mirrors the CI matrix (.github/workflows/ci.yml):
#   1. RelWithDebInfo build with -Werror, full ctest run
#   2. ASan+UBSan build with -D_GLIBCXX_ASSERTIONS, full ctest run
#   3. tvarak-lint (every rule + SARIF determinism) + fixture self-test
#   4. clang-tidy (skipped with a notice if not installed)
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer build (matrix job 2)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

GEN=()
command -v ninja >/dev/null && GEN=(-G Ninja)

echo "== [1/4] RelWithDebInfo + -Werror build =="
cmake -B build-check "${GEN[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTVARAK_WERROR=ON >/dev/null
cmake --build build-check -j"$(nproc)"
ctest --test-dir build-check --output-on-failure -j"$(nproc)"

if [ "$FAST" = 0 ]; then
    echo "== [2/4] ASan+UBSan build (bounds-checked libstdc++) =="
    cmake -B build-asan "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTVARAK_WERROR=ON "-DTVARAK_SANITIZE=address;undefined" \
        -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS >/dev/null
    cmake --build build-asan -j"$(nproc)"
    ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
else
    echo "== [2/4] sanitizer build skipped (--fast) =="
fi

echo "== [3/4] tvarak-lint =="
./build-check/tools/lint/tvarak-lint --root . \
    --sarif build-check/tvarak-lint.sarif
./build-check/tools/lint/tvarak-lint --root . \
    --sarif build-check/tvarak-lint.run2.sarif
cmp build-check/tvarak-lint.sarif build-check/tvarak-lint.run2.sarif
./build-check/tools/lint/tvarak-lint --self-test tests/lint_fixtures

echo "== [4/4] clang-tidy =="
if command -v clang-tidy >/dev/null && command -v run-clang-tidy \
    >/dev/null; then
    cmake -B build-check -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    run-clang-tidy -p build-check -quiet "$(pwd)/src/" \
        "$(pwd)/tools/"
else
    echo "clang-tidy not installed; skipping (CI runs it)"
fi

echo "All checks passed."
