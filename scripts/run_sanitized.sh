#!/usr/bin/env sh
# Configure a sanitizer build and run the test suites that need it.
#
#   scripts/run_sanitized.sh [asan|tsan] [extra ctest args...]
#
# asan (default): ASan+UBSan in build-asan/, runs `ctest -L sanitize` —
#   the storage / durability suites that exercise raw page buffers,
#   journal replay, and fault injection; the B+-tree and dual-index
#   suites that read and write node pages, where a latent out-of-bounds
#   write or use-after-evict would hide; the executor's batch suite,
#   the relation codecs, the parser and the database facade; and the
#   geometry oracle every refinement decision trusts (LPs, polyhedra,
#   duality, rectangles, float comparison) with the status type.
# tsan: ThreadSanitizer in build-tsan/, runs `ctest -L tsan` — the
#   concurrent-read pager, executor, and metrics suites (ISSUE 3), where a
#   data race on the sharded buffer pool or the stats plumbing would hide.
#   TSan cannot be combined with ASan, hence the separate build tree.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"

mode="asan"
if [ "$#" -gt 0 ]; then
  case "$1" in
    asan|tsan) mode="$1"; shift ;;
  esac
fi

if [ "$mode" = "tsan" ]; then
  build="$repo/build-tsan"
  cmake -S "$repo" -B "$build" -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCDB_SANITIZE=thread
  cmake --build "$build"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}" \
    ctest --test-dir "$build" -L tsan --output-on-failure "$@"
else
  build="$repo/build-asan"
  cmake -S "$repo" -B "$build" -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCDB_SANITIZE=address,undefined
  cmake --build "$build"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    ctest --test-dir "$build" -L sanitize --output-on-failure "$@"
fi
