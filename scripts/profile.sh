#!/usr/bin/env bash
# Sample-only host profile of one benchmark workload.
#
# Configures avbench/ (Release) into a separate build directory with
# gprof enabled at link time only, runs one single-threaded pass of
# the workload and prints gprof's flat profile.
#
# Usage: scripts/profile.sh <characterize|campaign|optimize>
#                           [seed] [seconds] [build-dir]
#   defaults: seed 1, seconds 2, build-dir <repo>/build-prof
#
# Pitfalls when reading the profile:
#   - Only the linker gets -pg, so gprof sees the program-counter
#     samples but no call counts or call graph. Compiling with -pg as
#     well would insert an mcount call into every function, which
#     distorts small hot functions. Before the cache model was inlined,
#     CacheModel::lookupInsert read 18 % of characterize's samples
#     that way instead of 24 % (seed 1, 2 s).
#   - gprof drops some local symbols, such as the compiler's clones of
#     functions in anonymous namespaces, and credits their samples to
#     the named symbol before them. The costmap's paintDisc has shown
#     up as predictMotion and as emptyGrid this way. Check a
#     surprising entry against `nm -C` of the binary before trusting
#     its name.
#   - Inlined code is charged to its caller. The cache and branch
#     models inline into every probe, so their time appears under the
#     kernels that probe them (KdTree::radiusRecurse, for one).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORKLOAD="${1:?usage: scripts/profile.sh <workload> [seed] [seconds] [build-dir]}"
SEED="${2:-1}"
SECONDS_RUN="${3:-2}"
BUILD="${4:-$ROOT/build-prof}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -S "$ROOT/avbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$BUILD" -j "$JOBS" --target avbench >&2

OUT="$BUILD/out"
mkdir -p "$OUT"
# gprof writes gmon.out into the working directory at exit.
(cd "$BUILD" && rm -f gmon.out &&
    ./avbench --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECONDS_RUN" --trace 0 --jobs 1 --out "$OUT" >&2)
gprof -b -p "$BUILD/avbench" "$BUILD/gmon.out"
