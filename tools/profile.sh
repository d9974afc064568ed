#!/usr/bin/env bash
# perf-record wrapper for the bench binaries.
#
# Usage: tools/profile.sh <bench-binary> [bench args...]
#
#   tools/profile.sh build-profile/bench_broadcast_plane \
#       --benchmark_filter=BM_ScenarioAB
#
# Builds nothing itself — point it at a binary from the
# relwithdebinfo-profile preset (optimized + debug info + frame
# pointers), which is what makes the recorded call graphs legible:
#
#   cmake --preset relwithdebinfo-profile
#   cmake --build --preset relwithdebinfo-profile -j
#
# Output goes to perf-<binary>.data next to the CWD; the script prints
# the matching `perf report` invocation when recording succeeds.
# SCUP_PERF_EVENTS overrides the sampled event list (default:
# cycles:u — user cycles only, so simulator code dominates the profile
# instead of kernel time from thread parking).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <bench-binary> [bench args...]" >&2
  exit 2
fi

if ! command -v perf > /dev/null 2>&1; then
  echo "error: perf not found on PATH (install linux-tools / perf)" >&2
  exit 1
fi

binary=$1
shift
if [[ ! -x "${binary}" ]]; then
  echo "error: ${binary} is not an executable" >&2
  exit 1
fi

events=${SCUP_PERF_EVENTS:-cycles:u}
out="perf-$(basename "${binary}").data"

# --call-graph dwarf resolves inlined frames in the optimized build;
# the frame-pointer fallback (fp) still works when dwarf unwinding is
# unavailable on the host.
graph=${SCUP_PERF_CALLGRAPH:-dwarf}

perf record \
  --call-graph "${graph}" \
  --event "${events}" \
  --output "${out}" \
  -- "${binary}" "$@"

echo
echo "recorded ${out}; inspect with:"
echo "  perf report --input ${out}"
