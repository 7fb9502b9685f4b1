#!/bin/bash
# Regenerates every reproduced table/figure: one binary per experiment
# (DESIGN.md §3). Artifacts land in ./bench_out. Scale via
# SDMPEB_BENCH_CLIPS / SDMPEB_BENCH_EPOCHS.
#
# A failing bench fails the sequence: every binary still runs (so one
# breakage doesn't hide another), failures are listed at the end, and the
# exit code is non-zero. BENCH_SEQUENCE_DONE is only printed on full
# success — CI and humans can both key on it.
cd "$(dirname "$0")"
# Clear the previous run's outputs: the bench binaries write files at the
# top of bench_out/. Subdirectories, such as e2ebench's bench_out/e2e/ runs,
# stay.
mkdir -p bench_out
find bench_out -maxdepth 1 -type f -delete
FAILED=()
for b in build/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $b ====="
  if ! stdbuf -oL "$b"; then
    echo "===== $b FAILED (rc=$?) =====" >&2
    FAILED+=("$b")
  fi
done
if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "BENCH_SEQUENCE_FAILED: ${FAILED[*]}" >&2
  exit 1
fi
echo "BENCH_SEQUENCE_DONE"
