#!/bin/bash
# Regenerates every reproduced table and figure: bench_paper, the one paper
# runner, builds the dataset once and trains each model once (DESIGN.md §3);
# bench_report then times the hot kernels. Artifacts land in ./bench_out.
# Scale the paper runner via SDMPEB_BENCH_CLIPS / SDMPEB_BENCH_EPOCHS.
#
# A failing bench fails the sequence: every binary still runs (so one
# breakage doesn't hide another), failures are listed at the end, and the
# exit code is non-zero. A binary missing from build/bench is a failure.
# BENCH_SEQUENCE_DONE is only printed on full success — CI and humans can
# both key on it.
cd "$(dirname "$0")"
# Clear the previous run's outputs: the benches write files at the top of
# bench_out/. Subdirectories, such as e2ebench's bench_out/e2e/ runs, stay.
mkdir -p bench_out
find bench_out -maxdepth 1 -type f -delete
FAILED=()
for b in build/bench/bench_paper build/bench/bench_report; do
  echo "===== $b ====="
  stdbuf -oL "$b"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "===== $b FAILED (rc=$rc) =====" >&2
    FAILED+=("$b")
  fi
done
if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "BENCH_SEQUENCE_FAILED: ${FAILED[*]}" >&2
  exit 1
fi
echo "BENCH_SEQUENCE_DONE"
