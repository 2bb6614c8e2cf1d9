#!/usr/bin/env bash
# CI entry point: fails on any value-changing math flag (-ffast-math,
# -ffinite-math-only) in a CMakeLists.txt or under src/, prints the
# src/ line count, fails when README's environment-knob table drifts
# from the SBRL_* variables the code reads, then builds the default and
# sanitized configurations (failing when a kernel TU's object defines a
# weak or unique symbol) and runs the tier-1 suite (which includes
# the threads2, isa_baseline, faults, serving, and large_n variants,
# and the training lock at SBRL_ISA=baseline, at SBRL_ISA=avx2 and under
# GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA), then the sanitizer
# subset (including the CSV/streaming loader suites, the per-ISA
# cosine and ELU kernels with their masked and padded tail lanes, the
# fused HSIC-RFF tier's row blocks and the register-tiled TransA
# kernels' column and row tails) plus the fault drills and serving
# format suite under asan/ubsan, and the ThreadSanitizer subset
# (which includes the serving micro-batcher concurrency suite, the
# sharded streaming suite and the large-n bench at smoke scale), whose
# thread-pool suite then repeats until it fails, up to 20 times.
# Tier-1 runs three times at full parallelism. Mirrors the ROADMAP
# verify line;
# .github/workflows/ci.yml calls this script, and it runs unchanged on
# any box with cmake + gcc/clang + gtest (google-benchmark and doxygen
# are optional — the corresponding targets/tests skip when absent).
#
# Usage: scripts/ci.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "=== strict IEEE lint ==="
# The determinism contract (docs/ARCHITECTURE.md) holds only under
# strict IEEE semantics: no CMakeLists.txt and no source file may turn
# on a value-changing math flag.
FAST_MATH_RE='-ffast-math|-ffinite-math-only'
if grep -rnE --include=CMakeLists.txt --exclude-dir='build*' \
       --exclude-dir=.bench_build -e "${FAST_MATH_RE}" . ||
   grep -rnE -e "${FAST_MATH_RE}" src; then
  echo "value-changing math flag found above; keep every TU strict IEEE" >&2
  exit 1
fi

echo "=== src/ line count ==="
# The library's size, the number ROADMAP's "less code" north star tracks.
wc -l src/*/*.{h,cc,inc} | tail -1

echo "=== README knob table ==="
# Every quoted "SBRL_*" environment variable read under src/, bench/ or
# perfbench/ must have a row in README's "Runtime environment knobs"
# table, and every row must name a variable that is still read. The
# tests' own SBRL_TEST_ENV_KNOB is not a knob.
KNOB_RE='SBRL_[A-Z0-9_]+'
read_knobs="$(grep -rhoE "[\"']${KNOB_RE}[\"']" src bench perfbench |
              grep -oE "${KNOB_RE}" | grep -vx SBRL_TEST_ENV_KNOB |
              sort -u || true)"
table_knobs="$(sed -n '/^### Runtime environment knobs/,/^#/p' README.md |
               grep -oE "^\| \`${KNOB_RE}\`" | grep -oE "${KNOB_RE}" |
               sort -u || true)"
if [[ -z "${read_knobs}" || "${read_knobs}" != "${table_knobs}" ]]; then
  diff <(echo "${read_knobs}") <(echo "${table_knobs}") >&2 || true
  echo "README knob table drifted from the code ('<' is read but has no" \
       "row, '>' has a row but is not read)" >&2
  exit 1
fi
echo "$(echo "${read_knobs}" | wc -l) knobs, one row each"

echo "=== config field names ==="
# Every `Struct::field` that src/, docs/, README.md or examples/ name for
# the config, spec, checkpoint and diagnostics structs below must be a
# member declared in that struct, so a deleted or renamed field leaves
# no stale mention behind.
CONFIG_STRUCTS='SbrlConfig|NetworkConfig|TrainConfig|CfrConfig|DerCfrConfig|MlpConfig|ShardedTrainerConfig|ShardedOptions|InferenceSpec|ServingMeta|TrainingCheckpoint|TrainDiagnostics|SweepOptions'
stale_fields=0
while read -r mention; do
  [[ -n "${mention}" ]] || continue
  struct="${mention%%::*}"
  field="${mention##*::}"
  body="$(grep -rlE "^struct ${struct} \{" src | head -1 |
          xargs -r sed -n "/^struct ${struct} {/,/^};/p")"
  if ! grep -qE "[ *&]${field}( = [^;]*)?;|[ *&]${field}\(" \
       <<<"${body}"; then
    grep -rnF "${mention}" src docs README.md examples >&2 || true
    stale_fields=1
  fi
done <<<"$(grep -rhoE "\b(${CONFIG_STRUCTS})::[a-z_][a-z0-9_]*" \
             src docs README.md examples | sort -u || true)"
if [[ "${stale_fields}" -ne 0 ]]; then
  echo "the mentions above name a field their struct does not declare" >&2
  exit 1
fi
echo "every named config field is declared"

echo "=== default configuration ==="
cmake -B "${PREFIX}" -S .
cmake --build "${PREFIX}" -j "${JOBS}"
# Every wide kernel body is internal to its -march TU (an anonymous
# namespace). A weak or unique symbol in a kernel object would be one
# the linker may merge across TUs, putting AVX-512 code in a lower
# level's table (SIGILL on an older host), so any W, V or u fails.
mapfile -t kernel_objs < <(find "${PREFIX}" -name 'linalg_kernels_*.cc.o')
if [[ "${#kernel_objs[@]}" -ne 3 ]]; then
  echo "expected the three linalg_kernels_*.cc.o objects, found" \
       "${#kernel_objs[@]}" >&2
  exit 1
fi
for obj in "${kernel_objs[@]}"; do
  if nm -C --defined-only "${obj}" | awk '$2 ~ /^[WVu]$/' | grep .; then
    echo "${obj} defines the mergeable symbols above; keep kernel" \
         "bodies in the TU's anonymous namespace" >&2
    exit 1
  fi
done
# Repeated at full parallelism so a race between concurrently running
# tests (shared scratch files, commit paths) fails CI instead of
# passing by luck.
ctest --test-dir "${PREFIX}" -L tier1 --output-on-failure -j "${JOBS}" \
      --repeat until-fail:3
# threads2 variants are tier1-labeled too; run the label explicitly so a
# labeling regression cannot silently drop them.
ctest --test-dir "${PREFIX}" -L threads2 --output-on-failure -j "${JOBS}"
# Failure-handling suite (checkpoint format lockdown + fault-injection
# drills); tier1-labeled, but run the label explicitly for the same
# reason as threads2.
ctest --test-dir "${PREFIX}" -L faults --output-on-failure -j "${JOBS}"
# Serving engine (model format, export/score parity, micro-batcher,
# OOD gating); tier1-labeled, run explicitly as a labeling guard.
ctest --test-dir "${PREFIX}" -L serving --output-on-failure -j "${JOBS}"
# Out-of-core path (streaming loaders, sharded tree reduction, the
# large-n smoke guard); tier1-labeled, run explicitly as a labeling
# guard.
ctest --test-dir "${PREFIX}" -L large_n --output-on-failure -j "${JOBS}"

echo "=== sanitized configuration (address,undefined) ==="
cmake -B "${PREFIX}-sanitize" -S . -DSBRL_SANITIZE=address,undefined
cmake --build "${PREFIX}-sanitize" -j "${JOBS}"
ctest --test-dir "${PREFIX}-sanitize" -L sanitize --output-on-failure \
      -j "${JOBS}"
# The fault drills double as sanitizer stress (rollback replays the
# same allocations; checkpoint I/O paths touch raw byte buffers) —
# run the label under asan/ubsan as well.
ctest --test-dir "${PREFIX}-sanitize" -L faults --output-on-failure \
      -j "${JOBS}"
# The serving format suite rides along sanitized for the same reason
# (serve/write + serve/read fault sites over raw byte buffers).
ctest --test-dir "${PREFIX}-sanitize" -L serving --output-on-failure \
      -j "${JOBS}"

echo "=== sanitized configuration (thread) ==="
# The experiment engine's concurrency surfaces (sweep scheduler, session
# leases, thread pool, thread-scoped ISA dispatch), the serving
# micro-batcher, and the sharded waves with their parallel chunk
# prefetch (streaming suite + bench_large_n at smoke scale) under
# ThreadSanitizer — the "no process-global mutable state touched by a
# run" contract, machine-checked.
cmake -B "${PREFIX}-tsan" -S . -DSBRL_SANITIZE=thread
cmake --build "${PREFIX}-tsan" -j "${JOBS}"
ctest --test-dir "${PREFIX}-tsan" -L tsan --output-on-failure -j "${JOBS}"
# The pool's exception and contention paths are timing-dependent under
# tsan; repeat its suite so a rare interleaving fails CI instead of
# hiding behind one lucky pass.
ctest --test-dir "${PREFIX}-tsan" -L tsan -R thread_pool --output-on-failure \
      --repeat until-fail:20

echo "=== CI OK ==="
