#!/usr/bin/env sh
# Runs the benchmark gates and records the committed baselines.
#
#   bench/run_benches.sh [--smoke] [build-dir] [output-json]
#
# Defaults: build-dir = build, output-json = BENCH_host_throughput.json (repo root). Two JSON
# baselines are committed so trajectories are tracked PR over PR:
#
#   BENCH_host_throughput.json — wall-clock speed of the simulator itself (host time). A fresh
#     run is compared against the committed baseline BEFORE overwriting it: more than 10%
#     regression on any benchmark fails (override the threshold with UF_BENCH_THRESHOLD, or
#     set UF_BENCH_ALLOW_REGRESSION=1 to record an accepted slowdown).
#
#   BENCH_fault_storm.json — the fault-around window sweep (simulator virtual time, fully
#     deterministic). Gated on the acceptance criterion: adaptive fault-around must cut
#     post-fork fault-resolution cycles on the Redis update storm by >= 10% vs window=1.
#
#   BENCH_overload.json — the open-loop overload fleet (simulator virtual time, deterministic
#     per seed; the run itself asserts per-seed bit-identical replay). Gated on the §4.10
#     acceptance criteria: goodput at 2x saturation >= 80% of saturation goodput, zero
#     uncontained ENOMEM deaths, and goodput >= committed baseline - 10%.
#
#   BENCH_fragmentation.json — the compaction checkerboard (simulator virtual time, fully
#     deterministic). Gated on the §4.13 acceptance criteria: the incremental background
#     service must recover >= 0.9x the stop-the-world pass's contiguity with a max
#     mutator-excluding pause <= 0.1x the stop-the-world pause.
#
# --smoke: single repetition written to temporary files — verifies every benchmark still runs
# and applies both gates without touching the committed baselines (CI uses this).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

smoke=0
if [ "${1:-}" = "--smoke" ]; then
  smoke=1
  shift
fi

build_dir="${1:-"${repo_root}/build"}"
host_json="${2:-"${repo_root}/BENCH_host_throughput.json"}"
storm_json="${repo_root}/BENCH_fault_storm.json"
overload_json="${repo_root}/BENCH_overload.json"
threshold="${UF_BENCH_THRESHOLD:-0.10}"
repetitions=3
if [ "${smoke}" = 1 ]; then
  repetitions=1
fi

for bench in bench_host_throughput bench_fault_storm bench_overload bench_fragmentation; do
  if [ ! -x "${build_dir}/bench/${bench}" ]; then
    echo "error: ${build_dir}/bench/${bench} not built (cmake --build ${build_dir} --target ${bench})" >&2
    exit 1
  fi
done

python3_bin="$(command -v python3 || true)"
if [ -z "${python3_bin}" ]; then
  echo "warning: python3 not found; benchmark gates skipped" >&2
fi

# --- host throughput (wall clock) ---------------------------------------------------------------

host_new="$(mktemp -t bench_host.XXXXXX.json)"
"${build_dir}/bench/bench_host_throughput" \
  --benchmark_out="${host_new}" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${repetitions}" \
  --benchmark_report_aggregates_only=true

if [ -n "${python3_bin}" ] && [ -f "${host_json}" ]; then
  echo "host-throughput gate (threshold ${threshold}) vs ${host_json}:"
  if ! "${python3_bin}" "${repo_root}/bench/check_regression.py" compare \
      "${host_json}" "${host_new}" --threshold "${threshold}"; then
    if [ "${UF_BENCH_ALLOW_REGRESSION:-0}" = 1 ]; then
      echo "UF_BENCH_ALLOW_REGRESSION=1: continuing despite regression"
    else
      rm -f "${host_new}"
      exit 1
    fi
  fi
fi

if [ -n "${python3_bin}" ]; then
  # Demand-paging footprint gate (DESIGN.md §4.12): the 256-worker httpd fleet under demand
  # paging must hold <= 0.5x the eager fleet's resident frames. The counter is simulator
  # frame counts, so the gate is deterministic on any host.
  echo "footprint gate:"
  "${python3_bin}" "${repo_root}/bench/check_regression.py" footprint-gate "${host_new}"
fi

if [ "${smoke}" = 1 ]; then
  rm -f "${host_new}"
else
  mv "${host_new}" "${host_json}"
  echo "wrote ${host_json}"
fi

# --- fault-around window sweep (virtual time, deterministic) ------------------------------------

storm_new="$(mktemp -t bench_storm.XXXXXX.json)"
"${build_dir}/bench/bench_fault_storm" \
  --benchmark_out="${storm_new}" \
  --benchmark_out_format=json

if [ -n "${python3_bin}" ]; then
  echo "fault-storm gate:"
  "${python3_bin}" "${repo_root}/bench/check_regression.py" storm-gate "${storm_new}"
fi

if [ "${smoke}" = 1 ]; then
  rm -f "${storm_new}"
else
  mv "${storm_new}" "${storm_json}"
  echo "wrote ${storm_json}"
fi

# --- fragmentation & incremental compaction (virtual time, deterministic) -----------------------

frag_json="${repo_root}/BENCH_fragmentation.json"
frag_new="$(mktemp -t bench_frag.XXXXXX.json)"
"${build_dir}/bench/bench_fragmentation" \
  --benchmark_filter='FragmentationCompaction' \
  --benchmark_out="${frag_new}" \
  --benchmark_out_format=json

if [ -n "${python3_bin}" ]; then
  echo "fragmentation gate:"
  "${python3_bin}" "${repo_root}/bench/check_regression.py" frag-gate "${frag_new}"
fi

if [ "${smoke}" = 1 ]; then
  rm -f "${frag_new}"
else
  mv "${frag_new}" "${frag_json}"
  echo "wrote ${frag_json}"
fi

# --- overload fleet (virtual time, deterministic per seed) --------------------------------------

overload_new="$(mktemp -t bench_overload.XXXXXX.json)"
UFORK_OVERLOAD_REPLAY_CHECK=1 "${build_dir}/bench/bench_overload" \
  --benchmark_out="${overload_new}" \
  --benchmark_out_format=json

if [ -n "${python3_bin}" ]; then
  echo "overload gate:"
  overload_baseline_args=""
  if [ -f "${overload_json}" ]; then
    overload_baseline_args="--baseline ${overload_json}"
  fi
  # shellcheck disable=SC2086
  "${python3_bin}" "${repo_root}/bench/check_regression.py" overload-gate \
      "${overload_new}" ${overload_baseline_args} --threshold "${threshold}"
fi

if [ "${smoke}" = 1 ]; then
  rm -f "${overload_new}"
  echo "smoke run OK (committed baselines untouched)"
else
  mv "${overload_new}" "${overload_json}"
  echo "wrote ${overload_json}"
fi
