#!/usr/bin/env bash
# Full reproduction run: build, test, and regenerate every table/figure and
# ablation. Outputs land in test_output.txt / bench_output.txt at the repo
# root. Pass --paper to ALSO rerun the headline experiments at Table II input
# sizes (adds ~10-30 minutes).
#
# Sweep-shaped harnesses fan their cells out over the spf::orchestrate
# engine; SPF_THREADS caps the worker count (default: all cores, which still
# emits bit-identical artifacts — see docs/orchestrator.md).
set -euo pipefail
cd "$(dirname "$0")/.."

THREADS="${SPF_THREADS:-$(nproc)}"

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Every driver bench/CMakeLists.txt builds, in name order. The list is
# explicit: a build tree configured before a driver was deleted still holds
# the stale binary, and a glob over build/bench/ would run and log it as
# current. A driver added to bench/CMakeLists.txt must be added here too.
DRIVERS=(ablate_access_pattern ablate_cache_geometry ablate_corun
         ablate_hw_prefetchers ablate_memory ablate_occupancy
         ablate_replacement ablate_rp_sweep ablate_slice_helper
         micro_substrate perf_smoke spf_sweep table1_machine
         table2_benchmarks validate_shapes)

{
  for name in "${DRIVERS[@]}"; do
    b="build/bench/$name"
    # micro_substrate is a google-benchmark binary: it rejects unknown flags,
    # so it runs argument-free; everything else takes the bench_common knobs.
    # perf_smoke additionally writes the hot-path throughput record
    # (BENCH_perf.json at the repo root) consumed by docs/simulator.md, at the
    # 15 reps the committed record was taken with (its default is 3).
    args="--threads=$THREADS"
    case "$b" in
      *micro_substrate) args="" ;;
      *perf_smoke) args="--threads=$THREADS --reps=15 --out=BENCH_perf.json" ;;
    esac
    echo "=============================================================="
    echo "== $b${args:+ $args}"
    echo "=============================================================="
    # shellcheck disable=SC2086  # args is one word or empty, splitting intended
    "$b" $args
    echo
  done
} 2>&1 | tee bench_output.txt

# Validate the perf record against its schema + contracts (required keys,
# telemetry_overhead_pct bounds, zero fused-path record allocations) — the
# same validator ctest runs against the --quick artifact.
if [ -f BENCH_perf.json ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_bench_json.py BENCH_perf.json
fi

# One spf_sweep flag set: output appended to bench_output.txt under a
# banner, its --jsonl= artifact (first argument) held to the
# check_bench_json.py contract named by the second (--sweep|--provenance),
# and a --trace-out= timeline, when the flags name one, held to the
# trace-event schema (the validators ctest runs) when python3 is around.
run_sweep() {
  local jsonl="$1" contract="$2" trace="" flag
  shift 2
  for flag in "$@"; do
    case "$flag" in --trace-out=*) trace="${flag#--trace-out=}" ;; esac
  done
  {
    echo "=============================================================="
    echo "== build/bench/spf_sweep $* --threads=$THREADS"
    echo "=============================================================="
    build/bench/spf_sweep "$@" --threads="$THREADS" --jsonl="$jsonl"
  } 2>&1 | tee -a bench_output.txt
  if command -v python3 >/dev/null 2>&1; then
    if [ -n "$trace" ]; then python3 scripts/check_trace_json.py "$trace"; fi
    python3 scripts/check_bench_json.py "$contract" "$jsonl"
  fi
}

# The full cross-product in one orchestrated run: every workload × a ladder
# of distances around each plane's bound × both RP regimes — plus the
# telemetry artifacts: a deterministic metrics dump and a Perfetto-loadable
# per-worker timeline of the whole sweep (open sweep_trace.json in
# https://ui.perfetto.dev; see docs/telemetry.md). Its mcf plane is Fig. 5.
run_sweep sweep_results.jsonl --sweep --workloads=em3d,mcf,mst --rps=0.5,1.0 \
  --metrics-out=sweep_metrics.jsonl --trace-out=sweep_trace.json

# Adaptive-vs-static controller ablation: every workload (em3d-late too, the
# late-tight-phase fixture) × the distance ladder × {static, adaptive-AIMD,
# adaptive-capped}, JSONL artifact with the per-cell distance trajectories,
# plus a timeline carrying the per-interval adaptive.distance counter track.
run_sweep sweep_adaptive.jsonl --sweep --workloads=em3d,em3d-late,mcf,mst \
  --controllers=static,aimd,capped \
  --metrics-out=sweep_adaptive_metrics.jsonl \
  --trace-out=sweep_adaptive_trace.json

# Prefetch-lifecycle provenance: the fate-mix and timeliness figure (what
# happened to every helper/hardware prefetch fill across the distance
# ladder), JSONL carrying the per-cell fate counts, fill→first-use and
# victim reuse-distance histograms, and per-set pollution heatmaps, held to
# the lifecycle accounting contracts (docs/provenance.md).
run_sweep sweep_provenance.jsonl --provenance --workloads=em3d,mcf,mst \
  --provenance --metrics-out=sweep_provenance_metrics.jsonl \
  --trace-out=sweep_provenance_trace.json

# Figure 6: MST's behavior change over the paper's own distances (5-200,
# well below MST's Set-Affinity bound). Figures 2 and 4 (em3d) are the
# argument-free spf_sweep run in the loop above.
run_sweep sweep_fig6.jsonl --sweep --workloads=mst \
  --distances=5,10,20,30,50,70,100,200

# Helper-kind ablation: the paper's blocking-load helper vs a
# prefetch-instruction helper over em3d's distance ladder (compare the rows
# at half and at four times the bound; helper_finish is in the JSONL).
run_sweep sweep_helpers.jsonl --sweep --helpers=blocking,prefetch

if [[ "${1:-}" == "--paper" ]]; then
  {
    for cmd in table2_benchmarks "spf_sweep --workloads=em3d" \
               "spf_sweep --workloads=em3d,em3d-late,mcf,mst --controllers=static,aimd,capped" \
               "spf_sweep --workloads=em3d,mcf,mst --provenance"; do
      echo "=============================================================="
      echo "== build/bench/$cmd --scale=paper --threads=$THREADS"
      echo "=============================================================="
      # shellcheck disable=SC2086  # cmd is a binary name plus its flags
      build/bench/$cmd --scale=paper --threads="$THREADS"
      echo
    done
  } 2>&1 | tee bench_output_paper.txt
fi
