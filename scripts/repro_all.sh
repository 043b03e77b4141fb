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

{
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    case "$b" in *.cmake) continue ;; esac
    # micro_substrate is a google-benchmark binary: it rejects unknown flags,
    # so it runs argument-free; everything else takes the bench_common knobs.
    # perf_smoke additionally writes the hot-path throughput record
    # (BENCH_perf.json at the repo root) consumed by docs/simulator.md.
    args="--threads=$THREADS"
    case "$b" in
      *micro_substrate) args="" ;;
      *perf_smoke) args="--threads=$THREADS --out=BENCH_perf.json" ;;
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

# The full cross-product in one orchestrated run: every workload × a ladder
# of distances around each plane's bound × both RP regimes, JSONL artifact
# alongside the table — plus the telemetry artifacts: a deterministic metrics
# dump and a Perfetto-loadable per-worker timeline of the whole sweep (open
# sweep_trace.json in https://ui.perfetto.dev; see docs/telemetry.md).
{
  echo "=============================================================="
  echo "== build/bench/spf_sweep --workloads=em3d,mcf,mst --rps=0.5,1.0" \
       "--threads=$THREADS"
  echo "=============================================================="
  build/bench/spf_sweep --workloads=em3d,mcf,mst --rps=0.5,1.0 \
    --threads="$THREADS" --jsonl=sweep_results.jsonl \
    --metrics-out=sweep_metrics.jsonl --trace-out=sweep_trace.json
} 2>&1 | tee -a bench_output.txt

# Sanity-check the emitted timeline when python3 is around (same validator
# ctest runs against the perf_smoke artifact), and hold the sweep JSONL to
# its per-cell contracts (phase_count >= 1 on every ok cell).
if [ -f sweep_trace.json ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_trace_json.py sweep_trace.json
fi
if [ -f sweep_results.jsonl ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_bench_json.py --sweep sweep_results.jsonl
fi

# Adaptive-vs-static controller ablation: every workload (em3d-late too, the
# late-tight-phase fixture) × the distance ladder × {static, adaptive-AIMD,
# adaptive-capped}, JSONL artifact with the per-cell distance trajectories,
# plus a timeline carrying the per-interval adaptive.distance counter track.
{
  echo "=============================================================="
  echo "== build/bench/spf_sweep --workloads=em3d,em3d-late,mcf,mst" \
       "--controllers=static,aimd,capped --threads=$THREADS"
  echo "=============================================================="
  build/bench/spf_sweep --workloads=em3d,em3d-late,mcf,mst \
    --controllers=static,aimd,capped --threads="$THREADS" \
    --jsonl=sweep_adaptive.jsonl --metrics-out=sweep_adaptive_metrics.jsonl \
    --trace-out=sweep_adaptive_trace.json
} 2>&1 | tee -a bench_output.txt

if [ -f sweep_adaptive_trace.json ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_trace_json.py sweep_adaptive_trace.json
fi
if [ -f sweep_adaptive.jsonl ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_bench_json.py --sweep sweep_adaptive.jsonl
fi

# Prefetch-lifecycle provenance: the fate-mix and timeliness figure (what
# happened to every helper/hardware prefetch fill across the distance
# ladder), JSONL carrying the per-cell fate counts, fill→first-use and
# victim reuse-distance histograms, and per-set pollution heatmaps, held to
# the lifecycle accounting contracts (docs/provenance.md).
{
  echo "=============================================================="
  echo "== build/bench/spf_sweep --workloads=em3d,mcf,mst --provenance" \
       "--threads=$THREADS"
  echo "=============================================================="
  build/bench/spf_sweep --workloads=em3d,mcf,mst --provenance \
    --threads="$THREADS" --jsonl=sweep_provenance.jsonl \
    --metrics-out=sweep_provenance_metrics.jsonl \
    --trace-out=sweep_provenance_trace.json
} 2>&1 | tee -a bench_output.txt

if [ -f sweep_provenance_trace.json ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_trace_json.py sweep_provenance_trace.json
fi
if [ -f sweep_provenance.jsonl ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_bench_json.py --provenance sweep_provenance.jsonl
fi

if [[ "${1:-}" == "--paper" ]]; then
  {
    for cmd in table2_benchmarks fig2_em3d_sweep fig4_em3d_behavior \
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
