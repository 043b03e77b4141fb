#!/usr/bin/env python3
"""Validate bench artifacts: BENCH_perf.json and sweep JSONL files.

Usage: check_bench_json.py BENCH_perf.json [BENCH_perf.json ...]
       check_bench_json.py --sweep sweep.jsonl [sweep.jsonl ...]
       check_bench_json.py --provenance prov.jsonl [prov.jsonl ...]
       check_bench_json.py --ratios PERF_RATIOS.jsonl

With --sweep, each file is a JSONL artifact from spf_sweep (one cell per
line) and the per-line contracts are:
  * every successful cell has an integer `bound_upper` >= 1 (the plane's
    Set-Affinity bound, never below 1 — docs/method.md) and
    `within_bound == (distance < bound_upper)`;
  * adaptive cells record one trajectory entry per interval
    (`intervals == len(trajectory)`) and end at or under their cap
    (`final_distance <= distance_cap`);
  * failed cells carry an `error` and are otherwise exempt.

With --provenance, each file is a JSONL artifact from `spf_sweep
--provenance` (or any sweep run with SweepSpec::provenance set) and, on top
of the --sweep contracts, every successful cell must satisfy the lifecycle
accounting (docs/provenance.md):
  * the five fate counters partition the tracked fills exactly:
    used_timely + used_late + evicted_unused + polluting + resident_unused
    == prov_tracked_fills, and helper + hardware fills == tracked fills;
  * histogram masses equal their counters: sum(prov_fill_to_use_hist) ==
    prov_used_timely, sum(prov_victim_reuse_hist) == prov_reuse_confirms,
    sum(prov_set_heatmap) == prov_polluted_sets — every classified event
    landed in exactly one bucket;
  * all three histograms have exactly 32 non-negative integer buckets;
  * prov_timely_rate is the quotient it claims to be (used_timely /
    tracked_fills, to float tolerance) and lies in [0, 1];
  * the paper's causal story holds on the grid: within each
    (workload, l2, helper, rp, static-controller) group, walking
    beyond-bound cells in ascending A_SKI order, the used-timely rate
    never recovers more than 3 points above its running minimum —
    pushing the distance past the Set-Affinity bound must not win
    timeliness back.

With --ratios, the file is the per-PR perfbench ratio file (one JSON object
per line, one line per PR) and the contracts are:
  * each line has exactly the keys `pr` (an integer >= 1) and `workloads`,
    plus an optional `note` string;
  * `pr` strictly increases from line to line;
  * `workloads` maps workload names that BENCHMARK.json declares to
    non-empty objects, which map metric names BENCHMARK.json declares to
    exactly {n, ratios, median}: `n` pairs (an integer >= 1), the
    change/parent `ratios` of those interleaved pairs (n positive numbers,
    or null where only the median was recorded) and their `median`
    (positive, and equal to the median of `ratios` when they are listed).

Without --sweep/--provenance/--ratios, each file is a BENCH_perf.json and
the checks, per file:
  * the file parses as a single JSON object (the JsonObject line format);
  * every key perf_smoke promises is present with the right JSON type —
    a rename or dropped field in the emitter fails here, not in a
    downstream plotting script;
  * rate fields (ops/s, accesses/s, cells/s) and per-phase timings are
    finite and strictly positive — a zero rate means a timer never ran;
  * the replay cell performed zero trace-record allocations
    (`replay_fused_record_allocations == 0`: the helper is synthesized
    inside replay), via the trace_hooks::record_allocations hook;
  * the adaptive run honored its contracts: a non-empty distance
    trajectory (`adaptive_trajectory_len > 0`), a final distance within
    the controller's cap
    (`adaptive_final_distance <= adaptive_distance_cap`), and zero
    trace-record allocations on the streaming adaptive path
    (`adaptive_record_allocations == 0`);
  * `telemetry_overhead_pct` is within bounds: >= 0 always (the emitter
    clamps the median-of-reps ratio), and < 25 when telemetry is
    compiled in (the documented contract is < 2 %; 25 leaves headroom
    for loaded CI hosts while still catching a pathological regression);
    ~0 when compiled out;
  * `provenance_overhead_pct` (the same interleaved off/on A/B, with
    SimConfig::provenance toggled) is >= 0 and < 25 — the documented
    contract is < 5 %, and the off/on sweeps must additionally have
    produced byte-identical tables (`provenance_tables_identical`);
  * the trace memo hit rate is a valid probability;
  * `replay_checksum` and `refine_checksum` are present and non-zero,
    so the runs that produced the timings actually simulated work.

Exit status: 0 = all files valid, 1 = any violation (details on stderr).
No third-party imports — runs on a bare python3.
"""

import json
import math
import os
import sys

# key -> allowed JSON types (json module mapping: bool before int matters,
# since bool is a subclass of int in Python).
NUMBER = (int, float)
REQUIRED = {
    "bench": str,
    "quick": bool,
    "reps": int,
    "l2": str,
    "em3d_nodes": int,
    "em3d_arity": int,
    "trace_records": int,
    "materialize_ir_ops_per_sec": NUMBER,
    "materialize_sec": NUMBER,
    "replay_accesses_per_sec": NUMBER,
    "replay_sec_per_cell": NUMBER,
    "replay_fused_record_allocations": int,
    "refine_streaming_sec": NUMBER,
    "refine_upper_limit": int,
    "adaptive_sec": NUMBER,
    "adaptive_intervals": int,
    "adaptive_trajectory_len": int,
    "adaptive_initial_distance": int,
    "adaptive_final_distance": int,
    "adaptive_distance_cap": int,
    "adaptive_record_allocations": int,
    "sweep_cells": int,
    "sweep_cells_per_sec": NUMBER,
    "sweep_sec": NUMBER,
    "sweep_trace_memo_hits": int,
    "sweep_trace_memo_misses": int,
    "sweep_trace_memo_hit_rate": NUMBER,
    "sweep_telemetry_off_sec": NUMBER,
    "sweep_telemetry_on_sec": NUMBER,
    "telemetry_overhead_pct": NUMBER,
    "telemetry_compiled": bool,
    "sweep_provenance_off_sec": NUMBER,
    "sweep_provenance_on_sec": NUMBER,
    "provenance_overhead_pct": NUMBER,
    "provenance_tables_identical": bool,
    "replay_checksum": int,
    "refine_checksum": int,
}

STRICTLY_POSITIVE = [
    "materialize_ir_ops_per_sec",
    "materialize_sec",
    "replay_accesses_per_sec",
    "replay_sec_per_cell",
    "refine_streaming_sec",
    "adaptive_sec",
    "adaptive_intervals",
    "adaptive_trajectory_len",
    "adaptive_final_distance",
    "adaptive_distance_cap",
    "sweep_cells_per_sec",
    "sweep_sec",
    "sweep_trace_memo_hits",
    "sweep_telemetry_off_sec",
    "sweep_telemetry_on_sec",
    "sweep_provenance_off_sec",
    "sweep_provenance_on_sec",
]


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return False


def check_type(path, doc, key, types):
    value = doc[key]
    # bool is an int subclass; only accept it where bool is the spec.
    if types is bool:
        if not isinstance(value, bool):
            return fail(path, f'"{key}": expected boolean, got {value!r}')
        return True
    if isinstance(value, bool):
        return fail(path, f'"{key}": expected number, got boolean {value!r}')
    if not isinstance(value, types):
        return fail(path, f'"{key}": expected {types}, got {value!r}')
    if isinstance(value, float) and not math.isfinite(value):
        return fail(path, f'"{key}": non-finite value {value!r}')
    return True


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"not loadable JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level is not a JSON object")

    ok = True
    missing = [k for k in REQUIRED if k not in doc]
    if missing:
        ok = fail(path, f"missing required keys: {sorted(missing)}")
    for key, types in REQUIRED.items():
        if key in doc:
            ok = check_type(path, doc, key, types) and ok

    if not ok:
        return False  # value checks below assume presence + type

    if doc["bench"] != "perf_smoke":
        ok = fail(path, f'"bench": expected "perf_smoke", got {doc["bench"]!r}')

    for key in STRICTLY_POSITIVE:
        if doc[key] <= 0:
            ok = fail(path, f'"{key}": expected > 0, got {doc[key]}')

    if doc["replay_fused_record_allocations"] != 0:
        ok = fail(
            path,
            "fused replay grew trace-record storage: "
            f"replay_fused_record_allocations = "
            f"{doc['replay_fused_record_allocations']} (contract: 0)",
        )

    if doc["adaptive_record_allocations"] != 0:
        ok = fail(
            path,
            "adaptive replay grew trace-record storage: "
            f"adaptive_record_allocations = "
            f"{doc['adaptive_record_allocations']} (contract: 0)",
        )
    if doc["adaptive_final_distance"] > doc["adaptive_distance_cap"]:
        ok = fail(
            path,
            f"adaptive_final_distance = {doc['adaptive_final_distance']} "
            f"exceeds adaptive_distance_cap = {doc['adaptive_distance_cap']}",
        )
    if doc["adaptive_trajectory_len"] != doc["adaptive_intervals"]:
        ok = fail(
            path,
            f"adaptive_trajectory_len = {doc['adaptive_trajectory_len']} "
            f"!= adaptive_intervals = {doc['adaptive_intervals']} — the "
            "trajectory must record one distance per interval",
        )

    pct = doc["telemetry_overhead_pct"]
    if pct < 0:
        ok = fail(path, f"telemetry_overhead_pct is negative: {pct}")
    if doc["telemetry_compiled"]:
        if pct >= 25:
            ok = fail(
                path,
                f"telemetry_overhead_pct = {pct} — the <2% contract has "
                "regressed far beyond measurement noise",
            )
    elif pct != 0:
        ok = fail(path, f"telemetry compiled out but overhead_pct = {pct}")

    ppct = doc["provenance_overhead_pct"]
    if ppct < 0:
        ok = fail(path, f"provenance_overhead_pct is negative: {ppct}")
    if ppct >= 25:
        ok = fail(
            path,
            f"provenance_overhead_pct = {ppct} — the <5% contract has "
            "regressed far beyond measurement noise",
        )
    if not doc["provenance_tables_identical"]:
        ok = fail(
            path,
            "provenance-on sweep produced a different table than the "
            "provenance-off sweep — the observer must not perturb metrics",
        )

    rate = doc["sweep_trace_memo_hit_rate"]
    if not 0.0 <= rate <= 1.0:
        ok = fail(path, f"sweep_trace_memo_hit_rate out of [0,1]: {rate}")

    for key in ("replay_checksum", "refine_checksum"):
        if doc[key] == 0:
            ok = fail(path, f'"{key}" is zero — the timed run simulated nothing')

    if doc["sweep_cells"] <= 0:
        ok = fail(path, f'"sweep_cells": expected > 0, got {doc["sweep_cells"]}')
    if doc["reps"] <= 0:
        ok = fail(path, f'"reps": expected > 0, got {doc["reps"]}')

    if ok:
        print(
            f"{path}: OK ({len(REQUIRED)} keys, "
            f"telemetry overhead {pct:.2f}%)"
        )
    return ok


def _sweep_fail(path, lineno, message):
    print(f"{path}:{lineno}: {message}", file=sys.stderr)
    return False


def check_sweep_line(path, lineno, doc):
    ok = True
    for key in ("workload", "controller", "ok"):
        if key not in doc:
            return _sweep_fail(path, lineno, f"missing required key {key!r}")
    if not doc["ok"]:
        if "error" not in doc:
            ok = _sweep_fail(path, lineno, "failed cell without an error field")
        return ok

    bound = doc.get("bound_upper")
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        ok = _sweep_fail(
            path, lineno,
            f"bound_upper must be an integer >= 1 on ok cells, got {bound!r}")
    elif doc.get("within_bound") != (doc.get("distance", 0) < bound):
        ok = _sweep_fail(
            path, lineno,
            f"within_bound = {doc.get('within_bound')!r} disagrees with "
            f"distance = {doc.get('distance')!r} < bound_upper = {bound}")

    if "trajectory" in doc:
        trajectory = doc["trajectory"]
        if not isinstance(trajectory, list):
            return _sweep_fail(path, lineno, "trajectory is not a list")
        if doc.get("intervals") != len(trajectory):
            ok = _sweep_fail(
                path, lineno,
                f"intervals = {doc.get('intervals')} != len(trajectory) = "
                f"{len(trajectory)} — one distance per interval")
        if doc.get("final_distance", 0) > doc.get("distance_cap", 0):
            ok = _sweep_fail(
                path, lineno,
                f"final_distance = {doc.get('final_distance')} exceeds "
                f"distance_cap = {doc.get('distance_cap')}")
    return ok


PROV_BUCKETS = 32
PROV_KEYS = (
    "prov_tracked_fills", "prov_helper_fills", "prov_hardware_fills",
    "prov_used_timely", "prov_used_late", "prov_evicted_unused",
    "prov_polluting", "prov_resident_unused", "prov_reuse_confirms",
    "prov_late_confirms", "prov_polluted_sets", "prov_timely_rate",
    "prov_fill_to_use_mean", "prov_fill_to_use_hist",
    "prov_victim_reuse_hist", "prov_set_heatmap",
)
# Beyond the Set-Affinity bound the used-timely rate may wobble with grid
# noise but must never meaningfully recover; 2 points of absolute rate is
# comfortably above observed jitter (mst wobbles ~2 points at the bound
# edge before collapsing) and far below any real recovery.
PROV_TIMELY_TOLERANCE = 0.03


def _check_prov_hist(path, lineno, doc, key):
    hist = doc[key]
    if not isinstance(hist, list) or len(hist) != PROV_BUCKETS:
        return None, _sweep_fail(
            path, lineno,
            f"{key} must be a {PROV_BUCKETS}-bucket list, got "
            f"{type(hist).__name__} of len "
            f"{len(hist) if isinstance(hist, list) else '?'}")
    for i, v in enumerate(hist):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return None, _sweep_fail(
                path, lineno, f"{key}[{i}] must be a non-negative int, "
                f"got {v!r}")
    return sum(hist), True


def check_provenance_line(path, lineno, doc):
    """Per-cell lifecycle accounting; assumes check_sweep_line passed."""
    missing = [k for k in PROV_KEYS if k not in doc]
    if missing:
        return _sweep_fail(
            path, lineno,
            f"ok cell missing provenance keys: {sorted(missing)} — was the "
            "sweep run with SweepSpec::provenance set?")
    ok = True
    tracked = doc["prov_tracked_fills"]
    fates = (doc["prov_used_timely"] + doc["prov_used_late"]
             + doc["prov_evicted_unused"] + doc["prov_polluting"]
             + doc["prov_resident_unused"])
    if fates != tracked:
        ok = _sweep_fail(
            path, lineno,
            f"fate counts sum to {fates}, not prov_tracked_fills = "
            f"{tracked} — the five fates must partition the tracked fills")
    origins = doc["prov_helper_fills"] + doc["prov_hardware_fills"]
    if origins != tracked:
        ok = _sweep_fail(
            path, lineno,
            f"helper + hardware fills = {origins} != prov_tracked_fills = "
            f"{tracked}")

    for key, counter in (
            ("prov_fill_to_use_hist", "prov_used_timely"),
            ("prov_victim_reuse_hist", "prov_reuse_confirms"),
            ("prov_set_heatmap", "prov_polluted_sets")):
        mass, hist_ok = _check_prov_hist(path, lineno, doc, key)
        if not hist_ok:
            ok = False
            continue
        if mass != doc[counter]:
            ok = _sweep_fail(
                path, lineno,
                f"sum({key}) = {mass} != {counter} = {doc[counter]} — "
                "every classified event lands in exactly one bucket")

    rate = doc["prov_timely_rate"]
    if not 0.0 <= rate <= 1.0:
        ok = _sweep_fail(path, lineno, f"prov_timely_rate out of [0,1]: {rate}")
    expected = doc["prov_used_timely"] / tracked if tracked else 0.0
    if abs(rate - expected) > 1e-9:
        ok = _sweep_fail(
            path, lineno,
            f"prov_timely_rate = {rate} but used_timely/tracked = {expected}")
    return ok


def _check_prov_timeliness_decay(path, groups):
    """Beyond-bound cells must not win the timely rate back (per group)."""
    ok = True
    for key, cells in sorted(groups.items()):
        cells.sort(key=lambda c: c[1])  # ascending A_SKI
        running_min = None
        for lineno, distance, rate in cells:
            if running_min is not None and \
                    rate > running_min + PROV_TIMELY_TOLERANCE:
                ok = _sweep_fail(
                    path, lineno,
                    f"group {key}: beyond-bound A_SKI {distance} has "
                    f"timely rate {rate:.4f}, recovering past the running "
                    f"minimum {running_min:.4f} + {PROV_TIMELY_TOLERANCE} — "
                    "distance beyond the Set-Affinity bound must not "
                    "restore timeliness")
            running_min = rate if running_min is None \
                else min(running_min, rate)
    return ok


def check_provenance_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(path, f"not readable: {e}")
    cells = 0
    beyond = 0
    ok = True
    # (workload, l2, helper, rp) -> [(lineno, distance, timely_rate)] for
    # static-controller cells beyond their plane's bound.
    groups = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            ok = _sweep_fail(path, lineno, f"not valid JSON: {e}")
            continue
        if not isinstance(doc, dict):
            ok = _sweep_fail(path, lineno, "line is not a JSON object")
            continue
        cells += 1
        line_ok = check_sweep_line(path, lineno, doc)
        ok = line_ok and ok
        if not line_ok or not doc.get("ok"):
            continue
        ok = check_provenance_line(path, lineno, doc) and ok
        if doc.get("controller") == "static" and not doc.get(
                "within_bound", True):
            beyond += 1
            key = (doc.get("workload"), doc.get("l2"), doc.get("helper"),
                   doc.get("rp"))
            groups.setdefault(key, []).append(
                (lineno, doc.get("distance", 0), doc["prov_timely_rate"]))
    ok = _check_prov_timeliness_decay(path, groups) and ok
    if cells == 0:
        ok = fail(path, "no cells — the artifact is empty")
    if ok:
        print(f"{path}: OK ({cells} cells, {beyond} beyond-bound)")
    return ok


def check_sweep_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(path, f"not readable: {e}")
    cells = 0
    ok = True
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            ok = _sweep_fail(path, lineno, f"not valid JSON: {e}")
            continue
        if not isinstance(doc, dict):
            ok = _sweep_fail(path, lineno, "line is not a JSON object")
            continue
        cells += 1
        ok = check_sweep_line(path, lineno, doc) and ok
    if cells == 0:
        ok = fail(path, "no cells — the artifact is empty")
    if ok:
        print(f"{path}: OK ({cells} cells)")
    return ok


BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")
RATIO_ENTRY_KEYS = {"n", "ratios", "median"}


def _positive_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def check_ratio_entry(path, lineno, where, entry):
    if not isinstance(entry, dict) or set(entry) != RATIO_ENTRY_KEYS:
        return _sweep_fail(path, lineno,
                           f"{where}: expected exactly the keys n, ratios, "
                           f"median, got {entry!r}")
    n, ratios, median = entry["n"], entry["ratios"], entry["median"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        return _sweep_fail(path, lineno, f"{where}: n must be an integer >= 1")
    if not _positive_number(median):
        return _sweep_fail(path, lineno,
                           f"{where}: median must be a positive number")
    if ratios is None:
        return True  # only the median was recorded for these pairs
    if not isinstance(ratios, list) or len(ratios) != n:
        return _sweep_fail(path, lineno,
                           f"{where}: ratios must list n = {n} values")
    if not all(_positive_number(r) for r in ratios):
        return _sweep_fail(path, lineno,
                           f"{where}: every ratio must be a positive number")
    if abs(_median(ratios) - median) > 1e-9:
        return _sweep_fail(path, lineno,
                           f"{where}: median {median} != median of ratios "
                           f"{_median(ratios)}")
    return True


def check_ratios_file(path):
    try:
        with open(BENCHMARK_JSON, "r", encoding="utf-8") as f:
            benchmark = json.load(f)
        workloads = {w["name"] for w in benchmark["workloads"]}
        metrics = {m["name"]
                   for section in ("end_to_end", "per_layer")
                   for m in benchmark[section]}
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as e:
        return fail(BENCHMARK_JSON, f"cannot read workload/metric names: {e}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(path, f"not readable: {e}")
    ok = True
    last_pr = 0
    entries = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            ok = _sweep_fail(path, lineno, f"not valid JSON: {e}")
            continue
        if not isinstance(doc, dict) or not {"pr", "workloads"} <= set(doc) \
                or not set(doc) <= {"pr", "workloads", "note"}:
            ok = _sweep_fail(path, lineno,
                             "expected the keys pr and workloads (and "
                             "optionally note)")
            continue
        pr = doc["pr"]
        if not isinstance(pr, int) or isinstance(pr, bool) or pr < 1:
            ok = _sweep_fail(path, lineno, "pr must be an integer >= 1")
            continue
        if pr <= last_pr:
            ok = _sweep_fail(path, lineno,
                             f"pr {pr} does not follow pr {last_pr}")
        last_pr = max(last_pr, pr)
        if "note" in doc and not isinstance(doc["note"], str):
            ok = _sweep_fail(path, lineno, "note must be a string")
        per_workload = doc["workloads"]
        if not isinstance(per_workload, dict) or not per_workload:
            ok = _sweep_fail(path, lineno, "workloads must be a non-empty object")
            continue
        for workload, per_metric in per_workload.items():
            if workload not in workloads:
                ok = _sweep_fail(path, lineno,
                                 f"unknown workload {workload!r}")
                continue
            if not isinstance(per_metric, dict) or not per_metric:
                ok = _sweep_fail(path, lineno,
                                 f"{workload}: expected a non-empty object")
                continue
            for metric, entry in per_metric.items():
                where = f"pr {pr} {workload} {metric}"
                if metric not in metrics:
                    ok = _sweep_fail(path, lineno,
                                     f"{where}: unknown metric")
                    continue
                entries += 1
                ok = check_ratio_entry(path, lineno, where, entry) and ok
    if last_pr == 0:
        ok = fail(path, "no PR lines — the file is empty")
    if ok:
        print(f"{path}: OK (last pr {last_pr}, {entries} ratio entries)")
    return ok


def main(argv):
    args = argv[1:]
    check = check_file
    if args and args[0] == "--sweep":
        check = check_sweep_file
        args = args[1:]
    elif args and args[0] == "--provenance":
        check = check_provenance_file
        args = args[1:]
    elif args and args[0] == "--ratios":
        check = check_ratios_file
        args = args[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_ok = True
    for path in args:
        all_ok = check(path) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
