#!/usr/bin/env python3
"""Guard the local perf trendline: BENCH_history.jsonl drift detection.

Usage: check_perf_history.py BENCH_history.jsonl [--window=N] [--threshold=PCT]
       check_perf_history.py --self-test

repro_all.sh appends one perf_smoke record per reproduction run to the
git-ignored BENCH_history.jsonl. This script validates that file and flags
hot-path regressions:

  * every non-empty line must parse as a JSON object carrying `bench`,
    `quick`, and `recorded_at` — a malformed history is a structural error;
  * --quick records are recorded but never compared (CI-smoke inputs are
    three orders of magnitude smaller than the full-scale run);
  * for each key throughput metric (higher is better), the newest full-scale
    record is compared against the median of the trailing window (default 8)
    of *prior* full-scale records; a drop of more than --threshold (default
    15 %) is flagged as a regression;
  * fewer than 3 prior full-scale records: comparison is skipped — a median
    of one or two runs on a shared machine is noise, not a baseline.

Exit status: 0 = valid (comparison OK or skipped), 1 = structural error,
2 = regression flagged. repro_all.sh treats 2 as a loud warning, not a
failure — the history lives on a developer machine, where a loaded host can
legitimately dent a run. No third-party imports — runs on a bare python3.

--self-test runs the built-in fixture suite (no file needed) and is what
ctest executes: the build tree has no history file.
"""

import json
import statistics
import sys

# Throughput metrics (higher is better) worth guarding across runs. Timing
# metrics are deliberately absent: they scale with input size, which --scale
# can change between runs, while these rates are per-unit-of-work.
KEY_METRICS = (
    "materialize_ir_ops_per_sec",
    "replay_accesses_per_sec",
    "sweep_cells_per_sec",
)
DEFAULT_WINDOW = 8
DEFAULT_THRESHOLD_PCT = 15.0
MIN_PRIOR_RECORDS = 3


def load_history(path):
    """Returns (records, errors): parsed JSON objects and structural faults."""
    records = []
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [], [f"{path}: not readable: {e}"]
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{path}:{lineno}: not valid JSON: {e}")
            continue
        if not isinstance(doc, dict):
            errors.append(f"{path}:{lineno}: line is not a JSON object")
            continue
        for key in ("bench", "quick", "recorded_at"):
            if key not in doc:
                errors.append(f"{path}:{lineno}: missing required key {key!r}")
                break
        else:
            records.append(doc)
    return records, errors


def analyze(records, window=DEFAULT_WINDOW, threshold_pct=DEFAULT_THRESHOLD_PCT):
    """Compares the newest full-scale record against the trailing median.

    Returns (regressions, skipped_reason): a list of human-readable
    regression descriptions (empty = healthy), and a non-None reason string
    when no comparison was possible.
    """
    full = [r for r in records if not r.get("quick")]
    if not full:
        return [], "no full-scale records (all --quick)"
    newest, prior = full[-1], full[:-1]
    if len(prior) < MIN_PRIOR_RECORDS:
        return [], (
            f"only {len(prior)} prior full-scale record(s), "
            f"need {MIN_PRIOR_RECORDS} for a baseline")
    tail = prior[-window:]
    regressions = []
    for metric in KEY_METRICS:
        baseline_vals = [
            r[metric] for r in tail
            if isinstance(r.get(metric), (int, float))
            and not isinstance(r.get(metric), bool) and r[metric] > 0
        ]
        current = newest.get(metric)
        if not baseline_vals or not isinstance(current, (int, float)) \
                or isinstance(current, bool):
            continue
        baseline = statistics.median(baseline_vals)
        floor = baseline * (1.0 - threshold_pct / 100.0)
        if current < floor:
            drop = 100.0 * (1.0 - current / baseline)
            regressions.append(
                f"{metric}: {current:.3g} is {drop:.1f}% below the trailing "
                f"median {baseline:.3g} (window of {len(baseline_vals)}, "
                f"threshold {threshold_pct:g}%)")
    return regressions, None


def check_file(path, window, threshold_pct):
    records, errors = load_history(path)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    if not records:
        print(f"{path}: empty history — nothing to compare")
        return 0
    regressions, skipped = analyze(records, window, threshold_pct)
    if skipped:
        print(f"{path}: comparison skipped — {skipped}")
        return 0
    if regressions:
        for r in regressions:
            print(f"{path}: REGRESSION: {r}", file=sys.stderr)
        return 2
    full = sum(1 for r in records if not r.get("quick"))
    print(f"{path}: OK ({len(records)} records, {full} full-scale, "
          f"newest within {threshold_pct:g}% of trailing median)")
    return 0


def self_test():
    """Fixture suite over analyze()/load_history(); exercised by ctest."""
    def rec(rate, quick=False):
        return {
            "bench": "perf_smoke", "quick": quick, "recorded_at": "t",
            **{m: rate for m in KEY_METRICS},
        }

    failures = []

    def expect(name, cond):
        if not cond:
            failures.append(name)

    # Healthy trend: newest equals the median — no regressions.
    regs, skipped = analyze([rec(100)] * 4)
    expect("healthy trend flags nothing", not regs and skipped is None)

    # A 20% drop on every metric trips the 15% threshold on every metric.
    regs, skipped = analyze([rec(100)] * 4 + [rec(80)])
    expect("20% drop flagged on all metrics",
           skipped is None and len(regs) == len(KEY_METRICS))

    # A 10% drop stays under the default threshold.
    regs, _ = analyze([rec(100)] * 4 + [rec(90)])
    expect("10% drop tolerated", not regs)

    # ... but trips a tightened one.
    regs, _ = analyze([rec(100)] * 4 + [rec(90)], threshold_pct=5.0)
    expect("10% drop flagged at 5% threshold", len(regs) == len(KEY_METRICS))

    # Quick records never participate: three baselines + a quick outlier.
    regs, skipped = analyze([rec(100), rec(100), rec(100), rec(1, quick=True),
                             rec(100)])
    expect("quick outlier ignored", skipped is None and not regs)

    # All-quick history: comparison skipped, not crashed.
    _, skipped = analyze([rec(1, quick=True)] * 5)
    expect("all-quick history skipped", skipped is not None)

    # Too few priors: skipped.
    _, skipped = analyze([rec(100), rec(100), rec(80)])
    expect("2 priors is below the baseline minimum", skipped is not None)

    # The window bounds the baseline: 8 recent baselines at 100 outvote an
    # ancient era at 1000, so a newest of 100 is healthy.
    regs, skipped = analyze([rec(1000)] * 5 + [rec(100)] * 8 + [rec(100)])
    expect("trailing window forgets ancient eras",
           skipped is None and not regs)

    # Median robustness: one crazy-high prior doesn't inflate the floor.
    regs, _ = analyze([rec(100), rec(100), rec(100), rec(10000), rec(98)])
    expect("single outlier prior absorbed by median", not regs)

    # Structural validation via a real temp file round-trip.
    import os
    import tempfile
    with tempfile.NamedTemporaryFile(
            "w", suffix=".jsonl", delete=False) as f:
        f.write(json.dumps(rec(100)) + "\n")
        f.write("this is not json\n")
        path = f.name
    try:
        records, errors = load_history(path)
        expect("malformed line reported", len(errors) == 1)
        expect("valid line still loaded", len(records) == 1)
    finally:
        os.unlink(path)

    with tempfile.NamedTemporaryFile(
            "w", suffix=".jsonl", delete=False) as f:
        f.write(json.dumps({"bench": "perf_smoke"}) + "\n")
        path = f.name
    try:
        _, errors = load_history(path)
        expect("missing required keys reported", len(errors) == 1)
    finally:
        os.unlink(path)

    if failures:
        for name in failures:
            print(f"self-test FAILED: {name}", file=sys.stderr)
        return 1
    print(f"self-test OK ({len(KEY_METRICS)} guarded metrics)")
    return 0


def main(argv):
    args = argv[1:]
    if args == ["--self-test"]:
        return self_test()
    window = DEFAULT_WINDOW
    threshold = DEFAULT_THRESHOLD_PCT
    paths = []
    for a in args:
        if a.startswith("--window="):
            window = int(a.split("=", 1)[1])
        elif a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1])
        else:
            paths.append(a)
    if not paths or window < 1 or threshold <= 0:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    status = 0
    for path in paths:
        status = max(status, check_file(path, window, threshold))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
