#!/usr/bin/env python3
"""Repo benchmark: build spf_perfbench from this checkout's sources, run one
workload, and print its metrics.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload sweep|advise|adaptive-late \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run, whose spans go to .bench_build/perfbench/ as Chrome
trace-event JSON and must pass scripts/check_trace_json.py. The last stdout
line is one JSON object with the keys correct, attempted, failed and metrics.
The exit status is 0 only when every op and every check passed.

--self-test runs every workload once in each mode for one second and checks
that each result line carries exactly the metrics BENCHMARK.json names.
NOTES.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "spf_perfbench")
CHECKER = os.path.join("scripts", "check_trace_json.py")
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "advise", "adaptive-late")
# One run must end within 180 s; the set-up and the traced run's probe pass
# come on top of the measured seconds.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    step = ["cmake", "--build", BUILD_DIR, "--target", "spf_perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def run_workload(workload, seed, seconds, trace):
    """Runs the measuring program; returns (result dict or None, exit code)."""
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    trace_file = None
    if trace:
        trace_file = os.path.join(BUILD_DIR, f"trace-{workload}-seed{seed}.json")
        args += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None, 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: exited {proc.returncode} without a result line")
        return None, proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    code = proc.returncode
    if trace:
        check = subprocess.run([sys.executable, CHECKER, trace_file],
                               stdout=sys.stderr)
        if check.returncode != 0:
            log(f"{workload}: span file fails {CHECKER}")
            result["correct"] = False
            code = code or 1
    return result, code


def self_test():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, code = run_workload(workload, 42, 1, trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = ({k: v["unit"] for k, v in result["metrics"].items()}
                   if result else None)
            if code != 0 or got != want:
                log(f"self-test: {workload} trace={int(trace)} exit {code}, "
                    f"metrics {'match' if got == want else 'differ'}")
                ok = False
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and opts.workload is None:
        parser.error("--workload is required")
    if opts.seed < 0 or opts.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 1
    if opts.self_test:
        return self_test()
    result, code = run_workload(opts.workload, opts.seed, opts.seconds,
                                opts.trace == 1)
    if result is None:
        return code
    print(json.dumps(result))
    return code if result.get("correct") else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
