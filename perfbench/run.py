#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), runs it, and adds the process's peak resident
set size (`peak_rss_mb`) to the end-to-end metrics. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Exits non-zero when the build fails, when the
program fails, or when a correctness check fails.

Workloads, metrics and layers are described in perfbench/WORKLOADS.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Longest a single run may take before it is killed, in seconds.
RUN_TIMEOUT_S = 170


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    work = target_dir() / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    binary = target_dir() / "release" / "idivm-perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4 reaps the child and reports its own peak RSS (KiB on
        # Linux), excluding the build's compiler processes.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, out, peak_rss_mb = run(args)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        print(f"perfbench: the program exited {code} without a result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
