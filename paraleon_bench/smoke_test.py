#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload's tiny overlay, untraced
and traced, and checks that each metric named in BENCHMARK.json is printed
with its unit, both in the harness's table and in the final JSON line, and
that the reported-only metrics are printed too.

    python3 paraleon_bench/smoke_test.py

Run from the repository root; builds the harness on first use. Exits
nonzero on the first check that fails.
"""
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"\s[0-9a-f]{6,16}$")
# Every workload the harness knows, including alltoall32, which
# BENCHMARK.json does not list (see README.md).
WORKLOADS = ["alltoall32", "influx", "multitenant_grid"]
# Printed and recorded but not gated: metric -> (unit, workloads).
REPORTED = {"rtt_us": ("us", WORKLOADS),
            "fct_p99_slowdown": ("x", WORKLOADS),
            "paraleon_vs_default_pct": ("%", ["multitenant_grid"])}


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "paraleon_bench" / "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    check(proc.returncode == 0,
          f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload} trace={trace}"
            lines = run(workload, trace)
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{name}: {lines[-1]}")
            check(any(DIGEST.search(line) for line in lines),
                  f"{name}: no run_digest printed")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            check(set(result["metrics"]) == set(wanted),
                  f"{name}: metrics {sorted(result['metrics'])}")
            for metric, unit in wanted.items():
                check(result["metrics"][metric]["unit"] == unit,
                      f"{name}: {metric} unit")
                row = re.compile(rf"^{re.escape(metric)}\s+\S+\s+"
                                 rf"{re.escape(unit)}\s+\d+$")
                check(any(row.match(line) for line in lines),
                      f"{name}: table row for {metric} [{unit}] missing")
            for metric, (unit, where) in REPORTED.items():
                if trace == 1 or workload not in where:
                    continue
                row = re.compile(rf"^{re.escape(metric)}\s+\S+\s+"
                                 rf"{re.escape(unit)}\s+\d+\s+\(reported")
                check(any(row.match(line) for line in lines),
                      f"{name}: reported row for {metric} [{unit}] missing")
            print(f"ok   {name}: {len(wanted)} metrics")
    print("smoke test passed")


if __name__ == "__main__":
    main()
