#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from source, runs one workload
and prints the result as one JSON line.

    python3 paraleon_bench/run.py --workload NAME [--seed N] --seconds S \
        --trace 0|1 [--tiny]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and the artifacts to .bench_out. The harness's own report
(cell digests, metrics with units and sample counts) comes first; the last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). Exits nonzero when the build fails, a metric
is missing, or the harness counted a failed operation.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree under {ROOT}: run from a full checkout")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "paraleon_bench"
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "paraleon_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int,
                        help="input seed; omitted = the committed seeds")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="run the scenarios' tiny overlays (smoke test)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    out_dir = ROOT / ".bench_out"
    result_path = out_dir / f"{args.workload}.result.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [str(binary), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scenarios", str(ROOT / "scenarios"), "--out", str(out_dir)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    code = subprocess.run(cmd, cwd=ROOT).returncode
    if not result_path.is_file():
        fail(f"harness exited {code} without writing {result_path}")
    result = json.loads(result_path.read_text())

    correct = bool(result["correct"]) and code == 0
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, not {m['unit']}")
        if got is not None and got["value"] is not None:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
        elif correct:
            fail(f"metric {m['name']} [{m['unit']}] missing from the result")
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
