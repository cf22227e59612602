#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

Runs every workload of BENCHMARK.json for one second with --tiny, untraced
and traced, and asserts that the last line of standard output is the result
object: every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json is present with its unit and a finite value, the outputs
checked out, and no operation failed.

Run from the repository root:  python3 perfbench/smoke.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = spec["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny",
            ]
            out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{where}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(expected[trace]))}")
            for name, unit in expected[trace].items():
                m = metrics.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {m.get('unit')!r}, expected {unit!r}")
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} value {value!r}")
            print(f"ok  {where}: {result['attempted']} operations, {len(metrics)} metrics")
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
