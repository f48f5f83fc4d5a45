#!/usr/bin/env python3
"""Steadiness check: repeat a workload over several seeds and summarise.

    python3 perfbench/steady.py --workload sweep --seeds 1-10

Each run is ``run.py --trace 0`` in a fresh process, for ``run_seconds``
of BENCHMARK.json.  Before and after it, run.py's speed probe is timed
here too, so that machine-speed drift can be seen beside the metrics; the
probe is not a metric.  The summary gives,
per metric, the median, the quartiles of ``statistics.quantiles(n=4)``,
their distance as a share of the median, and the bound from
BENCHMARK.json, plus the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def machine_speed(probe) -> float:
    """Median milliseconds of 50 of run.py's speed probes."""
    return statistics.median(probe() for _ in range(50)) * 1000


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    probe = SpeedProbe()
    values: dict[str, list[float]] = {}
    shares = []
    for seed in seeds(args.seeds):
        before = machine_speed(probe)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        took = time.perf_counter() - t0
        after = machine_speed(probe)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed with code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        line = [f"seed {seed:3d}", f"probe {before:.2f}/{after:.2f} ms", f"run {took:5.1f} s",
                f"correct {result['correct']}", f"{result['failed']}/{result['attempted']} failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print("  ".join(line), flush=True)
        print("    " + proc.stderr.strip().splitlines()[-1], flush=True)

    print(f"\n{args.workload}: {len(shares)} runs, failed shares {sorted(set(shares))}")
    print(f"{'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
