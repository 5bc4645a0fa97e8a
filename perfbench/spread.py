"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py [--workload scan grid verify] [--seeds 1-10]

Runs the benchmark once per workload and seed, one run at a time, with
tracing off, and prints every end-to-end metric by name with its unit.  Then,
per workload and metric, it prints the median and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound.  Each run measures for
BENCHMARK.json's ``run_seconds``.  The exit code is 1 when a run fails or
reports ``correct: false``, or when a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(spec: dict, workload: str, seeds: list[int]) -> bool:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in seeds:
        done = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return False
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        metrics = result["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(
            f"{workload} seed {seed}: correct={result['correct']} "
            + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items()),
            flush=True,
        )

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
        else:
            share = 0.0
        within = share <= metric["bound"]
        ok = ok and within
        print(
            f"{workload:8s} {metric['name']:14s} median {median:.6g} {metric['unit']:4s}"
            f" spread {share:.4f} bound {metric['bound']} {'ok' if within else 'WIDE'}",
            flush=True,
        )
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    results = [spread(spec, w, args.seeds) for w in args.workload]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
