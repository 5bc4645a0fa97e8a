"""spinpair benchmark: a closed-loop load generator around ``spinpair.cli.main``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scan|grid|verify --seed N \
        --seconds S --trace 0|1

One client keeps one op in flight: it calls ``spinpair.cli.main(argv)`` in
this process with stdout captured, then checks the output against the
plain-NumPy reference outside the timed region, then sends the next op.
Every argv comes from the workload seed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then under the outside-in tracer, and reports per-op
call counts and self times per layer plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
provenance and each metric's sample count; a table for people goes to
stderr.  The exit code is 2 when the spinpair sources are not found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy

import reference as ref
from calibrate import IMPORT_CHILD, IMPORT_REFERENCE_S, Calibration
from tracer import Tracer
from workloads import WORKLOADS, OpFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROCESSES = 9
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Traced calls whose results are kept: the expectation values are compared
# with the reference, the verify results give verify.samples.
EXPECTATIONS = ("expectation.expectation_oracle", "expectation.expectation_matrix")
RECORDED = EXPECTATIONS + ("verify.run_verification",)
# Traced functions reported as <name>.calls per op.
COUNTED = (
    "kernels.xi_half",
    "kernels.chi",
    "kernels.zeta_spin1",
    "kernels.clebsch_gordan_half_half",
    "kernels.eta_from_z",
    "states.assemble_state",
    "operators.r_matrix",
    "expectation.amplitude_psi",
    "expectation.outcome_probabilities",
    "expectation.expectation_matrix",
    "expectation.expectation_oracle",
    "directions.Direction",
)

# Time to import the CLI and parse the first op's argv, measured inside a
# fresh interpreter so that interpreter start-up itself is left out.
_SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import spinpair.cli\n"
    "spinpair.cli.parse_config(sys.argv[2:])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def run_op(cli, argv) -> tuple[int | None, str, float, str | None]:
    """One op: (exit code, stdout, seconds, traceback if it raised)."""
    out, err = io.StringIO(), io.StringIO()
    code, trace = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # an op that raises is a failed op, not a benchmark crash
        trace = traceback.format_exc()
    return code, out.getvalue(), time.perf_counter() - t0, trace


class Client:
    """The closed-loop client: runs one op at a time and checks its output.

    Counts attempted and failed ops and keeps the first few failure reasons.
    """

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self, op) -> tuple[float, int, str]:
        """Run and check one op: (op seconds, work units, stdout)."""
        code, stdout, elapsed, trace = run_op(self.cli, op.argv)
        units, reason = 0, None
        if trace is not None:
            reason = trace.strip().splitlines()[-1]
        else:
            try:
                units = self.workload.check(op, code, stdout)
            except (OpFailed, ValueError, KeyError, TypeError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(op.argv)}: {reason}")
        return elapsed, units, stdout


def ops_until(ops, seconds: float):
    """Ops from ``ops`` until ``seconds`` have passed since the first."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        yield next(ops)


def _child_seconds(code: str, *args: str) -> float:
    """The seconds a fresh interpreter running ``code`` prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(first_argv) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_PROCESSES fresh interpreters, wall and rescaled.

    Each set-up child runs between two children that only import NumPy,
    which give its host speed (see ``calibrate``).
    """
    setup = (_SETUP_CHILD, str(SRC), *first_argv)
    _child_seconds(*setup)  # the first run may compile bytecode; users pay that once
    numpy_s = [_child_seconds(IMPORT_CHILD)]
    wall, scaled = [], []
    for _ in range(SETUP_PROCESSES):
        seconds = _child_seconds(*setup)
        numpy_s.append(_child_seconds(IMPORT_CHILD))
        wall.append(seconds)
        scaled.append(seconds * IMPORT_REFERENCE_S / statistics.fmean(numpy_s[-2:]))
    return wall, scaled


def timed_run(cli, workload, seed: int, seconds: float):
    """End-to-end metrics with tracing off.

    Set-up and op times are rescaled to the reference host speed (see
    ``calibrate``); the wall figures go on the detail line.
    """
    first = next(workload.ops(seed))
    setup_wall, setup = measure_setup(first.argv)
    client = Client(cli, workload)
    client.attempt(first)  # warm-up, not timed
    calibration = Calibration()
    wall, units = [], 0
    for op in ops_until(workload.ops(seed), seconds):
        calibration.tick()
        elapsed, done, _ = client.attempt(op)
        calibration.add(elapsed)
        wall.append(elapsed)
        units += done
    times = calibration.scaled()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_p50_s": (statistics.median(times), "s", len(times)),
        "points_per_s": (units / sum(times), "1/s", len(times)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    extra = {
        f"{workload.unit}s": units,
        "ops": len(times),
        "setup_wall_s": statistics.median(setup_wall),
        "op_p50_wall_s": statistics.median(wall),
        "points_per_wall_s": units / sum(wall),
        "calibration_p50_s": statistics.median(calibration.kernel_s),
        "calibration_bursts": len(calibration.kernel_s),
    }
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        extra["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
    return client, metrics, extra


def expectation_gap(recorded) -> float:
    """Largest gap between traced expectation calls and the reference."""
    groups = defaultdict(list)
    for args, _, value in recorded:
        label, spec = args[:2]
        groups[(label.s, label.M)].append(
            (
                label.axis.theta, label.axis.phi,
                spec.c1.theta, spec.c1.phi, spec.c2.theta, spec.c2.phi,
                spec.values1.r_plus, spec.values1.r_minus,
                spec.values2.r_plus, spec.values2.r_minus,
                value,
            )
        )
    worst = 0.0
    for (s, M), rows in groups.items():
        a_t, a_p, c1_t, c1_p, c2_t, c2_p, p1, m1, p2, m2, got = zip(*rows)
        psi = ref.pair_states(s, M, a_t, a_p)
        want = ref.expectations(psi, (c1_t, c1_p), (c2_t, c2_p), (p1, m1), (p2, m2))
        worst = max(worst, float(max(abs(g - w) for g, w in zip(got, want))))
    return worst


def traced_run(cli, workload, seed: int, seconds: float):
    """Per-layer metrics: every op runs untraced, then traced."""
    tracer = Tracer(record=RECORDED)
    client = Client(cli, workload)
    client.attempt(next(workload.ops(seed)))  # warm-up, not timed
    n = out_bytes = samples = 0
    plain_s = traced_s = gap = 0.0
    for op in ops_until(workload.ops(seed), seconds):
        plain_s += client.attempt(op)[0]
        with tracer.installed():
            elapsed, _, stdout = client.attempt(op)
        traced_s += elapsed
        out_bytes += len(stdout.encode())
        recorded = tracer.recorded
        samples += sum(r.samples for _, _, results in recorded["verify.run_verification"] for r in results)
        gap = max(gap, expectation_gap([call for key in EXPECTATIONS for call in recorded[key]]))
        tracer.clear_recorded()
        n += 1

    layer_s = tracer.layer_self_s()
    metrics = {f"{key}.calls": (tracer.calls[key] / n, "count", n) for key in COUNTED}
    metrics.update({f"{layer}.self_s": (s / n, "s", n) for layer, s in layer_s.items() if layer != "cli"})
    metrics.update(
        {
            "cli.parse_config.self_s": (tracer.self_s["cli.parse_config"] / n, "s", n),
            "cli.emit_records.self_s": (tracer.self_s["cli.emit_records"] / n, "s", n),
            "cli.out_bytes": (out_bytes / n, "bytes", n),
            "verify.samples": (samples / n, "count", n),
            "expectation.ref_error_max": (gap, "abs", n),
            "trace.overhead_ratio": (traced_s / plain_s, "ratio", n),
        }
    )
    extra = {"ops": n, "traced_wall_s": traced_s, "layer_self_s_sum": sum(layer_s.values())}
    return client, metrics, extra


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import spinpair

    digest = hashlib.sha256()
    for path in sorted((SRC / "spinpair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a bare source checkout has no history
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "spinpair": spinpair.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "spinpair" / "cli.py").is_file():
        print(f"error: spinpair sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinpair.cli as cli

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    client, metrics, extra = run(cli, workload, args.seed, args.seconds)

    for name, (value, unit, n) in metrics.items():
        print(f"{workload.name:8s} {name:40s} {value:14.6g} {unit:6s} n={n}", file=sys.stderr)
    for reason in client.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    detail = {
        "provenance": provenance(workload.name, args.seed, args.seconds, args.trace),
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "fail_ratio": client.failed / client.attempted,
        **extra,
    }
    print(json.dumps(detail))
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
