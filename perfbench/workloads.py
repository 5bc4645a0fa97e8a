"""Workload op generators and the correctness gate for each op.

An op is one argv for ``spinpair.cli.main``.  Every op stream is drawn from
a single ``numpy.random.Generator`` seeded with the workload seed, so the
same seed gives the same argv sequence.  ``check`` compares an op's exit
code and stdout against ``reference`` (which shares no code with spinpair)
and returns the op's work units, or raises ``OpFailed``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import reference as ref

# The oracle_equivalence tolerance of spinpair's verify suite.
TOLERANCE = 1e-10

SCAN_STEPS = 181
GRID_SIZE = 10
LABELS = ((1, 1), (1, 0), (1, -1), (0, 0))
SWEEP_PARAMS = tuple(f"{obj}.{f}" for obj in ("a", "c1", "c2", "d", "f") for f in ("theta", "phi"))

# Samples per check that ``spinpair verify --seed k`` draws for every k, and
# each check's tolerance, both as at the commit that added this benchmark.  A
# verify op fails if any check reports fewer samples, a looser tolerance, or a
# residual above the tolerance listed here.
VERIFY_SAMPLES = {
    "kernel_unitarity": 1000,
    "kernel_hermiticity": 1000,
    "kernel_composition": 1000,
    "zeta_normalization": 300,
    "clebsch_gordan_table": 16,
    "clebsch_gordan_orthonormality": 1,
    "chi_completeness": 400,
    "state_normalization": 400,
    "state_orthonormality": 100,
    "standard_form_states": 4,
    "standard_form_operators": 200,
    "axis_aligned_states": 400,
    "operator_hermiticity": 300,
    "operator_spectrum": 300,
    "operator_covariance": 300,
    "oracle_equivalence": 1000,
    "basis_invariance": 100,
    "probability_completeness": 400,
    "singlet_cosine_law": 181,
    "singlet_rotation_invariance": 100,
    "chsh_extremum": 1,
}
VERIFY_TOLERANCES = {
    "kernel_unitarity": 1e-12,
    "kernel_hermiticity": 1e-12,
    "kernel_composition": 1e-12,
    "zeta_normalization": 1e-12,
    "clebsch_gordan_table": 1e-15,
    "clebsch_gordan_orthonormality": 1e-15,
    "chi_completeness": 1e-12,
    "state_normalization": 1e-12,
    "state_orthonormality": 1e-12,
    "standard_form_states": 1e-15,
    "standard_form_operators": 1e-15,
    "axis_aligned_states": 1e-12,
    "operator_hermiticity": 1e-12,
    "operator_spectrum": 1e-10,
    "operator_covariance": 1e-12,
    "oracle_equivalence": 1e-10,
    "basis_invariance": 1e-10,
    "probability_completeness": 1e-12,
    "singlet_cosine_law": 1e-10,
    "singlet_rotation_invariance": 1e-12,
    "chsh_extremum": 1e-10,
}


class OpFailed(Exception):
    """The op's exit code or output is wrong."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    inputs: dict  # what the generator drew, for the checker


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one work unit of an op is
    ops: Callable[[int], Iterator[Op]]
    check: Callable[[Op, int, str], int]


def _num(x) -> str:
    return repr(float(x))


def _sphere(rng) -> tuple[float, float]:
    """A direction drawn uniformly on the sphere, as canonical (theta, phi)."""
    return float(math.acos(1.0 - 2.0 * rng.random())), float(2.0 * math.pi * rng.random())


def _values(rng) -> tuple[float, float]:
    return float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))


def _pair_flag(name: str, pair) -> str:
    return f"--{name}={_num(pair[0])},{_num(pair[1])}"


def _draw_correlation(rng, label) -> dict:
    s, M = label
    return {
        "s": s,
        "M": M,
        "a": _sphere(rng),
        "c1": _sphere(rng),
        "c2": _sphere(rng),
        "r1": _values(rng),
        "r2": _values(rng),
    }


def _correlation_argv(command: str, inputs: dict, names) -> list[str]:
    return [command, f"--s={inputs['s']}", f"--M={inputs['M']}"] + [
        _pair_flag(name, inputs[name]) for name in names
    ]


def _parse_records(stdout: str) -> list[dict]:
    """JSON Lines or CSV records, with the checked fields as floats."""
    lines = stdout.splitlines()
    if lines and lines[0].startswith("{"):
        return [json.loads(line) for line in lines if line]
    records = []
    for row in csv.DictReader(io.StringIO(stdout)):
        row = dict(row)
        row["probabilities"] = [float(row.pop(f"probabilities_{k}")) for k in range(4)]
        for key in ("value", "value_matrix_path", "value_oracle_path"):
            if key in row:
                row[key] = float(row[key])
        records.append(row)
    return records


def _compare(records: list[dict], inputs: dict) -> float:
    """Largest gap between the records and the reference at ``inputs``.

    ``inputs`` holds per-record arrays of angles and outcome values.
    """
    psi = ref.pair_states(inputs["s"], inputs["M"], *inputs["a"])
    want_e = ref.expectations(psi, inputs["c1"], inputs["c2"], inputs["r1"], inputs["r2"])
    want_p = ref.probabilities(psi, inputs["c1"], inputs["c2"])
    got_m = np.array([r["value_matrix_path"] for r in records], dtype=float)
    got_o = np.array([r["value_oracle_path"] for r in records], dtype=float)
    got_p = np.array([r["probabilities"] for r in records], dtype=float)
    return float(
        max(
            np.max(np.abs(got_m - want_e)),
            np.max(np.abs(got_o - want_e)),
            np.max(np.abs(got_p - want_p)),
        )
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


# ---------------------------------------------------------------------------
# scan: 181-point sweeps, both expectation routes and the record encoder


def scan_ops(seed: int) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        inputs = _draw_correlation(rng, LABELS[i % len(LABELS)])
        inputs["d"] = _sphere(rng)
        inputs["f"] = _sphere(rng)
        inputs["param"] = SWEEP_PARAMS[rng.integers(len(SWEEP_PARAMS))]
        inputs["start"] = float(rng.uniform(-math.pi, math.pi))
        inputs["stop"] = inputs["start"] + float(rng.uniform(0.5 * math.pi, 2.0 * math.pi))
        inputs["format"] = ("json", "csv")[i // len(LABELS) % 2]
        argv = _correlation_argv("scan", inputs, ("a", "c1", "c2", "d", "f", "r1", "r2"))
        argv += [
            f"--param={inputs['param']}",
            f"--start={_num(inputs['start'])}",
            f"--stop={_num(inputs['stop'])}",
            f"--steps={SCAN_STEPS}",
            f"--format={inputs['format']}",
        ]
        yield Op(tuple(argv), inputs)


def check_scan(op: Op, code: int, stdout: str) -> int:
    _require(code == 0, f"exit code {code}")
    inputs = op.inputs
    records = _parse_records(stdout)
    _require(len(records) == SCAN_STEPS, f"{len(records)} records, expected {SCAN_STEPS}")
    sweep = np.linspace(inputs["start"], inputs["stop"], SCAN_STEPS)
    got = np.array([float(r["value"]) for r in records])
    _require(np.array_equal(got, sweep), "sweep values differ from linspace(start, stop)")
    obj, _, field = inputs["param"].partition(".")
    per_point = dict(inputs)
    for name in ("a", "c1", "c2"):
        theta, phi = (np.full(SCAN_STEPS, v) for v in inputs[name])
        if name == obj:
            theta, phi = (sweep, phi) if field == "theta" else (theta, sweep)
        per_point[name] = (theta, phi)
    gap = _compare(records, per_point)
    _require(gap <= TOLERANCE, f"gap {gap:.3e} to the reference exceeds {TOLERANCE:g}")
    return SCAN_STEPS


# ---------------------------------------------------------------------------
# grid: one expectation over a 10x10 grid of (d, f) pairs


def grid_ops(seed: int) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        inputs = _draw_correlation(rng, LABELS[i % len(LABELS)])
        # The first grid pair is (d, f); the other 99 come from --seed.
        inputs["d"] = _sphere(rng)
        inputs["f"] = _sphere(rng)
        inputs["seed"] = int(rng.integers(0, 2**31))
        argv = _correlation_argv("expect", inputs, ("a", "c1", "c2", "d", "f", "r1", "r2"))
        argv += [f"--grid={GRID_SIZE}", f"--seed={inputs['seed']}"]
        yield Op(tuple(argv), inputs)


def check_grid(op: Op, code: int, stdout: str) -> int:
    _require(code == 0, f"exit code {code}")
    records = _parse_records(stdout)
    _require(len(records) == 1, f"{len(records)} records, expected 1")
    record = records[0]
    _require(record["grid"] == GRID_SIZE, "grid size not echoed")
    gap = _compare(records, op.inputs)
    _require(gap <= TOLERANCE, f"gap {gap:.3e} to the reference exceeds {TOLERANCE:g}")
    # value_matrix_path is the first pair's value only.  The matrix route at
    # the other 99 pairs shows in the spread over the grid, which must be 0.
    for key in ("residual", "basis_invariance_residual"):
        _require(record[key] <= TOLERANCE, f"{key} {record[key]:.3e} exceeds {TOLERANCE:g}")
    return GRID_SIZE * GRID_SIZE


# ---------------------------------------------------------------------------
# verify: the whole 21-check self-verification suite


def verify_ops(seed: int) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    while True:
        k = int(rng.integers(0, 2**31))
        yield Op(("verify", f"--seed={k}"), {"seed": k})


def check_verify(op: Op, code: int, stdout: str) -> int:
    _require(code == 0, f"exit code {code}")
    records = _parse_records(stdout)
    names = [r["check"] for r in records]
    _require(sorted(names) == sorted(VERIFY_SAMPLES), f"checks run: {names}")
    for r in records:
        _require(r["passed"] is True, f"check {r['check']} failed")
        _require(r["seed"] == op.inputs["seed"], f"check {r['check']} ran another seed")
        want = VERIFY_SAMPLES[r["check"]]
        _require(r["samples"] >= want, f"check {r['check']} drew {r['samples']} < {want}")
        tol = VERIFY_TOLERANCES[r["check"]]
        _require(r["tolerance"] <= tol, f"check {r['check']} tolerance {r['tolerance']:g} > {tol:g}")
        _require(
            r["max_residual"] <= tol,
            f"check {r['check']} residual {r['max_residual']:.3e} > {tol:g}",
        )
    return sum(r["samples"] for r in records)


WORKLOADS = {
    "scan": Workload("scan", "point", scan_ops, check_scan),
    "grid": Workload("grid", "pair", grid_ops, check_grid),
    "verify": Workload("verify", "sample", verify_ops, check_verify),
}
