"""Tests of the benchmark itself: inputs, correctness gate and tracer.

Run from the root of a source checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spinpair.cli as cli  # noqa: E402
from spinpair import expectation, kernels, verify  # noqa: E402
from spinpair import CompoundLabel, Direction, MeasurementSpec, OutcomeValues  # noqa: E402

import calibrate  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT[0-9:.+-]+")


def _first_ops(name: str, seed: int, n: int):
    ops = WORKLOADS[name].ops(seed)
    return [next(ops) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_argv_sequence(name):
    first = [op.argv for op in _first_ops(name, 7, 20)]
    assert first == [op.argv for op in _first_ops(name, 7, 20)]
    assert first != [op.argv for op in _first_ops(name, 8, 20)]


@pytest.mark.parametrize("name", ["scan", "grid"])
def test_every_label_and_format_comes_once_per_cycle(name):
    cycle = 8 if name == "scan" else 4
    ops = _first_ops(name, 5, 3 * cycle)
    kinds = [(op.inputs["s"], op.inputs["M"], op.inputs.get("format")) for op in ops]
    assert len(set(kinds)) == cycle
    assert kinds[:cycle] == kinds[cycle : 2 * cycle] == kinds[2 * cycle :]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_op_is_deterministic_and_passes_the_gate(name):
    workload = WORKLOADS[name]
    op = _first_ops(name, 11, 1)[0]
    outputs = []
    for _ in range(2):
        code, stdout, _, trace = run.run_op(cli, op.argv)
        assert trace is None
        assert workload.check(op, code, stdout) > 0
        outputs.append(TIMESTAMP.sub("", stdout))
    assert outputs[0] == outputs[1]
    assert TIMESTAMP.search(stdout)  # the pattern did strip something


def test_reference_agrees_with_both_routes():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        s, M = ((1, 1), (1, 0), (1, -1), (0, 0))[rng.integers(4)]
        a, c1, c2, d = (tuple(rng.uniform(-7.0, 7.0, 2)) for _ in range(4))
        r1, r2 = tuple(rng.uniform(-2.0, 2.0, 2)), tuple(rng.uniform(-2.0, 2.0, 2))
        label = CompoundLabel(s, M, Direction(*a))
        spec = MeasurementSpec(Direction(*c1), Direction(*c2), OutcomeValues(*r1), OutcomeValues(*r2))
        psi = ref.pair_states(s, M, *a)
        want = ref.expectations(psi, c1, c2, r1, r2)
        worst = max(
            worst,
            abs(want - expectation.expectation_oracle(label, spec)),
            abs(want - expectation.expectation_matrix(label, spec, Direction(*d), Direction(*c1))),
            np.max(np.abs(ref.probabilities(psi, c1, c2) - expectation.outcome_probabilities(label, spec.c1, spec.c2))),
        )
    assert worst < 1e-13


def test_reference_singlet_is_minus_cosine():
    theta = np.linspace(0.0, math.pi, 7)
    psi = ref.pair_states(0, 0, 0.3, 1.1)
    got = ref.expectations(psi, (0.0, 0.0), (theta, 0.0), (1.0, -1.0), (1.0, -1.0))
    assert np.allclose(got, -np.cos(theta), atol=1e-14)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_kernel_drives_fail_ratio_above_zero(name):
    true_kernel = kernels.xi_half

    def phase_flipped(initial, final):
        # Every factor but the phase is real, so conjugating flips its sign.
        return true_kernel(initial, final).conj()

    with tracer_mod.rebound(true_kernel, phase_flipped):
        client, _, _ = run.timed_run(cli, WORKLOADS[name], 3, 0.2)
    assert kernels.xi_half is true_kernel and expectation.xi_half is true_kernel
    assert client.failed > 0 and client.failed / client.attempted > 0


@pytest.mark.parametrize("where", ["off the z axis", "off the first pair"])
def test_matrix_route_wrong_at_some_pairs_fails_every_grid_op(where):
    true_route = expectation.expectation_matrix
    grid = WORKLOADS["grid"]
    for op in _first_ops("grid", 3, 3):
        first = op.inputs["d"]

        def partly_wrong(label, spec, d, f):
            value = true_route(label, spec, d, f)
            right = d.theta == 0.0 if where == "off the z axis" else (d.theta, d.phi) == first
            return value if right else value + 1e-6

        with tracer_mod.rebound(true_route, partly_wrong):
            code, stdout, _, _ = run.run_op(cli, op.argv)
        with pytest.raises(OpFailed):
            grid.check(op, code, stdout)
    assert expectation.expectation_matrix is true_route


def test_loosened_verify_tolerance_fails_the_verify_op(monkeypatch):
    monkeypatch.setitem(verify.DEFAULT_TOLERANCES, "kernel_unitarity", 1e-3)
    op = _first_ops("verify", 3, 1)[0]
    code, stdout, _, _ = run.run_op(cli, op.argv)
    with pytest.raises(OpFailed, match="kernel_unitarity tolerance"):
        WORKLOADS["verify"].check(op, code, stdout)


def test_intact_run_reports_every_end_to_end_metric_and_no_failure():
    client, metrics, _ = run.timed_run(cli, WORKLOADS["grid"], 4, 0.5)
    assert client.failed == 0 and client.attempted > 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: unit for k, (_, unit, _) in metrics.items()
    }
    assert all(value > 0 for value, _, _ in metrics.values())


def test_calibration_rescales_each_op_by_the_kernel_runs_around_it(monkeypatch):
    r = calibrate.REFERENCE_S
    # The warm-up runs, which are not kept, then the burst after the last op.
    kernel_s = iter([r] * (calibrate.WARMUP + calibrate.BURST))
    monkeypatch.setattr(calibrate, "kernel", lambda: next(kernel_s))
    calibration = calibrate.Calibration()
    for before, wall_s in (([2 * r], 0.5), ([2 * r], 0.6), ([r], 0.3)):
        calibration.kernel_s += before
        calibration.add(wall_s)
    # Between bursts at half speed, then between half and full, then at full.
    assert calibration.scaled() == pytest.approx([0.25, 0.4, 0.3])


def test_traced_run_reports_every_per_layer_metric():
    client, metrics, extra = run.traced_run(cli, WORKLOADS["grid"], 4, 0.5)
    assert client.failed == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (_, unit, _) in metrics.items()
    }
    assert extra["layer_self_s_sum"] <= extra["traced_wall_s"]
    assert metrics["expectation.ref_error_max"][0] < 1e-12


def _snapshot():
    return {
        mod.__name__: dict(vars(mod)) for mod in tracer_mod._modules()
    }, {cls: vars(cls)["__post_init__"] for _, _, cls in tracer_mod.validating_classes()}


def test_tracer_counts_one_oracle_call_exactly_and_restores_bindings():
    before = _snapshot()
    label = CompoundLabel(1, 0, Direction(0.7, 2.1))
    spec = MeasurementSpec(
        Direction(1.2, 0.4), Direction(2.3, 5.0), OutcomeValues(1.0, -1.0), OutcomeValues(0.5, 2.0)
    )
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        expectation.expectation_oracle(label, spec)
    assert _snapshot() == before
    want = {
        "expectation.expectation_oracle": 1,
        "expectation.outcome_probabilities": 1,
        "expectation.amplitude_psi": 4,
        "kernels.xi_half": 8,
        "kernels.chi": 16,
        "kernels.zeta_spin1": 16,
        "kernels.clebsch_gordan_half_half": 48,
    }
    assert {k: tracer.calls[k] for k in want} == want
    assert set(tracer.calls) == set(want)


def test_tracer_counts_two_probability_calls_per_scan_point():
    op = _first_ops("scan", 2, 1)[0]
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        code, stdout, elapsed, trace = run.run_op(cli, op.argv)
    assert trace is None and WORKLOADS["scan"].check(op, code, stdout) == 181
    assert tracer.calls["expectation.outcome_probabilities"] == 2 * 181
    assert tracer.calls["cli.main"] == 1
    assert sum(tracer.layer_self_s().values()) <= elapsed


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
