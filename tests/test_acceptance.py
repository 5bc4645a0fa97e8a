"""Acceptance suite.

One test per release criterion, each at its pinned tolerance.  Every test
prints a single PASS/FAIL line (visible with ``pytest -s`` or in captured
output) before asserting, so a red run still reports which criterion broke.
"""

import cmath
import json
import math
import re

import numpy as np

import spinpair.kernels as kernels_mod
from spinpair import (
    B_INDEX_ORDER,
    CompoundLabel,
    Direction,
    MeasurementSpec,
    OutcomeValues,
    SPIN_PROJECTION_VALUES,
    Z_AXIS,
    angle_between,
    assemble_state,
    chsh_value,
    clebsch_gordan_half_half,
    expectation_matrix,
    expectation_oracle,
    gram_matrix,
    r_matrix,
    reduce_axis_aligned,
    singlet_expectation,
    xi_half,
)
from spinpair.cli import main
from support import draw_direction, four_labels

SQRT_HALF = math.sqrt(0.5)

TOL_STANDARD_FORM = 1e-15
TOL_AXIS_ALIGNED = 1e-12
TOL_ORTHONORMALITY = 1e-12
TOL_ORACLE = 1e-10
TOL_INVARIANCE = 1e-10
TOL_KERNEL = 1e-12
TOL_SINGLET = 1e-10
TOL_CG = 1e-15


def _report(number, name, residual, tol):
    ok = residual <= tol
    print(
        f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} "
        f"(max residual {residual:.3e}, tolerance {tol:.0e})"
    )
    return ok


def _eta_plus(d):
    return np.array([math.cos(d.theta / 2), -math.sin(d.theta / 2)], dtype=complex)


def _eta_minus(d):
    w = cmath.exp(-1j * d.phi)
    return np.array([math.sin(d.theta / 2) * w, math.cos(d.theta / 2) * w])


def test_criterion_1_standard_form_regression():
    worst = 0.0
    expected_tensors = {
        (1, 1): np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
        (1, 0): np.array([0.0, SQRT_HALF, SQRT_HALF, 0.0], dtype=complex),
        (1, -1): np.array([0.0, 0.0, 0.0, -1.0], dtype=complex),
        (0, 0): np.array([0.0, SQRT_HALF, -SQRT_HALF, 0.0], dtype=complex),
    }
    for label in four_labels(Z_AXIS):
        got = assemble_state(label, Z_AXIS, Z_AXIS).tensor
        worst = max(worst, float(np.max(np.abs(got - expected_tensors[(label.s, label.M)]))))
    rng = np.random.default_rng(101)
    for _ in range(200):
        c = draw_direction(rng)
        want = np.array(
            [
                [math.cos(c.theta), math.sin(c.theta) * cmath.exp(-1j * c.phi)],
                [math.sin(c.theta) * cmath.exp(1j * c.phi), -math.cos(c.theta)],
            ]
        )
        got = r_matrix(Z_AXIS, c, SPIN_PROJECTION_VALUES)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert _report(1, "standard form regression", worst, TOL_STANDARD_FORM)


def test_criterion_2_axis_aligned_regression():
    coeff_patterns = {
        (1, 1): np.array([1.0, 0.0, 0.0, 0.0]),
        (1, 0): np.array([0.0, SQRT_HALF, SQRT_HALF, 0.0]),
        (1, -1): np.array([0.0, 0.0, 0.0, -1.0]),
        (0, 0): np.array([0.0, SQRT_HALF, -SQRT_HALF, 0.0]),
    }
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        d, f = draw_direction(rng), draw_direction(rng)
        p1, m1 = _eta_plus(d), _eta_minus(d)
        p2, m2 = _eta_plus(f), _eta_minus(f)
        expected_tensors = {
            (1, 1): np.kron(p1, p2),
            (1, 0): SQRT_HALF * (np.kron(p1, m2) + np.kron(m1, p2)),
            (1, -1): -np.kron(m1, m2),
            (0, 0): SQRT_HALF * (np.kron(p1, m2) - np.kron(m1, p2)),
        }
        for label in four_labels(Z_AXIS):
            key = (label.s, label.M)
            asm = reduce_axis_aligned(label, d, f)
            coeffs = np.array([t.coefficient for t in asm.terms])
            worst = max(worst, float(np.max(np.abs(coeffs - coeff_patterns[key]))))
            worst = max(worst, float(np.max(np.abs(asm.tensor - expected_tensors[key]))))
    assert _report(2, "axis aligned regression", worst, TOL_AXIS_ALIGNED)


def test_criterion_3_state_orthonormality():
    rng = np.random.default_rng(103)
    worst = 0.0
    eye = np.eye(4)
    for _ in range(120):
        axis, d, f = (draw_direction(rng) for _ in range(3))
        four = [assemble_state(lb, d, f) for lb in four_labels(axis)]
        worst = max(worst, float(np.max(np.abs(gram_matrix(four) - eye))))
        direct = np.array(
            [[np.vdot(a.tensor, b.tensor) for b in four] for a in four]
        )
        worst = max(worst, float(np.max(np.abs(direct - eye))))
    assert _report(3, "state orthonormality", worst, TOL_ORTHONORMALITY)


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        s, M = ((1, 1), (1, 0), (1, -1), (0, 0))[rng.integers(0, 4)]
        label = CompoundLabel(s, M, draw_direction(rng))
        spec = MeasurementSpec(
            draw_direction(rng),
            draw_direction(rng),
            OutcomeValues(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            OutcomeValues(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        d, f = draw_direction(rng), draw_direction(rng)
        worst = max(
            worst,
            abs(expectation_matrix(label, spec, d, f) - expectation_oracle(label, spec)),
        )
    assert _report(4, "oracle equivalence", worst, TOL_ORACLE)


def test_criterion_5_basis_invariance():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        s, M = ((1, 1), (1, 0), (1, -1), (0, 0))[rng.integers(0, 4)]
        label = CompoundLabel(s, M, draw_direction(rng))
        spec = MeasurementSpec(
            draw_direction(rng),
            draw_direction(rng),
            OutcomeValues(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            OutcomeValues(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        ds = [draw_direction(rng) for _ in range(5)]
        fs = [draw_direction(rng) for _ in range(5)]
        values = [expectation_matrix(label, spec, d, f) for d in ds for f in fs]
        worst = max(worst, max(values) - min(values))
    assert _report(5, "basis invariance", worst, TOL_INVARIANCE)


def test_criterion_6_kernel_identities():
    rng = np.random.default_rng(106)
    worst_u = worst_h = worst_c = 0.0
    eye = np.eye(2)
    for _ in range(1000):
        a, b, c = (draw_direction(rng) for _ in range(3))
        x = xi_half(a, b)
        worst_u = max(worst_u, float(np.max(np.abs(x @ x.conj().T - eye))))
        worst_h = max(worst_h, float(np.max(np.abs(xi_half(b, a) - x.conj().T))))
        worst_c = max(
            worst_c, float(np.max(np.abs(xi_half(a, c) - x @ xi_half(b, c))))
        )
    worst = max(worst_u, worst_h, worst_c)
    assert _report(6, "kernel identities", worst, TOL_KERNEL)


def test_criterion_7_singlet_physics():
    worst = 0.0
    rng = np.random.default_rng(107)
    for theta in np.linspace(0.0, math.pi, 181):
        c1 = Z_AXIS
        c2 = Direction(float(theta), 0.0)
        gamma = angle_between(c1, c2)
        worst = max(worst, abs(singlet_expectation(c1, c2) + math.cos(gamma)))
        spec = MeasurementSpec(c1, c2, SPIN_PROJECTION_VALUES, SPIN_PROJECTION_VALUES)
        label = CompoundLabel(0, 0, Z_AXIS)
        d, f = draw_direction(rng), draw_direction(rng)
        worst = max(worst, abs(expectation_matrix(label, spec, d, f) + math.cos(gamma)))
    s = chsh_value(
        Direction(math.pi / 2, 0.0),
        Z_AXIS,
        Direction(math.pi / 4, 0.0),
        Direction(3 * math.pi / 4, 0.0),
    )
    worst = max(worst, abs(abs(s) - 2.0 * math.sqrt(2.0)))
    assert _report(7, "singlet physics", worst, TOL_SINGLET)


def test_criterion_8_coupling_table():
    from spinpair import MINUS, PLUS

    expected = [
        (1, 1, PLUS, PLUS, 1.0),
        (1, 1, PLUS, MINUS, 0.0),
        (1, 1, MINUS, PLUS, 0.0),
        (1, 1, MINUS, MINUS, 0.0),
        (1, 0, PLUS, PLUS, 0.0),
        (1, 0, PLUS, MINUS, SQRT_HALF),
        (1, 0, MINUS, PLUS, SQRT_HALF),
        (1, 0, MINUS, MINUS, 0.0),
        (1, -1, PLUS, PLUS, 0.0),
        (1, -1, PLUS, MINUS, 0.0),
        (1, -1, MINUS, PLUS, 0.0),
        (1, -1, MINUS, MINUS, 1.0),
        (0, 0, PLUS, PLUS, 0.0),
        (0, 0, PLUS, MINUS, SQRT_HALF),
        (0, 0, MINUS, PLUS, -SQRT_HALF),
        (0, 0, MINUS, MINUS, 0.0),
    ]
    worst = max(
        abs(clebsch_gordan_half_half(s, M, m1, m2) - want)
        for s, M, m1, m2, want in expected
    )
    assert _report(8, "coupling coefficient table", worst, TOL_CG)


def test_criterion_9_cli_contract(capsys, monkeypatch):
    ts = re.compile(r'"timestamp":"[^"]*"')

    def run(argv):
        code = main(argv)
        return code, ts.sub('"timestamp":""', capsys.readouterr().out)

    code_clean, out_first = run(["verify", "--seed", "42"])
    ok = code_clean == 0

    _, out_second = run(["verify", "--seed", "42"])
    ok = ok and out_first == out_second
    records = [json.loads(line) for line in out_first.splitlines() if line]
    ok = ok and all(r["passed"] for r in records)

    true_kernel = kernels_mod.xi_half

    def corrupted(initial, final):
        x = true_kernel(initial, final).copy()
        x[..., 1, 0] = -x[..., 1, 0]
        return x

    monkeypatch.setattr(kernels_mod, "xi_half", corrupted)
    code_corrupted, _ = run(["verify", "--seed", "42"])
    monkeypatch.undo()
    ok = ok and code_corrupted == 2

    print(
        f"ACCEPTANCE 9 cli contract: {'PASS' if ok else 'FAIL'} "
        f"(clean exit {code_clean}, corrupted exit {code_corrupted}, "
        f"deterministic {out_first == out_second})"
    )
    assert ok
