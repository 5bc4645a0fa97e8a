"""The package against a textbook construction that shares none of its code.

Spin-1/2 rotations are matrix exponentials, R(t, p) = expm(-i t n.sigma / 2)
with n = (-sin p, cos p, 0), which turn the z axis onto the direction (t, p).
A pair state (s, M) along the axis a is R(a) (x) R(a) applied to the
textbook z-basis state, and a measurement along c has the columns of R(c)
as its outcome states (plus, then minus).  Nothing here calls the package's
kernels; phases of states are compared up to one global factor.
"""

import math

import numpy as np
import pytest

from spinpair import CompoundLabel, Direction, MeasurementSpec, OutcomeValues, Z_AXIS
from spinpair import expectation, states

expm = pytest.importorskip("scipy.linalg").expm

TOL = 1e-12
CASES = 200

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SQRT_HALF = math.sqrt(0.5)

# |s, M> in the z basis, components |up up>, |up down>, |down up>, |down down>
Z_STATES = {
    (1, 1): np.array([1, 0, 0, 0], dtype=complex),
    (1, 0): np.array([0, SQRT_HALF, SQRT_HALF, 0], dtype=complex),
    (1, -1): np.array([0, 0, 0, 1], dtype=complex),
    (0, 0): np.array([0, SQRT_HALF, -SQRT_HALF, 0], dtype=complex),
}


def rotation(theta, phi):
    n_dot_sigma = -math.sin(phi) * SIGMA_X + math.cos(phi) * SIGMA_Y
    return expm(-0.5j * theta * n_dot_sigma)


def observable(theta, phi, plus, minus):
    r = rotation(theta, phi)
    return r @ np.diag([plus, minus]) @ r.conj().T


def unit(theta, phi):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _cases(rng):
    for _ in range(CASES):
        s, M = list(Z_STATES)[rng.integers(0, 4)]
        angles = rng.uniform([0, 0] * 5, [math.pi, 2 * math.pi] * 5).reshape(5, 2)
        values = rng.uniform(-2.0, 2.0, 4)
        yield (s, M), angles, values


def _pair_state(sm, a):
    r = rotation(*a)
    return np.kron(r, r) @ Z_STATES[sm]


def test_assembled_states_up_to_a_global_phase(rng):
    for sm, (a, *_), _ in _cases(rng):
        got = states.assemble_state(CompoundLabel(*sm, Direction(*a)), Z_AXIS, Z_AXIS)
        want = _pair_state(sm, a)
        k = np.argmax(np.abs(want))
        phase = got.tensor[k] / want[k]
        assert abs(abs(phase) - 1.0) < TOL
        assert np.max(np.abs(got.tensor - phase * want)) < TOL


def test_outcome_probabilities(rng):
    for sm, (a, c1, c2, *_), _ in _cases(rng):
        basis = np.kron(rotation(*c1), rotation(*c2))
        want = np.abs(basis.conj().T @ _pair_state(sm, a)) ** 2
        label = CompoundLabel(*sm, Direction(*a))
        got = expectation.outcome_probabilities(label, Direction(*c1), Direction(*c2))
        assert np.max(np.abs(got - want)) < TOL


def test_both_expectation_routes(rng):
    for sm, (a, c1, c2, d, f), values in _cases(rng):
        psi = _pair_state(sm, a)
        op = np.kron(observable(*c1, *values[:2]), observable(*c2, *values[2:]))
        want = np.vdot(psi, op @ psi).real
        label = CompoundLabel(*sm, Direction(*a))
        v1, v2 = OutcomeValues(*values[:2]), OutcomeValues(*values[2:])
        spec = MeasurementSpec(Direction(*c1), Direction(*c2), v1, v2)
        assert abs(expectation.expectation_oracle(label, spec) - want) < TOL
        got = expectation.expectation_matrix(label, spec, Direction(*d), Direction(*f))
        assert abs(got - want) < TOL


def test_singlet_correlation_is_minus_the_cosine(rng):
    for _, (a, c1, c2, *_), _ in _cases(rng):
        want = -float(unit(*c1) @ unit(*c2))
        got = expectation.singlet_expectation(Direction(*c1), Direction(*c2))
        assert abs(got - want) < TOL
        psi = _pair_state((0, 0), a)  # the singlet is the same along every axis
        op = np.kron(observable(*c1, 1.0, -1.0), observable(*c2, 1.0, -1.0))
        assert abs(np.vdot(psi, op @ psi).real - want) < TOL
