"""Earlier, plainer forms of the matrix-route functions, kept as references.

``assemble_state`` summed ``chi * np.kron(eta1, eta2)``, ``expectation_matrix``
sandwiched ``np.kron(r1, r2)``, ``r_matrix`` multiplied through
``np.diag(r)``, ``gram_matrix`` looped over ``np.vdot`` pairs,
``clebsch_gordan_half_half`` branched on the labels and ``amplitude_psi``
indexed NumPy arrays.  Where the rewrite keeps the arithmetic, results must
be equal; where it changes the order of the float operations, they must
agree within a tolerance fixed from float64 eps (about 2.2e-16) before
measuring.  The state tensor is summed on Python complex numbers, through
the 2x2 matrix of chi values, so it equals the same sum written out in
Python in that order, and it agrees with the ``np.kron`` sum within 4 eps:
NumPy's SIMD loops may fuse a multiply and an add, which rounds the last
bit differently on different CPUs.
"""

import math

import numpy as np
import pytest

from spinpair import (
    B_INDEX_ORDER,
    MINUS,
    PLUS,
    MeasurementSpec,
    OutcomeValues,
    Z_AXIS,
    amplitude_psi,
    assemble_state,
    chi,
    clebsch_gordan_half_half,
    expectation_matrix,
    gram_matrix,
    r_matrix,
    xi_half,
    zeta_spin1,
)
from support import draw_direction, four_labels

DRAWS = 200
SQRT_HALF = math.sqrt(0.5)


def _values(rng):
    return OutcomeValues(*rng.uniform(-2.0, 2.0, 2))


def _labels(rng):
    return four_labels(draw_direction(rng))


def reference_tensor(label, d, f):
    tensor = np.zeros(4, dtype=complex)
    eta1, eta2 = xi_half(Z_AXIS, d), xi_half(Z_AXIS, f)
    for m1, m2 in B_INDEX_ORDER:
        tensor += chi(label, m1, m2) * np.kron(eta1[m1], eta2[m2])
    return tensor


def python_reference_tensor(label, d, f):
    """``reference_tensor``'s sum as eta1^T C eta2 on Python complex numbers,
    C the 2x2 matrix of chi values: for each m1, u[m1][j] is the sum over m2
    of chi * eta2[m2][j]; then eta1[m1][i] * u[m1][j] goes onto 0j, PLUS
    first."""
    eta1, eta2 = xi_half(Z_AXIS, d).tolist(), xi_half(Z_AXIS, f).tolist()
    u = [
        [chi(label, m1, PLUS) * plus + chi(label, m1, MINUS) * minus for plus, minus in zip(*eta2)]
        for m1 in (PLUS, MINUS)
    ]
    tensor = [0j] * 4
    for m1 in (PLUS, MINUS):
        for i in range(2):
            for j in range(2):
                tensor[2 * i + j] += eta1[m1][i] * u[m1][j]
    return np.array(tensor)


def reference_r_matrix(intermediate, measured, values):
    x = xi_half(intermediate, measured)
    return x.conj() @ np.diag(np.array([values.r_plus, values.r_minus])) @ x.T


def reference_clebsch_gordan(s, M, m1, m2):
    if s not in (0, 1) or M not in range(-s, s + 1):
        raise ValueError(f"invalid total-spin labels s={s!r}, M={M!r}")
    if (0.5 - m1) + (0.5 - m2) != M:  # a label's projection is 0.5 - its index
        return 0.0
    if s == 1:
        return SQRT_HALF if M == 0 else 1.0
    return SQRT_HALF if m1 is PLUS else -SQRT_HALF


def test_tensor_is_the_kron_sum(rng):
    # exact against the Python sum; within 4 eps of the np.kron sum on these
    # unit-norm tensors, whatever SIMD loops NumPy runs
    for _ in range(DRAWS // 4):
        d, f = draw_direction(rng), draw_direction(rng)
        for label in _labels(rng):
            got = assemble_state(label, d, f).tensor
            assert np.array_equal(got, python_reference_tensor(label, d, f))
            assert np.max(np.abs(got - reference_tensor(label, d, f))) <= 4 * np.finfo(float).eps


def test_expectation_matrix_matches_the_kron_quadratic_form(rng):
    # Both sides sum 16 products of unit-scale factors; 1e-14 is about 45 eps.
    for _ in range(DRAWS // 4):
        c1, c2, d, f = (draw_direction(rng) for _ in range(4))
        spec = MeasurementSpec(c1, c2, _values(rng), _values(rng))
        scale = spec.values1.largest * spec.values2.largest
        for label in _labels(rng):
            psi = assemble_state(label, d, f).tensor
            r1 = reference_r_matrix(d, spec.c1, spec.values1)
            r2 = reference_r_matrix(f, spec.c2, spec.values2)
            want = np.vdot(psi, np.kron(r1, r2) @ psi).real
            assert abs(expectation_matrix(label, spec, d, f) - want) <= 1e-14 * scale


def test_r_matrix_matches_the_diag_sandwich(rng):
    for _ in range(DRAWS):
        d, c, values = draw_direction(rng), draw_direction(rng), _values(rng)
        tol = 1e-15 * max(abs(values.r_plus), abs(values.r_minus))
        got = r_matrix(d, c, values)
        assert np.max(np.abs(got - reference_r_matrix(d, c, values))) <= tol


def test_gram_matrix_matches_the_vdot_loop(rng):
    for _ in range(DRAWS // 4):
        d, f = draw_direction(rng), draw_direction(rng)
        states = [assemble_state(label, d, f) for label in _labels(rng)]
        want = np.array([[np.vdot(a.tensor, b.tensor) for b in states] for a in states])
        assert np.max(np.abs(gram_matrix(states) - want)) <= 1e-15


def test_clebsch_gordan_table_matches_the_branches_on_all_slots():
    for s, M in ((1, 1), (1, 0), (1, -1), (0, 0)):
        for m1, m2 in B_INDEX_ORDER:
            want = reference_clebsch_gordan(s, M, m1, m2)
            assert clebsch_gordan_half_half(s, M, m1, m2) == want


@pytest.mark.parametrize("s,M", [(2, 0), (-1, 0), (1, 2), (1, -2), (0, 1), (0, -1)])
def test_clebsch_gordan_table_rejects_what_the_branches_reject(s, M):
    for fn in (reference_clebsch_gordan, clebsch_gordan_half_half):
        with pytest.raises(ValueError, match="invalid total-spin labels"):
            fn(s, M, PLUS, MINUS)


def test_amplitude_matches_array_indexing(rng):
    # Same products in the same order, on Python numbers instead of NumPy
    # scalars: equal.
    for _ in range(DRAWS // 4):
        c1, c2 = draw_direction(rng), draw_direction(rng)
        x1, x2 = xi_half(Z_AXIS, c1), xi_half(Z_AXIS, c2)
        for label in _labels(rng):
            for u, v in B_INDEX_ORDER:
                want = 0j
                for m1, m2 in B_INDEX_ORDER:
                    want += chi(label, m1, m2) * x1[m1, u] * x2[m2, v]
                assert amplitude_psi(label, c1, c2, u, v) == want


def test_chi_matches_array_accumulation(rng):
    for _ in range(DRAWS // 4):
        for label in _labels(rng):
            if label.s == 0:
                continue
            for m1, m2 in B_INDEX_ORDER:
                want = 0j
                for zl, ml in zip(zeta_spin1(label.M, label.axis), (1, 0, -1)):
                    want += zl * reference_clebsch_gordan(1, ml, m1, m2)
                assert chi(label, m1, m2) == complex(want)
