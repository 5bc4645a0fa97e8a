import math

import numpy as np
import pytest
from hypothesis import given, settings

from spinpair import (
    Direction,
    MeasurementSpec,
    OutcomeValues,
    SPIN_PROJECTION_VALUES,
    Z_AXIS,
    operator_pair,
    r_matrix,
    xi_half,
)
from support import directions, draw_direction

OP_TOL = 1e-12


def _r_reference(inter, meas, values):
    # Element-by-element transcription of the closed forms; the production
    # code goes through the spectral construction instead, so agreement here
    # is a real cross-check.
    td, tm = inter.theta, meas.theta
    dp = inter.phi - meas.phi
    rp, rm = values.r_plus, values.r_minus
    stay = math.cos((td - tm) / 2) ** 2 - math.sin(td) * math.sin(tm) * math.sin(dp / 2) ** 2
    flip = math.sin((td - tm) / 2) ** 2 + math.sin(td) * math.sin(tm) * math.sin(dp / 2) ** 2
    cross = (
        -0.5 * math.sin(td) * math.cos(tm)
        + 0.5 * math.sin(tm) * math.cos(td) * math.cos(dp)
        + 0.5j * math.sin(tm) * math.sin(dp)
    )
    r11 = stay * rp + flip * rm
    r22 = flip * rp + stay * rm
    r12 = cross * (rp - rm)
    return np.array([[r11, r12], [np.conj(r12), r22]])


class TestOutcomeValues:
    def test_accepts_plain_reals(self):
        v = OutcomeValues(2, -1)
        assert (v.r_plus, v.r_minus) == (2.0, -1.0)

    @pytest.mark.parametrize("bad", [1 + 2j, "one", None])
    def test_rejects_non_real(self, bad):
        with pytest.raises(ValueError):
            OutcomeValues(bad, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            OutcomeValues(1.0, bad)

    @pytest.mark.parametrize(
        "bad",
        [np.array([1.0, -1.0], dtype=np.float32), np.array([1.0, math.inf])],
        ids=["float32", "inf"],
    )
    def test_rejects_a_batch_that_is_not_finite_float64(self, bad):
        with pytest.raises(ValueError, match="finite float64"):
            OutcomeValues(np.array([1.0, 2.0]), bad)


class TestRMatrix:
    def test_equal_values_give_a_multiple_of_identity(self, rng):
        r = r_matrix(draw_direction(rng), draw_direction(rng), OutcomeValues(1.0, 1.0))
        assert np.max(np.abs(r - np.eye(2))) < OP_TOL

    def test_measuring_along_the_intermediate_is_diagonal(self, rng):
        d = draw_direction(rng)
        r = r_matrix(d, d, OutcomeValues(0.7, -0.2))
        assert np.max(np.abs(r - np.diag([0.7, -0.2]))) < OP_TOL

    def test_standard_limit_closed_form(self, rng):
        for _ in range(50):
            c = draw_direction(rng)
            want = np.array(
                [
                    [math.cos(c.theta), math.sin(c.theta) * np.exp(-1j * c.phi)],
                    [math.sin(c.theta) * np.exp(1j * c.phi), -math.cos(c.theta)],
                ]
            )
            got = r_matrix(Z_AXIS, c, SPIN_PROJECTION_VALUES)
            assert np.max(np.abs(got - want)) < 1e-15

    def test_diagonal_closed_form_for_projection_values(self, rng):
        for _ in range(50):
            d, c = draw_direction(rng), draw_direction(rng)
            r = r_matrix(d, c, SPIN_PROJECTION_VALUES)
            want = math.cos(d.theta - c.theta) - 2.0 * math.sin(d.theta) * math.sin(
                c.theta
            ) * math.sin((d.phi - c.phi) / 2) ** 2
            assert abs(r[0, 0].real - want) < OP_TOL
            assert abs(r[1, 1].real + want) < OP_TOL

    def test_matches_transcribed_elements(self, rng):
        for _ in range(200):
            d, c = draw_direction(rng), draw_direction(rng)
            values = OutcomeValues(rng.uniform(-3, 3), rng.uniform(-3, 3))
            got = r_matrix(d, c, values)
            assert np.max(np.abs(got - _r_reference(d, c, values))) < OP_TOL

    @given(directions, directions)
    @settings(max_examples=150)
    def test_hermitian(self, d, c):
        r = r_matrix(d, c, OutcomeValues(1.3, -0.4))
        assert np.max(np.abs(r - r.conj().T)) < OP_TOL

    @given(directions, directions)
    @settings(max_examples=150)
    def test_eigenvalues_are_the_outcome_values(self, d, c):
        values = OutcomeValues(1.6, -0.9)
        r = r_matrix(d, c, values)
        eig = np.sort(np.linalg.eigvalsh(r))
        assert np.max(np.abs(eig - np.sort(np.array([values.r_plus, values.r_minus])))) < 1e-10

    def test_rebasing_conjugates_by_the_direction_change(self, rng):
        for _ in range(100):
            d1, d2, c = (draw_direction(rng) for _ in range(3))
            values = OutcomeValues(rng.uniform(-3, 3), rng.uniform(-3, 3))
            v = xi_half(d2, d1).conj()
            moved = v @ r_matrix(d1, c, values) @ v.conj().T
            assert np.max(np.abs(r_matrix(d2, c, values) - moved)) < OP_TOL


class TestSpinProjection:
    def test_z_basis_form(self, rng):
        # ((cos t, sin t e^{-ip}), (sin t e^{ip}, -cos t)) for a measurement along (t, p)
        for _ in range(50):
            c = draw_direction(rng)
            t, p = c.theta, c.phi
            want = np.array(
                [
                    [math.cos(t), math.sin(t) * np.exp(-1j * p)],
                    [math.sin(t) * np.exp(1j * p), -math.cos(t)],
                ]
            )
            got = r_matrix(Z_AXIS, c, SPIN_PROJECTION_VALUES)
            assert np.max(np.abs(got - want)) < OP_TOL

    def test_traceless_with_unit_determinant_magnitude(self, rng):
        for _ in range(50):
            d, c = draw_direction(rng), draw_direction(rng)
            r = r_matrix(d, c, SPIN_PROJECTION_VALUES)
            assert abs(np.trace(r)) < OP_TOL
            assert abs(np.linalg.det(r) + 1.0) < OP_TOL

    def test_off_diagonals_are_conjugate(self, rng):
        r = r_matrix(draw_direction(rng), draw_direction(rng), SPIN_PROJECTION_VALUES)
        assert r[1, 0] == pytest.approx(np.conj(r[0, 1]), abs=1e-15)


class TestOperatorPair:
    def test_each_block_uses_its_own_intermediate(self, rng):
        d, f = draw_direction(rng), draw_direction(rng)
        spec = MeasurementSpec(
            draw_direction(rng),
            draw_direction(rng),
            OutcomeValues(1.0, -1.0),
            OutcomeValues(0.5, -0.5),
        )
        r1, r2 = operator_pair(spec, d, f)
        assert np.array_equal(r1, r_matrix(d, spec.c1, spec.values1))
        assert np.array_equal(r2, r_matrix(f, spec.c2, spec.values2))

    def test_second_block_follows_the_same_closed_form(self, rng):
        # one parameterized construction serves both subsystems
        f, c2 = draw_direction(rng), draw_direction(rng)
        values = OutcomeValues(rng.uniform(-2, 2), rng.uniform(-2, 2))
        spec = MeasurementSpec(Z_AXIS, c2, OutcomeValues(1.0, -1.0), values)
        _, r2 = operator_pair(spec, Z_AXIS, f)
        assert np.max(np.abs(r2 - _r_reference(f, c2, values))) < OP_TOL
